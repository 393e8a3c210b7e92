"""Encoder, propagation, and loss behavior of the recommender model."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import ref_ops
import toporec.autograd as ag
from oracles import (
    bpr_oracle,
    lightgcn_oracle,
    na_oracle,
    propagation_oracle,
)
from toporec.autograd import Tensor, finite_diff_check
from toporec.data import InteractionTable, ROLE_TRAIN, ROLE_VAL, TripleBatch
from toporec.itemgraph import SparseGraph
from toporec.model import (
    ModelConfig,
    MultimodalRecommender,
    bpr_loss,
    build_na_batch,
    build_propagation_matrix,
    eligible_anchor_items,
    joint_loss,
    na_batch_from_items,
    neighborhood_alignment_loss,
    positive_subgraph,
    sample_na_batch,
    slice_na_batch,
)


def _table(edges, num_users=None, num_items=None):
    num_users = num_users or max(u for u, _, _ in edges) + 1
    num_items = num_items or max(i for _, i, _ in edges) + 1
    pairs = np.array([[u, i] for u, i, _ in edges], dtype=np.int64)
    roles = np.array([r for _, _, r in edges], dtype=np.int8)
    tokens_u = [f"u{k}" for k in range(num_users)]
    tokens_i = [f"i{k}" for k in range(num_items)]
    return InteractionTable(num_users, num_items, tokens_u, tokens_i, pairs, roles)


def _model(**kw):
    defaults = dict(
        num_users=4,
        num_items=6,
        visual_dim=5,
        textual_dim=3,
        embed_dim=4,
        hidden_dim=8,
        depth=2,
        gcn_layers=2,
        dtype=np.float64,
    )
    defaults.update(kw)
    cfg = ModelConfig(**defaults)
    return MultimodalRecommender(cfg, np.random.default_rng(7)), cfg


def test_modality_dims_reflect_config():
    cfg = ModelConfig(num_users=2, num_items=2, visual_dim=5, textual_dim=0)
    assert cfg.modality_dims() == {"visual": 5}
    cfg = ModelConfig(num_users=2, num_items=2, visual_dim=5, textual_dim=3)
    assert cfg.modality_dims() == {"visual": 5, "textual": 3}


def test_model_rejects_bad_config():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="modality"):
        MultimodalRecommender(ModelConfig(num_users=2, num_items=2), rng)
    with pytest.raises(ValueError, match="depth"):
        MultimodalRecommender(
            ModelConfig(num_users=2, num_items=2, visual_dim=3, depth=0), rng
        )
    with pytest.raises(ValueError, match="layer count"):
        MultimodalRecommender(
            ModelConfig(num_users=2, num_items=2, visual_dim=3, gcn_layers=-1), rng
        )


def test_parameter_shapes():
    model, cfg = _model()
    p = model.params
    assert p["user_embed"].values.shape == (4, 4)
    assert p["item_embed"].values.shape == (6, 4)
    assert p["visual_mlp0_w"].values.shape == (5, 8)
    assert p["visual_mlp1_w"].values.shape == (8, 4)
    assert p["textual_mlp0_w"].values.shape == (3, 8)
    assert p["fuser_w"].values.shape == (8, 4)
    assert p["visual_mlp0_gain"].values.shape == (1, 8)


def test_encode_items_full_catalog_shapes():
    rng = np.random.default_rng(1)
    cfg = ModelConfig(
        num_users=10,
        num_items=7050,
        visual_dim=4096,
        textual_dim=384,
        embed_dim=64,
        hidden_dim=512,
        depth=2,
    )
    model = MultimodalRecommender(cfg, rng)
    fv = rng.standard_normal((7050, 4096)).astype(np.float32)
    ft = rng.standard_normal((7050, 384)).astype(np.float32)
    out, branches = model.encode_items({"visual": fv, "textual": ft})
    assert out.values.shape == (7050, 64)
    assert {tag: b.values.shape for tag, b in branches.items()} == {
        "visual": (7050, 64), "textual": (7050, 64)}
    assert np.isfinite(out.values).all()


def test_encode_items_zero_fuser_gives_zeros():
    model, _ = _model()
    model.params["fuser_w"].values[:] = 0.0
    model.params["fuser_b"].values[:] = 0.0
    rng = np.random.default_rng(2)
    feats = {"visual": rng.standard_normal((6, 5)), "textual": rng.standard_normal((6, 3))}
    out, _ = model.encode_items(feats)
    assert np.all(out.values == 0.0)


def test_encode_items_errors():
    model, _ = _model()
    rng = np.random.default_rng(3)
    good = {"visual": rng.standard_normal((6, 5)), "textual": rng.standard_normal((6, 3))}
    with pytest.raises(ValueError, match="textual features"):
        model.encode_items({"visual": good["visual"]})
    with pytest.raises(ValueError, match="visual features have dim 4"):
        model.encode_items({"visual": np.zeros((6, 4)), "textual": good["textual"]})


def test_single_modality_path():
    model, _ = _model(visual_dim=0)
    assert model.params["fuser_w"].values.shape == (4, 4)
    rng = np.random.default_rng(4)
    out, branches = model.encode_items({"textual": rng.standard_normal((6, 3))})
    assert out.values.shape == (6, 4)
    assert list(branches) == ["textual"]
    with pytest.raises(KeyError):
        model.params["visual_mlp0_w"]


def test_encode_dropout_only_in_train_mode():
    model, _ = _model(dropout=0.5)
    rng = np.random.default_rng(5)
    feats = {"visual": rng.standard_normal((6, 5)), "textual": rng.standard_normal((6, 3))}
    # Training is the pass given an rng; with none, dropout is the identity.
    a, _ = model.encode_items(feats)
    b, _ = model.encode_items(feats)
    assert np.array_equal(a.values, b.values)
    s_ui, s_iu = build_propagation_matrix(_table([(0, 0, 0)], num_users=4, num_items=6))
    assert np.array_equal(a.values, model.forward(feats, s_ui, s_iu)[2].values)
    c, _ = model.encode_items(feats, np.random.default_rng(6))
    d, _ = model.encode_items(feats, np.random.default_rng(9))
    assert not np.array_equal(c.values, d.values)


def test_aggregate_zero_layers_is_identity():
    model, _ = _model(gcn_layers=0)
    table = _table([(0, 0, ROLE_TRAIN), (1, 1, ROLE_TRAIN)], num_users=4, num_items=6)
    s_ui, s_iu = build_propagation_matrix(table, dtype=np.float64)
    h_items = Tensor(np.random.default_rng(8).standard_normal((6, 4)))
    z_u, z_i = model.aggregate(h_items, s_ui, s_iu)
    assert np.array_equal(z_u.values, model.params["user_embed"].values)
    assert np.allclose(
        z_i.values, model.params["item_embed"].values + h_items.values, atol=0
    )


def test_aggregate_single_edge_hand_computed():
    # one train edge (user 0, item 0) with unit degrees: the propagation
    # entry is exactly 1, so one layer swaps the two embeddings
    model, _ = _model(num_users=1, num_items=1, gcn_layers=1)
    table = _table([(0, 0, ROLE_TRAIN)], num_users=1, num_items=1)
    s_ui, s_iu = build_propagation_matrix(table, dtype=np.float64)
    h_items = Tensor(np.zeros((1, 4)))
    z_u, z_i = model.aggregate(h_items, s_ui, s_iu)
    e_u = model.params["user_embed"].values
    e_i = model.params["item_embed"].values
    assert np.allclose(z_u.values, e_u + e_i, atol=1e-15)
    assert np.allclose(z_i.values, e_i + e_u, atol=1e-15)


def test_aggregate_matches_dense_oracle():
    rng = np.random.default_rng(9)
    for trial in range(50):
        num_users = int(rng.integers(2, 11))
        num_items = int(rng.integers(2, 11))
        layers = int(rng.integers(0, 4))
        edges = []
        for u in range(num_users):
            width = int(rng.integers(1, min(3, num_items) + 1))
            for i in rng.choice(num_items, size=width, replace=False):
                edges.append((u, int(i), ROLE_TRAIN))
        table = _table(edges, num_users, num_items)
        model, _ = _model(
            num_users=num_users, num_items=num_items, gcn_layers=layers
        )
        s_ui, s_iu = build_propagation_matrix(table, dtype=np.float64)
        h_items = Tensor(rng.standard_normal((num_items, 4)))
        z_u, z_i = model.aggregate(h_items, s_ui, s_iu)

        dense = propagation_oracle([(u, i) for u, i, _ in edges], num_users, num_items)
        want_u, want_i = lightgcn_oracle(
            dense,
            model.params["user_embed"].values,
            model.params["item_embed"].values + h_items.values,
            layers,
        )
        assert np.max(np.abs(z_u.values - want_u)) < 1e-10
        assert np.max(np.abs(z_i.values - want_i)) < 1e-10


def test_propagation_matrix_values_and_zero_degree():
    edges = [
        (0, 0, ROLE_TRAIN),
        (0, 1, ROLE_TRAIN),
        (1, 0, ROLE_TRAIN),
        (2, 2, ROLE_VAL),  # val edge must not contribute
    ]
    table = _table(edges, num_users=3, num_items=3)
    s_ui, s_iu = build_propagation_matrix(table, dtype=np.float64)
    dense = s_ui.toarray()
    assert abs(dense[0, 0] - 1.0 / math.sqrt(2 * 2)) < 1e-15
    assert abs(dense[0, 1] - 1.0 / math.sqrt(2 * 1)) < 1e-15
    assert abs(dense[1, 0] - 1.0 / math.sqrt(1 * 2)) < 1e-15
    assert dense[2].sum() == 0.0  # user 2 has no train edge
    assert dense[:, 2].sum() == 0.0
    assert np.array_equal(s_iu.toarray(), dense.T)
    oracle = propagation_oracle([(0, 0), (0, 1), (1, 0)], 3, 3)
    assert np.max(np.abs(dense - oracle)) < 1e-15


def _gap_setup(gaps):
    # user k scores gap g against item pair (2k, 2k+1)
    z_users = np.zeros((len(gaps), 2))
    z_items = np.zeros((2 * len(gaps), 2))
    for k, g in enumerate(gaps):
        z_users[k] = [1.0, 0.0]
        z_items[2 * k] = [float(g), 0.0]
        z_items[2 * k + 1] = [0.0, 0.0]
    batch = TripleBatch(
        users=np.arange(len(gaps), dtype=np.int64),
        pos_items=np.arange(0, 2 * len(gaps), 2, dtype=np.int64),
        neg_items=np.arange(1, 2 * len(gaps), 2, dtype=np.int64),
    )
    return Tensor(z_users), Tensor(z_items), batch


def test_bpr_closed_forms():
    z_u, z_i, batch = _gap_setup([0.0])
    assert abs(bpr_loss(z_u, z_i, batch).item() - math.log(2.0)) < 1e-12
    z_u, z_i, batch = _gap_setup([1.0])
    want = math.log(1.0 + math.exp(-1.0))
    assert abs(bpr_loss(z_u, z_i, batch).item() - want) < 1e-12


def test_bpr_matches_oracle_and_monotone():
    rng = np.random.default_rng(10)
    gaps = rng.standard_normal(20).tolist()
    z_u, z_i, batch = _gap_setup(gaps)
    assert abs(bpr_loss(z_u, z_i, batch).item() - bpr_oracle(gaps)) < 1e-12

    values = []
    for g in (-1.0, 0.0, 0.5, 2.0, 5.0):
        z_u, z_i, batch = _gap_setup([g])
        values.append(bpr_loss(z_u, z_i, batch).item())
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bpr_rejects_empty_batch():
    z = Tensor(np.zeros((2, 2)))
    empty = TripleBatch(
        users=np.array([], dtype=np.int64),
        pos_items=np.array([], dtype=np.int64),
        neg_items=np.array([], dtype=np.int64),
    )
    with pytest.raises(ValueError, match="empty"):
        bpr_loss(z, z, empty)


def test_alignment_loss_trivial_zeros():
    # fully connected anchors over equal similarities: numerator and
    # denominator coincide, so the loss is exactly 0
    reps = Tensor(np.tile([[1.0, 2.0]], (4, 1)))
    weights = 1.0 - np.eye(4)
    loss = neighborhood_alignment_loss(reps, np.arange(4), weights)
    assert loss.item() == 0.0

    # two items pointing at each other: the only off-diagonal term is
    # the neighbor itself, whatever the similarity
    reps = Tensor(np.array([[1.0, 0.0], [0.3, 0.8]]))
    weights = np.array([[0.0, 1.0], [1.0, 0.0]])
    loss = neighborhood_alignment_loss(reps, np.array([0, 1]), weights)
    assert abs(loss.item()) < 1e-15


def test_alignment_loss_hand_computed():
    # unit-diagonal Gram matrix realized through its Cholesky factor, so
    # cosine similarities equal the Gram entries exactly
    gram = np.array([[1.0, 0.9, 0.1], [0.9, 1.0, 0.1], [0.1, 0.1, 1.0]])
    reps = Tensor(np.linalg.cholesky(gram))
    weights = np.array([[0.0, 1.0, 0.0]])
    loss = neighborhood_alignment_loss(reps, np.array([0]), weights)
    want = -math.log(math.exp(0.9) / (math.exp(0.9) + math.exp(0.1)))
    assert abs(loss.item() - want) < 1e-10


def test_alignment_loss_matches_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        batch = int(rng.integers(2, 9))
        n_anchor = int(rng.integers(1, batch + 1))
        reps = rng.standard_normal((batch, 5))
        anchor_rows = rng.choice(batch, size=n_anchor, replace=False)
        weights = rng.choice([0.0, 0.5, 1.0], size=(n_anchor, batch))
        # keep at least one anchor supervised so no warning fires
        weights[0, (anchor_rows[0] + 1) % batch] = 1.0
        temperature = float(rng.uniform(0.2, 2.0))
        want = na_oracle(reps, anchor_rows, weights, temperature)
        got = neighborhood_alignment_loss(
            Tensor(reps), anchor_rows, weights, temperature
        )
        assert abs(got.item() - want) < 1e-10


def test_alignment_loss_scale_invariance():
    rng = np.random.default_rng(12)
    reps = rng.standard_normal((5, 4))
    anchor_rows = np.array([0, 2])
    weights = rng.choice([0.0, 1.0], size=(2, 5))
    weights[0, 1] = 1.0  # ensure both anchors keep a neighbor
    weights[1, 3] = 1.0
    base = neighborhood_alignment_loss(Tensor(reps), anchor_rows, weights).item()
    for c in (3.7, 0.01):
        scaled = neighborhood_alignment_loss(
            Tensor(reps * c), anchor_rows, weights
        ).item()
        assert abs(scaled - base) < 1e-8


def test_alignment_loss_drops_anchors_without_neighbors():
    rng = np.random.default_rng(13)
    reps = rng.standard_normal((4, 3))
    # anchor 1 has no in-batch weight: its term must vanish from the mean
    weights = np.array([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    full = neighborhood_alignment_loss(Tensor(reps), np.array([0, 1]), weights)
    solo = neighborhood_alignment_loss(Tensor(reps), np.array([0]), weights[:1])
    assert abs(full.item() - solo.item()) < 1e-12

    with pytest.warns(UserWarning, match="no anchor"):
        zero = neighborhood_alignment_loss(
            Tensor(reps), np.array([0, 1]), np.zeros((2, 4))
        )
    assert zero.item() == 0.0


def test_alignment_loss_input_errors():
    reps = Tensor(np.ones((3, 2)))
    with pytest.raises(ValueError, match="temperature"):
        neighborhood_alignment_loss(reps, np.array([0]), np.ones((1, 3)), 0.0)
    with pytest.raises(ValueError, match="at least 2"):
        neighborhood_alignment_loss(
            Tensor(np.ones((1, 2))), np.array([0]), np.ones((1, 1))
        )
    with pytest.raises(ValueError, match="shape"):
        neighborhood_alignment_loss(reps, np.array([0]), np.ones((2, 3)))
    with pytest.raises(ValueError, match="non-negative"):
        neighborhood_alignment_loss(reps, np.array([0]), -np.ones((1, 3)))
    # A NaN does not hide a negative weight elsewhere in the slice.
    with pytest.raises(ValueError, match="non-negative"):
        neighborhood_alignment_loss(reps, np.array([0]), np.array([[np.nan, -1.0, 1.0]]))


def test_alignment_loss_rejects_repeated_anchor_rows():
    # The backward adds each anchor's gradient into its row once, so a
    # row listed twice would lose one of its two contributions.
    reps = Tensor(np.random.default_rng(15).standard_normal((3, 2)))
    with pytest.raises(ValueError, match="anchor rows must be distinct"):
        neighborhood_alignment_loss(reps, np.array([1, 0, 1]), np.ones((3, 3)))


def test_alignment_loss_low_temperature_is_finite():
    # pair each anchor with an exact duplicate so its neighbor sits at
    # the similarity maximum and survives the sharp softmax
    rng = np.random.default_rng(14)
    half = rng.standard_normal((3, 4))
    reps = np.vstack([half, half])
    weights = np.zeros((3, 6))
    weights[np.arange(3), np.arange(3) + 3] = 1.0
    loss = neighborhood_alignment_loss(
        Tensor(reps), np.array([0, 1, 2]), weights, temperature=1e-3
    )
    assert np.isfinite(loss.item())
    assert loss.item() >= 0.0


def test_alignment_loss_gradient():
    rng = np.random.default_rng(15)
    values = rng.standard_normal((4, 3))
    anchor_rows = np.array([0, 2])
    weights = np.array(
        [[0.0, 1.0, 0.0, 0.5], [1.0, 0.0, 0.0, 1.0]], dtype=np.float64
    )

    reps = Tensor(values, requires_grad=True)
    err = finite_diff_check(
        lambda: neighborhood_alignment_loss(reps, anchor_rows, weights, 0.7),
        [reps],
        h=1e-6,
    )
    assert err < 1e-6


def _composed_alignment_loss(reps, anchor_rows, weights, temperature):
    """The alignment loss composed from elementary autograd ops."""
    normed = ref_ops.normalize_rows(reps)
    sims = ag.matmul(ag.gather_rows(normed, anchor_rows), ref_ops.transpose(normed))
    logits = ag.mul_const(sims, 1.0 / temperature)
    shift = logits.values.max(axis=1, keepdims=True)
    expd = ref_ops.exp(ref_ops.add_const(logits, -shift))
    self_mask = np.ones_like(weights)
    self_mask[np.arange(len(anchor_rows)), anchor_rows] = 0.0
    numer = ag.tsum(ag.mul_const(expd, weights * self_mask), axis=1)
    denom = ag.tsum(ag.mul_const(expd, self_mask), axis=1)
    included = np.flatnonzero(numer.values[:, 0] > 0)
    numer = ag.gather_rows(numer, included)
    denom = ag.gather_rows(denom, included)
    scores = ag.sub(ref_ops.log(numer), ref_ops.log(denom))
    return ag.mul_const(ag.tsum(scores), -1.0 / len(included))


def test_alignment_loss_matches_composed_ops():
    rng = np.random.default_rng(16)
    for _ in range(20):
        batch = int(rng.integers(2, 40))
        n_anchor = int(rng.integers(1, batch + 1))
        values = rng.standard_normal((batch, 6)) * rng.uniform(0.1, 10.0)
        values[rng.random(batch) < 0.1] = 0.0  # zero rows normalize to zero
        anchor_rows = rng.choice(batch, size=n_anchor, replace=False)
        # self weights, anchors without neighbours and zero weights included
        weights = rng.choice([0.0, 0.0, 0.5, 1.0], size=(n_anchor, batch))
        weights[0, (anchor_rows[0] + 1) % batch] = 1.0
        temperature = float(rng.choice([0.05, 0.2, 1.0, 3.0]))
        reps = Tensor(values, requires_grad=True)
        want = _composed_alignment_loss(reps, anchor_rows, weights, temperature)
        want.backward()
        want_grad, reps.grad = reps.grad, None
        # Dense, CSR, and a COO that stores each weight as two halves and
        # every zero explicitly; the loss sums the halves into one entry.
        r, c = np.nonzero(weights)
        zr, zc = np.nonzero(weights == 0)
        split = sp.coo_matrix(
            (np.concatenate([weights[r, c] / 2, weights[r, c] / 2, np.zeros(len(zr))]),
             (np.concatenate([r, r, zr]), np.concatenate([c, c, zc]))),
            shape=weights.shape,
        )
        for given in (weights, sp.csr_matrix(weights), split):
            got = neighborhood_alignment_loss(reps, anchor_rows, given, temperature)
            got.backward()
            assert abs(got.item() - want.item()) <= 1e-10 * abs(want.item())
            assert np.abs(reps.grad - want_grad).max() <= 1e-10 * np.abs(want_grad).max()
            reps.grad = None


def test_alignment_batch_loss_and_backward_hold_one_logits_array():
    # Baby's shape: 2,048 anchors on 7,050 items with 10 neighbours each,
    # 64-d float32. The (anchors, batch) exponentiated logits are the one
    # array of that size the loss needs; it takes the gradient in place.
    rng = np.random.default_rng(31)
    n, degree = 7050, 10
    # Multiples 1..degree of a step below n / degree: distinct non-self columns.
    steps = rng.integers(1, n // degree, size=(n, 1)) * np.arange(1, degree + 1)
    cols = np.sort((np.arange(n)[:, None] + steps) % n, axis=1)
    positive = sp.csr_matrix(
        (rng.uniform(0.5, 1.0, n * degree).astype(np.float32), cols.ravel(),
         np.arange(0, n * degree + 1, degree)),
        shape=(n, n),
    )
    items = Tensor(rng.standard_normal((n, 64)).astype(np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        batch_ids, anchor_rows, weights = sample_na_batch(positive, rng, 2048)
        loss = neighborhood_alignment_loss(ag.gather_rows(items, batch_ids), anchor_rows, weights)
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert items.grad is not None and 3000 < len(batch_ids) < 3600
    logits = len(anchor_rows) * len(batch_ids) * np.dtype(np.float32).itemsize
    assert peak < 2 * logits, f"peak {peak} bytes against {logits} of logits"


def test_joint_loss_na_weight_zero_detaches_alignment():
    probe = Tensor(np.full((2, 2), 0.5), requires_grad=True)
    bpr = Tensor(np.array([[1.0]]), requires_grad=True)
    na = ag.mul_const(ag.tsum(probe), 0.25)
    total = joint_loss(bpr, na, 0.0)
    total.backward()
    assert probe.grad is None
    assert bpr.grad is not None

    probe2 = Tensor(np.full((2, 2), 0.5), requires_grad=True)
    total = joint_loss(Tensor(np.array([[1.0]])), ag.mul_const(ag.tsum(probe2), 0.25), 0.5)
    total.backward()
    assert probe2.grad is not None
    assert np.allclose(probe2.grad, 0.5 * 0.25)


def test_joint_loss_value_composition():
    bpr = Tensor(np.array([[0.5]]))
    na = Tensor(np.array([[0.5]]))
    assert joint_loss(bpr, na, 1.0).item() == 1.0
    assert joint_loss(bpr, na, 2.0).item() == 1.5
    assert joint_loss(bpr, None, 0.0).item() == 0.5


def _float32_step(monkeypatch):
    """One float32 training step with dropout: its model, config and loss,
    the (args, output) of every call of the two fused ops, and the loss's
    tape, each op node once."""
    fused = {"encoder_layer": [], "weighted_infonce": []}
    for name, calls in fused.items():
        def record(*args, _op=getattr(ag, name), _calls=calls):
            out = _op(*args)
            _calls.append((args, out))
            return out

        monkeypatch.setattr(ag, name, record)

    model, cfg = _model(dtype=np.float32, dropout=0.25)
    table = _table([(0, 0, 0), (0, 2, 0), (1, 1, 0), (2, 3, 0), (3, 4, 0), (3, 5, 0)])
    s_ui, s_iu = build_propagation_matrix(table, np.float32)
    rng = np.random.default_rng(3)
    features = {
        "visual": rng.standard_normal((6, 5)).astype(np.float32),
        "textual": rng.standard_normal((6, 3)).astype(np.float32),
    }
    h_items, _ = model.encode_items(features, rng)
    z_u, z_i = model.aggregate(h_items, s_ui, s_iu)
    batch = TripleBatch(np.array([0, 1, 3, 3]), np.array([0, 1, 4, 5]), np.array([1, 0, 0, 2]))
    # Anchor row 2 has no in-batch neighbour, so the NA loss also drops one.
    weights = np.array([[0, 1, 0, 0], [0.5, 0, 0, 0], [0, 0, 0, 0]], dtype=np.float32)
    na = neighborhood_alignment_loss(
        ag.gather_rows(h_items, [0, 2, 3, 5]), [0, 1, 2], weights, temperature=0.2
    )
    loss = joint_loss(bpr_loss(z_u, z_i, batch), na, 0.5)

    tape, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in tape:
            tape[id(node)] = node
            stack.extend(parent for parent in node._parents if parent._parents)
    assert len(fused["encoder_layer"]) == 2 * cfg.depth
    assert [out for _, out in fused["weighted_infonce"]] == [na]
    for _, out in fused["encoder_layer"] + fused["weighted_infonce"]:
        assert id(out) in tape
    return model, cfg, loss, fused, list(tape.values())


def test_float32_step_stays_float32(monkeypatch):
    model, _, loss, _, tape = _float32_step(monkeypatch)
    # Every gradient that flows along the tape is float32 as well.
    grad_dtypes = set()

    def checked(node, back):
        def wrapper(g):
            grads = back(g)
            grad_dtypes.update(
                gp.dtype for p, gp in zip(node._parents, grads) if p.requires_grad
            )
            return grads

        return wrapper

    for node in tape:
        node._back = checked(node, node._back)
    loss.backward()
    assert {t.values.dtype for t in tape} == {np.dtype(np.float32)}
    assert grad_dtypes == {np.dtype(np.float32)}
    assert {p.grad.dtype for _, p in model.params.items()} == {np.dtype(np.float32)}


def test_encoder_layer_backward_runs_once_per_sweep(monkeypatch):
    _, cfg, loss, fused, _ = _float32_step(monkeypatch)
    returned = {}

    def counted(out, back):
        def wrapper(g):
            grads = back(g)
            returned.setdefault(id(out), []).append(grads)
            return grads

        return wrapper

    for _, out in fused["encoder_layer"]:
        out._back = counted(out, out._back)
    loss.backward()
    assert [len(returned[id(out)]) for _, out in fused["encoder_layer"]] == [1] * (2 * cfg.depth)
    # The first layer of each modality reads the constant features: no
    # gradient, and no product computed for it.
    for args, out in fused["encoder_layer"][:: cfg.depth]:
        features = args[0]
        assert not features.requires_grad and features.grad is None
        [(d_x, *d_params)] = returned[id(out)]
        assert d_x is None
        assert all(d.dtype == np.float32 for d in d_params)


@pytest.mark.parametrize("gcn_layers", [0, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_embeddings_record_no_graph_and_match_a_recording_forward(dtype, gcn_layers):
    model, _ = _model(dtype=dtype, gcn_layers=gcn_layers)
    rng = np.random.default_rng(61)
    feats = {"visual": rng.standard_normal((6, 5)), "textual": rng.standard_normal((6, 3))}
    table = _table([(0, 0, ROLE_TRAIN), (1, 2, ROLE_TRAIN), (3, 5, ROLE_TRAIN)],
                   num_users=4, num_items=6)
    s_ui, s_iu = build_propagation_matrix(table, dtype=dtype)
    recorded = model.forward(feats, s_ui, s_iu)
    assert all(t.requires_grad for t in recorded)
    z_u, z_i = model.embeddings(feats, s_ui, s_iu)
    assert z_u.dtype == z_i.dtype == dtype
    assert [z_u.tobytes(), z_i.tobytes()] == [t.values.tobytes() for t in recorded[:2]]
    # With no LightGCN layer the user array is the live parameter, which
    # fit copies before the optimizer moves it.
    assert (z_u is model.params["user_embed"].values) == (gcn_layers == 0)
    with ag.no_grad():
        untaped = model.forward(feats, s_ui, s_iu)
    assert all(t._parents == () for t in untaped)
    assert untaped[2].values.tobytes() == recorded[2].values.tobytes()


def test_eligible_anchor_items():
    g = SparseGraph.from_rows(
        4, [([1], [1.0]), ([], []), ([3], [0.0]), ([0, 1], [0.5, 0.0])]
    )
    assert eligible_anchor_items(g).tolist() == [0, 3]


def test_positive_subgraph_keeps_its_input():
    g = SparseGraph.from_rows(
        4, [([1, 2, 3], [0.5, 0.0, 2.0]), ([], []), ([0, 3], [0.0, 0.25]), ([2], [0.0])]
    )
    before = [arr.tobytes() for arr in (g.indptr, g.indices, g.weights)]
    positive = positive_subgraph(g)
    assert positive.format == "csr" and positive.shape == (4, 4)
    assert positive.dtype == np.float64
    assert positive.indptr.tolist() == [0, 2, 2, 3, 3]
    assert positive.indices.tolist() == [1, 3, 3]
    assert positive.data.tolist() == [0.5, 2.0, 0.25]
    assert [arr.tobytes() for arr in (g.indptr, g.indices, g.weights)] == before


def test_build_na_batch_invariants():
    rng_graph = np.random.default_rng(17)
    rows = []
    for m in range(12):
        others = [j for j in range(12) if j != m]
        cols = np.sort(rng_graph.choice(others, size=3, replace=False))
        rows.append((cols, rng_graph.choice([0.5, 1.0], size=3)))
    g = SparseGraph.from_rows(12, rows)

    for seed in range(5):
        out = build_na_batch(positive_subgraph(g), np.random.default_rng(seed), 6)
        batch_ids, anchor_rows, weights = out
        assert len(anchor_rows) == 6
        assert np.array_equal(np.unique(batch_ids), batch_ids)
        anchors = batch_ids[anchor_rows]
        assert len(np.unique(anchors)) == 6
        for r, a in enumerate(anchors):
            cols, w = g.row(int(a))
            # the weight row is the graph row restricted to the batch
            lookup = dict(zip(cols.tolist(), w.tolist()))
            for pos, b in enumerate(batch_ids.tolist()):
                assert weights[r, pos] == lookup.get(b, 0.0)
            assert (weights[r] > 0).any()  # the forced partner


def test_build_na_batch_determinism_and_caps():
    g = SparseGraph.from_rows(3, [([1], [1.0]), ([2], [1.0]), ([], [])])
    a, b = (build_na_batch(positive_subgraph(g), np.random.default_rng(3), 10) for _ in range(2))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])
    assert len(a[1]) == 2  # only two eligible anchors exist

    empty = SparseGraph.from_rows(2, [([], []), ([], [])])
    assert build_na_batch(positive_subgraph(empty), np.random.default_rng(0), 4) is None


def _weights_loop(graph, anchors, batch_ids, dtype):
    """Reference: the (anchors, batch) weight slice, one edge at a time."""
    weights = np.zeros((len(anchors), len(batch_ids)), dtype=dtype)
    for row, a in enumerate(anchors):
        for col, w in zip(*graph.row(int(a))):
            if col in batch_ids:
                weights[row, batch_ids.tolist().index(col)] = w
    return weights


def _na_batch_loop(graph, rng, num_anchors, dtype):
    """Reference: one scalar partner draw per anchor."""
    eligible = np.array([m for m in range(graph.num_nodes) if (graph.row(m)[1] > 0).any()],
                        dtype=np.int64)
    if len(eligible) == 0:
        return None
    anchors = np.sort(rng.choice(eligible, size=min(num_anchors, len(eligible)), replace=False))
    partners = np.empty(len(anchors), dtype=np.int64)
    for row, a in enumerate(anchors):
        cols, w = graph.row(int(a))
        pos = cols[w > 0]
        partners[row] = pos[rng.integers(0, len(pos))]
    batch_ids = np.unique(np.concatenate([anchors, partners]))
    return (batch_ids, np.searchsorted(batch_ids, anchors),
            _weights_loop(graph, anchors, batch_ids, dtype))


def _assert_same_na_batch(out, ref):
    assert out[0].tolist() == ref[0].tolist()
    assert out[1].tolist() == ref[1].tolist()
    weights = np.asarray(out[2])
    assert (weights.dtype, weights.shape) == (ref[2].dtype, ref[2].shape)
    assert np.array_equal(weights, ref[2])


def test_build_na_batch_matches_per_anchor_loop():
    # Degrees from 0 to 60 and zero-weight edges, so some anchors have a
    # single positive neighbour (a draw from range(1)) and some none.
    for case in range(40):
        rng_graph = np.random.default_rng(case)
        n = int(rng_graph.integers(2, 80))
        rows = []
        for m in range(n):
            deg = int(rng_graph.integers(0, min(n - 1, 60) + 1))
            cols = np.sort(rng_graph.choice(np.delete(np.arange(n), m), size=deg, replace=False))
            rows.append((cols, rng_graph.choice([0.0, 0.5, 1.0], size=deg)))
        g = SparseGraph.from_rows(n, rows)
        for dtype in (np.float32, np.float64):
            positive = positive_subgraph(g, dtype)
            for num_anchors in (1, n // 2 + 1, n):
                rng_ref = np.random.default_rng(1000 + case)
                rng_new = np.random.default_rng(1000 + case)
                ref = _na_batch_loop(g, rng_ref, num_anchors, dtype)
                out = sample_na_batch(positive, rng_new, num_anchors)
                assert rng_new.bit_generator.state == rng_ref.bit_generator.state
                dense = build_na_batch(positive, np.random.default_rng(1000 + case), num_anchors)
                if ref is None:
                    assert out is None and dense is None
                    continue
                assert out[2].format == "csr" and out[2].dtype == dtype
                _assert_same_na_batch((*out[:2], out[2].toarray()), ref)
                _assert_same_na_batch(dense, ref)
            # Every pooled item is an anchor; repeats collapse.
            items = rng_graph.integers(0, n, size=n)
            batch_ids = np.unique(items)
            ref = (batch_ids, np.arange(len(batch_ids)), _weights_loop(g, batch_ids, batch_ids, dtype))
            _assert_same_na_batch(na_batch_from_items(g, items, dtype), ref)


def test_na_batch_from_items():
    g = SparseGraph.from_rows(4, [([1], [1.0]), ([0], [0.5]), ([], []), ([], [])])
    batch_ids, anchor_rows, weights = na_batch_from_items(g, [1, 0, 1, 3])
    assert batch_ids.tolist() == [0, 1, 3]
    assert anchor_rows.tolist() == [0, 1, 2]
    assert weights[0].tolist() == [0.0, 1.0, 0.0]
    assert weights[1].tolist() == [0.5, 0.0, 0.0]
    assert weights[2].tolist() == [0.0, 0.0, 0.0]


def _slice_cases():
    """(positive, anchors, batch_ids) with empty rows, anchors with no
    in-batch neighbour and neighbours on either side of the batch."""
    rng = np.random.default_rng(23)
    for case in range(60):
        n = int(rng.integers(1, 40))
        dense = rng.choice([0.0, 0.25, 1.0], size=(n, n), p=[0.8, 0.1, 0.1])
        dense[rng.random(n) < 0.2] = 0.0
        anchors = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
        extra = rng.choice(n, size=int(rng.integers(0, n + 1)))
        batch_ids = np.unique(np.concatenate([anchors, extra])).astype(np.int64)
        yield sp.csr_matrix(dense.astype([np.float32, np.float64][case % 2])), anchors, batch_ids
    # Anchor 0's neighbours 1 and 2 are outside the batch, anchor 3 has
    # none, and anchor 4's neighbours lie beyond the last batch item.
    dense = np.zeros((8, 8))
    dense[0, [1, 2]] = 1.0
    dense[4, [6, 7]] = 0.5
    dense[5, [0, 7]] = 2.0
    yield sp.csr_matrix(dense), np.array([0, 3, 4, 5]), np.array([0, 3, 4, 5])


def test_slice_na_batch_matches_the_scipy_slice():
    for positive, anchors, batch_ids in _slice_cases():
        ids, anchor_rows, weights = slice_na_batch(positive, anchors, batch_ids)
        assert ids is batch_ids
        assert anchor_rows.tolist() == [batch_ids.tolist().index(a) for a in anchors]
        assert weights.format == "csr" and weights.dtype == positive.dtype
        assert weights.shape == (len(anchors), len(batch_ids))
        assert weights.has_canonical_format
        want = positive[anchors][:, batch_ids].toarray()
        assert np.array_equal(weights.toarray(), want)
    assert weights.toarray().tolist() == [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                                          [2.0, 0, 0, 0]]
