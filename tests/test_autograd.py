"""Gradient and value checks for the dense autodiff kernel."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

import ref_ops
from toporec import autograd as ag
from toporec.autograd import Tensor, finite_diff_check

TOL = 1e-6  # float64 central differences land far below the 1e-4 contract


def _leaf(rng, rows, cols, scale=1.0, shift=0.0):
    return Tensor(shift + scale * rng.standard_normal((rows, cols)), requires_grad=True)


def _cosine(a, b):
    """Row-wise cosine similarity, the way the alignment loss composes it."""
    return ag.tsum(ag.mul(ref_ops.normalize_rows(a), ref_ops.normalize_rows(b)), axis=1)


def neg(x):
    return ag.mul_const(x, -1.0)


def test_tensor_shapes_and_scalars():
    assert Tensor(3.0).shape == (1, 1)
    assert Tensor([1.0, 2.0, 3.0]).shape == (1, 3)
    assert Tensor(np.zeros((2, 3))).shape == (2, 3)
    assert repr(Tensor(np.zeros((2, 3)), requires_grad=True)) == (
        "Tensor(shape=(2, 3), dtype=float64, requires_grad=True)"
    )
    with pytest.raises(ValueError, match="2-D"):
        Tensor(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError, match="scalar"):
        Tensor(np.zeros((2, 2))).item()
    with pytest.raises(ValueError, match="scalar"):
        Tensor(np.zeros((1, 3)), requires_grad=True).backward()


def test_integer_input_promoted_to_float():
    t = Tensor(np.arange(6).reshape(2, 3))
    assert t.values.dtype == np.float64


@pytest.mark.parametrize(
    "name,build",
    [
        ("add", lambda a, b: ag.add(a, b)),
        ("sub", lambda a, b: ag.sub(a, b)),
        ("mul", lambda a, b: ag.mul(a, b)),
        ("matmul", lambda a, b: ag.matmul(a, ref_ops.transpose(b))),
    ],
)
def test_binary_op_gradients(name, build):
    rng = np.random.default_rng(11)
    a = _leaf(rng, 4, 3)
    b = _leaf(rng, 4, 3)
    err = finite_diff_check(lambda: ag.tsum(build(a, b)), [a, b])
    assert err < TOL, f"{name}: {err}"


def test_broadcast_gradients():
    rng = np.random.default_rng(12)
    x = _leaf(rng, 5, 3)
    row = _leaf(rng, 1, 3)
    col = _leaf(rng, 5, 1)
    err = finite_diff_check(lambda: ag.tsum(ag.mul(ag.add(x, row), col)), [x, row, col])
    assert err < TOL
    with pytest.raises(ValueError, match=r"add: cannot broadcast \(5, 3\) with \(4, 3\)"):
        ag.add(x, _leaf(rng, 4, 3))


@pytest.mark.parametrize(
    "name,op,scale,shift",
    [
        ("exp", ref_ops.exp, 1.0, 0.0),
        ("log", ref_ops.log, 0.25, 3.0),
        ("tanh", ag.tanh, 1.0, 0.0),
        ("softplus", ag.softplus, 1.0, 0.0),
        ("neg", neg, 1.0, 0.0),
        ("normalize_rows", ref_ops.normalize_rows, 1.0, 2.0),
    ],
)
def test_unary_op_gradients(name, op, scale, shift):
    rng = np.random.default_rng(13)
    x = _leaf(rng, 4, 5, scale=scale, shift=shift)
    err = finite_diff_check(lambda: ag.tsum(ag.mul(op(x), x)), [x])
    assert err < TOL, f"{name}: {err}"


def test_transpose_gradient():
    rng = np.random.default_rng(13)
    x = _leaf(rng, 4, 5)
    w = rng.standard_normal((5, 4))
    err = finite_diff_check(lambda: ag.tsum(ag.mul_const(ref_ops.transpose(x), w)), [x])
    assert err < TOL


@pytest.mark.parametrize("axis", [None, 0, 1])
def test_reduction_gradients(axis):
    rng = np.random.default_rng(14)
    x = _leaf(rng, 4, 3)
    w = _leaf(rng, 1, 3) if axis != 1 else _leaf(rng, 4, 1)
    err = finite_diff_check(lambda: ag.tsum(ag.mul(ag.tsum(x, axis=axis), w)), [x, w])
    assert err < TOL
    with pytest.raises(ValueError, match="axis"):
        ag.tsum(x, axis=2)


def test_const_op_gradients():
    rng = np.random.default_rng(15)
    x = _leaf(rng, 3, 4)
    c = rng.standard_normal((3, 4))
    err = finite_diff_check(
        lambda: ag.tsum(ref_ops.add_const(ag.mul_const(ag.mul_const(x, 1.7), c), 0.3)), [x]
    )
    assert err < TOL


def test_gather_rows_gradient_with_repeats():
    rng = np.random.default_rng(16)
    x = _leaf(rng, 5, 3)
    idx = np.array([0, 2, 2, 4, 0, 0])
    w = Tensor(rng.standard_normal((len(idx), 3)))
    err = finite_diff_check(lambda: ag.tsum(ag.mul_const(ag.gather_rows(x, idx), w.values)), [x])
    assert err < TOL
    # The scatter adds each row's terms in index order, as np.add.at does.
    idx = rng.integers(0, 40, size=500)
    for dtype in (np.float32, np.float64):
        leaf = Tensor(np.zeros((50, 3), dtype=dtype), requires_grad=True)
        g = rng.standard_normal((len(idx), 3)).astype(dtype)
        ag.tsum(ag.mul_const(ag.gather_rows(leaf, idx), g)).backward()
        expected = np.zeros((50, 3), dtype=dtype)
        np.add.at(expected, idx, g)
        assert leaf.grad.dtype == dtype
        assert leaf.grad.tobytes() == expected.tobytes()
    # Ids counted from the end scatter into the rows they gathered.
    leaf = Tensor(np.zeros((5, 3)), requires_grad=True)
    idx = np.array([-1, 4, 0, -5, 2])
    g = rng.standard_normal((len(idx), 3))
    ag.tsum(ag.mul_const(ag.gather_rows(leaf, idx), g)).backward()
    expected = np.zeros((5, 3))
    np.add.at(expected, idx, g)
    assert leaf.grad.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="1-D"):
        ag.gather_rows(x, np.zeros((2, 2), dtype=np.int64))


def test_concat_cols_gradient():
    rng = np.random.default_rng(17)
    a = _leaf(rng, 4, 2)
    b = _leaf(rng, 4, 3)
    w = np.arange(20.0).reshape(4, 5)
    err = finite_diff_check(lambda: ag.tsum(ag.mul_const(ag.concat_cols(a, b), w)), [a, b])
    assert err < TOL
    with pytest.raises(ValueError, match="row counts differ"):
        ag.concat_cols(_leaf(rng, 3, 2), _leaf(rng, 4, 2))


def _encoder_layer_reference(x, w, b, gain, bias, upstream, eps=1e-5):
    """linear -> tanh -> layer norm in numpy, and the gradients of
    sum(out * upstream) by the chain rule through mean and variance."""
    t = np.tanh(x @ w + b)
    d = t.shape[1]
    xc = t - t.mean(axis=1, keepdims=True)
    var = (xc * xc).mean(axis=1, keepdims=True)
    std = np.sqrt(var + eps)
    xhat = xc / std
    out = xhat * gain + bias
    g = upstream
    dxhat = g * gain
    dvar = -0.5 * (dxhat * xc).sum(axis=1, keepdims=True) / std**3
    dmu = -(dxhat / std).sum(axis=1, keepdims=True) - 2.0 * dvar * xc.mean(axis=1, keepdims=True)
    da = (dxhat / std + dvar * 2.0 * xc / d + dmu / d) * (1.0 - t * t)
    grads = (
        da @ w.T,
        x.T @ da,
        da.sum(axis=0, keepdims=True),
        (g * xhat).sum(axis=0, keepdims=True),
        g.sum(axis=0, keepdims=True),
    )
    return out, grads


def _encoder_inputs(rng, rows, d_in, d_out):
    return [
        _leaf(rng, rows, d_in),
        _leaf(rng, d_in, d_out, scale=0.5),
        _leaf(rng, 1, d_out),
        _leaf(rng, 1, d_out, scale=0.1, shift=1.0),
        _leaf(rng, 1, d_out),
    ]


def _rel_err(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


def test_encoder_layer_matches_numpy_reference():
    rng = np.random.default_rng(18)
    inputs = _encoder_inputs(rng, 9, 7, 5)
    upstream = rng.standard_normal((9, 5))
    want, want_grads = _encoder_layer_reference(*(t.values for t in inputs), upstream)
    out = ag.encoder_layer(*inputs)
    assert _rel_err(out.values, want) < 1e-10
    ag.tsum(ag.mul_const(out, upstream)).backward()
    for t, want_grad in zip(inputs, want_grads):
        assert _rel_err(t.grad, want_grad) < 1e-10

    # An input that takes no gradient gets none; the others are unchanged.
    x = Tensor(inputs[0].values)
    for t in inputs[1:]:
        t.grad = None
    ag.tsum(ag.mul_const(ag.encoder_layer(x, *inputs[1:]), upstream)).backward()
    assert x.grad is None
    for t, want_grad in zip(inputs[1:], want_grads[1:]):
        assert _rel_err(t.grad, want_grad) < 1e-10
    with pytest.raises(ValueError, match="inner dims differ"):
        ag.encoder_layer(inputs[1], *inputs[1:])


def test_encoder_layer_gradients():
    rng = np.random.default_rng(18)
    inputs = _encoder_inputs(rng, 6, 4, 3)
    # h=1e-5: one x coordinate's gradient is about 1e-5, where a smaller
    # step's difference quotient is mostly rounding.
    err = finite_diff_check(lambda: ag.tsum(ag.tanh(ag.encoder_layer(*inputs))), inputs, h=1e-5)
    assert err < TOL


def test_row_dot_and_cosine_gradients():
    rng = np.random.default_rng(19)
    a = _leaf(rng, 5, 4, shift=0.5)
    b = _leaf(rng, 5, 4, shift=-0.5)
    err = finite_diff_check(lambda: ag.tsum(ag.tsum(ag.mul(a, b), axis=1)), [a, b])
    assert err < TOL
    err = finite_diff_check(lambda: ag.tsum(_cosine(a, b)), [a, b])
    assert err < TOL


def test_spmm_matches_dense_and_gradient():
    rng = np.random.default_rng(20)
    s = sp.random(6, 4, density=0.5, random_state=7, format="csr")
    x = _leaf(rng, 4, 3)
    dense = Tensor(s.toarray())
    assert np.allclose(ag.spmm(s, x).values, ag.matmul(dense, x).values)
    w = rng.standard_normal((6, 3))
    err = finite_diff_check(lambda: ag.tsum(ag.mul_const(ag.spmm(s, x), w)), [x])
    assert err < TOL
    with pytest.raises(ValueError, match="inner dims"):
        ag.spmm(s, _leaf(rng, 5, 3))


def test_matmul_shape_error_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 3\)"):
        ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_constant_operand_takes_no_gradient_or_product():
    rng = np.random.default_rng(31)
    c = Tensor(rng.standard_normal((3, 4)))
    leaf = _leaf(rng, 4, 2)
    out = ag.matmul(c, leaf)
    assert out._parents == (c, leaf)
    d_c, d_leaf = out._back(np.ones(out.shape))
    assert d_c is None and np.allclose(d_leaf, c.values.T @ np.ones(out.shape))
    ag.tsum(out).backward()
    assert c.grad is None
    assert np.allclose(leaf.grad, d_leaf)

    d = Tensor(rng.standard_normal((4, 2)))
    assert ag.mul(d, leaf)._back(np.ones((4, 2)))[0] is None
    # An op on constants records no node.
    const = ag.add(c, c)
    assert const._parents == () and not const.requires_grad


def test_no_grad_records_nothing_and_restores_the_setting():
    rng = np.random.default_rng(60)
    a, b = _leaf(rng, 3, 2), _leaf(rng, 3, 2)
    with ag.no_grad():
        with ag.no_grad():
            inner = ag.add(a, b)
        outer = ag.mul(inner, b)  # the inner block's exit keeps the outer setting
    for out in (inner, outer):
        assert out._parents == () and out._back is None and not out.requires_grad
    with pytest.raises(RuntimeError, match="inside the block"):
        with ag.no_grad():
            raise RuntimeError("inside the block")
    assert ag._recording
    out = ag.add(a, b)
    assert out._parents == (a, b) and out.requires_grad


def test_gradient_accumulates_when_tensor_reused():
    x = Tensor(np.array([[2.0, -1.0]]), requires_grad=True)
    ag.tsum(ag.mul(x, x)).backward()
    assert np.allclose(x.grad, 2.0 * x.values)

    x.grad = None
    y = ag.add(ref_ops.exp(x), ref_ops.exp(x))
    ag.tsum(y).backward()
    assert np.allclose(x.grad, 2.0 * np.exp(x.values))


def test_backward_accumulates_across_calls():
    x = Tensor(np.ones((1, 2)), requires_grad=True)
    ag.tsum(x).backward()
    ag.tsum(x).backward()
    assert np.allclose(x.grad, 2.0)


def _step_tape(rng):
    """A float32 loss shaped like one training step (encoder layer,
    dropout, fuser, propagation, BPR and alignment terms), its leaves, and
    its tape: every non-leaf node once."""
    def leaf(rows, cols):
        return Tensor(rng.standard_normal((rows, cols)).astype(np.float32), requires_grad=True)

    x = Tensor(rng.standard_normal((6, 5)).astype(np.float32))
    w, b, gain, bias = leaf(5, 4), leaf(1, 4), leaf(1, 4), leaf(1, 4)
    fuse_w, embed = leaf(4, 3), leaf(6, 3)
    h = ag.dropout(ag.encoder_layer(x, w, b, gain, bias), 0.25, rng)
    items = ag.add(embed, ag.tanh(ag.matmul(h, fuse_w)))
    users = ag.spmm(sp.random(4, 6, density=0.5, random_state=0, dtype=np.float32), items)
    z_u = ag.gather_rows(users, [0, 1, 3])
    gap = ag.sub(ag.tsum(ag.mul(z_u, ag.gather_rows(items, [0, 2, 4])), axis=1),
                 ag.tsum(ag.mul(z_u, ag.gather_rows(items, [1, 1, 5])), axis=1))
    bpr = ag.mul_const(ag.tsum(ag.softplus(neg(gap))), 1.0 / 3)
    weights = sp.csr_matrix(np.array([[0, 1, 0, 0], [0.5, 0, 0, 0]], dtype=np.float32))
    na = ag.weighted_infonce(ag.gather_rows(items, [0, 2, 3, 5]), [0, 1], weights, 0.2)
    loss = ag.add(bpr, ag.mul_const(na, 0.5))
    tape, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if node._parents and id(node) not in tape:
            tape[id(node)] = node
            stack.extend(node._parents)
    return loss, [w, b, gain, bias, fuse_w, embed], list(tape.values())


def test_backward_frees_every_node_of_the_graph():
    loss, leaves, tape = _step_tape(np.random.default_rng(40))
    assert len(tape) > 20
    loss.backward()
    assert all(leaf.grad is not None for leaf in leaves)
    kept = [node for node in tape if node._parents or node._back is not ag._FREED]
    assert kept == []
    # The leaves keep what they had.
    assert all(leaf._parents == () and leaf._back is None for leaf in leaves)


def test_second_backward_through_a_freed_graph_raises():
    loss, leaves, tape = _step_tape(np.random.default_rng(41))
    loss.backward()
    grads = [leaf.grad.copy() for leaf in leaves]
    with pytest.raises(ValueError, match="freed by an earlier backward"):
        loss.backward()
    # So does a new graph built on a freed node, before any gradient moves.
    with pytest.raises(ValueError, match="freed by an earlier backward"):
        ag.tsum(tape[-1]).backward()
    assert all(np.array_equal(leaf.grad, g) for leaf, g in zip(leaves, grads))


def test_fit_holds_one_step_graph_at_a_time():
    # Each step's graph keeps three (items x hidden) arrays for the first
    # encoder layer of each modality, six in all, and its backward adds a
    # few more. A second step's graph alive beside them adds six again.
    from toporec.config import TrainConfig
    from toporec.data import ROLE_TRAIN, make_split
    from toporec.synth import make_clustered_dataset
    from toporec.trainer import fit

    items, hidden = 1000, 256
    data = make_clustered_dataset(num_users=60, num_items=items, num_clusters=4, visual_dim=16,
                                  textual_dim=8, interactions_low=5, interactions_high=8, seed=0)
    table = make_split(data.table, seed=0)
    cfg = TrainConfig(seed=5, batch_size=64, embed_dim=16, hidden_dim=hidden, max_epochs=1,
                      na_weight=0.0)
    assert len(table.role_edges(ROLE_TRAIN)) > 3 * cfg.batch_size
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            fit(cfg, table, data.features_visual, data.features_textual)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 12 * items * hidden * 4
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over {bound / 1e6:.1f} MB"


def test_long_chain_does_not_recurse():
    x = Tensor(np.zeros((1, 1)), requires_grad=True)
    y = x
    for _ in range(5000):
        y = ref_ops.add_const(y, 1.0)
    y.backward()
    assert x.grad[0, 0] == 1.0
    assert y.item() == 5000.0


def test_tanh_closed_forms():
    x = Tensor(np.zeros((1, 1)), requires_grad=True)
    y = ag.tanh(x)
    assert y.item() == 0.0
    y.backward()
    assert x.grad[0, 0] == 1.0


def test_softplus_is_stable_at_extremes():
    x = Tensor(np.array([[-1000.0, 0.0, 1000.0]]))
    with np.errstate(over="raise"):
        out = ag.softplus(x).values
    assert out[0, 0] == 0.0
    assert abs(out[0, 1] - np.log(2.0)) < 1e-15
    assert out[0, 2] == 1000.0


def test_layer_norm_normalizes_and_handles_constant_rows():
    # With an identity weight and no bias, the layer normalizes tanh(x).
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((8, 16)))
    eye, zeros, ones = Tensor(np.eye(16)), Tensor(np.zeros((1, 16))), Tensor(np.ones((1, 16)))
    out = ag.encoder_layer(x, eye, zeros, ones, zeros).values
    var = np.tanh(x.values).var(axis=1)
    assert np.abs(out.mean(axis=1)).max() < 1e-10
    assert np.abs(out.var(axis=1) - var / (var + 1e-5)).max() < 1e-10

    const = Tensor(np.full((2, 5), 3.3))
    shifted = ag.encoder_layer(
        const, Tensor(np.eye(5)), Tensor(np.zeros((1, 5))), Tensor(np.ones((1, 5))),
        Tensor(np.full((1, 5), 0.25)),
    )
    assert np.allclose(shifted.values, 0.25)


def test_dropout_identity_and_scaling():
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((4, 6)), requires_grad=True)
    assert ag.dropout(x, 0.0, rng) is x
    assert ag.dropout(x, 0.5) is x  # no rng: evaluation
    with pytest.raises(ValueError, match="rate"):
        ag.dropout(x, 1.0, rng)
    with pytest.raises(ValueError, match="rate"):
        ag.dropout(x, -0.1, rng)

    big = Tensor(np.ones((200, 200)))
    kept = ag.dropout(big, 0.25, np.random.default_rng(5)).values
    assert set(np.round(np.unique(kept), 12)) == {0.0, np.round(1.0 / 0.75, 12)}
    assert abs(kept.mean() - 1.0) < 0.02


def test_dropout_gradient_uses_same_mask():
    x = Tensor(np.ones((30, 30)), requires_grad=True)
    out = ag.dropout(x, 0.4, np.random.default_rng(9))
    ag.tsum(out).backward()
    assert np.array_equal(x.grad, out.values)


def test_normalize_rows_values_and_zero_rows():
    x = Tensor(np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 2.0]]), requires_grad=True)
    out = ref_ops.normalize_rows(x)
    assert np.allclose(out.values[0], [0.6, 0.8])
    assert np.array_equal(out.values[1], [0.0, 0.0])
    assert np.allclose(out.values[2], [0.0, 1.0])
    ag.tsum(ag.mul_const(out, np.array([[1.0, 2.0]]))).backward()
    assert np.array_equal(x.grad[1], [0.0, 0.0])


def test_cosine_sim_closed_forms():
    a = Tensor(np.array([[1.0, 0.0], [1.0, 1.0]]))
    b = Tensor(np.array([[0.0, 1.0], [2.0, 2.0]]))
    out = _cosine(a, b).values
    assert abs(out[0, 0]) < 1e-15
    assert abs(out[1, 0] - 1.0) < 1e-15


def test_finite_diff_check_flags_wrong_gradients():
    rng = np.random.default_rng(24)
    x = _leaf(rng, 2, 2)

    def bad_op(t):
        out = ref_ops.exp(t)
        wrong = Tensor(out.values)
        wrong._parents = (t,)
        wrong._back = lambda g: (g * 0.5,)  # deliberately wrong jacobian
        wrong.requires_grad = True
        return wrong

    err = finite_diff_check(lambda: ag.tsum(bad_op(x)), [x])
    assert err > 1e-2
