"""Graph construction, topological-similarity pruning, and corruption."""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from oracles import (
    dense_to_graph,
    graph_edge_set,
    knn_oracle,
    prune_oracle,
    random_graph,
    ts_set_oracle,
)
from toporec import itemgraph
from toporec.itemgraph import (
    SparseGraph,
    build_knn_graph,
    corrupt_graph,
    fuse_graphs,
    graphs_equal,
    load_graph,
    random_prune,
    row_neighbors,
    save_graph,
    top_k_entries,
    topological_similarity,
    tps_prune,
)
from toporec.config import ConfigWarning, TrainConfig
from toporec.synth import make_clustered_dataset, plant_cross_cluster_edges
from toporec.trainer import build_item_graph
from test_acceptance import DATA_SEED, SYNTH_KW


def test_sparse_graph_validation():
    g = SparseGraph(3, [0, 1, 2, 3], [1, 2, 0], [1.0, 1.0, 1.0])
    g.validate()
    assert g.nnz == 3
    assert g.out_degrees().tolist() == [1, 1, 1]

    with pytest.raises(ValueError, match="indptr length"):
        SparseGraph(3, [0, 1], [1], [1.0]).validate()
    with pytest.raises(ValueError, match="cover"):
        SparseGraph(2, [0, 1, 3], [1, 0], [1.0, 1.0]).validate()
    with pytest.raises(ValueError, match="non-decreasing"):
        SparseGraph(3, [0, 2, 1, 2], [1, 2], [1.0, 1.0]).validate()
    with pytest.raises(ValueError, match="2 indices but 1 weights"):
        SparseGraph(2, [0, 1, 2], [1, 0], [1.0]).validate()
    with pytest.raises(ValueError, match="out of range"):
        SparseGraph(2, [0, 1, 2], [1, 5], [1.0, 1.0]).validate()
    for bad in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and non-negative"):
            SparseGraph(2, [0, 1, 2], [1, 0], [1.0, bad]).validate()
    with pytest.raises(ValueError, match="unsorted or duplicate"):
        SparseGraph(2, [0, 2, 2], [1, 1], [1.0, 1.0]).validate()


def test_validate_checks_order_within_rows_only():
    # columns may step down where a row begins, and rows may be empty
    SparseGraph(4, [0, 2, 2, 4, 4], [2, 3, 0, 1], [1.0] * 4).validate()
    SparseGraph(4, [0, 0, 0, 0, 0], [], []).validate()
    SparseGraph(3, [0, 1, 1, 2], [2, 2], [1.0, 1.0]).validate()
    with pytest.raises(ValueError, match="row 2 has unsorted or duplicate"):
        SparseGraph(4, [0, 2, 2, 4, 4], [1, 3, 2, 0], [1.0] * 4).validate()
    with pytest.raises(ValueError, match="row 3 has unsorted or duplicate"):
        SparseGraph(4, [0, 1, 1, 1, 3], [1, 2, 2], [1.0] * 3).validate()


def test_from_edges_rejects_sources_out_of_range():
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="source index out of range"):
            SparseGraph.from_edges(3, [0, bad], [1, 1], [1.0, 1.0])


@pytest.mark.parametrize(
    "dst, weights, message",
    [
        ([1, 2], [1.0, 2.0, 3.0], "2 sources, 2 targets but 3 weights"),
        ([1, 2], [1.0], "2 sources, 2 targets but 1 weights"),
        ([1], [1.0, 2.0], "2 sources, 1 targets but 2 weights"),
    ],
)
def test_from_edges_rejects_arrays_of_different_lengths(dst, weights, message):
    with pytest.raises(ValueError, match=message):
        SparseGraph.from_edges(3, [0, 1], dst, weights)


def test_from_rows_sorts_and_roundtrips():
    g = SparseGraph.from_rows(3, [([2, 1], [0.5, 0.25]), ([], []), ([0], [1.0])])
    cols, w = g.row(0)
    assert cols.tolist() == [1, 2]
    assert w.tolist() == [0.25, 0.5]
    dense = g.to_dense()
    assert dense[0, 1] == 0.25 and dense[0, 2] == 0.5 and dense[2, 0] == 1.0
    src, dst, wts = g.to_edges()
    rebuilt = SparseGraph.from_edges(3, src, dst, wts)
    assert graphs_equal(g, rebuilt)
    assert not graphs_equal(g, SparseGraph.from_rows(3, [([1], [1.0]), ([], []), ([], [])]))
    assert graphs_equal(SparseGraph.from_rows(3, []), SparseGraph(3, [0, 0, 0, 0], [], []))
    with pytest.raises(ValueError, match="row 1: 1 columns but 2 weights"):
        SparseGraph.from_rows(3, [([2], [1.0]), ([0], [1.0, 2.0])])


def test_row_neighbors_includes_self():
    g = SparseGraph.from_rows(4, [([1, 2, 3], [1, 1, 1]), ([], []), ([0], [1]), ([], [])])
    assert row_neighbors(g, 0).tolist() == [0, 1, 2, 3]
    assert row_neighbors(g, 1).tolist() == [1]  # isolated: just itself
    assert len(row_neighbors(g, 2)) == 2
    with pytest.raises(IndexError):
        row_neighbors(g, 4)


def test_row_neighbors_matches_set_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(3, 20))
        dense = random_graph(rng, n, 4)
        g = dense_to_graph(dense)
        for m in range(n):
            expected = {m} | {j for j in range(n) if dense[m, j] != 0}
            assert set(row_neighbors(g, m).tolist()) == expected


def test_top_k_entries_matches_stable_sort():
    rng = np.random.default_rng(31)
    cases = [
        rng.standard_normal((40, 30)),
        rng.integers(0, 3, (40, 30)).astype(np.float64),  # many ties
        rng.standard_normal((40, 30)).astype(np.float32),
    ]
    cases[2][:, ::4] = -np.inf
    cases[2][5] = -np.inf  # fewer than k finite entries
    for scores in cases:
        for k in (1, 3, 8, 29, 30):
            ref = np.sort(np.argsort(-scores, axis=1, kind="stable")[:, :k], axis=1)
            rows, cols = top_k_entries(scores, k)
            assert rows.tolist() == np.repeat(np.arange(len(scores)), k).tolist()
            assert cols.tolist() == ref.ravel().tolist()


def test_top_k_entries_rejects_k_outside_the_columns():
    scores = np.zeros((2, 3))
    for k in (0, -1, 4):
        with pytest.raises(ValueError, match=f"1 <= k <= 3 columns, got k={k}"):
            top_k_entries(scores, k)


def test_knn_tie_breaks_toward_lower_index():
    feats = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    g = build_knn_graph(feats, 1)
    assert graph_edge_set(g) == {(0, 1), (1, 0), (2, 0)}
    assert np.all(g.weights == 1.0)


def test_knn_identical_rows_get_mutual_edges():
    feats = np.array([[2.0, 2.0], [1.0, 1.0], [5.0, -1.0]])
    g = build_knn_graph(feats, 1)
    edges = graph_edge_set(g)
    assert (0, 1) in edges and (1, 0) in edges


def test_knn_matches_exhaustive_oracle():
    rng = np.random.default_rng(32)
    for _ in range(15):
        n = int(rng.integers(5, 30))
        k = int(rng.integers(1, min(5, n - 1) + 1))
        feats = rng.standard_normal((n, 4))
        g = build_knn_graph(feats, k)
        assert graph_edge_set(g) == knn_oracle(feats, k)
        assert np.all(g.out_degrees() == k)


def test_knn_zero_rows_and_errors():
    feats = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    g = build_knn_graph(feats, 2)
    g.validate()  # zero feature row still gets edges, at similarity zero
    with pytest.raises(ValueError, match="k=4"):
        build_knn_graph(feats, 4)
    with pytest.raises(ValueError, match=">= 1"):
        build_knn_graph(feats, 0)
    for bad in (np.nan, np.inf):
        feats[2, 1] = bad
        with pytest.raises(ValueError, match="feature row 2 has no finite norm"):
            build_knn_graph(feats, 2)


@pytest.mark.parametrize(
    "binarize, n",
    [
        (True, itemgraph._GRAM_ROWS + 60),
        (False, itemgraph._GRAM_ROWS + 60),
        # Three row blocks, the last one narrower than k.
        (True, 2 * itemgraph._GRAM_ROWS + 3),
        (False, 2 * itemgraph._GRAM_ROWS + 3),
    ],
    ids=["True", "False", "three-blocks-True", "three-blocks-False"],
)
def test_knn_ties_across_blocks_follow_tie_rule(binarize, n):
    # One-hot rows have cosines of exactly 0 or 1, so most of each row's
    # k-th score is tied; n spans several blocks of the similarity matrix.
    k = 4
    rng = np.random.default_rng(45)
    labels = rng.integers(-1, 12, size=n)  # -1: an all-zero feature row
    labels[:3] = 12  # a group smaller than k + 1
    feats = np.zeros((n, 13))
    feats[labels >= 0, labels[labels >= 0]] = 1.0
    g = build_knn_graph(feats, k, binarize=binarize)
    for m in range(n):
        # score 1 for the same nonzero group, else 0; ties go to lower index
        same = labels == labels[m] if labels[m] >= 0 else np.zeros(n, dtype=bool)
        ranked = np.concatenate([np.flatnonzero(same), np.flatnonzero(~same)])
        chosen = np.sort(ranked[ranked != m][:k])
        cols, w = g.row(m)
        assert cols.tolist() == chosen.tolist()
        expected = np.ones(k) if binarize else same[chosen].astype(float)
        assert w.tolist() == expected.tolist()


def _stable_top_k(feats, k):
    """Each row's k best other columns by a float64 stable argsort."""
    feats = np.asarray(feats, dtype=np.float64)
    unit = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    sims = unit @ unit.T
    np.fill_diagonal(sims, -np.inf)
    return np.sort(np.argsort(-sims, axis=1, kind="stable")[:, :k], axis=1)


def test_knn_is_exact_when_2k_is_wider_than_a_block():
    # 2k = 2050 proposals per row, more than one 2048-column block holds.
    n, k = 2100, 1025
    feats = np.random.default_rng(0).standard_normal((n, 8)).astype(np.float32)
    g = build_knn_graph(feats, k)
    assert g.indices.reshape(n, k).tolist() == _stable_top_k(feats, k).tolist()


@pytest.mark.parametrize("k", [70, 100])
def test_knn_with_k_wider_than_a_block_keeps_the_tie_rule(monkeypatch, k):
    # Narrow blocks put 2k, and for the tied rows that `_exact_rows` redoes
    # also k, past one block's columns. One-hot rows tie exactly.
    monkeypatch.setattr(itemgraph, "_GRAM_ROWS", 64)
    n = 300
    labels = np.random.default_rng(46).integers(0, 6, size=n)
    feats = np.eye(6)[labels]
    redone = []
    exact_rows = itemgraph._exact_rows

    def spy_exact_rows(values, norms, rows, k):
        redone.extend(rows.tolist())
        return exact_rows(values, norms, rows, k)

    monkeypatch.setattr(itemgraph, "_exact_rows", spy_exact_rows)
    g = build_knn_graph(feats, k)
    assert redone
    assert g.indices.reshape(n, k).tolist() == _stable_top_k(feats, k).tolist()


def test_knn_cosine_weights_when_not_binarized():
    rng = np.random.default_rng(33)
    feats = rng.standard_normal((8, 3))
    g = build_knn_graph(feats, 3, binarize=False)
    normed = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    sims = normed @ normed.T
    for m in range(8):
        cols, w = g.row(m)
        assert np.allclose(w, np.clip(sims[m, cols], 0.0, None), atol=1e-12)


def test_knn_cosine_weights_are_symmetric_across_blocks():
    n = itemgraph._GRAM_ROWS + 300
    rng = np.random.default_rng(34)
    feats = rng.standard_normal((n, 96)).astype(np.float32)
    g = build_knn_graph(feats, 40, binarize=False)
    src, dst, w = g.to_edges()
    forward = dict(zip(zip(src.tolist(), dst.tolist()), w.tolist()))
    mutual = [(m, c) for m, c in forward if (c, m) in forward]
    block = itemgraph._GRAM_ROWS
    crossing = [(m, c) for m, c in mutual if (m < block) != (c < block)]
    assert len(mutual) > 1000 and len(crossing) > 100
    assert [(m, c) for m, c in mutual if forward[(m, c)] != forward[(c, m)]] == []


def test_knn_peak_memory_is_the_copy_and_one_gram_block():
    # The float64 copy of the features and one block of cosines; the
    # selection and the candidates fit in the margin.
    feats = np.random.default_rng(35).standard_normal((3000, 256)).astype(np.float32)
    bound = 1.25 * (feats.size * 8 + itemgraph._GRAM_ROWS ** 2 * 8)
    tracemalloc.start()
    try:
        build_knn_graph(feats, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over {bound / 1e6:.1f} MB"


def test_knn_float32_copy_peak_memory():
    # The float32 copy of the features, one float64 block of normalised
    # rows and one float32 block of cosines; no float64 copy of the
    # catalogue and no float64 Gram block.
    feats = np.random.default_rng(35).standard_normal((3000, 256)).astype(np.float32)
    block = itemgraph._GRAM_ROWS
    bound = 1.25 * (feats.size * 4 + block * feats.shape[1] * 8 + block ** 2 * 4)
    tracemalloc.start()
    try:
        build_knn_graph(feats, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over {bound / 1e6:.1f} MB"


def test_knn_peak_memory_with_all_tied_rows():
    # An all-zero row's screen scores are all tied at 0, so every third
    # row goes through top_k_entries' tie cut; its tie counts stay within
    # the bound of test_knn_float32_copy_peak_memory.
    feats = np.random.default_rng(35).standard_normal((3000, 256)).astype(np.float32)
    feats[::3] = 0.0
    block = itemgraph._GRAM_ROWS
    bound = 1.25 * (feats.size * 4 + block * feats.shape[1] * 8 + block ** 2 * 4)
    tracemalloc.start()
    try:
        build_knn_graph(feats, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 1e6:.1f} MB over {bound / 1e6:.1f} MB"


def _near_tie_features(k):
    """Rows over two Gram blocks with tight clusters, whose cosines differ
    by less than the float32 screen error, exact and scaled duplicates
    and all-zero rows. Returns (features, rows of the large clusters,
    the all-zero rows)."""
    rng = np.random.default_rng(36)
    n, d = itemgraph._GRAM_ROWS + 300, 16
    feats = rng.standard_normal((n, d))
    spread = rng.permutation(n)  # each cluster's rows fall in both blocks
    # k + 2 near-equal columns contest a row's last places within its 2k
    # proposals; 2k + 2 of them crowd out of the proposals.
    sizes = [k + 3] * 6 + [2 * k + 3] * 2
    clusters = [spread[20 * c:20 * c + size] for c, size in enumerate(sizes)]
    for rows in clusters:
        feats[rows] = rng.standard_normal(d) + 1e-4 * rng.standard_normal((len(rows), d))
    first = clusters[0]
    feats[first[1]] = feats[first[0]]
    feats[first[2]] = 2.0 * feats[first[0]]
    zero = spread[200:204]
    feats[zero] = 0.0
    return feats, np.concatenate(clusters[-2:]), zero


@pytest.mark.parametrize("binarize", [True, False])
def test_knn_decides_near_ties_in_float64(monkeypatch, binarize):
    k = 5
    feats, crowded, zero = _near_tie_features(k)
    delta = itemgraph._screen_error(feats.shape[1])
    band_pairs, redone = [], []
    cosines, exact_rows = itemgraph._cosines, itemgraph._exact_rows

    def spy_cosines(values, norms, src, dst):
        band_pairs.append(len(src))
        return cosines(values, norms, src, dst)

    def spy_exact_rows(values, norms, rows, k):
        redone.extend(rows.tolist())
        return exact_rows(values, norms, rows, k)

    monkeypatch.setattr(itemgraph, "_cosines", spy_cosines)
    monkeypatch.setattr(itemgraph, "_exact_rows", spy_exact_rows)
    g = build_knn_graph(feats, k, binarize=binarize)
    assert band_pairs[0] > 0  # the first call rescores the contested bands
    assert set(crowded) | set(zero) <= set(redone)

    norms = np.sqrt((feats * feats).sum(axis=1))
    unit = np.divide(feats, norms[:, None], out=np.zeros_like(feats), where=norms[:, None] > 0)
    unit32 = unit.astype(np.float32)
    near_ties = float32_misses = 0
    for m in range(len(feats)):
        # Each float64 cosine is an elementwise product summed along the
        # row, so equal rows score equal bits.
        sims = (unit * unit[m]).sum(axis=1)
        sims32 = (unit32 @ unit32[m]).astype(np.float64)
        sims[m] = sims32[m] = -np.inf
        order = np.argsort(-sims, kind="stable")
        expected = np.sort(order[:k])
        near_ties += sims[order[k - 1]] - sims[order[k]] < delta
        float32_misses += not np.array_equal(
            np.sort(np.argsort(-sims32, kind="stable")[:k]), expected)
        cols, w = g.row(m)
        assert cols.tolist() == expected.tolist(), f"row {m}"
        if binarize:
            assert np.all(w == 1.0)
        else:
            assert np.abs(w - np.clip(sims[cols], 0.0, None)).max() <= 1e-12
    # The inputs do what they are for: float32 alone picks other columns.
    assert near_ties > 20 and float32_misses > 20


def test_fuse_graphs_weighted_sum_and_union_pattern():
    a = SparseGraph.from_rows(3, [([1], [1.0]), ([2], [1.0]), ([], [])])
    b = SparseGraph.from_rows(3, [([1, 2], [1.0, 1.0]), ([], []), ([0], [1.0])])
    fused = fuse_graphs(a, b, 0.1)
    dense = fused.to_dense()
    assert abs(dense[0, 1] - 1.0) < 1e-15  # edge in both graphs
    assert abs(dense[0, 2] - 0.9) < 1e-15
    assert abs(dense[1, 2] - 0.1) < 1e-15
    assert abs(dense[2, 0] - 0.9) < 1e-15
    union = graph_edge_set(a) | graph_edge_set(b)
    assert graph_edge_set(fused) == union


def test_fuse_graphs_degenerate_weights():
    rng = np.random.default_rng(34)
    a = dense_to_graph(random_graph(rng, 10, 3))
    b = dense_to_graph(random_graph(rng, 10, 3))
    # at the endpoints fusion reduces to one input as a weighted matrix
    assert np.array_equal(fuse_graphs(a, b, 1.0).to_dense(), a.to_dense())
    assert np.array_equal(fuse_graphs(a, b, 0.0).to_dense(), b.to_dense())
    assert graph_edge_set(fuse_graphs(a, b, 1.0)) == graph_edge_set(a) | graph_edge_set(b)
    with pytest.raises(ValueError, match="weight"):
        fuse_graphs(a, b, 1.5)
    with pytest.raises(ValueError, match="nodes"):
        fuse_graphs(a, dense_to_graph(random_graph(rng, 9, 3)), 0.5)


def test_topological_similarity_closed_forms():
    # two nodes sharing an identical 2-element neighborhood in a 4-node
    # graph: membership is Bernoulli(1/2) and fully dependent
    g = SparseGraph.from_rows(4, [([1], [1.0]), ([0], [1.0]), ([], []), ([], [])])
    assert abs(topological_similarity(g, 0, 1) - math.log(2.0)) < 1e-12

    # a node adjacent to everything has a constant indicator: zero info
    full = SparseGraph.from_rows(
        4, [([1, 2, 3], [1, 1, 1]), ([2], [1.0]), ([], []), ([], [])]
    )
    assert topological_similarity(full, 0, 1) == 0.0
    assert topological_similarity(full, 0, 3) == 0.0


def test_topological_similarity_matches_set_oracle():
    rng = np.random.default_rng(35)
    for _ in range(40):
        n = int(rng.integers(4, 24))
        dense = random_graph(rng, n, 5)
        g = dense_to_graph(dense)
        pairs = rng.integers(0, n, size=(15, 2))
        for m, nn in pairs:
            got = topological_similarity(g, int(m), int(nn))
            want = ts_set_oracle(dense, int(m), int(nn))
            assert abs(got - want) < 1e-9
            assert got >= 0.0


def test_topological_similarity_symmetry_and_log_base():
    rng = np.random.default_rng(36)
    for _ in range(10):
        n = int(rng.integers(4, 16))
        g = dense_to_graph(random_graph(rng, n, 4))
        for m in range(n):
            for nn in range(n):
                a = topological_similarity(g, m, nn)
                b = topological_similarity(g, nn, m)
                assert abs(a - b) < 1e-12
                halved = topological_similarity(g, m, nn, log_base=2.0)
                assert abs(halved - a / math.log(2.0)) < 1e-12


def test_tps_prune_matches_oracle_selection():
    rng = np.random.default_rng(37)
    cases = []
    for _ in range(25):
        n = int(rng.integers(5, 24))
        cases.append((random_graph(rng, n, 6), int(rng.integers(1, 4))))
    # Every closed neighbourhood of a complete graph holds all n nodes,
    # the largest size; a star's centre has out-degree n - 1.
    complete = rng.choice([0.1, 0.9, 1.0], size=(9, 9))
    np.fill_diagonal(complete, 0.0)
    star = np.zeros((9, 9))
    star[0, 1:] = rng.choice([0.1, 0.9, 1.0], size=8)
    star[[3, 5], [0, 4]] = 1.0
    cases += [(np.zeros((0, 0)), 1), (np.zeros((6, 6)), 2), (complete, 1), (complete, 3),
              (star, 1), (star, 4)]
    for dense, k in cases:
        pruned, _ = tps_prune(dense_to_graph(dense), k)
        assert graph_edge_set(pruned) == prune_oracle(dense, k)


def test_tps_prune_pass_through_and_subset():
    rng = np.random.default_rng(38)
    dense = random_graph(rng, 12, 4)
    g = dense_to_graph(dense)
    same, report = tps_prune(g, 10)  # k above the max out-degree
    assert graphs_equal(g, same)
    assert report.dropped.sum() == 0

    pruned, report = tps_prune(g, 2)
    kept = graph_edge_set(pruned)
    assert kept <= graph_edge_set(g)
    for m, j in kept:  # weights of surviving edges are untouched
        assert pruned.to_dense()[m, j] == dense[m, j]
    degs = pruned.out_degrees()
    orig = g.out_degrees()
    assert np.all(degs == np.minimum(orig, 2))
    assert report.kept.sum() == pruned.nnz
    assert report.kept.sum() + report.dropped.sum() == g.nnz


def test_tps_prune_tie_breaks():
    # neighbors 1 and 2 have interchangeable topologies, so their TS from
    # node 0 is identical; the heavier edge must win
    rows = [
        ([1, 2], [0.5, 0.9]),
        ([4], [1.0]),
        ([4], [1.0]),
        ([], []),
        ([], []),
        ([], []),
    ]
    g = SparseGraph.from_rows(6, rows)
    pruned, _ = tps_prune(g, 1)
    assert graph_edge_set(pruned) >= {(0, 2)}

    # equal weights: the lower column index wins
    rows[0] = ([1, 2], [0.7, 0.7])
    pruned, _ = tps_prune(SparseGraph.from_rows(6, rows), 1)
    assert graph_edge_set(pruned) >= {(0, 1)}


def test_tps_prune_log_base_invariance():
    rng = np.random.default_rng(39)
    for _ in range(10):
        dense = random_graph(rng, 14, 5)
        g = dense_to_graph(dense)
        nat, _ = tps_prune(g, 2)
        base2, _ = tps_prune(g, 2, log_base=2.0)
        assert graph_edge_set(nat) == graph_edge_set(base2)


def test_tps_prune_report_bounds_equal_scalar_scores():
    rng = np.random.default_rng(46)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        g = dense_to_graph(random_graph(rng, n, 6))
        log_base = [None, 2.0][int(rng.integers(0, 2))]
        _, report = tps_prune(g, 2, log_base=log_base)
        for m in range(n):
            cols, _ = g.row(m)
            if not len(cols):
                assert np.isnan(report.min_ts[m]) and np.isnan(report.max_ts[m])
                continue
            ts = [topological_similarity(g, m, int(c), log_base) for c in cols]
            assert report.min_ts[m] == min(ts)
            assert report.max_ts[m] == max(ts)


def _report_csv_reference(report):
    """The prune report's text, one row at a time."""
    rows = ["node,kept,dropped,min_ts,max_ts\n"]
    for i in range(len(report.kept)):
        lo = "" if np.isnan(report.min_ts[i]) else repr(float(report.min_ts[i]))
        hi = "" if np.isnan(report.max_ts[i]) else repr(float(report.max_ts[i]))
        rows.append(f"{i},{report.kept[i]},{report.dropped[i]},{lo},{hi}\n")
    return "".join(rows)


def test_tps_prune_report_csv(tmp_path):
    g = SparseGraph.from_rows(3, [([1, 2], [1.0, 1.0]), ([], []), ([0], [1.0])])
    _, report = tps_prune(g, 1)
    path = tmp_path / "report.csv"
    report.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node,kept,dropped,min_ts,max_ts"
    assert len(lines) == 4
    assert lines[2].startswith("1,0,0,,")  # empty row: no scores to report
    # Byte for byte against the row-by-row text, on reports with rows of
    # zero out-degree and on a 0-node report.
    rng = np.random.default_rng(39)
    graphs = [dense_to_graph(random_graph(rng, 40, 6)), SparseGraph.from_rows(0, [])]
    assert (graphs[0].out_degrees() == 0).any()
    for graph in graphs:
        _, report = tps_prune(graph, 2)
        report.to_csv(path)
        assert path.read_bytes() == _report_csv_reference(report).encode()


@pytest.mark.parametrize("log_base", [1.0, 0, -2.0, 0.5, math.inf, math.nan, "2"])
def test_log_base_outside_its_domain_is_refused(log_base):
    g = SparseGraph.from_rows(3, [([1, 2], [1.0, 1.0]), ([], []), ([0], [1.0])])
    message = f"log_base must be a finite number above 1, got {log_base!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        tps_prune(g, 1, log_base=log_base)
    with pytest.raises(ValueError, match=re.escape(message)):
        topological_similarity(g, 0, 1, log_base=log_base)


def test_prune_k_below_one_is_refused():
    g = SparseGraph.from_rows(3, [([1, 2], [1.0, 1.0]), ([], []), ([0], [1.0])])
    with pytest.raises(ValueError, match="prune k must be >= 1, got 0"):
        tps_prune(g, 0)
    with pytest.raises(ValueError, match="prune k must be >= 1, got 0"):
        random_prune(g, 0, 0)


def test_random_prune_degrees_and_determinism():
    rng = np.random.default_rng(40)
    g = dense_to_graph(random_graph(rng, 20, 6))
    pruned = random_prune(g, 3, 123)
    assert np.all(pruned.out_degrees() == np.minimum(g.out_degrees(), 3))
    assert graph_edge_set(pruned) <= graph_edge_set(g)
    again = random_prune(g, 3, 123)
    assert graphs_equal(pruned, again)
    other = random_prune(g, 3, 124)
    assert not graphs_equal(pruned, other)


def _cross_cluster_share(graph, clusters):
    src, dst, w = graph.to_edges()
    positive = w > 0
    return np.mean(clusters[src[positive]] != clusters[dst[positive]])


def test_tps_removes_planted_cross_cluster_edges():
    # Gate 07's data and planted-noise graph. TPS must cut the share of
    # positive edges between clusters well below random pruning's at the
    # same k (about 12-23% against 37-41%), and below the unplanted
    # graph's (27%).
    data = make_clustered_dataset(seed=DATA_SEED, **SYNTH_KW)
    clusters = data.item_clusters
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConfigWarning)
        _, fused, _ = build_item_graph(
            TrainConfig(knn_k=5), data.features_visual.values, data.features_textual.values
        )
    noisy = plant_cross_cluster_edges(fused, clusters, 0.2, seed=DATA_SEED)
    fused_share = _cross_cluster_share(fused, clusters)
    assert _cross_cluster_share(noisy, clusters) > fused_share
    for k in (3, 5, 8):
        pruned = _cross_cluster_share(tps_prune(noisy, k)[0], clusters)
        randomly = _cross_cluster_share(random_prune(noisy, k, 0), clusters)
        assert pruned < 0.7 * randomly, (k, pruned, randomly)
        assert pruned < fused_share, (k, pruned, fused_share)


def test_corrupt_graph_identity_and_full_replacement():
    rng = np.random.default_rng(41)
    g = dense_to_graph(random_graph(rng, 30, 4))
    assert graphs_equal(corrupt_graph(g, 0.0, 7), g)

    noisy = corrupt_graph(g, 1.0, 7)
    assert np.array_equal(noisy.out_degrees(), g.out_degrees())
    for m in range(30):
        before, w_before = g.row(m)
        after, w_after = noisy.row(m)
        assert not set(before.tolist()) & set(after.tolist())
        assert m not in after.tolist()
        assert sorted(w_before.tolist()) == sorted(w_after.tolist())
    noisy.validate()


def test_corrupt_graph_determinism_and_rate():
    rng = np.random.default_rng(42)
    g = dense_to_graph(random_graph(rng, 40, 5))
    a = corrupt_graph(g, 0.3, 99)
    b = corrupt_graph(g, 0.3, 99)
    assert graphs_equal(a, b)

    base = g.to_dense() != 0
    changed = int((~base[np.nonzero(a.to_dense())]).sum())
    assert 0 < changed < g.nnz


def test_corrupt_graph_replaced_fraction_concentrates():
    # a graph with 10^4 edges: the replaced share stays near epsilon
    rng = np.random.default_rng(43)
    n = 500
    rows = []
    for m in range(n):
        cols = rng.choice([j for j in range(n) if j != m], size=20, replace=False)
        rows.append((np.sort(cols), np.ones(20)))
    g = SparseGraph.from_rows(n, rows)
    assert g.nnz == 10_000
    for eps in (0.05, 0.1):
        for seed in range(5):
            noisy = corrupt_graph(g, eps, seed)
            replaced = int((g.indices != noisy.indices).sum())
            # sorting can only mask a replacement by pure coincidence;
            # count via set difference instead to be exact
            moved = sum(
                len(set(g.row(m)[0].tolist()) - set(noisy.row(m)[0].tolist()))
                for m in range(n)
            )
            assert abs(moved / g.nnz - eps) < 0.01
            assert replaced >= moved


def test_corrupt_graph_degenerate_row_keeps_edge():
    # node 0 already points at every other node: nothing to rewire to
    g = SparseGraph.from_rows(3, [([1, 2], [1.0, 1.0]), ([], []), ([], [])])
    noisy = corrupt_graph(g, 1.0, 0)
    assert graphs_equal(noisy, g)
    with pytest.raises(ValueError, match="rate"):
        corrupt_graph(g, 1.5, 0)


def test_graph_io_round_trip(tmp_path):
    rng = np.random.default_rng(44)
    g = dense_to_graph(random_graph(rng, 25, 5, weight_choices=(0.1, 1 / 3, 0.9)))
    text = tmp_path / "g.tmg"
    save_graph(text, g)
    assert graphs_equal(load_graph(text), g)

    empty = SparseGraph.from_rows(4, [([], [])] * 4)
    save_graph(tmp_path / "e.tmg", empty)
    assert graphs_equal(load_graph(tmp_path / "e.tmg"), empty)
    # A file holds at most 8 nodes a byte: 80 for the 10 bytes "TMG1 80 0\n".
    (tmp_path / "e.tmg").write_text("TMG1 80 0\n")
    assert load_graph(tmp_path / "e.tmg").num_nodes == 80
    (tmp_path / "e.tmg").write_text("TMG1 81 0\n")
    with pytest.raises(ValueError, match="the header declares 81 nodes; a 10-byte file holds"):
        load_graph(tmp_path / "e.tmg")


def test_graph_file_is_header_then_one_line_per_edge(tmp_path):
    g = SparseGraph.from_rows(3, [([2, 1], [0.1, 1 / 3]), ([], []), ([0], [1.0])])
    path = tmp_path / "g.tmg"
    save_graph(path, g)
    assert path.read_text() == (
        "TMG1 3 3\n0 1 0.33333333333333331\n0 2 0.10000000000000001\n2 0 1\n"
    )
    # Byte for byte against the edge-by-edge text: thousands of distinct
    # cosine weights, weights that formatting tells apart by sign or
    # exponent only, an edgeless graph and a 0-node graph.
    cosines = build_knn_graph(np.random.default_rng(45).standard_normal((600, 16)), 10,
                              binarize=False)
    assert len(np.unique(cosines.weights)) > 2000
    extremes = SparseGraph.from_rows(2, [([0, 1], [-0.0, 5e-324]), ([0, 1], [0.0, 1e300])])
    for graph in (cosines, extremes, SparseGraph.from_rows(4, [([], [])] * 4),
                  SparseGraph.from_rows(0, [])):
        save_graph(path, graph)
        src, dst, w = graph.to_edges()
        want = f"TMG1 {graph.num_nodes} {graph.nnz}\n" + "".join(
            f"{s} {d} {wt:.17g}\n" for s, d, wt in zip(src.tolist(), dst.tolist(), w.tolist())
        )
        assert path.read_bytes() == want.encode()
    save_graph(path, extremes)
    assert path.read_text().splitlines()[1:] == [
        "0 0 -0", "0 1 4.9406564584124654e-324", "1 0 0", "1 1 1.0000000000000001e+300"
    ]
    # Blank lines after the last edge, a missing final newline and CRLF
    # line ends all load.
    for body in ("0 1 0.5\n\n  \n", "0 1 0.5", "0 1 0.5\r\n"):
        path.write_text("TMG1 3 1\n" + body)
        assert load_graph(path).weights.tolist() == [0.5]


def test_graph_io_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.tmg"
    bad.write_text("WHAT 3 1\n0 1 1.0\n")
    with pytest.raises(ValueError, match="expected a TMG1 header"):
        load_graph(bad)
    short = tmp_path / "short.tmg"
    short.write_text("TMG1 3 2\n0 1 1.0\n0 2\n")
    with pytest.raises(ValueError, match="line 2"):
        load_graph(short)
    shifted = tmp_path / "shifted.tmg"
    shifted.write_text("TMG1 3 2\n0 1 1.0 0\n2 1.0\n")
    with pytest.raises(ValueError, match="edge line 1 malformed"):
        load_graph(shifted)
    missing = tmp_path / "missing.tmg"
    missing.write_text("TMG1 3 3\n0 1 1.0\n0 2 1.0\n")
    with pytest.raises(ValueError, match="edge line 3 malformed"):
        load_graph(missing)
    extra = tmp_path / "extra.tmg"
    extra.write_text("TMG1 3 1\n0 1 1.0\n\n0 2 1.0\n")
    with pytest.raises(ValueError, match="edge line 3: the header declares only 1 edges"):
        load_graph(extra)
    negative = tmp_path / "negative.tmg"
    negative.write_text("TMG1 3 -1\n")
    with pytest.raises(ValueError, match="header counts must be >= 0"):
        load_graph(negative)
    # A binary file with another magic fails on the header, before any decoding.
    binary = tmp_path / "g.tmgb"
    binary.write_bytes(b"TMG2" + bytes(range(250, 256)) * 4)
    with pytest.raises(ValueError, match=f"{binary}: not a graph file"):
        load_graph(binary)
