"""Metamorphic relations of the graph and ranking stages: two runs on
related inputs must agree, which needs no oracle.

- Scaling each feature row by its own power of two leaves the kNN graph
  bit-identical: the norms scale exactly and cancel exactly.
- Relabelling items permutes the binarised kNN graph exactly. With
  cosine weights the edge set permutes exactly, but a weight may move
  in its last bits: `_cosines` divides each pair's dot by the norm of
  the lower-index row first, and relabelling can swap which row that is.
- Relabelling the nodes of a graph keeps, per row, the multiset of the
  topological similarities that TPS keeps. The edges themselves may
  differ, since ties go to the lower column index.
- Permuting users and items, in the table and the embeddings together,
  leaves the ranking metrics equal up to the order of the final sums.
"""

import numpy as np
import pytest

from toporec.data import InteractionTable, make_split
from toporec.itemgraph import (
    SparseGraph,
    build_knn_graph,
    topological_similarity,
    tps_prune,
)
from toporec.metrics import evaluate
from toporec.synth import make_clustered_dataset

# (items, dims, dtype); the last case spans two 2,048-row Gram blocks.
KNN_CASES = [(500, 64, np.float64), (2500, 24, np.float32)]
KNN_K = 10


def _clustered_features(n, d, dtype, seed):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((20, d))
    return (centers[rng.integers(0, 20, n)] + 0.7 * rng.standard_normal((n, d))).astype(dtype)


def _relabel(graph, new_id):
    """The same graph with node m renamed new_id[m]."""
    src, dst, w = graph.to_edges()
    return SparseGraph.from_edges(graph.num_nodes, new_id[src], new_id[dst], w)


@pytest.mark.parametrize("binarize", [True, False])
@pytest.mark.parametrize("n, d, dtype", KNN_CASES)
def test_knn_graph_ignores_power_of_two_row_scales(n, d, dtype, binarize):
    feats = _clustered_features(n, d, dtype, seed=n)
    scales = 2.0 ** np.random.default_rng(1).integers(-20, 21, size=(n, 1))
    base = build_knn_graph(feats, KNN_K, binarize=binarize)
    scaled = build_knn_graph((feats * scales).astype(dtype), KNN_K, binarize=binarize)
    assert np.array_equal(base.indptr, scaled.indptr)
    assert np.array_equal(base.indices, scaled.indices)
    assert base.weights.tobytes() == scaled.weights.tobytes()


@pytest.mark.parametrize("binarize", [True, False])
@pytest.mark.parametrize("n, d, dtype", KNN_CASES)
def test_knn_graph_follows_an_item_relabelling(n, d, dtype, binarize):
    feats = _clustered_features(n, d, dtype, seed=n + 1)
    perm = np.random.default_rng(2).permutation(n)  # new item p is old item perm[p]
    base = build_knn_graph(feats, KNN_K, binarize=binarize)
    relabelled = build_knn_graph(feats[perm], KNN_K, binarize=binarize)
    expected = _relabel(base, np.argsort(perm))
    assert np.array_equal(relabelled.indptr, expected.indptr)
    assert np.array_equal(relabelled.indices, expected.indices)
    if binarize:
        assert relabelled.weights.tobytes() == expected.weights.tobytes()
    else:
        np.testing.assert_array_max_ulp(relabelled.weights, expected.weights, maxulp=2)


def test_tps_keeps_the_same_similarities_under_relabelling():
    n, k = 500, 5
    graph = build_knn_graph(_clustered_features(n, 32, np.float64, seed=3), 12)
    new_id = np.random.default_rng(4).permutation(n)
    relabelled = _relabel(graph, new_id)
    pruned, _ = tps_prune(graph, k)
    pruned_relabelled, _ = tps_prune(relabelled, k)
    for m in range(n):
        kept = sorted(topological_similarity(graph, m, c) for c in pruned.row(m)[0])
        kept_relabelled = sorted(
            topological_similarity(relabelled, new_id[m], c)
            for c in pruned_relabelled.row(new_id[m])[0]
        )
        assert kept == kept_relabelled, m


def test_ranking_metrics_ignore_user_and_item_order():
    # More users than one scoring block of 512.
    data = make_clustered_dataset(num_users=700, num_items=300, seed=5)
    table = make_split(data.table, seed=5)
    rng = np.random.default_rng(6)
    z_users = rng.standard_normal((table.num_users, 16))
    z_items = rng.standard_normal((table.num_items, 16))
    user_perm = rng.permutation(table.num_users)  # new user p is old user user_perm[p]
    item_perm = rng.permutation(table.num_items)
    rows = rng.permutation(table.num_interactions)
    edges = np.stack(
        [np.argsort(user_perm)[table.edges[rows, 0]], np.argsort(item_perm)[table.edges[rows, 1]]],
        axis=1,
    )
    permuted = InteractionTable(
        table.num_users, table.num_items, table.user_tokens, table.item_tokens,
        edges, table.roles[rows],
    )
    for split in ("val", "test"):
        base = evaluate(z_users, z_items, table, split, (5, 10, 20))
        moved = evaluate(z_users[user_perm], z_items[item_perm], permuted, split, (5, 10, 20))
        assert base.keys() == moved.keys()
        assert base["num_users"] == moved["num_users"]
        for key in base.keys() - {"split", "num_users"}:
            assert moved[key] == pytest.approx(base[key], rel=0, abs=1e-12), key
