"""The planted-cluster generator and its noise planting."""

import numpy as np
import pytest

from toporec.itemgraph import SparseGraph, graphs_equal
from toporec.synth import make_clustered_dataset, plant_cross_cluster_edges


def test_items_must_divide_evenly_into_clusters():
    with pytest.raises(ValueError, match=r"num_items \(7\) must divide evenly into 5 clusters"):
        make_clustered_dataset(num_users=3, num_items=7, num_clusters=5)


def test_planting_refuses_a_negative_fraction():
    g = SparseGraph.from_rows(2, [([1], [1.0]), ([0], [1.0])])
    with pytest.raises(ValueError, match="fraction must be non-negative, got -0.1"):
        plant_cross_cluster_edges(g, [0, 1], fraction=-0.1)


def test_rows_whose_share_rounds_to_zero_are_kept_as_they_are():
    # round(0.2 * 1) = 0 and round(0.2 * 0) = 0; round(0.2 * 5) = 1
    rows = [([1], [0.5]), ([], []), ([0, 3, 4, 5, 6], [0.1, 0.2, 0.3, 0.4, 0.9])]
    rows += [([], [])] * 5
    clusters = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    g = SparseGraph.from_rows(8, rows)
    planted = plant_cross_cluster_edges(g, clusters, fraction=0.2, seed=0)
    for m in (0, 1):
        assert planted.row(m)[0].tolist() == g.row(m)[0].tolist()
        assert planted.row(m)[1].tolist() == g.row(m)[1].tolist()
    cols, w = planted.row(2)
    new = sorted(set(cols.tolist()) - {0, 3, 4, 5, 6})
    assert len(new) == 1 and clusters[new[0]] == 1
    assert w[cols.tolist().index(new[0])] == 0.9
    assert graphs_equal(planted, plant_cross_cluster_edges(g, clusters, fraction=0.2, seed=0))
