"""Synthetic planted-cluster dataset for end-to-end checks and demos.

Items live in a fixed number of clusters; both modality feature views
are noisy observations of the cluster centers. Every user prefers one
cluster and draws most interactions from it, with a small uniform
leak. The generator is deterministic in its seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import ROLE_UNSET, FeatureMatrix, InteractionTable
from .itemgraph import SparseGraph

__all__ = ["SyntheticDataset", "make_clustered_dataset", "plant_cross_cluster_edges"]


@dataclass
class SyntheticDataset:
    table: InteractionTable
    features_visual: FeatureMatrix
    features_textual: FeatureMatrix
    item_clusters: np.ndarray
    user_clusters: np.ndarray


def make_clustered_dataset(
    num_users=2000,
    num_items=500,
    num_clusters=10,
    visual_dim=48,
    textual_dim=32,
    visual_noise=1.2,
    textual_noise=0.9,
    interactions_low=5,
    interactions_high=10,
    affinity=0.9,
    seed=0,
):
    """Generate interactions plus two noisy feature views.

    Each user interacts with between interactions_low and
    interactions_high distinct items; a fraction `affinity` of the draws
    comes from the user's preferred cluster, the rest is uniform. The
    returned table carries no split roles yet.
    """
    for name, count in (
        ("num_users", num_users), ("num_items", num_items), ("num_clusters", num_clusters)
    ):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    if num_items % num_clusters:
        raise ValueError(
            f"num_items ({num_items}) must divide evenly into {num_clusters} clusters"
        )
    rng = np.random.default_rng(seed)
    item_clusters = np.repeat(np.arange(num_clusters), num_items // num_clusters)
    cluster_items = [np.flatnonzero(item_clusters == c) for c in range(num_clusters)]

    def noisy_view(dim, noise):
        centers = rng.normal(size=(num_clusters, dim))
        feats = centers[item_clusters] + noise * rng.normal(size=(num_items, dim))
        return feats.astype(np.float32)

    visual = noisy_view(visual_dim, visual_noise)
    textual = noisy_view(textual_dim, textual_noise)

    user_clusters = rng.integers(0, num_clusters, size=num_users)
    edges = []
    for u in range(num_users):
        want = int(rng.integers(interactions_low, interactions_high + 1))
        own = cluster_items[user_clusters[u]]
        chosen = set()
        tries = 0
        while len(chosen) < want and tries < 50 * want:
            tries += 1
            if rng.random() < affinity:
                item = int(own[rng.integers(0, len(own))])
            else:
                item = int(rng.integers(0, num_items))
            chosen.add(item)
        for item in sorted(chosen):
            edges.append((u, item))
    edges = np.array(edges, dtype=np.int64)
    table = InteractionTable(
        num_users=num_users,
        num_items=num_items,
        user_tokens=[f"u{u}" for u in range(num_users)],
        item_tokens=[f"i{i}" for i in range(num_items)],
        edges=edges,
        roles=np.full(len(edges), ROLE_UNSET, dtype=np.int8),
    )
    return SyntheticDataset(
        table=table,
        features_visual=FeatureMatrix("visual", visual),
        features_textual=FeatureMatrix("textual", textual),
        item_clusters=item_clusters,
        user_clusters=user_clusters,
    )


def plant_cross_cluster_edges(graph, item_clusters, fraction=0.2, seed=0):
    """Add round(fraction * out-degree) cross-cluster edges to each row.

    Planted edges point at uniformly chosen items from other clusters
    that the row does not already reach, and carry the row's maximum
    weight so they compete with the real edges.
    """
    if fraction < 0:
        raise ValueError(f"fraction must be non-negative, got {fraction}")
    rng = np.random.default_rng(seed)
    item_clusters = np.asarray(item_clusters)
    n = graph.num_nodes
    rows = []
    for m in range(n):
        cols, w = graph.row(m)
        extra = int(round(fraction * len(cols)))
        if extra == 0:
            rows.append((cols, w))
            continue
        avoid = set(int(c) for c in cols)
        avoid.add(m)
        weight = w.max() if len(w) else 1.0
        new_cols = []
        tries = 0
        while len(new_cols) < extra and tries < 50 * extra:
            tries += 1
            t = int(rng.integers(0, n))
            if t in avoid or item_clusters[t] == item_clusters[m]:
                continue
            avoid.add(t)
            new_cols.append(t)
        rows.append(
            (
                np.concatenate([cols, np.array(new_cols, dtype=np.int64)]),
                np.concatenate([w, np.full(len(new_cols), weight)]),
            )
        )
    return SparseGraph.from_rows(n, rows)
