"""Multimodal item encoders, LightGCN aggregation, and training losses.

Items are represented as the element-wise sum of a free ID embedding
and a fused modality encoding. Each modality runs through a small MLP
whose layers are one autograd op each (linear, tanh and layer norm,
``autograd.encoder_layer``) followed by dropout; a linear fuser
followed by tanh merges the modality outputs. User and item
representations are then propagated over the normalized interaction
graph LightGCN-style and summed across layers.

The alignment loss pulls graph-adjacent items together: for an anchor
m with in-batch neighbors n it is the negative log of the weighted
share that edges of m take of the anchor's total similarity mass,
with cosine similarities and a temperature. It is one autograd op,
``autograd.weighted_infonce``, whose backward is in closed form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .data import ROLE_TRAIN
from .optim import ParamStore, xavier_uniform

__all__ = [
    "ModelConfig",
    "MultimodalRecommender",
    "build_propagation_matrix",
    "bpr_loss",
    "neighborhood_alignment_loss",
    "joint_loss",
    "eligible_anchor_items",
    "positive_subgraph",
    "build_na_batch",
    "na_batch_from_items",
    "slice_na_batch",
]

@dataclass
class ModelConfig:
    num_users: int
    num_items: int
    visual_dim: int = 0
    textual_dim: int = 0
    embed_dim: int = 64
    hidden_dim: int = 512
    depth: int = 2
    gcn_layers: int = 2
    dropout: float = 0.0
    dtype: object = np.float32

    def modality_dims(self):
        dims = {}
        if self.visual_dim > 0:
            dims["visual"] = self.visual_dim
        if self.textual_dim > 0:
            dims["textual"] = self.textual_dim
        return dims


class MultimodalRecommender:
    """MLP modality encoders plus LightGCN over the interaction graph."""

    def __init__(self, cfg, rng):
        dims = cfg.modality_dims()
        if not dims:
            raise ValueError("at least one modality dimension must be positive")
        if cfg.depth < 1:
            raise ValueError(f"encoder depth must be >= 1, got {cfg.depth}")
        if cfg.gcn_layers < 0:
            raise ValueError(f"gcn layer count must be >= 0, got {cfg.gcn_layers}")
        self.cfg = cfg
        self.params = ParamStore()
        dtype = cfg.dtype
        self.params.add(
            "user_embed", xavier_uniform(rng, (cfg.num_users, cfg.embed_dim), dtype)
        )
        self.params.add(
            "item_embed", xavier_uniform(rng, (cfg.num_items, cfg.embed_dim), dtype)
        )
        for tag, dim in dims.items():
            widths = [dim] + [cfg.hidden_dim] * (cfg.depth - 1) + [cfg.embed_dim]
            for layer in range(cfg.depth):
                d_in, d_out = widths[layer], widths[layer + 1]
                self.params.add(f"{tag}_mlp{layer}_w", xavier_uniform(rng, (d_in, d_out), dtype))
                self.params.add(f"{tag}_mlp{layer}_b", np.zeros((1, d_out), dtype=dtype))
                self.params.add(f"{tag}_mlp{layer}_gain", np.ones((1, d_out), dtype=dtype))
                self.params.add(f"{tag}_mlp{layer}_bias", np.zeros((1, d_out), dtype=dtype))
        fuse_in = cfg.embed_dim * len(dims)
        self.params.add("fuser_w", xavier_uniform(rng, (fuse_in, cfg.embed_dim), dtype))
        self.params.add("fuser_b", np.zeros((1, cfg.embed_dim), dtype=dtype))

    def _encode_modality(self, tag, values, train_mode, rng):
        x = Tensor(np.asarray(values, dtype=self.cfg.dtype))
        if x.cols != self.cfg.modality_dims()[tag]:
            raise ValueError(
                f"{tag} features have dim {x.cols}, model expects "
                f"{self.cfg.modality_dims()[tag]}"
            )
        for layer in range(self.cfg.depth):
            x = ag.encoder_layer(
                x, *(self.params[f"{tag}_mlp{layer}_{p}"] for p in ("w", "b", "gain", "bias"))
            )
            x = ag.dropout(x, self.cfg.dropout, rng, train_mode)
        return x

    def encode_items(self, features, train_mode=False, rng=None, return_branches=False):
        """Fused modality encoding for all items, shape (num_items, d).

        features maps modality name to its raw array. Branch outputs are
        also returned when asked (used by per-modality alignment terms).
        """
        branches = {}
        for tag in self.cfg.modality_dims():
            if features.get(tag) is None:
                raise ValueError(f"model expects {tag} features but none were given")
            branches[tag] = self._encode_modality(tag, features[tag], train_mode, rng)
        parts = list(branches.values())
        merged = parts[0] if len(parts) == 1 else ag.concat_cols(parts[0], parts[1])
        fused = ag.tanh(ag.add(ag.matmul(merged, self.params["fuser_w"]), self.params["fuser_b"]))
        if return_branches:
            return fused, branches
        return fused

    def aggregate(self, h_items, s_ui, s_iu):
        """LightGCN propagation; returns layer-summed (z_users, z_items)."""
        h_u = self.params["user_embed"]
        h_i = ag.add(self.params["item_embed"], h_items)
        z_u, z_i = h_u, h_i
        for _ in range(self.cfg.gcn_layers):
            h_u, h_i = ag.spmm(s_ui, h_i), ag.spmm(s_iu, h_u)
            z_u = ag.add(z_u, h_u)
            z_i = ag.add(z_i, h_i)
        return z_u, z_i

    def forward(self, features, s_ui, s_iu, train_mode=False, rng=None):
        h_items = self.encode_items(features, train_mode=train_mode, rng=rng)
        z_u, z_i = self.aggregate(h_items, s_ui, s_iu)
        return z_u, z_i, h_items

    def embeddings(self, features, s_ui, s_iu):
        """Evaluation-mode user/item representation arrays."""
        z_u, z_i, _ = self.forward(features, s_ui, s_iu, train_mode=False)
        return z_u.values, z_i.values


def build_propagation_matrix(table, dtype=np.float32):
    """Symmetrically normalized user-item matrix over train edges, as
    (CSR matrix, its transpose).

    Entry (u, i) is 1/sqrt(deg_u * deg_i); zero-degree rows and columns
    stay zero, so isolated nodes propagate nothing.
    """
    import scipy.sparse as sp  # deferred; see the package docstring

    edges = table.role_edges(ROLE_TRAIN)
    u = edges[:, 0]
    i = edges[:, 1]
    deg_u = np.bincount(u, minlength=table.num_users).astype(np.float64)
    deg_i = np.bincount(i, minlength=table.num_items).astype(np.float64)
    vals = 1.0 / np.sqrt(deg_u[u] * deg_i[i])
    mat = sp.csr_matrix(
        (vals.astype(dtype), (u, i)), shape=(table.num_users, table.num_items)
    )
    return mat, mat.T


def bpr_loss(z_users, z_items, batch):
    """Mean of -log sigmoid(pos score - neg score) over the triples."""
    if len(batch) == 0:
        raise ValueError("empty BPR batch")
    z_u = ag.gather_rows(z_users, batch.users)
    z_p = ag.gather_rows(z_items, batch.pos_items)
    z_n = ag.gather_rows(z_items, batch.neg_items)
    gap = ag.sub(ag.row_dot(z_u, z_p), ag.row_dot(z_u, z_n))
    return ag.tmean(ag.softplus(ag.neg(gap)))


def neighborhood_alignment_loss(reps, anchor_rows, anchor_weights, temperature=1.0):
    """Contrast anchors against the batch under graph-edge weighting.

    reps holds the batch representations (one row per batch item);
    anchor_rows indexes the anchors within the batch, each row once;
    anchor_weights is the (anchors, batch) slice of the supervision
    graph. For each anchor the loss is -log of (weighted similarity mass
    of its edges) over (total similarity mass), self excluded on both
    sides. Anchors with no positive in-batch weight are dropped from the
    mean; if every anchor drops, the loss is 0 (with a warning).
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    batch_size = reps.rows
    if batch_size < 2:
        raise ValueError(f"alignment loss needs at least 2 batch items, got {batch_size}")
    anchor_rows = np.asarray(anchor_rows, dtype=np.int64)
    weights = np.asarray(anchor_weights, dtype=reps.values.dtype)
    if weights.shape != (len(anchor_rows), batch_size):
        raise ValueError(
            f"anchor weights shape {weights.shape} does not match "
            f"({len(anchor_rows)}, {batch_size})"
        )
    if len(np.unique(anchor_rows)) != len(anchor_rows):
        raise ValueError("anchor rows must be distinct")
    # fmin skips NaN, as the comparison weights < 0 does.
    if np.fmin.reduce(weights, axis=None, initial=0.0) < 0:
        raise ValueError("alignment weights must be non-negative")

    loss = ag.weighted_infonce(reps, anchor_rows, weights, temperature)
    if loss is None:
        warnings.warn("no anchor has an in-batch neighbor; alignment loss is 0")
        return Tensor(np.zeros((1, 1), dtype=reps.values.dtype))
    return loss


def joint_loss(bpr, na, na_weight):
    """BPR plus the weighted alignment term.

    With na_weight 0 the alignment term is dropped entirely, so no
    gradient flows through it. L2 regularization is not part of the
    loss: the optimizer step applies it as decoupled weight decay.
    """
    if na_weight != 0.0 and na is not None:
        return ag.add(bpr, ag.scale(na, na_weight))
    return bpr


def eligible_anchor_items(graph):
    """Items with at least one positive-weight out-edge."""
    return np.flatnonzero(np.diff(positive_subgraph(graph).indptr))


def positive_subgraph(graph):
    """The edges of `graph` with positive weight, as a float64 scipy CSR."""
    import scipy.sparse as sp  # deferred; see the package docstring

    n = graph.num_nodes
    # A copy, since eliminate_zeros compacts the arrays it holds in place.
    mat = sp.csr_matrix((graph.weights, graph.indices, graph.indptr), shape=(n, n), copy=True)
    mat.eliminate_zeros()
    return mat


def build_na_batch(positive, rng, num_anchors, dtype=np.float32):
    """Sample alignment anchors and force one neighbor each into the batch.

    `positive` is `positive_subgraph(graph)`, which a caller sampling many
    batches builds once. Anchors are drawn uniformly without replacement
    from items with a positive-weight out-edge; each contributes one
    uniformly chosen such neighbor. Returns (batch item ids sorted unique,
    anchor positions within the batch, (anchors, batch) weight slice), or
    None when the graph has no eligible anchor.
    """
    counts = np.diff(positive.indptr)
    eligible = np.flatnonzero(counts)
    if len(eligible) == 0:
        return None
    take = min(num_anchors, len(eligible))
    anchors = np.sort(rng.choice(eligible, size=take, replace=False))
    # One draw per anchor, in anchor order: the same numbers and generator
    # state as one rng.integers(0, count) call per anchor.
    partners = positive.indices[positive.indptr[anchors] + rng.integers(0, counts[anchors])]
    return slice_na_batch(positive, anchors, np.unique(np.concatenate([anchors, partners])), dtype)


def na_batch_from_items(graph, item_ids, dtype=np.float32):
    """Alignment batch over given items, every item serving as anchor."""
    batch_ids = np.unique(np.asarray(item_ids, dtype=np.int64))
    return slice_na_batch(positive_subgraph(graph), batch_ids, batch_ids, dtype)


def slice_na_batch(positive, anchors, batch_ids, dtype=np.float32):
    """Alignment batch of sorted `anchors` within sorted unique `batch_ids`, from CSR `positive`."""
    weights = positive[anchors][:, batch_ids].astype(dtype).toarray()
    return batch_ids, np.searchsorted(batch_ids, anchors), weights
