"""Item-item graphs: kNN construction, modality fusion, topological
similarity pruning, and noise injection.

Graphs are directed with non-negative edge weights and are stored in a
row-compressed layout with the column indices of every row sorted.
The pruning criterion scores an edge (m, n) by the mutual information
between membership indicators of the two closed neighborhoods
N_m = {m} plus out-neighbors of m, treated as Bernoulli variables over
a node drawn uniformly from the vertex set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "SparseGraph",
    "PruneReport",
    "build_knn_graph",
    "top_k_entries",
    "fuse_graphs",
    "row_neighbors",
    "topological_similarity",
    "tps_prune",
    "random_prune",
    "corrupt_graph",
    "save_graph",
    "load_graph",
    "graphs_equal",
]


@dataclass
class SparseGraph:
    """Directed weighted graph in CSR form with sorted row columns."""

    num_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float64)

    def validate(self):
        if len(self.indptr) != self.num_nodes + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} does not match {self.num_nodes} nodes"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.indices):
            raise ValueError("indptr does not cover the index array")
        if (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) != len(self.weights):
            raise ValueError(
                f"{len(self.indices)} indices but {len(self.weights)} weights"
            )
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_nodes
        ):
            raise ValueError("column index out of range")
        if not np.isfinite(self.weights).all() or (self.weights < 0).any():
            raise ValueError("edge weights must be finite and non-negative")
        # Columns rise within a row; only a row's first entry may step down.
        bad = np.flatnonzero(np.diff(self.indices) <= 0) + 1
        bad = bad[~np.isin(bad, self.indptr)]
        if bad.size:
            m = np.searchsorted(self.indptr, bad[0], side="right") - 1
            raise ValueError(f"row {m} has unsorted or duplicate columns")
        return self

    @property
    def nnz(self):
        return len(self.indices)

    def row(self, m):
        """(columns, weights) views for one row."""
        lo, hi = self.indptr[m], self.indptr[m + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def out_degrees(self):
        return np.diff(self.indptr)

    def to_dense(self):
        dense = np.zeros((self.num_nodes, self.num_nodes))
        src, dst, w = self.to_edges()
        dense[src, dst] = w
        return dense

    def to_edges(self):
        """(src, dst, weight) arrays in row-major order."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))
        return src, self.indices.copy(), self.weights.copy()

    @staticmethod
    def from_rows(num_nodes, rows):
        """Build from per-row (columns, weights) pairs; sorts columns."""
        rows = list(rows)
        if not rows:
            return SparseGraph.from_edges(num_nodes, [], [], [])
        cols, weights = zip(*rows)
        counts = np.fromiter(map(len, cols), dtype=np.int64, count=len(rows))
        mismatch = np.flatnonzero(counts != np.fromiter(map(len, weights), dtype=np.int64))
        if mismatch.size:
            m = mismatch[0]
            raise ValueError(f"row {m}: {counts[m]} columns but {len(weights[m])} weights")
        src = np.repeat(np.arange(len(rows), dtype=np.int64), counts)
        return SparseGraph.from_edges(
            num_nodes, src, np.concatenate(cols), np.concatenate(weights)
        )

    @staticmethod
    def from_edges(num_nodes, src, dst, weights):
        """Build from (src, dst, weight) arrays in any order; validates."""
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if len(src) and (src.min() < 0 or src.max() >= num_nodes):
            raise ValueError("source index out of range")
        order = np.lexsort((dst, src))
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
        return SparseGraph(num_nodes, indptr, dst[order], weights[order]).validate()


def graphs_equal(a, b):
    if a.num_nodes != b.num_nodes or a.nnz != b.nnz:
        return False
    if not np.array_equal(a.indptr, b.indptr) or not np.array_equal(a.indices, b.indices):
        return False
    return bool(np.array_equal(a.weights, b.weights))


def row_neighbors(graph, m):
    """Closed out-neighborhood of m, sorted: the node itself plus its targets."""
    if not 0 <= m < graph.num_nodes:
        raise IndexError(f"node {m} outside graph of {graph.num_nodes} nodes")
    cols, _ = graph.row(m)
    return np.union1d(cols, np.array([m], dtype=np.int64))


def top_k_entries(scores, k):
    """(rows, cols) of the k largest entries of every row of a 2-D array.

    Ties at the k-th score go to the lower column, so each row keeps
    exactly the k columns that a stable descending sort puts first
    (-inf entries included when a row has fewer than k others). The
    pairs come in row-major order, columns ascending within a row.
    """
    n = scores.shape[1]
    # Every score above the k-th largest, then the lowest-index columns
    # tied with it until the row holds k. Only rows with more ties than
    # room need the running count.
    kth = np.partition(scores, n - k, axis=1)[:, [n - k]]
    above = scores > kth
    tied = scores == kth
    room = k - np.count_nonzero(above, axis=1)
    over = np.flatnonzero(np.count_nonzero(tied, axis=1) > room)
    if len(over):
        crowded = tied[over]
        tied[over] = crowded & (np.cumsum(crowded, axis=1) <= room[over, None])
    above |= tied
    return np.nonzero(above)


# The block shape of a BLAS product can move the last bit of a cosine weight,
# so _GRAM_ROWS stays fixed; _TOPK_ROWS bounds the memory of the selection.
_GRAM_ROWS = 2048
_TOPK_ROWS = 512


def build_knn_graph(features, k, binarize=True):
    """Directed kNN graph under cosine similarity.

    Each row keeps its k most similar other items; ties break toward the
    lower item index. All-zero feature rows have zero similarity to
    everything. With binarize=False edges carry the cosine value clipped
    at zero instead of weight 1.
    """
    values = features.values if hasattr(features, "values") else np.asarray(features)
    n = values.shape[0]
    if k < 1:
        raise ValueError(f"knn k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"knn k={k} needs more than {k} items, have {n}")
    work = values.astype(np.float64, copy=False)
    norms = np.sqrt((work * work).sum(axis=1, keepdims=True))
    normed = np.divide(work, norms, out=np.zeros_like(work), where=norms > 0)
    src, dst, scores = [], [], []
    for block in range(0, n, _GRAM_ROWS):
        gram = normed[block:block + _GRAM_ROWS] @ normed.T
        gram[np.arange(len(gram)), block + np.arange(len(gram))] = -np.inf
        for lo in range(0, len(gram), _TOPK_ROWS):
            sims = gram[lo:lo + _TOPK_ROWS]
            rows, cols = top_k_entries(sims, k)
            src.append(block + lo + rows)
            dst.append(cols)
            scores.append(sims[rows, cols])
    scores = np.concatenate(scores)
    weights = np.ones(len(scores)) if binarize else np.clip(scores, 0.0, None)
    return SparseGraph.from_edges(n, np.concatenate(src), np.concatenate(dst), weights)


def fuse_graphs(graph_a, graph_b, weight_a):
    """Weighted union: weight_a * A + (1 - weight_a) * B over the
    union sparsity pattern."""
    if graph_a.num_nodes != graph_b.num_nodes:
        raise ValueError(
            f"cannot fuse graphs with {graph_a.num_nodes} and {graph_b.num_nodes} nodes"
        )
    if not 0.0 <= weight_a <= 1.0:
        raise ValueError(f"fusion weight must be in [0, 1], got {weight_a}")
    n = graph_a.num_nodes
    src_a, dst_a, w_a = graph_a.to_edges()
    src_b, dst_b, w_b = graph_b.to_edges()
    keys, edge = np.unique(np.concatenate([src_a * n + dst_a, src_b * n + dst_b]),
                           return_inverse=True)
    # bincount adds from 0.0 in array order, A's term before B's, and keeps
    # an edge whose terms sum to 0, so the pattern stays the union.
    w = np.concatenate([weight_a * w_a, (1.0 - weight_a) * w_b])
    return SparseGraph.from_edges(n, keys // n, keys % n, np.bincount(edge, weights=w))


def _mutual_information(total, size_m, size_n, overlap, log_base=None):
    """MI of the two membership indicators given set sizes and overlap.

    Cells with zero joint probability contribute nothing. Clamped at
    zero to absorb rounding in the always-non-negative sum.
    """
    cells = (
        (overlap, size_m, size_n),
        (size_m - overlap, size_m, total - size_n),
        (size_n - overlap, total - size_m, size_n),
        (total - size_m - size_n + overlap, total - size_m, total - size_n),
    )
    ts = 0.0
    for joint, marg_a, marg_b in cells:
        if joint == 0:
            continue
        ts += (joint / total) * math.log(joint * total / (marg_a * marg_b))
    if log_base is not None:
        ts /= math.log(log_base)
    return max(ts, 0.0)


def topological_similarity(graph, m, n, log_base=None):
    """Mutual information between the closed neighborhoods of m and n.

    Natural log by default; log_base rescales (the induced ranking is
    invariant to the base).
    """
    nm = row_neighbors(graph, m)
    nn = row_neighbors(graph, n)
    overlap = np.intersect1d(nm, nn, assume_unique=True).size
    return _mutual_information(graph.num_nodes, len(nm), len(nn), overlap, log_base)


@dataclass
class PruneReport:
    """Per-node outcome of a pruning pass."""

    kept: np.ndarray
    dropped: np.ndarray
    min_ts: np.ndarray
    max_ts: np.ndarray

    def total_kept(self):
        return int(self.kept.sum())

    def total_dropped(self):
        return int(self.dropped.sum())

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("node,kept,dropped,min_ts,max_ts\n")
            for i in range(len(self.kept)):
                lo = "" if np.isnan(self.min_ts[i]) else repr(float(self.min_ts[i]))
                hi = "" if np.isnan(self.max_ts[i]) else repr(float(self.max_ts[i]))
                fh.write(f"{i},{self.kept[i]},{self.dropped[i]},{lo},{hi}\n")


def tps_prune(graph, k, log_base=None):
    """Keep, per row, the k out-edges with the highest topological
    similarity to the source.

    Rows with out-degree <= k pass through unchanged. Ties break toward
    the higher edge weight, then toward the lower column index. Kept
    edges retain their weights. Returns (pruned graph, report).
    """
    if k < 1:
        raise ValueError(f"prune k must be >= 1, got {k}")
    n = graph.num_nodes
    src, dst, w = graph.to_edges()
    # Row m of `hoods` is the 0/1 indicator of N_m; an edge's overlap is
    # the dot product of its two end rows.
    hoods = sp.csr_matrix((np.ones(len(dst)), dst, graph.indptr), shape=(n, n)) + sp.identity(n)
    hoods.data[:] = 1.0
    overlap = np.asarray(hoods[src].multiply(hoods[dst]).sum(axis=1), dtype=np.int64).ravel()
    sizes = hoods.getnnz(axis=1)
    # Few distinct (|N_m|, |N_n|, overlap) triples occur; the scalar
    # formula scores each once, so every edge gets its exact value.
    triples, which = np.unique(
        np.stack([sizes[src], sizes[dst], overlap], axis=1), axis=0, return_inverse=True
    )
    scores = [_mutual_information(n, *triple, log_base) for triple in triples.tolist()]
    ts = np.array(scores, dtype=np.float64)[which.ravel()]

    degrees = graph.out_degrees()
    rank = np.arange(len(src)) - graph.indptr[src]
    keep = np.lexsort((dst, -w, -ts, src))[rank < k]
    kept = np.bincount(src[keep], minlength=n)
    rows = np.flatnonzero(degrees)
    min_ts = np.full(n, np.nan)
    max_ts = np.full(n, np.nan)
    min_ts[rows] = np.minimum.reduceat(ts, graph.indptr[rows])
    max_ts[rows] = np.maximum.reduceat(ts, graph.indptr[rows])
    report = PruneReport(kept, degrees - kept, min_ts, max_ts)
    return SparseGraph.from_edges(n, src[keep], dst[keep], w[keep]), report


def random_prune(graph, k, seed):
    """Keep min(k, out-degree) uniformly chosen out-edges per row."""
    if k < 1:
        raise ValueError(f"prune k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    src, dst, w = graph.to_edges()
    keep = np.ones(graph.nnz, dtype=bool)
    for m in np.flatnonzero(graph.out_degrees() > k):
        lo, hi = graph.indptr[m], graph.indptr[m + 1]
        keep[lo:hi] = False
        keep[lo + rng.choice(hi - lo, size=k, replace=False)] = True
    return SparseGraph.from_edges(graph.num_nodes, src[keep], dst[keep], w[keep])


def corrupt_graph(graph, eps, seed):
    """Rewire each edge independently with probability eps.

    A rewired edge keeps its source row and weight but points at a
    uniformly random node that is neither the source nor one of the
    row's original targets nor an already chosen replacement, so
    out-degrees and per-row weight multisets are preserved exactly.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"corruption rate must be in [0, 1], got {eps}")
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    src, dst, w = graph.to_edges()
    for m in np.flatnonzero(graph.out_degrees()) if eps > 0.0 else ():
        lo, hi = graph.indptr[m], graph.indptr[m + 1]
        flip = lo + np.flatnonzero(rng.random(hi - lo) < eps)
        avoid = set(dst[lo:hi].tolist()) | {int(m)}
        for j in flip:
            if len(avoid) >= n:
                break  # nowhere left to rewire; keep the remaining edges
            t = int(rng.integers(0, n))
            while t in avoid:
                t = int(rng.integers(0, n))
            avoid.add(t)
            dst[j] = t
    return SparseGraph.from_edges(n, src, dst, w)


def save_graph(path, graph):
    """Write a TMG1 file: a `TMG1 <nodes> <edges>` header, then one
    `src dst weight` line per edge in row-major order."""
    src, dst, w = graph.to_edges()
    body = "".join(
        f"{s} {d} {wt:.17g}\n" for s, d, wt in zip(src.tolist(), dst.tolist(), w.tolist())
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"TMG1 {graph.num_nodes} {graph.nnz}\n{body}")


def load_graph(path):
    """Read a TMG1 file; a malformed one raises a ValueError naming it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _parse_tmg1(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _parse_tmg1(data):
    head, _, body = data.partition(b"\n")
    header = head.split()
    if len(header) != 3 or header[0] != b"TMG1":
        raise ValueError("not a graph file (expected a TMG1 header)")
    num_nodes, nnz = int(header[1]), int(header[2])
    if num_nodes < 0 or nnz < 0:
        raise ValueError(f"header counts must be >= 0, got {num_nodes} nodes and {nnz} edges")
    # Edge line e is lines[e - 1]; what follows the nnz-th line break is the rest.
    lines = body.split(b"\n", nnz)
    rest = lines.pop() if len(lines) > nnz else b""
    sizes = np.fromiter(map(len, map(bytes.split, lines)), dtype=np.int64, count=len(lines))
    bad = np.flatnonzero(sizes != 3)
    if bad.size or len(lines) < nnz:
        raise ValueError(f"edge line {(bad[0] if bad.size else len(lines)) + 1} malformed")
    extra = next((e for e, line in enumerate(rest.split(b"\n")) if line.strip()), None)
    if extra is not None:
        raise ValueError(f"edge line {nnz + 1 + extra}: the header declares only {nnz} edges")
    tokens = body[:len(body) - len(rest)].split()
    src = np.array(tokens[0::3], dtype=np.int64)
    dst = np.array(tokens[1::3], dtype=np.int64)
    w = np.array(tokens[2::3], dtype=np.float64)
    outside = np.flatnonzero((src < 0) | (src >= num_nodes) | (dst < 0) | (dst >= num_nodes))
    if outside.size:
        e = outside[0]
        raise ValueError(f"edge line {e + 1}: {src[e]} -> {dst[e]} is outside {num_nodes} nodes")
    return SparseGraph.from_edges(num_nodes, src, dst, w)
