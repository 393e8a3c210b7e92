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
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SparseGraph",
    "PruneReport",
    "build_knn_graph",
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
        if (self.weights < 0).any():
            raise ValueError("edge weights must be non-negative")
        for m in range(self.num_nodes):
            cols = self.indices[self.indptr[m]:self.indptr[m + 1]]
            if len(cols) > 1 and (np.diff(cols) <= 0).any():
                raise ValueError(f"row {m} has unsorted or duplicate columns")
        return self

    @property
    def nnz(self):
        return len(self.indices)

    def out_degree(self, m):
        return int(self.indptr[m + 1] - self.indptr[m])

    def row(self, m):
        """(columns, weights) views for one row."""
        lo, hi = self.indptr[m], self.indptr[m + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def out_degrees(self):
        return np.diff(self.indptr)

    def copy(self):
        return SparseGraph(
            self.num_nodes, self.indptr.copy(), self.indices.copy(), self.weights.copy()
        )

    def to_dense(self):
        dense = np.zeros((self.num_nodes, self.num_nodes))
        for m in range(self.num_nodes):
            cols, w = self.row(m)
            dense[m, cols] = w
        return dense

    def to_edges(self):
        """(src, dst, weight) arrays in row-major order."""
        src = np.repeat(np.arange(self.num_nodes, dtype=np.int64), np.diff(self.indptr))
        return src, self.indices.copy(), self.weights.copy()

    @staticmethod
    def from_rows(num_nodes, rows):
        """Build from per-row (columns, weights) pairs; sorts columns."""
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        all_cols = []
        all_w = []
        for m, (cols, w) in enumerate(rows):
            cols = np.asarray(cols, dtype=np.int64)
            w = np.asarray(w, dtype=np.float64)
            if len(cols) != len(w):
                raise ValueError(f"row {m}: {len(cols)} columns but {len(w)} weights")
            order = np.argsort(cols, kind="stable")
            all_cols.append(cols[order])
            all_w.append(w[order])
            indptr[m + 1] = indptr[m] + len(cols)
        indices = np.concatenate(all_cols) if all_cols else np.zeros(0, dtype=np.int64)
        weights = np.concatenate(all_w) if all_w else np.zeros(0)
        return SparseGraph(num_nodes, indptr, indices, weights).validate()

    @staticmethod
    def from_edges(num_nodes, src, dst, weights):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        rows = [[] for _ in range(num_nodes)]
        vals = [[] for _ in range(num_nodes)]
        for s, d, w in zip(src, dst, weights):
            rows[s].append(d)
            vals[s].append(w)
        return SparseGraph.from_rows(num_nodes, zip(rows, vals))


def graphs_equal(a, b, tol=0.0):
    if a.num_nodes != b.num_nodes or a.nnz != b.nnz:
        return False
    if not np.array_equal(a.indptr, b.indptr) or not np.array_equal(a.indices, b.indices):
        return False
    if tol == 0.0:
        return bool(np.array_equal(a.weights, b.weights))
    return bool(np.allclose(a.weights, b.weights, rtol=0, atol=tol))


def row_neighbors(graph, m):
    """Closed out-neighborhood of m, sorted: the node itself plus its targets."""
    if not 0 <= m < graph.num_nodes:
        raise IndexError(f"node {m} outside graph of {graph.num_nodes} nodes")
    cols, _ = graph.row(m)
    return np.union1d(cols, np.array([m], dtype=np.int64))


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
    rows = []
    block = 2048
    positions = np.arange(n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        sims = normed[start:stop] @ normed.T
        for r in range(stop - start):
            s = sims[r]
            s[start + r] = -np.inf
            order = np.lexsort((positions, -s))[:k]
            chosen = np.sort(order)
            if binarize:
                w = np.ones(k)
            else:
                w = np.clip(s[chosen], 0.0, None)
            rows.append((chosen, w))
    return SparseGraph.from_rows(n, rows)


def fuse_graphs(graph_a, graph_b, weight_a):
    """Weighted union: weight_a * A + (1 - weight_a) * B over the
    union sparsity pattern."""
    if graph_a.num_nodes != graph_b.num_nodes:
        raise ValueError(
            f"cannot fuse graphs with {graph_a.num_nodes} and {graph_b.num_nodes} nodes"
        )
    if not 0.0 <= weight_a <= 1.0:
        raise ValueError(f"fusion weight must be in [0, 1], got {weight_a}")
    rows = []
    for m in range(graph_a.num_nodes):
        cols_a, w_a = graph_a.row(m)
        cols_b, w_b = graph_b.row(m)
        cols = np.union1d(cols_a, cols_b)
        w = np.zeros(len(cols))
        w[np.searchsorted(cols, cols_a)] += weight_a * w_a
        w[np.searchsorted(cols, cols_b)] += (1.0 - weight_a) * w_b
        rows.append((cols, w))
    return SparseGraph.from_rows(graph_a.num_nodes, rows)


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

    k: int
    nodes: np.ndarray
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
            for i in range(len(self.nodes)):
                lo = "" if np.isnan(self.min_ts[i]) else repr(float(self.min_ts[i]))
                hi = "" if np.isnan(self.max_ts[i]) else repr(float(self.max_ts[i]))
                fh.write(f"{self.nodes[i]},{self.kept[i]},{self.dropped[i]},{lo},{hi}\n")


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
    hoods = [row_neighbors(graph, m) for m in range(n)]
    rows = []
    kept = np.zeros(n, dtype=np.int64)
    dropped = np.zeros(n, dtype=np.int64)
    min_ts = np.full(n, np.nan)
    max_ts = np.full(n, np.nan)
    for m in range(n):
        cols, w = graph.row(m)
        deg = len(cols)
        if deg == 0:
            rows.append((cols, w))
            continue
        size_m = len(hoods[m])
        ts = np.empty(deg)
        for j, nb in enumerate(cols):
            overlap = np.intersect1d(hoods[m], hoods[nb], assume_unique=True).size
            ts[j] = _mutual_information(n, size_m, len(hoods[nb]), overlap, log_base)
        min_ts[m] = ts.min()
        max_ts[m] = ts.max()
        if deg <= k:
            choice = np.arange(deg)
        else:
            choice = np.lexsort((cols, -w, -ts))[:k]
        choice = np.sort(choice)
        kept[m] = len(choice)
        dropped[m] = deg - len(choice)
        rows.append((cols[choice], w[choice]))
    report = PruneReport(
        k=k, nodes=np.arange(n, dtype=np.int64),
        kept=kept, dropped=dropped, min_ts=min_ts, max_ts=max_ts,
    )
    return SparseGraph.from_rows(n, rows), report


def random_prune(graph, k, seed):
    """Keep min(k, out-degree) uniformly chosen out-edges per row."""
    if k < 1:
        raise ValueError(f"prune k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    rows = []
    for m in range(graph.num_nodes):
        cols, w = graph.row(m)
        deg = len(cols)
        if deg <= k:
            rows.append((cols, w))
            continue
        choice = np.sort(rng.choice(deg, size=k, replace=False))
        rows.append((cols[choice], w[choice]))
    return SparseGraph.from_rows(graph.num_nodes, rows)


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
    rows = []
    for m in range(n):
        cols, w = graph.row(m)
        deg = len(cols)
        if deg == 0 or eps == 0.0:
            rows.append((cols, w))
            continue
        flip = rng.random(deg) < eps
        if not flip.any():
            rows.append((cols, w))
            continue
        avoid = set(int(c) for c in cols)
        avoid.add(m)
        new_cols = cols.copy()
        for j in np.flatnonzero(flip):
            if len(avoid) >= n:
                continue  # nowhere left to rewire; keep the edge
            t = int(rng.integers(0, n))
            while t in avoid:
                t = int(rng.integers(0, n))
            avoid.add(t)
            new_cols[j] = t
        rows.append((new_cols, w))
    return SparseGraph.from_rows(n, rows)


_GRAPH_MAGIC_TEXT = b"TMG1"
_GRAPH_MAGIC_BIN = b"TMG2"


def save_graph(path, graph, binary=False):
    """Write TMG1 (text edge list) or TMG2 (binary CSR)."""
    if binary:
        with open(path, "wb") as fh:
            fh.write(_GRAPH_MAGIC_BIN)
            fh.write(struct.pack("<IQ", graph.num_nodes, graph.nnz))
            fh.write(graph.indptr.astype("<i8").tobytes())
            fh.write(graph.indices.astype("<i8").tobytes())
            fh.write(graph.weights.astype("<f8").tobytes())
        return
    src, dst, w = graph.to_edges()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"TMG1 {graph.num_nodes} {graph.nnz}\n")
        for s, d, wt in zip(src, dst, w):
            fh.write(f"{s} {d} {wt:.17g}\n")


def load_graph(path):
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic == _GRAPH_MAGIC_BIN:
            num_nodes, nnz = struct.unpack("<IQ", fh.read(12))
            indptr = np.frombuffer(fh.read((num_nodes + 1) * 8), dtype="<i8").copy()
            indices = np.frombuffer(fh.read(nnz * 8), dtype="<i8").copy()
            weights = np.frombuffer(fh.read(nnz * 8), dtype="<f8").copy()
            return SparseGraph(num_nodes, indptr, indices, weights).validate()
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 3 or header[0] != "TMG1":
            raise ValueError(f"{path}: not a graph file (expected TMG1 or TMG2 header)")
        num_nodes, nnz = int(header[1]), int(header[2])
        src = np.empty(nnz, dtype=np.int64)
        dst = np.empty(nnz, dtype=np.int64)
        w = np.empty(nnz)
        for e in range(nnz):
            parts = fh.readline().split()
            if len(parts) != 3:
                raise ValueError(f"{path}: edge line {e + 1} malformed")
            src[e], dst[e], w[e] = int(parts[0]), int(parts[1]), float(parts[2])
    return SparseGraph.from_edges(num_nodes, src, dst, w)
