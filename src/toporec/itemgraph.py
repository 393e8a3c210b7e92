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

from .data import write_file

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
        if not len(src) == len(dst) == len(weights):
            raise ValueError(f"{len(src)} sources, {len(dst)} targets but {len(weights)} weights")
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
    # Every score at or above the k-th largest. Only rows where that is
    # more than k have ties at the k-th score to cut, keeping the
    # lowest-index tied columns until the row holds k.
    kth = np.partition(scores, n - k, axis=1)[:, [n - k]]
    keep = scores >= kth
    over = np.flatnonzero(np.count_nonzero(keep, axis=1) > k)
    if len(over):
        crowded, crowded_kth = scores[over], kth[over]
        above = crowded > crowded_kth
        tied = crowded == crowded_kth
        room = k - np.count_nonzero(above, axis=1)
        keep[over] = above | (tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room[:, None]))
    # One flat pass finds the kept entries several times faster than a
    # two-dimensional np.nonzero.
    flat = np.flatnonzero(keep)
    return flat // n, flat % n


# The float32 Gram matrix is screened in _GRAM_ROWS x _GRAM_ROWS blocks,
# each pair of row blocks once; _TOPK_ROWS bounds the memory of each
# selection, _F64_ROWS the feature rows held in float64 at a time, which
# then stay in cache, and _PAIR_ROWS one batch of pairwise float64 dots.
# Weights come from those dots, never from a block product, so no block
# shape moves a weight's last bit.
_GRAM_ROWS = 2048
_TOPK_ROWS = 512
_F64_ROWS = 128
_PAIR_ROWS = 32
_U32 = 2.0 ** -24  # float32's unit roundoff


def _screen_error(d):
    """A bound on |float32 screen score - float64 cosine| for rows of width d.

    Let x, y be the float64 unit rows, x' and y' their float32 copies and
    u = 2^-24, so x'_i = x_i (1 + e_i) with |e_i| <= u (a component
    rounded into float32's subnormal range errs by at most 2^-150, far
    inside the slack below). Then
    - rounding the inputs moves the dot by at most (2u + u^2) sum |x_i y_i|
      <= 2u + u^2, by Cauchy-Schwarz on unit rows;
    - a float32 dot of length d, in any order and with or without fused
      multiply-adds, errs by at most gamma_d sum |x'_i y'_i| <= gamma_d (1 + u)^2,
      where gamma_d = d u / (1 - d u) (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., section 3.1);
    - the two sum to at most (d + 3) u / (1 - d u) when (3d + 1) u <= 1;
    - the float64 normalisation and rescoring err by about d 2^-53 each,
      under one more u for d < 2^27.
    Wider rows get no bound, so every row is scored in float64.
    """
    if d > 2 ** 22:
        return math.inf
    return (d + 4) * _U32 / (1 - d * _U32)


def _unit_rows(rows, norms):
    """Scale float64 `rows` to unit length in place; all-zero rows (norm 0)
    become +0.0, -0.0 entries included."""
    np.divide(rows, norms[:, None], out=rows, where=norms[:, None] > 0)
    rows[norms == 0] = 0.0
    return rows


def _c_contiguous(a):
    """`a` itself, or a C-contiguous copy of a transposed view made 64
    columns at a time: those are 64 source rows, which span few memory
    pages, where one pass over all columns is about twice as slow."""
    if a.flags.c_contiguous:
        return a
    out = np.empty(a.shape, dtype=a.dtype)
    for lo in range(0, a.shape[1], 64):
        out[:, lo:lo + 64] = a[:, lo:lo + 64]
    return out


def _proposals(rows, n, width, dtype):
    """Empty (columns, scores) slots for `rows` rows that `_propose` fills
    from the column blocks of an n-column score matrix."""
    blocks = range(0, n, _GRAM_ROWS)
    slots = width * (len(blocks) - 1) + min(width, n - blocks[-1])
    return np.empty((rows, slots), dtype=np.int64), np.empty((rows, slots), dtype=dtype)


def _propose(cand_cols, cand_scores, sims, row0, col0, width):
    """Put the `width` best columns of each row of one block of scores, or
    all of them when the block is no wider, in the block's slots.

    Row m keeps the proposals of column block b in the `width` slots from
    b * width, so its proposed columns ascend along the row and
    top_k_entries' tie rule carries over: the `width` best of a row's
    proposals are its `width` best columns.
    """
    slot = col0 // _GRAM_ROWS * width
    for lo in range(0, len(sims), _TOPK_ROWS):
        part = _c_contiguous(sims[lo:lo + _TOPK_ROWS])
        if part.shape[1] > width:
            cols = top_k_entries(part, width)[1].reshape(len(part), width)
        else:
            cols = np.broadcast_to(np.arange(part.shape[1]), part.shape)
        rows = slice(row0 + lo, row0 + lo + len(part))
        cand_cols[rows, slot:slot + cols.shape[1]] = col0 + cols
        cand_scores[rows, slot:slot + cols.shape[1]] = np.take_along_axis(part, cols, 1)


def _cosines(values, norms, src, dst):
    """float64 cosines of the pairs (src[p], dst[p]) of feature rows.

    Each distinct pair is scored once, as the float64 dot of the
    lower-index row with the higher-index one divided by their norms in
    that order, so (m, n) and (n, m) get the same bits. Pairs with an
    all-zero row score +0.0.
    """
    n = len(values)
    keys, which = np.unique(np.minimum(src, dst) * n + np.maximum(src, dst),
                            return_inverse=True)
    lo, hi = keys // n, keys % n
    out = np.empty(len(lo))
    for p in range(0, len(lo), _PAIR_ROWS):
        a, b = lo[p:p + _PAIR_ROWS], hi[p:p + _PAIR_ROWS]
        out[p:p + len(a)] = np.einsum("ij,ij->i", values[a], values[b], dtype=np.float64)
    live = (norms[lo] > 0) & (norms[hi] > 0)
    out[live] /= norms[lo[live]]
    out[live] /= norms[hi[live]]
    out[~live] = 0.0
    return out[which]


def _exact_rows(values, norms, rows, k):
    """(src, dst) of the k best columns of each of `rows`, with every
    column scored by a float64 product of unit rows; ties go to the lower
    column. Each column block is normalised once and meets the rows
    _F64_ROWS at a time."""
    n = len(values)
    cand_cols, cand_scores = _proposals(len(rows), n, k, np.float64)
    for lo in range(0, n, _GRAM_ROWS):
        right = _unit_rows(values[lo:lo + _GRAM_ROWS].astype(np.float64),
                           norms[lo:lo + _GRAM_ROWS])
        for p in range(0, len(rows), _F64_ROWS):
            part = rows[p:p + _F64_ROWS]
            sims = _unit_rows(values[part].astype(np.float64), norms[part]) @ right.T
            own = np.flatnonzero((part >= lo) & (part < lo + len(right)))
            sims[own, part[own] - lo] = -np.inf
            _propose(cand_cols, cand_scores, sims, p, lo, k)
    r, pos = top_k_entries(cand_scores, k)
    return rows[r], cand_cols[r, pos]


def build_knn_graph(features, k, binarize=True):
    """Directed kNN graph under cosine similarity.

    Each row keeps its k most similar other items; ties break toward the
    lower item index. All-zero feature rows have zero similarity to
    everything. With binarize=False edges carry the cosine value clipped
    at zero instead of weight 1.

    The cosines are screened in float32 and decided in float64. Rows are
    normalised in float64 and kept as one float32 copy, whose Gram
    matrix proposes each row's best min(2k, n) columns. With s_k the
    row's k-th screen score and delta the bound of `_screen_error` on
    how far a screen score lies from the float64 cosine, a proposed
    column above s_k + 2 delta is kept and one below s_k - 2 delta is
    dropped; only the columns in between are rescored by a float64
    pairwise dot (`_cosines`), and the best of them fill the row. A row
    whose band may reach past its proposals (ties, duplicate or all-zero
    rows) is scored against every column in float64 instead
    (`_exact_rows`). Every cosine weight comes from `_cosines`, so the
    weights of (m, n) and (n, m) are equal to the last bit.
    """
    values = features.values if hasattr(features, "values") else np.asarray(features)
    n, d = values.shape
    if k < 1:
        raise ValueError(f"knn k must be >= 1, got {k}")
    if k >= n:
        raise ValueError(f"knn k={k} needs more than {k} items, have {n}")
    norms = np.empty(n)
    screen = np.empty((n, d), dtype=np.float32)
    for lo in range(0, n, _F64_ROWS):
        block = values[lo:lo + _F64_ROWS].astype(np.float64)
        block_norms = norms[lo:lo + _F64_ROWS]
        np.sqrt((block * block).sum(axis=1), out=block_norms)
        bad = np.flatnonzero(~np.isfinite(block_norms))
        if bad.size:
            raise ValueError(f"feature row {lo + bad[0]} has no finite norm")
        screen[lo:lo + _F64_ROWS] = _unit_rows(block, block_norms)

    width = min(2 * k, n)
    cand_cols, cand_scores = _proposals(n, n, width, np.float32)
    for i in range(0, n, _GRAM_ROWS):
        block_i = screen[i:i + _GRAM_ROWS]
        for j in range(i, n, _GRAM_ROWS):
            gram = block_i @ screen[j:j + _GRAM_ROWS].T
            if j == i:
                np.fill_diagonal(gram, -np.inf)
            _propose(cand_cols, cand_scores, gram, i, j, width)
            if j > i:
                _propose(cand_cols, cand_scores, gram.T, j, i, width)
            del gram  # before the next product, so one block is live at a time
    del screen
    src, pos = top_k_entries(cand_scores, width)
    cols = cand_cols[src, pos].reshape(n, width)
    scores = cand_scores[src, pos].reshape(n, width).astype(np.float64)

    # The row's k-th float64 cosine lies within delta of s_k, so a column
    # more than 2 delta above s_k beats it and one more than 2 delta below
    # loses to it. A row none of whose proposals is below the band may
    # have band columns it never proposed.
    delta = _screen_error(d)
    kth = np.partition(scores, width - k, axis=1)[:, [width - k]]
    above = scores > kth + 2 * delta
    below = scores < kth - 2 * delta
    band = ~(above | below)
    covered = below.any(axis=1)
    # Columns above the band, and the whole band of a row with no more band
    # columns than places left, are kept (+inf); columns below it are
    # dropped (-inf). Any other band is decided by its float64 cosines.
    places = k - np.count_nonzero(above, axis=1)
    contested = covered & (np.count_nonzero(band, axis=1) > places)
    decide = np.where(below, -np.inf, np.inf)
    r, c = np.nonzero(band & contested[:, None])
    decide[r, c] = _cosines(values, norms, r, cols[r, c])
    rows = np.flatnonzero(covered)
    r, c = top_k_entries(decide[rows], k)
    src, dst = rows[r], cols[rows[r], c]
    redo = np.flatnonzero(~covered)
    if redo.size:
        redo_src, redo_dst = _exact_rows(values, norms, redo, k)
        src, dst = np.concatenate([src, redo_src]), np.concatenate([dst, redo_dst])
    weights = (np.ones(len(src)) if binarize
               else np.clip(_cosines(values, norms, src, dst), 0.0, None))
    return SparseGraph.from_edges(n, src, dst, weights)


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

    def to_csv(self, path):
        rows = []
        for i in range(len(self.kept)):
            lo = "" if np.isnan(self.min_ts[i]) else repr(float(self.min_ts[i]))
            hi = "" if np.isnan(self.max_ts[i]) else repr(float(self.max_ts[i]))
            rows.append(f"{i},{self.kept[i]},{self.dropped[i]},{lo},{hi}\n")
        write_file(path, "node,kept,dropped,min_ts,max_ts\n", *rows)


def tps_prune(graph, k, log_base=None):
    """Keep, per row, the k out-edges with the highest topological
    similarity to the source.

    Rows with out-degree <= k pass through unchanged. Ties break toward
    the higher edge weight, then toward the lower column index. Kept
    edges retain their weights. Returns (pruned graph, report).
    """
    import scipy.sparse as sp  # deferred; see the package docstring

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
    write_file(path, f"TMG1 {graph.num_nodes} {graph.nnz}\n", body)


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
    # At most 8 nodes a byte: the 8-byte-a-node index array then stays
    # under 64 times the file's size, however short the file.
    if num_nodes > 8 * len(data):
        raise ValueError(f"the header declares {num_nodes} nodes; a {len(data)}-byte file "
                         f"holds at most {8 * len(data)}")
    # Edge line e is lines[e - 1]; what follows the nnz-th line break is the rest.
    lines = body.split(b"\n", min(nnz, len(body)))
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
    try:
        return SparseGraph.from_edges(num_nodes, src, dst, w)
    except MemoryError:
        raise ValueError(f"the header declares {num_nodes} nodes, more than memory holds") from None
