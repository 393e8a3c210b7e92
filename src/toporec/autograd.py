"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every value is a (rows, cols) float array; scalars are (1, 1). An op
computes its result eagerly and records, on the output tensor, one
closure per parent that maps the upstream gradient to that parent's
contribution. ``backward`` runs a single topological sweep and
accumulates gradients into the leaf tensors created with
``requires_grad=True``.

float64 is the dtype for gradient checks, float32 the usual training
dtype; ops follow the dtype of their inputs.

The module holds the ops the model and trainer call and nothing else.
Two of them, ``encoder_layer`` and ``weighted_infonce``, are whole
layers fused into one node with a closed-form backward. Tensors carry
no arithmetic operators: every op is a module-level function.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Tensor",
    "SparseMatrix",
    "add",
    "add_const",
    "sub",
    "mul",
    "mul_const",
    "scale",
    "neg",
    "matmul",
    "tanh",
    "softplus",
    "tsum",
    "tmean",
    "gather_rows",
    "concat_cols",
    "encoder_layer",
    "dropout",
    "row_dot",
    "weighted_infonce",
    "spmm",
    "finite_diff_check",
]


class Tensor:
    """A 2-D array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("values", "grad", "requires_grad", "_parents")

    def __init__(self, values, requires_grad=False):
        arr = np.asarray(values)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        if arr.ndim == 0:
            arr = arr.reshape(1, 1)
        elif arr.ndim == 1:
            arr = arr.reshape(1, -1)
        elif arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        self.values = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()

    @property
    def shape(self):
        return self.values.shape

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def cols(self):
        return self.values.shape[1]

    def item(self):
        if self.values.size != 1:
            raise ValueError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.values[0, 0])

    def backward(self):
        """Accumulate d(self)/d(leaf) into every requires_grad leaf."""
        if self.values.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        order = _topo_order(self)
        grads = {id(self): np.ones_like(self.values)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._parents:
                for parent, fn in node._parents:
                    contrib = fn(g)
                    pid = id(parent)
                    if pid in grads:
                        grads[pid] = grads[pid] + contrib
                    else:
                        grads[pid] = contrib
            elif node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad and not self._parents else ""
        return f"Tensor(shape={self.shape}, dtype={self.values.dtype}{flag})"


def _topo_order(root):
    """Reachable nodes, outputs first (reverse topological)."""
    order = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent, _ in parents:
            if id(parent) not in seen and (parent._parents or parent.requires_grad):
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def _from_op(values, parents):
    out = Tensor(values)
    tracked = tuple((p, fn) for p, fn in parents if p.requires_grad)
    if tracked:
        out._parents = tracked
        out.requires_grad = True
    return out


def _from_joint_op(values, parents, back):
    """Record one node whose back(g, needs) returns all parents' gradients.

    needs[k] tells whether parent k takes a gradient; back may return
    None in the other places. back runs once per upstream gradient, and
    each parent's closure hands out its own part.
    """
    needs = tuple(p.requires_grad for p in parents)
    pending = {}

    def part(k):
        def fn(g):
            if pending.get("g") is not g:
                pending.clear()
                pending["g"] = g
                pending.update((j, gj) for j, gj in enumerate(back(g, needs)) if needs[j])
            out = pending.pop(k)
            if len(pending) == 1:
                pending.clear()
            return out

        return fn

    return _from_op(values, [(p, part(k)) for k, p in enumerate(parents)])


def _unbroadcast(g, shape):
    """Reduce a broadcast gradient back to the operand's shape."""
    if g.shape == shape:
        return g
    if shape[0] == 1 and g.shape[0] > 1:
        g = g.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] > 1:
        g = g.sum(axis=1, keepdims=True)
    return g


def _broadcast_shape(op, a_shape, b_shape):
    try:
        return np.broadcast_shapes(a_shape, b_shape)
    except ValueError:
        raise ValueError(f"{op}: cannot broadcast {a_shape} with {b_shape}") from None


def add(a, b):
    _broadcast_shape("add", a.shape, b.shape)
    return _from_op(a.values + b.values, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(g, b.shape)),
    ])


def sub(a, b):
    _broadcast_shape("sub", a.shape, b.shape)
    return _from_op(a.values - b.values, [
        (a, lambda g: _unbroadcast(g, a.shape)),
        (b, lambda g: _unbroadcast(-g, b.shape)),
    ])


def mul(a, b):
    _broadcast_shape("mul", a.shape, b.shape)
    av, bv = a.values, b.values
    return _from_op(av * bv, [
        (a, lambda g: _unbroadcast(g * bv, a.shape)),
        (b, lambda g: _unbroadcast(g * av, b.shape)),
    ])


def add_const(a, c):
    c = np.asarray(c, dtype=a.values.dtype)
    _broadcast_shape("add_const", a.shape, np.atleast_2d(c).shape)
    return _from_op(a.values + c, [(a, lambda g: _unbroadcast(g, a.shape))])


def mul_const(a, c):
    c = np.asarray(c, dtype=a.values.dtype)
    _broadcast_shape("mul_const", a.shape, np.atleast_2d(c).shape)
    return _from_op(a.values * c, [(a, lambda g: _unbroadcast(g * c, a.shape))])


def scale(a, s):
    return mul_const(a, float(s))


def neg(a):
    return mul_const(a, -1.0)


def matmul(a, b):
    if a.cols != b.rows:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    return _from_op(av @ bv, [
        (a, lambda g: g @ bv.T),
        (b, lambda g: av.T @ g),
    ])


def tanh(a):
    out = np.tanh(a.values)
    return _from_op(out, [(a, lambda g: g * (1.0 - out * out))])


def softplus(a):
    """log(1 + e^x), evaluated stably; gradient is sigmoid(x)."""
    x = a.values
    out = np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0))))
    sig = 0.5 * (1.0 + np.tanh(0.5 * x))
    return _from_op(out.astype(x.dtype, copy=False), [(a, lambda g: g * sig)])


def tsum(a, axis=None):
    """Sum to (1,1), or along an axis with keepdims."""
    av = a.values
    if axis is None:
        out = av.sum().reshape(1, 1)
    elif axis in (0, 1):
        out = av.sum(axis=axis, keepdims=True)
    else:
        raise ValueError(f"tsum: axis must be None, 0, or 1, got {axis}")
    return _from_op(out, [(a, lambda g: np.broadcast_to(g, av.shape))])


def tmean(a, axis=None):
    av = a.values
    n = av.size if axis is None else av.shape[axis]
    return scale(tsum(a, axis=axis), 1.0 / n)


def gather_rows(a, idx):
    idx = np.asarray(idx, dtype=np.int64)
    if idx.ndim != 1:
        raise ValueError(f"gather_rows: index must be 1-D, got shape {idx.shape}")
    av = a.values

    def back(g):
        # Row r of the scatter matrix picks the g rows gathered from r, in
        # ascending order, so each sum runs as np.add.at's would.
        order = np.argsort(idx, kind="stable")
        indptr = np.zeros(a.rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(idx, minlength=a.rows), out=indptr[1:])
        scatter = sp.csr_matrix(
            (np.ones(len(idx), dtype=av.dtype), order, indptr), shape=(a.rows, len(idx))
        )
        return scatter @ g.astype(av.dtype, copy=False)

    return _from_op(av[idx], [(a, back)])


def concat_cols(a, b):
    if a.rows != b.rows:
        raise ValueError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    k = a.cols
    return _from_op(np.concatenate([a.values, b.values], axis=1), [
        (a, lambda g: g[:, :k]),
        (b, lambda g: g[:, k:]),
    ])


def encoder_layer(x, w, b, gain, bias, eps=1e-5):
    """Layer norm of tanh(x @ w + b), then an affine map, as one node.

    b, gain and bias are (1, cols). Each row of tanh(x @ w + b) is
    centred and scaled to unit variance; a constant row normalizes to
    zeros, so the output there is just the bias. The backward gives the
    gradients of all five inputs in closed form and skips x's product
    when x takes no gradient.
    """
    if x.cols != w.rows:
        raise ValueError(f"encoder_layer: inner dims differ, {x.shape} @ {w.shape}")
    xv, wv, gv = x.values, w.values, gain.values
    d = wv.shape[1]
    t = xv @ wv
    t += b.values
    np.tanh(t, out=t)
    xhat = t - t.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat)[:, None] / d + eps)
    xhat *= inv
    out = xhat * gv
    out += bias.values
    # t's buffer now takes what the backward needs of it: tanh' times
    # the norm's scale.
    slope = t
    np.multiply(slope, slope, out=slope)
    np.subtract(1, slope, out=slope)
    slope *= inv

    def back(g, needs):
        d_gain = np.einsum("ij,ij->j", g, xhat)[None, :] if needs[3] else None
        d_bias = g.sum(axis=0, keepdims=True) if needs[4] else None
        da = g * gv
        tmp = xhat * (np.einsum("ij,ij->i", da, xhat)[:, None] / d)
        tmp += da.mean(axis=1, keepdims=True)
        da -= tmp
        da *= slope
        d_x = da @ wv.T if needs[0] else None
        d_w = xv.T @ da if needs[1] else None
        d_b = da.sum(axis=0, keepdims=True) if needs[2] else None
        return d_x, d_w, d_b, d_gain, d_bias

    return _from_joint_op(out, (x, w, b, gain, bias), back)


def dropout(x, rate, rng, train_mode=True):
    """Inverted dropout; identity when rate is 0 or in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or not train_mode:
        return x
    mask = (rng.random(x.shape) >= rate).astype(x.values.dtype) / (1.0 - rate)
    return _from_op(x.values * mask, [(x, lambda g: g * mask)])


def row_dot(a, b):
    """Row-wise inner products, shape (rows, 1)."""
    return tsum(mul(a, b), axis=1)


def weighted_infonce(x, anchor_rows, weights, temperature):
    """Contrastive loss of anchor rows against all rows, weighted positives.

    Rows of x are scaled to unit norm; anchor a is row anchor_rows[a].
    With E[a, j] = exp(cos(a, j) / temperature), shifted by the row
    maximum, and the self entry E[a, anchor_rows[a]] set to 0, anchor a
    scores log(numer_a / denom_a) for numer_a = sum_j weights[a, j] E[a, j]
    and denom_a = sum_j E[a, j]. The loss is minus the mean score of the
    anchors whose numer is positive; the others are dropped. Returns None
    when every anchor drops. For the k kept anchors, the gradient with
    respect to the logits is -(1/k)(weights * E / numer - E / denom),
    chained through the row normalization.
    """
    xv = x.values
    dtype = xv.dtype
    weights = np.asarray(weights, dtype=dtype)
    anchor_rows = np.asarray(anchor_rows, dtype=np.int64)
    norms = np.sqrt(np.einsum("ij,ij->i", xv, xv))[:, None]
    inv = np.where(norms > 1e-12, 1.0 / np.where(norms > 1e-12, norms, 1.0), 0.0)
    normed = xv * inv
    scaled = normed[anchor_rows] * dtype.type(1.0 / temperature)
    e = scaled @ normed.T
    e -= e.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e[np.arange(len(anchor_rows)), anchor_rows] = 0.0
    numer = np.einsum("ij,ij->i", e, weights)
    denom = e.sum(axis=1)
    kept = numer > 0
    k = int(np.count_nonzero(kept))
    if k == 0:
        return None
    loss = -(np.log(numer[kept]) - np.log(denom[kept])).sum() / dtype.type(k)

    def back(g):
        c = g[0, 0] / dtype.type(k)
        inv_numer = np.zeros_like(numer)
        inv_denom = np.zeros_like(denom)
        np.divide(c, numer, out=inv_numer, where=kept)
        np.divide(c, denom, out=inv_denom, where=kept)
        # d loss / d logits, where logits = scaled @ normed.T.
        d_logits = weights * -inv_numer[:, None]
        d_logits += inv_denom[:, None]
        d_logits *= e
        d_normed = d_logits.T @ scaled
        np.add.at(d_normed, anchor_rows, d_logits @ normed * dtype.type(1.0 / temperature))
        proj = np.einsum("ij,ij->i", d_normed, normed)[:, None]
        return inv * (d_normed - normed * proj)

    return _from_op(np.asarray(loss, dtype=dtype).reshape(1, 1), [(x, back)])


class SparseMatrix:
    """Constant sparse operand for spmm; caches its transpose."""

    def __init__(self, matrix, _transpose=None):
        self.mat = matrix.tocsr()
        self.mat_t = self.mat.T.tocsr() if _transpose is None else _transpose
        self.shape = self.mat.shape

    def transposed(self):
        out = SparseMatrix.__new__(SparseMatrix)
        out.mat = self.mat_t
        out.mat_t = self.mat
        out.shape = self.mat_t.shape
        return out


def spmm(s, x):
    """s @ x for a constant SparseMatrix s and dense tensor x."""
    if s.shape[1] != x.rows:
        raise ValueError(f"spmm: inner dims differ, {s.shape} @ {x.shape}")
    dtype = x.values.dtype
    out = np.asarray(s.mat @ x.values).astype(dtype, copy=False)
    return _from_op(out, [(x, lambda g: np.asarray(s.mat_t @ g).astype(dtype, copy=False))])


def finite_diff_check(loss_fn, params, h=1e-4, max_coords_per_param=None, rng=None):
    """Compare analytic gradients of loss_fn() against central differences.

    loss_fn must rebuild the graph from ``params`` on every call and be
    deterministic. Returns the max relative error over the checked
    coordinates, where the error of a coordinate is
    |analytic - fd| / max(|analytic|, |fd|, 1e-6). Use float64 params;
    float32 drowns the difference quotient in rounding noise.
    """
    for p in params:
        p.grad = None
    loss_fn().backward()
    analytic = [np.zeros_like(p.values) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        coords = [(i, j) for i in range(p.rows) for j in range(p.cols)]
        if max_coords_per_param is not None and len(coords) > max_coords_per_param:
            rng = rng or np.random.default_rng(0)
            pick = rng.choice(len(coords), size=max_coords_per_param, replace=False)
            coords = [coords[k] for k in pick]
        for i, j in coords:
            orig = p.values[i, j]
            p.values[i, j] = orig + h
            f_plus = loss_fn().item()
            p.values[i, j] = orig - h
            f_minus = loss_fn().item()
            p.values[i, j] = orig
            fd = (f_plus - f_minus) / (2.0 * h)
            err = abs(ga[i, j] - fd) / max(abs(ga[i, j]), abs(fd), 1e-6)
            worst = max(worst, err)
    return worst
