"""Dense 2-D tensors with reverse-mode automatic differentiation.

Every value is a (rows, cols) float array; scalars are (1, 1). An op
computes its result eagerly and records, on the output tensor, its
parent tensors and one backward function that maps the upstream
gradient to a gradient per parent. ``backward`` runs a single
topological sweep, calls each node's backward once, and accumulates
gradients into the leaf tensors created with ``requires_grad=True``.

float64 is the dtype for gradient checks, float32 the usual training
dtype; ops follow the dtype of their inputs.

The module holds the ops the model and trainer call and nothing else.
Two of them, ``encoder_layer`` and ``weighted_infonce``, are whole
layers fused into one node with a closed-form backward. Tensors carry
no arithmetic operators: every op is a module-level function.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "add",
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

NORM_EPS = 1e-5  # added to each row's variance in encoder_layer's layer norm


class Tensor:
    """A 2-D array plus the bookkeeping for reverse-mode autodiff."""

    __slots__ = ("values", "grad", "requires_grad", "_parents", "_back")

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
        self._back = None

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
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        The sweep frees the graph as it goes: once a node's backward has
        run, the node drops its parents and its backward function, and
        with them the arrays the op kept. A second call raises.
        """
        if self.values.size != 1:
            raise ValueError(f"backward() needs a scalar loss, got shape {self.shape}")
        order = _topo_order(self)
        grads = {id(self): np.ones_like(self.values)}
        for node in order:
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._parents:
                for parent, contrib in zip(node._parents, node._back(g)):
                    if not parent.requires_grad:
                        continue
                    pid = id(parent)
                    if pid in grads:
                        grads[pid] = grads[pid] + contrib
                    else:
                        grads[pid] = contrib
                node._parents = ()
                node._back = _FREED
            elif node.requires_grad:
                node.grad = g.copy() if node.grad is None else node.grad + g

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad and self._back is None else ""
        return f"Tensor(shape={self.shape}, dtype={self.values.dtype}{flag})"


# The backward function of a node whose graph a sweep has freed.
_FREED = object()


def _topo_order(root):
    """Reachable nodes, outputs first (reverse topological). Raises when
    one of them was freed by an earlier backward."""
    order = []
    seen = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for parent in parents:
            if parent.requires_grad and id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, iter(parent._parents)))
                break
        else:
            if node._back is _FREED:
                raise ValueError("backward: the graph was freed by an earlier backward")
            order.append(node)
            stack.pop()
    order.reverse()
    return order


def _from_op(values, parents, back):
    """Wrap values in a tensor recorded as the output of an op on parents.

    back(g) maps the upstream gradient g of values to a sequence of
    gradients, one per parent and in the order of parents. Where a
    parent does not require a gradient, back may put None, and
    backward drops whatever it puts there. backward calls back at most
    once, then drops it. The node is recorded only when some parent
    requires a gradient.
    """
    out = Tensor(values)
    if any(p.requires_grad for p in parents):
        out._parents = tuple(parents)
        out._back = back
        out.requires_grad = True
    return out


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
    return _from_op(a.values + b.values, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)
    ))


def sub(a, b):
    _broadcast_shape("sub", a.shape, b.shape)
    return _from_op(a.values - b.values, (a, b), lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)
    ))


def mul(a, b):
    _broadcast_shape("mul", a.shape, b.shape)
    av, bv = a.values, b.values
    return _from_op(av * bv, (a, b), lambda g: (
        _unbroadcast(g * bv, a.shape) if a.requires_grad else None,
        _unbroadcast(g * av, b.shape) if b.requires_grad else None,
    ))


def mul_const(a, c):
    c = np.asarray(c, dtype=a.values.dtype)
    _broadcast_shape("mul_const", a.shape, np.atleast_2d(c).shape)
    return _from_op(a.values * c, (a,), lambda g: (_unbroadcast(g * c, a.shape),))


def scale(a, s):
    return mul_const(a, float(s))


def neg(a):
    return mul_const(a, -1.0)


def matmul(a, b):
    if a.cols != b.rows:
        raise ValueError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    return _from_op(av @ bv, (a, b), lambda g: (
        g @ bv.T if a.requires_grad else None,
        av.T @ g if b.requires_grad else None,
    ))


def tanh(a):
    out = np.tanh(a.values)
    return _from_op(out, (a,), lambda g: (g * (1.0 - out * out),))


def softplus(a):
    """log(1 + e^x), evaluated stably; gradient is sigmoid(x)."""
    x = a.values
    out = np.where(x > 0, x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(np.minimum(x, 0))))
    sig = 0.5 * (1.0 + np.tanh(0.5 * x))
    return _from_op(out.astype(x.dtype, copy=False), (a,), lambda g: (g * sig,))


def tsum(a, axis=None):
    """Sum to (1,1), or along an axis with keepdims."""
    av = a.values
    if axis is None:
        out = av.sum().reshape(1, 1)
    elif axis in (0, 1):
        out = av.sum(axis=axis, keepdims=True)
    else:
        raise ValueError(f"tsum: axis must be None, 0, or 1, got {axis}")
    return _from_op(out, (a,), lambda g: (np.broadcast_to(g, av.shape),))


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
        import scipy.sparse as sp  # deferred; see the package docstring

        # The gather matrix's transpose is CSC: it adds g's rows into their
        # sources (negative ids wrapped) in index order, as np.add.at does.
        gather = sp.csr_matrix(
            (np.ones(len(idx), dtype=av.dtype), idx % a.rows, np.arange(len(idx) + 1)),
            shape=(len(idx), a.rows),
        )
        return (gather.T @ g.astype(av.dtype, copy=False),)

    return _from_op(av[idx], (a,), back)


def concat_cols(a, b):
    if a.rows != b.rows:
        raise ValueError(f"concat_cols: row counts differ, {a.shape} vs {b.shape}")
    k = a.cols
    return _from_op(np.concatenate([a.values, b.values], axis=1), (a, b), lambda g: (
        g[:, :k], g[:, k:]
    ))


def encoder_layer(x, w, b, gain, bias):
    """Layer norm of tanh(x @ w + b), then an affine map, as one node.

    b, gain and bias are (1, cols). Each row of tanh(x @ w + b) is
    centred and divided by sqrt(its variance + NORM_EPS); a constant
    row normalizes to zeros, so the output there is just the bias. The
    backward gives the gradients of all five inputs in closed form and
    skips x's product when x takes no gradient.
    """
    if x.cols != w.rows:
        raise ValueError(f"encoder_layer: inner dims differ, {x.shape} @ {w.shape}")
    xv, wv, gv = x.values, w.values, gain.values
    d = wv.shape[1]
    t = xv @ wv
    t += b.values
    np.tanh(t, out=t)
    xhat = t - t.mean(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(np.einsum("ij,ij->i", xhat, xhat)[:, None] / d + NORM_EPS)
    xhat *= inv
    out = xhat * gv
    out += bias.values
    parents = (x, w, b, gain, bias)
    needs = tuple(p.requires_grad for p in parents)

    def back(g):
        # backward calls back once, so it may overwrite the buffers it holds.
        d_gain = np.einsum("ij,ij->j", g, xhat)[None, :] if needs[3] else None
        d_bias = g.sum(axis=0, keepdims=True) if needs[4] else None
        da = g * gv
        tmp = np.multiply(xhat, np.einsum("ij,ij->i", da, xhat)[:, None] / d, out=xhat)
        tmp += da.mean(axis=1, keepdims=True)
        da -= tmp
        # t's buffer takes tanh' times the norm's scale.
        slope = t
        np.multiply(slope, slope, out=slope)
        np.subtract(1, slope, out=slope)
        slope *= inv
        da *= slope
        d_x = da @ wv.T if needs[0] else None
        d_w = xv.T @ da if needs[1] else None
        d_b = da.sum(axis=0, keepdims=True) if needs[2] else None
        return d_x, d_w, d_b, d_gain, d_bias

    return _from_op(out, parents, back)


def dropout(x, rate, rng, train_mode=True):
    """Inverted dropout; identity when rate is 0 or in eval mode."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0 or not train_mode:
        return x
    mask = (rng.random(x.shape) >= rate).astype(x.values.dtype) / (1.0 - rate)
    return _from_op(x.values * mask, (x,), lambda g: (g * mask,))


def row_dot(a, b):
    """Row-wise inner products, shape (rows, 1)."""
    return tsum(mul(a, b), axis=1)


def weighted_infonce(x, anchor_rows, weights, temperature):
    """Contrastive loss of anchor rows against all rows, weighted positives.

    Rows of x are scaled to unit norm; anchor a is row anchor_rows[a],
    and no row is an anchor twice.
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
        d_normed[anchor_rows] += d_logits @ normed * dtype.type(1.0 / temperature)
        proj = np.einsum("ij,ij->i", d_normed, normed)[:, None]
        return (inv * (d_normed - normed * proj),)

    return _from_op(np.asarray(loss, dtype=dtype).reshape(1, 1), (x,), back)


def spmm(s, x):
    """s @ x for a constant scipy sparse matrix s and dense tensor x."""
    if s.shape[1] != x.rows:
        raise ValueError(f"spmm: inner dims differ, {s.shape} @ {x.shape}")
    dtype = x.values.dtype
    out = np.asarray(s @ x.values).astype(dtype, copy=False)
    return _from_op(out, (x,), lambda g: (np.asarray(s.T @ g).astype(dtype, copy=False),))


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
