"""Elementary autograd ops that only the tests use.

The library fuses these into ``encoder_layer`` and ``weighted_infonce``;
the tests compose reference losses from them and check their gradients
with ``finite_diff_check``.
"""

import numpy as np

from toporec.autograd import _broadcast_shape, _from_op, _unbroadcast


def transpose(a):
    return _from_op(a.values.T, (a,), lambda g: (g.T,))


def add_const(a, c):
    c = np.asarray(c, dtype=a.values.dtype)
    _broadcast_shape("add_const", a.shape, np.atleast_2d(c).shape)
    return _from_op(a.values + c, (a,), lambda g: (_unbroadcast(g, a.shape),))


def exp(a):
    out = np.exp(a.values)
    return _from_op(out, (a,), lambda g: (g * out,))


def log(a):
    av = a.values
    return _from_op(np.log(av), (a,), lambda g: (g / av,))


def normalize_rows(x, eps=1e-12):
    """Scale every row to unit L2 norm; all-zero rows stay zero."""
    xv = x.values
    norms = np.sqrt((xv * xv).sum(axis=1, keepdims=True))
    inv = np.where(norms > eps, 1.0 / np.where(norms > eps, norms, 1.0), 0.0)
    out = xv * inv

    def back(g):
        proj = (g * out).sum(axis=1, keepdims=True)
        return (inv * (g - out * proj),)

    return _from_op(out, (x,), back)
