"""Named parameters, bias-corrected Adam, and checkpoint serialization."""

from __future__ import annotations

import struct

import numpy as np

from .autograd import Tensor
from .data import read_exact

__all__ = [
    "ParamStore",
    "xavier_uniform",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]


class ParamStore:
    """Ordered mapping of names to trainable tensors plus Adam state.

    Moment buffers always match their parameter's shape; each parameter
    keeps its own step counter so bias correction stays exact for
    parameters that skip steps (no gradient that step).
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._steps: dict[str, int] = {}

    def add(self, name, values):
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(values, requires_grad=True)
        self._params[name] = t
        self._m[name] = np.zeros_like(t.values)
        self._v[name] = np.zeros_like(t.values)
        self._steps[name] = 0
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def __len__(self):
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def step_count(self, name):
        return self._steps[name]

    def state_arrays(self):
        """Copies of the current parameter values, keyed by name."""
        return {name: t.values.copy() for name, t in self._params.items()}

    def load_state(self, arrays):
        missing = set(self._params) - set(arrays)
        if missing:
            raise ValueError(f"state is missing parameters: {sorted(missing)}")
        for name, t in self._params.items():
            arr = np.asarray(arrays[name])
            if arr.shape != t.values.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: store has {t.values.shape}, state has {arr.shape}"
                )
            t.values[...] = arr.astype(t.values.dtype, copy=False)


def xavier_uniform(rng, shape, dtype=np.float64):
    """Glorot-uniform init; fans are taken from the 2-D shape."""
    fan_in, fan_out = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def adam_step(store, lr, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
    """One Adam update over every parameter that has a gradient.

    Weight decay is decoupled from the moment estimates and applied only
    when positive. Gradients are cleared after the update.
    """
    for name, p in store.items():
        g = p.grad
        if g is None:
            continue
        g = g.astype(p.values.dtype, copy=False)
        t = store._steps[name] + 1
        store._steps[name] = t
        m = store._m[name]
        v = store._v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.values -= lr * m_hat / (np.sqrt(v_hat) + eps)
        if weight_decay > 0.0:
            p.values -= lr * weight_decay * p.values
        p.grad = None


_CKPT_MAGIC = b"TMC1"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(path, arrays):
    """Write named 2-D float arrays to a TMC1 container."""
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<HI", 1, len(arrays)))
        for name, arr in arrays.items():
            arr = np.atleast_2d(np.asarray(arr))
            if arr.ndim != 2:
                raise ValueError(f"checkpoint arrays are 2-D, {name!r} has shape {arr.shape}")
            if arr.dtype not in _DTYPE_CODES:
                arr = arr.astype(np.float64)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<BII", _DTYPE_CODES[arr.dtype], arr.shape[0], arr.shape[1]))
            fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes(order="C"))


def load_checkpoint(path):
    """Read a TMC1 container back into {name: array}."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a TMC1 checkpoint (magic {magic!r})")
        version, count = struct.unpack("<HI", read_exact(fh, 6, path, "TMC1 header"))
        if version != 1:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        out = {}
        for _ in range(count):
            (name_len,) = struct.unpack("<H", read_exact(fh, 2, path, "array name length"))
            name = read_exact(fh, name_len, path, "array name").decode("utf-8")
            code, rows, cols = struct.unpack("<BII", read_exact(fh, 9, path, f"header of {name!r}"))
            if code not in _CODE_DTYPES:
                raise ValueError(f"{path}: unknown dtype code {code} for {name!r}")
            dtype = _CODE_DTYPES[code]
            payload = read_exact(fh, rows * cols * dtype.itemsize, path, f"payload of {name!r}")
            out[name] = np.frombuffer(payload, dtype=dtype).reshape(rows, cols).copy()
    return out
