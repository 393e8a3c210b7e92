"""Named parameters, bias-corrected Adam, and checkpoint serialization."""

from __future__ import annotations

import struct

import numpy as np

from .autograd import Tensor
from .data import _read_array, read_end, read_exact, write_file

__all__ = [
    "ParamStore",
    "xavier_uniform",
    "adam_step",
    "save_checkpoint",
    "load_checkpoint",
]


class ParamStore:
    """Ordered mapping of names to trainable tensors plus Adam state.

    Moment buffers always match their parameter's shape; `steps` counts
    the `adam_step` calls, whose bias correction every parameter shares.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.steps = 0

    def add(self, name, values):
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(values, requires_grad=True)
        self._params[name] = t
        self._m[name] = np.zeros_like(t.values)
        self._v[name] = np.zeros_like(t.values)
        return t

    def __getitem__(self, name):
        return self._params[name]

    def items(self):
        return self._params.items()

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


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def adam_step(store, lr, weight_decay=0.0):
    """One Adam update over every parameter that has a gradient, at step
    `store.steps + 1`; a parameter with no gradient is left as it is.

    Weight decay is decoupled from the moment estimates and applied only
    when positive. Gradients are cleared after the update. Each update
    runs in place through two scratch arrays, operation for operation
    as p -= lr * m_hat / (sqrt(v_hat) + eps), then p -= lr * wd * p.
    """
    store.steps += 1
    t = store.steps
    for name, p in store.items():
        g = p.grad
        if g is None:
            continue
        g = g.astype(p.values.dtype, copy=False)
        m = store._m[name]
        v = store._v[name]
        step = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += step
        np.multiply(g, g, out=step)
        step *= 1.0 - BETA2
        v *= BETA2
        v += step
        np.divide(m, 1.0 - BETA1 ** t, out=step)
        step *= lr
        denom = np.divide(v, 1.0 - BETA2 ** t)
        np.sqrt(denom, out=denom)
        denom += EPS
        step /= denom
        p.values -= step
        if weight_decay > 0.0:
            np.multiply(p.values, lr * weight_decay, out=step)
            p.values -= step
        p.grad = None


_CKPT_MAGIC = b"TMC1"
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def save_checkpoint(path, arrays):
    """Write named 2-D float arrays to a TMC1 container."""
    chunks = [_CKPT_MAGIC, struct.pack("<HI", 1, len(arrays))]
    for name, arr in arrays.items():
        arr = np.atleast_2d(np.asarray(arr))
        if arr.ndim != 2:
            raise ValueError(f"checkpoint arrays are 2-D, {name!r} has shape {arr.shape}")
        if arr.dtype not in _DTYPE_CODES:
            arr = arr.astype(np.float64)
        raw = name.encode("utf-8")
        code = _DTYPE_CODES[arr.dtype]
        chunks += [struct.pack("<H", len(raw)), raw, struct.pack("<BII", code, *arr.shape)]
        chunks.append(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")))
    write_file(path, *chunks)


def load_checkpoint(path):
    """Read a TMC1 container back into {name: array}; a ValueError names
    the file and the array when one holds a NaN or an infinity."""
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
            raw = read_exact(fh, name_len, path, "array name")
            try:
                name = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise ValueError(
                    f"{path}: array name at byte {fh.tell() - name_len} is not UTF-8") from None
            code, rows, cols = struct.unpack("<BII", read_exact(fh, 9, path, f"header of {name!r}"))
            if code not in _CODE_DTYPES:
                raise ValueError(f"{path}: unknown dtype code {code} for {name!r}")
            dtype = _CODE_DTYPES[code]
            out[name] = _read_array(fh, rows, cols, dtype, path, f"payload of {name!r}")
            # `train` never writes a non-finite weight. A NaN or an infinity
            # shows in the minimum or the maximum, which need no temporary.
            arr = out[name]
            if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
                raise ValueError(f"{path}: array {name!r} holds non-finite values")
        read_end(fh, path)
    return out
