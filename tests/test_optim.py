"""Adam, the parameter store, and checkpoint serialization."""

import re
import tracemalloc

import numpy as np
import pytest

from oracles import adam_oracle
from toporec.autograd import Tensor
from toporec.optim import (
    ParamStore,
    adam_step,
    load_checkpoint,
    save_checkpoint,
    xavier_uniform,
)


def _quadratic_grad(theta, curv):
    return 2.0 * curv * theta


def test_adam_matches_hand_recurrence_for_five_steps():
    curv = np.array([[1.0, 3.0]])
    theta0 = np.array([[1.5, -2.0]])
    store = ParamStore()
    p = store.add("theta", theta0.copy())

    grads = []
    for _ in range(5):
        g = _quadratic_grad(p.values, curv)
        grads.append(g.copy())
        p.grad = g.copy()
        adam_step(store, lr=0.05)
    expected = adam_oracle(theta0, grads, lr=0.05)
    assert np.abs(p.values - expected[-1]).max() < 1e-10


def test_adam_with_decay_matches_oracle():
    store = ParamStore()
    p = store.add("w", np.array([[0.7, -0.4, 1.1]]))
    grads = []
    for _ in range(4):
        g = np.sin(p.values)  # any deterministic gradient works here
        grads.append(g.copy())
        p.grad = g.copy()
        adam_step(store, lr=0.01, weight_decay=0.1)
    expected = adam_oracle(np.array([[0.7, -0.4, 1.1]]), grads, lr=0.01, weight_decay=0.1)
    assert np.abs(p.values - expected[-1]).max() < 1e-10


def _composed_adam(values, grads, lr, decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam written as whole-array expressions, one temporary per operation."""
    m, v = np.zeros_like(values), np.zeros_like(values)
    for t, g in enumerate(grads, start=1):
        m = m * beta1 + (1.0 - beta1) * g
        v = v * beta2 + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        values = values - lr * m_hat / (np.sqrt(v_hat) + eps)
        if decay > 0.0:
            values = values - lr * decay * values
    return values


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("decay", [0.0, 0.05])
def test_in_place_adam_is_bit_identical_to_the_composed_update(dtype, decay):
    rng = np.random.default_rng(12)
    start = rng.standard_normal((30, 7)).astype(dtype)
    grads = [rng.standard_normal((30, 7)).astype(dtype) for _ in range(6)]
    store = ParamStore()
    p = store.add("w", start.copy())
    for g in grads:
        p.grad = g.copy()
        adam_step(store, lr=0.01, weight_decay=decay)
    want = _composed_adam(start, grads, 0.01, decay)
    assert p.values.dtype == want.dtype == dtype
    assert p.values.tobytes() == want.tobytes()


def test_one_step_descends_quadratic():
    store = ParamStore()
    p = store.add("theta", np.array([[1.0]]))
    p.grad = _quadratic_grad(p.values, 1.0)
    adam_step(store, lr=0.1)
    assert p.values[0, 0] < 1.0


def test_zero_decay_is_plain_adam_and_decay_is_decoupled():
    plain = ParamStore()
    decayed = ParamStore()
    a = plain.add("w", np.full((1, 2), 0.5))
    b = decayed.add("w", np.full((1, 2), 0.5))
    g = np.array([[0.3, -0.2]])
    a.grad = g.copy()
    b.grad = g.copy()
    adam_step(plain, lr=0.01, weight_decay=0.0)
    adam_step(decayed, lr=0.01, weight_decay=0.5)
    # decay multiplies the post-update value by (1 - lr * wd)
    assert np.allclose(b.values, a.values * (1.0 - 0.01 * 0.5), atol=1e-15)


def test_params_without_gradients_keep_their_step_counter():
    # One count for the store: a parameter with no gradient is left as it
    # is, and the step count still advances.
    store = ParamStore()
    active = store.add("active", np.array([[1.0]]))
    idle = store.add("idle", np.array([[1.0]]))
    for step in range(6):
        active.grad = np.array([[0.1]])
        if step % 2 == 0:
            idle.grad = np.array([[0.1]])
        before = idle.values.copy()
        adam_step(store, lr=0.01)
        assert store.steps == step + 1
        assert np.array_equal(idle.values, before) == (step % 2 == 1)


def test_gradients_cleared_after_step():
    store = ParamStore()
    p = store.add("w", np.ones((2, 2)))
    p.grad = np.ones((2, 2))
    adam_step(store, lr=0.1)
    assert p.grad is None


def test_store_rejects_duplicates_and_bad_state():
    store = ParamStore()
    store.add("w", np.ones((2, 3)))
    with pytest.raises(ValueError, match="duplicate"):
        store.add("w", np.ones((2, 3)))
    with pytest.raises(ValueError, match="missing"):
        store.load_state({})
    with pytest.raises(ValueError, match="shape mismatch"):
        store.load_state({"w": np.ones((3, 2))})
    assert [name for name, _ in store.items()] == ["w"]


def test_state_arrays_are_copies():
    store = ParamStore()
    p = store.add("w", np.ones((1, 2)))
    state = store.state_arrays()
    state["w"][0, 0] = 99.0
    assert p.values[0, 0] == 1.0
    store.load_state({"w": np.array([[5.0, 6.0]])})
    assert np.array_equal(p.values, [[5.0, 6.0]])


def test_xavier_uniform_bounds_and_determinism():
    limit = np.sqrt(6.0 / (40 + 60))
    draws = xavier_uniform(np.random.default_rng(3), (40, 60))
    assert draws.shape == (40, 60)
    assert draws.min() >= -limit and draws.max() <= limit
    assert abs(draws.mean()) < limit / 10
    again = xavier_uniform(np.random.default_rng(3), (40, 60))
    assert np.array_equal(draws, again)
    assert xavier_uniform(np.random.default_rng(0), (2, 2), np.float32).dtype == np.float32


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    arrays = {
        "embed": rng.standard_normal((5, 4)).astype(np.float32),
        "weights/deep é": rng.standard_normal((3, 3)),
    }
    path = tmp_path / "model.tmc"
    save_checkpoint(path, arrays)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(arrays)
    for name in arrays:
        assert loaded[name].dtype == arrays[name].dtype
        assert np.array_equal(loaded[name], arrays[name])
    # other dtypes are stored as float64
    save_checkpoint(path, {"counts": np.arange(6, dtype=np.int64).reshape(2, 3)})
    loaded = load_checkpoint(path)["counts"]
    assert loaded.dtype == np.float64
    assert loaded.tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]


def test_checkpoint_payloads_are_read_in_place(tmp_path):
    rng = np.random.default_rng(9)
    arrays = {"a": rng.standard_normal((500, 256)).astype(np.float32),
              "b": rng.standard_normal((300, 128))}
    path = tmp_path / "model.tmc"
    save_checkpoint(path, arrays)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(np.array_equal(loaded[k], arrays[k]) for k in arrays)
    payload = sum(a.nbytes for a in arrays.values())
    assert peak < 1.25 * payload, f"peak {peak} for {payload} bytes of payload"


def test_checkpoint_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.tmc"
    bad.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad)

    good = tmp_path / "good.tmc"
    save_checkpoint(good, {"w": np.ones((2, 2))})
    blob = good.read_bytes()
    truncated = tmp_path / "trunc.tmc"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(truncated)

    versioned = tmp_path / "vers.tmc"
    versioned.write_bytes(blob[:4] + b"\x09\x00" + blob[6:])
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(versioned)

    # magic, header, name length and name "w" take 13 bytes; the dtype code follows
    coded = tmp_path / "code.tmc"
    coded.write_bytes(blob[:13] + b"\x07" + blob[14:])
    with pytest.raises(ValueError, match="unknown dtype code 7 for 'w'"):
        load_checkpoint(coded)


def test_checkpoint_with_a_non_finite_value_fails_naming_the_array(tmp_path):
    path = tmp_path / "c.tmc"
    for bad in (np.nan, np.inf, -np.inf):
        for dtype in (np.float32, np.float64):
            w = np.ones((3, 2), dtype=dtype)
            w[2, 1] = bad
            save_checkpoint(path, {"ok": np.zeros((0, 4)), "w": w})
            with pytest.raises(ValueError, match=re.escape(f"{path}: array 'w' holds non-finite")):
                load_checkpoint(path)


def test_checkpoint_cut_at_every_length_fails_naming_the_file(tmp_path):
    good = tmp_path / "good.tmc"
    save_checkpoint(good, {"w": np.ones((2, 2), dtype=np.float32), "deep é": np.zeros((1, 1))})
    blob = good.read_bytes()
    cut = tmp_path / "cut.tmc"
    for size in range(len(blob)):
        cut.write_bytes(blob[:size])
        with pytest.raises(ValueError, match=re.escape(str(cut))) as info:
            load_checkpoint(cut)
        if size >= 4:
            assert "truncated at byte" in str(info.value)
    cut.write_bytes(blob[:10])
    with pytest.raises(ValueError, match="byte 10: the array name length needs 2 bytes, 0 remain"):
        load_checkpoint(cut)


@pytest.mark.parametrize("extra", [4, 8])
def test_checkpoint_with_trailing_bytes_fails_naming_the_offset(tmp_path, extra):
    path = tmp_path / "c.tmc"
    save_checkpoint(path, {"w": np.ones((2, 2), dtype=np.float32)})
    size = path.stat().st_size
    path.write_bytes(path.read_bytes() + b"\x01" * extra)
    message = f"{path}: {extra} bytes follow the last payload, from byte {size}"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(path)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path):
    path = tmp_path / "c.tmc"
    first = {"a": np.arange(4.0).reshape(2, 2)}
    save_checkpoint(path, first)
    with pytest.raises(ValueError, match="'b' has shape"):
        save_checkpoint(path, {"a": np.zeros((2, 2)), "b": np.zeros((2, 2, 2))})
    loaded = load_checkpoint(path)
    assert set(loaded) == {"a"} and np.array_equal(loaded["a"], first["a"])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.tmc"]


def test_checkpoint_through_param_store(tmp_path):
    store = ParamStore()
    store.add("u", np.arange(6, dtype=np.float32).reshape(2, 3))
    store.add("v", np.arange(4, dtype=np.float64).reshape(2, 2) / 7.0)
    path = tmp_path / "s.tmc"
    save_checkpoint(path, store.state_arrays())

    other = ParamStore()
    other.add("u", np.zeros((2, 3), dtype=np.float32))
    other.add("v", np.zeros((2, 2)))
    other.load_state(load_checkpoint(path))
    assert np.array_equal(other["u"].values, store["u"].values)
    assert np.array_equal(other["v"].values, store["v"].values)
