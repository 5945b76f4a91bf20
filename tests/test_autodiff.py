"""Tape mechanics, parameter store, Adam, checkpoints, and gradient checks."""

import inspect
import os
import threading

import numpy as np
import pytest

from mcads import ops
from mcads.gradcheck import PRIMITIVE_TOL, check_gradients, primitive_cases
from mcads.params import (CheckpointMismatch, Parameter, ParameterStore,
                          adam_step, he_uniform, load_checkpoint,
                          save_checkpoint)
from mcads.tensor import Tape, Tensor, backward, count_macs


def t(arr, grad=True, dtype=np.float64):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=grad)


def test_fanout_accumulates():
    x = t([3.0])
    with Tape() as tape:
        y = ops.add(x, x)
        loss = ops.reduce_sum(y)
        backward(tape, loss)
    assert x.grad[0] == 2.0


def test_fanout_through_distinct_ops():
    # x feeds both factors of a product: d(x*x)/dx = 2x
    x = t([1.5, -2.0])
    with Tape() as tape:
        loss = ops.reduce_sum(ops.mul(x, x))
        backward(tape, loss)
    np.testing.assert_allclose(x.grad, [3.0, -4.0])


def test_sum_grad_is_ones():
    x = t(np.random.default_rng(0).normal(size=(2, 3, 4)))
    with Tape() as tape:
        backward(tape, ops.reduce_sum(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 3, 4)))


def test_backward_requires_scalar():
    x = t([1.0, 2.0])
    with Tape() as tape:
        y = ops.mul(x, x)
        with pytest.raises(ValueError, match="scalar"):
            backward(tape, y)


def test_backward_rejects_detached_loss():
    x = t([1.0])
    with Tape() as tape:
        ops.reduce_sum(x)
    with Tape() as other:
        loss = ops.reduce_sum(x)
    with pytest.raises(ValueError, match="not attached"):
        backward(tape, loss)
    backward(other, loss)  # the owning tape still works
    assert x.grad is not None


def test_tape_is_single_use():
    x = t([2.0])
    with Tape() as tape:
        loss = ops.reduce_sum(ops.mul(x, x))
    backward(tape, loss)
    assert len(tape) == 0


def test_no_tape_means_no_graph():
    x = t([1.0])
    y = ops.mul(x, x)
    assert y.tape is None and y.grad is None


def test_tape_and_mac_counter_are_per_thread():
    # A tape and a MAC counter opened on one thread see nothing of the ops
    # another thread runs; the worker's own tape and counter do.
    a = t(np.ones((2, 2)))
    seen = {}

    def worker():
        ops.matmul(a, a)
        with count_macs() as own_macs, Tape() as own_tape:
            ops.matmul(a, a)
        seen["own"] = (len(own_tape), own_macs["macs"])

    with count_macs() as macs, Tape() as tape:
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=30)
    assert not thread.is_alive()
    assert (len(tape), macs["macs"]) == (0, 0)
    assert seen["own"] == (1, 8)


def test_untracked_inputs_not_recorded():
    x = Tensor(np.ones(3), requires_grad=False)
    with Tape() as tape:
        ops.mul(x, x)
    assert len(tape) == 0


def test_grad_dtype_follows_tensor():
    x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with Tape() as tape:
        backward(tape, ops.reduce_sum(ops.mul(x, x)))
    assert x.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# parameter store


def test_store_seeded_determinism():
    a = ParameterStore(seed=5)
    b = ParameterStore(seed=5)
    for s in (a, b):
        s.create("w", (4, 4), "he", fan_in=16)
        s.create("v", (2,), "he", fan_in=2)
    np.testing.assert_array_equal(a["w"].data, b["w"].data)
    np.testing.assert_array_equal(a["v"].data, b["v"].data)


def test_store_rejects_duplicates():
    s = ParameterStore(seed=0)
    s.create("w", (1,), "zeros")
    with pytest.raises(ValueError, match="duplicate"):
        s.create("w", (1,), "zeros")


def test_he_uniform_bound():
    rng = np.random.default_rng(3)
    w = he_uniform((1000,), fan_in=6, rng=rng)
    bound = np.sqrt(6.0 / 6)
    assert np.all(np.abs(w) <= bound)
    assert np.abs(w).max() > 0.9 * bound  # actually fills the interval


def test_count_by_prefix():
    s = ParameterStore(seed=0)
    s.create("enc.w", (3, 3), "zeros")
    s.create("enc.stats", (3,), "zeros", trainable=False)
    s.create("dec.w", (2,), "zeros")
    assert s.count("enc.") == 9
    assert s.count("enc.", trainable_only=False) == 12
    assert s.count() == 11


def test_adam_converges_on_quadratic():
    s = ParameterStore(seed=0)
    w = s.create("w", (), np.float32(0.0))
    for _ in range(200):
        w.grad = np.float32(2.0 * (w.data - 3.0))
        adam_step([w], lr=0.1)
    assert abs(float(w.data) - 3.0) < 1e-2


def test_adam_requires_grads():
    p = Parameter("w", np.zeros(2, dtype=np.float32))
    with pytest.raises(ValueError, match="missing gradient"):
        adam_step([p], lr=0.1)


def test_adam_skips_frozen():
    p = Parameter("stats", np.ones(2, dtype=np.float32), trainable=False)
    adam_step([p], lr=0.1)
    np.testing.assert_array_equal(p.data, np.ones(2))


def test_adam_preserves_dtype():
    p = Parameter("w", np.ones(3, dtype=np.float32))
    p.grad = np.ones(3, dtype=np.float32)
    adam_step([p], lr=0.01)
    assert p.data.dtype == np.float32


def test_adam_in_place_matches_textbook_formula():
    """The in-place update is bit-identical to the out-of-place formula, step
    after step, for parameters of several shapes sharing the scratch space."""
    rng = np.random.default_rng(3)
    shapes = [(3, 3, 2, 4), (4,), (), (5, 7)]
    params = [Parameter(f"p{i}", rng.normal(size=s).astype(np.float32))
              for i, s in enumerate(shapes)]
    ref = [{"data": p.data.copy(), "m": np.zeros_like(p.data),
            "v": np.zeros_like(p.data)} for p in params]
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for step in range(1, 6):
        for p, r in zip(params, ref):
            p.grad = rng.normal(size=p.shape).astype(np.float32)
            g = p.grad
            r["m"] = b1 * r["m"] + (1.0 - b1) * g
            r["v"] = b2 * r["v"] + (1.0 - b2) * (g * g)
            mhat = r["m"] / (1.0 - b1 ** step)
            vhat = r["v"] / (1.0 - b2 ** step)
            r["data"] = r["data"] - lr * mhat / (np.sqrt(vhat) + eps)
        adam_step(params, lr)
        for p, r in zip(params, ref):
            for key in ("data", "m", "v"):
                got = p.data if key == "data" else getattr(p, key)
                assert got.dtype == np.float32
                assert np.array_equal(got, r[key]), (p.name, key, step)


def test_adam_leaves_explicit_init_array_alone():
    init = np.ones(3, dtype=np.float32)
    w = ParameterStore(seed=0).create("w", (3,), init)
    w.grad = np.ones(3, dtype=np.float32)
    adam_step([w], lr=0.1)
    np.testing.assert_array_equal(init, np.ones(3))
    assert not np.array_equal(w.data, init)


def test_adam_checks_every_gradient_before_updating():
    a = Parameter("a", np.zeros(2, dtype=np.float32))
    b = Parameter("b", np.zeros(2, dtype=np.float32))
    a.grad = np.ones(2, dtype=np.float32)
    with pytest.raises(ValueError, match="'b'"):
        adam_step([a, b], lr=0.1)
    np.testing.assert_array_equal(a.data, np.zeros(2))
    assert a.m is None and a.step == 0


def test_first_adam_step_moves_by_lr():
    # bias correction makes the first update exactly lr * sign(g)
    p = Parameter("w", np.zeros(1, dtype=np.float64))
    p.grad = np.array([0.37])
    adam_step([p], lr=0.05)
    np.testing.assert_allclose(p.data, [-0.05], rtol=1e-6)


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    tensors = {
        "a.w": rng.normal(size=(3, 3, 2, 4)).astype(np.float32),
        "a.stats": rng.normal(size=(4,)).astype(np.float64),
        "b": np.float32(2.5).reshape(()),
    }
    path = tmp_path / "model.mct"
    save_checkpoint(path, tensors)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(tensors)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.mct"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    # cut anywhere, from inside the magic to the last payload byte
    path = tmp_path / "model.mct"
    save_checkpoint(path, {"w": np.ones((2, 3), dtype=np.float32),
                           "b": np.zeros(3, dtype=np.float64)})
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(ValueError, match="truncated") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


def test_failed_checkpoint_save_keeps_previous_file(tmp_path):
    path = tmp_path / "model.mct"
    good = {"w": np.arange(4, dtype=np.float32)}
    save_checkpoint(path, good)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="dtype"):
        save_checkpoint(path, {"w": np.ones(4, dtype=np.float32),
                               "steps": np.arange(3)})  # int64: unsupported
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.mct"]
    np.testing.assert_array_equal(load_checkpoint(path)["w"], good["w"])


def test_load_state_mismatch_is_exhaustive(tmp_path):
    s = ParameterStore(seed=0)
    s.create("keep", (2, 2), "zeros")
    s.create("gone", (3,), "zeros")
    state = {"keep": np.zeros((2, 3)), "extra": np.zeros(1)}
    with pytest.raises(CheckpointMismatch) as err:
        s.load_state(state)
    msg = str(err.value)
    assert "extra" in msg and "gone" in msg and "keep" in msg


def test_store_state_roundtrip(tmp_path):
    s = ParameterStore(seed=9)
    s.create("w", (5,), "he", fan_in=5)
    s.create("mu", (5,), "zeros", trainable=False)
    path = tmp_path / "s.mct"
    save_checkpoint(path, s.state())
    fresh = ParameterStore(seed=1)
    fresh.create("w", (5,), "he", fan_in=5)
    fresh.create("mu", (5,), "zeros", trainable=False)
    fresh.load_state(load_checkpoint(path))
    np.testing.assert_array_equal(fresh["w"].data, s["w"].data)


# ---------------------------------------------------------------------------
# numeric gradient verification of every primitive


@pytest.mark.parametrize("name,make", primitive_cases(), ids=lambda v: v if isinstance(v, str) else "")
def test_primitive_gradients(name, make):
    build, tensors = make()
    err = check_gradients(build, tensors)
    assert err < PRIMITIVE_TOL, f"{name}: rel err {err:.3e}"


def test_every_public_primitive_has_a_gradient_case():
    # a case named after the op, or after the op plus "_<variant>"
    names = [name for name, _ in primitive_cases()]
    public = [name for name, fn in vars(ops).items()
              if inspect.isfunction(fn) and fn.__module__ == ops.__name__
              and not name.startswith("_")]
    assert len(public) >= 25
    missing = [op for op in public
               if not any(n == op or n.startswith(op + "_") for n in names)]
    assert missing == []


def test_gradcheck_catches_corruption(scale_grad_too_large):
    make = dict(primitive_cases())["scale"]
    build, tensors = make()
    err = check_gradients(build, tensors)
    assert err > PRIMITIVE_TOL
