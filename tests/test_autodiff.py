"""Tape mechanics, parameter store, Adam, checkpoints, and gradient checks."""

import collections
import contextlib
import gc
import inspect
import math
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from mcads import ops, params, summary
from mcads.config import RunConfig
from mcads.gradcheck import PRIMITIVE_TOL, check_gradients, primitive_cases
from mcads.network import SegmentationModel
from mcads.params import (MAGIC, CheckpointMismatch, Parameter, ParameterStore,
                          adam_step, he_uniform, load_checkpoint,
                          save_checkpoint)
from mcads.tensor import Tape, Tensor, backward, count_macs, record, recording


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


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps a call's arguments on the caller's "
                           "stack until the call returns")
def test_backward_hands_each_node_the_only_reference_to_its_gradient():
    """A closure that rebinds its incoming gradient frees that array before
    it returns: backward keeps no reference of its own, so a fused node's
    incoming gradient need not sit beside the arrays its closure makes."""
    x = t(np.ones((2, 3)))
    freed = []

    def bwd(g):
        ref = weakref.ref(g)
        g = g * 2.0
        freed.append(ref() is None)
        return (g,)

    with Tape() as tape:
        y = record("probe", Tensor(x.data * 3.0), (x,), bwd)
        loss = ops.reduce_sum(ops.mul(ops.scale(y, 2.0), y))
    backward(tape, loss)
    assert freed == [True]
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 24.0))


def test_no_tape_means_no_graph():
    x = t([1.0])
    y = ops.mul(x, x)
    assert y.tape is None and y.grad is None


def _captured_tensors(value):
    """Every Tensor a closure reaches through its cells, following nested
    closures and tuples or lists of captures."""
    if isinstance(value, Tensor):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _captured_tensors(item)
    elif callable(value):
        for cell in getattr(value, "__closure__", None) or ():
            yield from _captured_tensors(cell.cell_contents)


def test_tape_nodes_hold_no_op_outputs(desk_step):
    """A node holds its output's slot, one gradient target per input and a
    closure; neither the targets nor anything the closure captures is an
    op-produced Tensor, so the tape keeps alive only the arrays gradients
    read. Checked on every node of a seeded desk forward."""
    model, images, masks = desk_step
    with Tape() as tape:
        model.loss(model.forward(images, train=True), masks)
    assert len(tape) > 1000
    offenders = collections.Counter(
        fn.__qualname__ for _, _, fn in tape._nodes
        if any(c.tape is not None for c in _captured_tensors(fn)))
    assert offenders == {}
    for slot, targets, _ in tape._nodes:
        assert not isinstance(slot, Tensor) and slot.grad is None
        assert all(not isinstance(x, Tensor) or x.tape is None for x in targets)


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


@pytest.mark.parametrize("taped, tracked", [(False, True), (True, False), (True, True)],
                         ids=["no-tape", "untracked", "tracked-leaf"])
def test_recording_says_whether_record_appends_a_node(taped, tracked):
    inputs = (Tensor(np.ones(3)), Tensor(np.ones(3), requires_grad=tracked))
    with Tape() if taped else contextlib.nullcontext() as tape:
        said = recording(inputs)
        out = record("probe", Tensor(np.ones(3)), inputs, lambda g: (g, g))
    assert said == (taped and tracked) == out.requires_grad
    if taped:
        assert len(tape) == said


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


# (name, shape, init) in creation order; the zeros entry sits between draws
ENTRIES = [("a", (3, 3, 2, 4), "he"), ("z", (4,), "zeros"),
          ("b", (5,), "he"), ("c", (2, 7), "he")]


def _fan_in(shape):
    return int(np.prod(shape[:-1])) or 1


def _deferred_store(seed=21, entries=ENTRIES):
    s = ParameterStore(seed=seed)
    for name, shape, init in entries:
        s.create(name, shape, init, fan_in=_fan_in(shape))
    return s


def _eager(seed=21, entries=ENTRIES):
    """What drawing each He parameter at create() would give."""
    rng = np.random.default_rng(seed)
    return {name: he_uniform(shape, _fan_in(shape), rng)
            if init == "he" else np.zeros(shape, np.float32)
            for name, shape, init in entries}


def test_deferred_draws_follow_creation_order():
    s = _deferred_store()
    for name, want in reversed(_eager().items()):  # the last-made read first
        assert s[name].dtype == want.dtype
        np.testing.assert_array_equal(s[name].data, want)


def test_counting_leaves_the_draws_queued():
    """Reading shapes and sizes, as count() and the summary table do, runs
    no He draw; the first data read still gives the eager draw's bytes."""
    s = _deferred_store()
    assert s.count() == sum(math.prod(shape) for _, shape, _ in ENTRIES)
    assert [s[name].shape for name, _, _ in ENTRIES] == [shape for _, shape, _ in ENTRIES]
    assert s.rng.bit_generator.state == np.random.default_rng(21).bit_generator.state
    for name, want in _eager().items():
        np.testing.assert_array_equal(s[name].data, want)
    model = SegmentationModel(RunConfig.desk().model)
    assert summary.parameter_summary(model)
    fresh = np.random.default_rng(model.cfg.seed).bit_generator.state
    assert model.store.rng.bit_generator.state == fresh


def test_full_load_state_never_draws():
    """load_state adopts a float32, C-contiguous, writable array as it is and
    copies any other into an owned, writable, C-contiguous float32 array;
    the RNG is never touched."""
    s = _deferred_store()
    fresh = np.random.default_rng(21).bit_generator.state
    given = {"a": np.full((3, 3, 2, 4), 0.5, np.float32),           # adopted
             "z": np.arange(4.0) / 3,                                # float64
             "b": np.arange(5, dtype=np.float32),                    # read-only
             "c": np.asfortranarray(np.ones((2, 7), np.float32))}    # F-order
    given["b"].flags.writeable = False
    want = {name: arr.astype(np.float32) for name, arr in given.items()}
    s.load_state(given)
    assert s.rng.bit_generator.state == fresh
    assert s["a"].data is given["a"]
    for name in "zbc":
        arr = s[name].data
        assert not np.shares_memory(arr, given[name])
        assert arr.flags.owndata and arr.flags.writeable and arr.flags.c_contiguous
    for name, arr in want.items():
        assert s[name].dtype == np.float32
        np.testing.assert_array_equal(s[name].data, arr)
    for p in s.parameters():
        p.grad = np.ones_like(p.data)
    adam_step(s.parameters(), lr=0.1)
    for name, arr in want.items():
        np.testing.assert_allclose(s[name].data, arr - 0.1, rtol=1e-6, atol=1e-6)
    assert s.rng.bit_generator.state == fresh  # reads after the load draw nothing


def test_checkpoint_mismatch_keeps_the_queued_draws():
    s = _deferred_store()
    state = {name: np.ones(shape, np.float32) for name, shape, _ in ENTRIES}
    state["c"] = np.ones((7, 2), np.float32)
    with pytest.raises(CheckpointMismatch, match="'c'"):
        s.load_state(state)
    assert s.rng.bit_generator.state == np.random.default_rng(21).bit_generator.state
    for name, want in _eager().items():
        assert not np.shares_memory(s[name].data, state[name])  # none adopted
        np.testing.assert_array_equal(s[name].data, want)


def test_concurrent_first_reads_see_the_eager_draw():
    entries = [(f"p{i}", (8, 16), "he") for i in range(200)]
    want = _eager(entries=entries)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            s = _deferred_store(entries=entries)
            names = s.names()
            barrier = threading.Barrier(2)
            seen = [{}, {}]

            def read(order, out):
                barrier.wait(timeout=10)
                for name in order:
                    out[name] = s[name].data.copy()

            threads = [threading.Thread(target=read, args=(order, out))
                       for order, out in ((names, seen[0]),
                                          (names[::-1], seen[1]))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
                assert not th.is_alive()
            for out in seen:
                assert out.keys() == want.keys()
                for name, arr in out.items():
                    np.testing.assert_array_equal(arr, want[name])
    finally:
        sys.setswitchinterval(interval)


def test_dropped_model_is_freed_without_the_cyclic_collector():
    # a queued draw must not tie a parameter back to its store: with that
    # cycle, every replaced model would live until the collector ran
    gc.collect()
    gc.disable()
    try:
        model = SegmentationModel(RunConfig.desk().model)
        store = weakref.ref(model.store)
        del model
        assert store() is None
    finally:
        gc.enable()


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
    w = s.create("w", (), "zeros")
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


def test_adam_checks_every_gradient_before_updating():
    a = Parameter("a", np.zeros(2, dtype=np.float32))
    b = Parameter("b", np.zeros(2, dtype=np.float32))
    a.grad = np.ones(2, dtype=np.float32)
    with pytest.raises(ValueError, match="'b'"):
        adam_step([a, b], lr=0.1)
    np.testing.assert_array_equal(a.data, np.zeros(2))
    assert a.m is None and a.step == 0


@pytest.mark.parametrize("lr", [-0.1, 0.0, math.nan, math.inf, "0.1", 1j])
def test_adam_rejects_a_bad_lr_before_anything(lr):
    a = Parameter("a", np.zeros(2, dtype=np.float32))
    b = Parameter("b", np.zeros(2, dtype=np.float32))  # no gradient
    a.grad = np.ones(2, dtype=np.float32)
    with pytest.raises(ValueError, match="adam_step: lr must be"):
        adam_step([a, b], lr=lr)
    np.testing.assert_array_equal(a.data, np.zeros(2))
    assert a.m is None and a.step == 0 and b.step == 0


def test_adam_runs_match_textbook_per_parameter():
    """Adam walking the flat moment buffers in runs is bit-identical to the
    textbook formula applied parameter by parameter: float32 and float64
    parameters mixed, a frozen one between two that share a run, calls on
    every other parameter (so neighbours in a buffer later split on step),
    and one parameter larger than a run."""
    rng = np.random.default_rng(11)
    f32, f64 = np.float32, np.float64
    specs = [((3, 3, 2, 4), f32), ((4,), f32), ((), f64),
             ((params.ADAM_CHUNK + 3,), f32), ((5, 7), f32), ((6,), f32),
             ((2, 2), f64), ((3,), f64)]
    live = [Parameter(f"p{i}", np.asarray(rng.normal(size=shape), dtype))
            for i, (shape, dtype) in enumerate(specs)]
    frozen = Parameter("stats", np.ones(3, dtype=np.float32), trainable=False)
    everyone = live[:1] + [frozen] + live[1:]
    ref = {p.name: {"data": p.data.copy(), "m": np.zeros_like(p.data),
                    "v": np.zeros_like(p.data), "step": 0} for p in live}
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    for call in (everyone, everyone[::2], everyone, everyone[1::2], everyone):
        for p in call:
            if not p.trainable:
                continue
            p.grad = np.asarray(rng.normal(size=p.shape), p.dtype)
            r, g = ref[p.name], p.grad
            r["step"] += 1
            r["m"] = b1 * r["m"] + (1.0 - b1) * g
            r["v"] = b2 * r["v"] + (1.0 - b2) * (g * g)
            mhat = r["m"] / (1.0 - b1 ** r["step"])
            vhat = r["v"] / (1.0 - b2 ** r["step"])
            r["data"] = r["data"] - lr * mhat / (np.sqrt(vhat) + eps)
        adam_step(call, lr)
        for p in live:
            r = ref[p.name]
            assert p.step == r["step"]
            for key in ("data", "m", "v"):
                got = p.data if key == "data" else getattr(p, key)
                assert got.dtype == p.dtype and got.shape == p.shape
                assert np.array_equal(got, r[key]), (p.name, key, r["step"])
    np.testing.assert_array_equal(frozen.data, np.ones(3))
    assert frozen.m is None


def test_adam_reads_a_float64_gradient_of_a_float32_parameter_as_is():
    """Such a gradient never joins a run, where it would be rounded to
    float32 before the formula: a step over the list equals a step per
    parameter."""
    rng = np.random.default_rng(12)
    init = [rng.normal(size=4).astype(np.float32) for _ in range(3)]
    grads = [rng.normal(size=4) for _ in range(3)]
    together = [Parameter(f"p{i}", x.copy()) for i, x in enumerate(init)]
    alone = [Parameter(f"p{i}", x.copy()) for i, x in enumerate(init)]
    for p, q, g in zip(together, alone, grads):
        p.grad, q.grad = g, g
        adam_step([q], lr=0.1)
    adam_step(together, lr=0.1)
    for p, q in zip(together, alone):
        assert p.data.dtype == np.float32
        assert np.array_equal(p.data, q.data) and np.array_equal(p.v, q.v)


def test_adam_updates_a_store_in_one_run(monkeypatch):
    """A store's small parameters get their moments as views of one flat
    buffer, and one step over them is one run: one finite guard."""
    s = ParameterStore(seed=0)
    ps = [s.create(f"w{i}", (3, i + 1), "he", fan_in=3) for i in range(4)]
    for p in ps:
        p.grad = np.ones(p.shape, dtype=np.float32)
    guards = []
    monkeypatch.setattr(params, "guard_finite", lambda op, a: guards.append(op))
    adam_step(s.parameters(), lr=0.1)
    assert len({id(p.m.base) for p in ps} | {id(p.v.base) for p in ps}) == 2
    assert ps[0].m.base is ps[0].flat[0] and ps[0].v.base is ps[0].flat[1]
    assert guards == ["adam_step"]


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


def _header(name, shape):
    """One float32 record's header, as save_checkpoint writes it."""
    encoded = name.encode("utf-8")
    return (struct.pack("<H", len(encoded)) + encoded
            + struct.pack(f"<B{len(shape)}IB", len(shape), *shape, 0))


@pytest.mark.parametrize("shape, match", [
    ((2**32 - 1, 2**32 - 1), "truncated"),  # int64 bytes wrap to -34 GB
    ((2**16,) * 4, "truncated"),            # and to 0 bytes
    ((0,) * 65, "dimension"),               # empty, but beyond numpy's rank
], ids=["bytes_wrap_negative", "bytes_wrap_zero", "rank_65"])
def test_checkpoint_header_extents(tmp_path, shape, match):
    path = tmp_path / "huge.mct"
    path.write_bytes(MAGIC + struct.pack("<I", 1) + _header("w", shape))
    with pytest.raises(ValueError, match=match) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_checkpoint_header_alone_allocates_nothing(tmp_path):
    path = tmp_path / "huge.mct"
    blob = MAGIC + struct.pack("<I", 1) + _header("w", (2**32 - 1,) * 4) + b"\0"
    assert len(blob) == 30
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_checkpoint_mutations_fail_cleanly(tmp_path):
    """Flipped, cut and inserted bytes give a dict or a ValueError naming the
    file, never another exception."""
    path = tmp_path / "model.mct"
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                           "b": np.zeros(3, dtype=np.float64)})
    blob = path.read_bytes()
    rng = np.random.default_rng(17)
    mutants = [blob[:i] + bytes([blob[i] ^ x]) + blob[i + 1:]
               for i in range(len(blob)) for x in (0x01, 0x80, 0xFF)]
    for _ in range(300):
        i = int(rng.integers(len(blob) + 1))
        extra = rng.integers(256, size=int(rng.integers(1, 9)), dtype=np.uint8)
        mutants.append(blob[:i] + extra.tobytes() + blob[i:])
        mutants.append(blob[:i] + blob[i + int(rng.integers(1, 9)):])
    outcomes = collections.Counter()
    for mutant in mutants:
        path.write_bytes(mutant)
        try:
            tensors = load_checkpoint(path)
        except ValueError as e:
            assert str(path) in str(e), e
            outcomes["error"] += 1
        else:
            assert isinstance(tensors, dict)
            outcomes["dict"] += 1
    assert outcomes["error"] and outcomes["dict"]  # flipped payloads still load


def test_failed_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.mct"
    good = {"w": np.arange(4, dtype=np.float32)}
    save_checkpoint(path, good)
    before = path.read_bytes()
    with pytest.raises(ValueError, match="dtype"):
        save_checkpoint(path, {"w": np.ones(4, dtype=np.float32),
                               "steps": np.arange(3)})  # int64: unsupported
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.mct"]

    def fsync(fd):
        raise OSError(5, "Input/output error")

    monkeypatch.setattr(os, "fsync", fsync)  # the disk fails after the write
    with pytest.raises(OSError, match="Input/output"):
        save_checkpoint(path, {"w": np.ones(4, dtype=np.float32)})
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.mct"]
    np.testing.assert_array_equal(load_checkpoint(path)["w"], good["w"])


def test_checkpoint_save_syncs_before_the_rename(tmp_path, monkeypatch):
    path = tmp_path / "model.mct"
    calls = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", st.st_ino, st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        calls.append(("replace", str(src), str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    save_checkpoint(path, {"w": np.arange(6, dtype=np.float32)})
    st = path.stat()  # the renamed file is the one synced, every byte flushed
    assert calls == [("fsync", st.st_ino, st.st_size),
                     ("replace", f"{path}.tmp", str(path))]


# The child reads its peak RSS from VmHWM: getrusage's ru_maxrss keeps the
# larger peak of the test process across the exec.
LOAD_RSS_CHILD = """
import sys
from mcads.params import ParameterStore, load_checkpoint

def peak():
    with open("/proc/self/status") as f:
        return next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))

store = ParameterStore(seed=0)
for i in range({count}):
    store.create(f"w{{i}}", {shape}, "he", fan_in={fan_in})
before = peak()
store.load_state(load_checkpoint(sys.argv[1]))
print((peak() - before) * 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs Linux's /proc/self/status")
def test_load_keeps_one_copy_of_the_weights(tmp_path):
    """A fresh process that builds a 64 MB store of He weights and loads a
    checkpoint into it grows its peak RSS by the payload once, not twice."""
    count, shape = 8, (512, 4096)  # 8 MiB of float32 each
    rng = np.random.default_rng(3)
    path = tmp_path / "big.mct"
    save_checkpoint(path, {f"w{i}": he_uniform(shape, 512, rng) for i in range(count)})
    payload = count * math.prod(shape) * 4
    child = LOAD_RSS_CHILD.format(count=count, shape=shape, fan_in=512)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    out = subprocess.run([sys.executable, "-c", child, str(path)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    grown = int(out.stdout)
    assert payload <= grown < 1.5 * payload, (grown, payload)


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
    # a case belongs to the longest op it is named after, alone or plus
    # "_<variant>": a case of an op named "<op>_<suffix>" never stands in
    # for <op>'s own
    public = [name for name, fn in vars(ops).items()
              if inspect.isfunction(fn) and fn.__module__ == ops.__name__
              and not name.startswith("_")]
    assert len(public) >= 24
    owners = {max((op for op in public if n == op or n.startswith(op + "_")),
                  key=len, default=None) for n, _ in primitive_cases()}
    assert [op for op in public if op not in owners] == []


def test_gradcheck_catches_corruption(scale_grad_too_large):
    make = dict(primitive_cases())["scale"]
    build, tensors = make()
    err = check_gradients(build, tensors)
    assert err > PRIMITIVE_TOL
