"""Kernels whose blocks are dealt over the cores (ops._deal): outputs equal
a one-core run byte for byte, a non-finite value in any block raises the
op's NumericError only after every thread is done, and the thread pool
survives forks and concurrent callers.

The one-core side runs in a child process whose CPU affinity is one core,
so ops._deal runs every block in the calling thread there.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from mcads import ops
from mcads.config import RunConfig
from mcads.network import SegmentationModel
from mcads.tensor import NumericError, Tape, Tensor, backward, guard_finite

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(ops.__file__)))

# Inputs whose outputs span enough blocks of ops._BLOCK_BYTES to be dealt
# over up to 4 cores, the last block holding one row more than the first (a
# ragged last block).
ROWS_SHAPE = (4, 131, 127, 32)  # elementwise ops: blocks of pixel rows
DW_SHAPE = (2, 500, 130, 16)  # depthwise conv: blocks of image rows
UP_SHAPE = (2, 250, 65, 16)  # bilinear x2: the same output shape
DENSE_SHAPE = (16, 1001, 64)  # dense to 128 wide: blocks of token rows


def _blocks(name):
    """The blocks ops._deal gets for case `name`'s output."""
    if name.startswith(("batch_norm", "conv_bn", "dense", "leaky_relu", "relu")):
        # the epilogue's blocks of rows of k whole pixels
        shape = DENSE_SHAPE[:2] + (128,) if name == "dense" else ROWS_SHAPE
        return ops._pixel_rows(np.empty(shape, np.float32))[1]
    n, h, w, c = DW_SHAPE
    return ops._block_plan(n, h, w * c * 4, ops._BLOCK_BYTES)[1]


def _sizes(blocks):
    return [b.stop - b.start if isinstance(b, slice) else b[1] * b[3]
            for b in blocks]


def _inputs(seed=0):
    rng = np.random.default_rng(seed)

    def t(*shape):
        return rng.normal(size=shape).astype(np.float32)

    c = ROWS_SHAPE[3]
    return {"x": t(*ROWS_SHAPE), "gamma": t(c), "beta": t(c), "mean": t(c),
            "var": rng.uniform(0.5, 2.0, c).astype(np.float32),
            "dw_x": t(*DW_SHAPE), "dw_w": t(3, 3, 1, DW_SHAPE[3]),
            "dw_b": t(DW_SHAPE[3]), "dw_g": t(*DW_SHAPE),
            "up_x": t(*UP_SHAPE), "fc_x": t(*DENSE_SHAPE), "fc_w": t(64, 128),
            "fc_b": t(128), "w_kxk": t(3, 3, c, c), "w_1x1": t(1, 1, c, c),
            "w_dw": t(3, 3, 1, c), "b": t(c)}


def _run(name, a):
    """Case `name` on the arrays of _inputs: its output array (a
    depthwise conv also returns its input gradient, run by the same
    kernel)."""
    T = Tensor
    if name.startswith("conv_bn_"):  # conv, eval batch norm and act in one pass
        kind, act = name[len("conv_bn_"):].split("_", 1)
        bn = tuple(T(a[k]) for k in ("gamma", "beta", "mean", "var"))
        return ops.conv2d(T(a["x"]), T(a[f"w_{kind}"]), T(a["b"]), bn=bn, act=act,
                          groups=ROWS_SHAPE[3] if kind == "dw" else 1).data
    if name.startswith("batch_norm"):
        act = name[len("batch_norm_"):] or None  # eval batch norm, fused or not
        return ops.batch_norm(T(a["x"]), T(a["gamma"]), T(a["beta"]), T(a["mean"]),
                              T(a["var"]), train=False, act=act).data
    if name == "leaky_relu":
        return ops.leaky_relu(T(a["x"])).data
    if name == "relu":
        return ops.relu(T(a["x"])).data
    if name == "bilinear_upsample":
        return ops.bilinear_upsample(T(a["up_x"]), 2).data
    if name == "dense":
        return ops.dense(T(a["fc_x"]), T(a["fc_w"]), T(a["fc_b"])).data
    x = T(a["dw_x"], requires_grad=True)
    with Tape() as tape:
        y = ops.conv2d(x, T(a["dw_w"]), T(a["dw_b"]), groups=DW_SHAPE[3])
        loss = ops.reduce_sum(ops.mul(y, T(a["dw_g"])))
    backward(tape, loss)
    return np.concatenate([y.data.ravel(), x.grad.ravel()])


CASES = ("batch_norm", "batch_norm_relu", "batch_norm_leaky_relu", "leaky_relu", "relu",
         "conv2d_dw", "bilinear_upsample", "dense",
         *(f"conv_bn_{kind}_{act}" for kind in ("kxk", "1x1", "dw")
           for act in ("relu", "leaky_relu")))


def _desk_final(images):
    model = SegmentationModel(RunConfig.desk().model)
    return model(images, train=False).final.data


def _desk_images(seed=4):
    return np.random.default_rng(seed).uniform(size=(4, 64, 64, 3)).astype(np.float32)


def outputs() -> dict:
    """Every case's output, and the desk model's eval `final`."""
    a = _inputs()
    out = {name: _run(name, a) for name in CASES}
    out["desk_final"] = _desk_final(_desk_images())
    return out


def _cores():
    return len(os.sched_getaffinity(0))


needs_affinity = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                                    reason="needs os.sched_setaffinity")


@pytest.mark.parametrize("name", CASES)
def test_cases_span_every_core_and_end_ragged(name):
    blocks = _blocks(name)
    assert len(blocks) >= ops._DEAL_MIN_BLOCKS * 4
    sizes = _sizes(blocks)
    assert sizes[-1] == sizes[0] + 1


@needs_affinity
def test_outputs_equal_a_one_core_run(tmp_path):
    if _cores() < 2:
        pytest.skip("one core: both sides would run in one thread")
    assert ops._executor()[1] == _cores() - 1
    path = tmp_path / "one_core.npz"
    child = ("import os, sys\n"
             "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
             "import numpy as np\n"
             "import test_dealt_blocks as t\n"
             "from mcads import ops\n"
             "assert ops._executor() == (None, 0)\n"
             f"np.savez({str(path)!r}, **t.outputs())\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, HERE])}
    subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=300)
    want = np.load(path)
    got = outputs()
    assert sorted(want) == sorted(got)
    for key, value in got.items():
        assert value.dtype == want[key].dtype and value.shape == want[key].shape, key
        assert value.tobytes() == want[key].tobytes(), key


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize("name", CASES)
def test_non_finite_block_raises_the_ops_error(name, where):
    """A NaN planted in the first or the last block of the input reaches
    that block of the output, and the op raises its unchanged error."""
    a = _inputs()
    key = {"conv2d_dw": "dw_x", "bilinear_upsample": "up_x", "dense": "fc_x"}.get(name, "x")
    flat = a[key].reshape(-1)
    flat[0 if where == "first" else -1] = np.nan
    op = ("conv2d" if name.startswith("conv") else
          "batch_norm" if name.startswith("batch_norm") else name)
    with pytest.raises(NumericError, match=rf"^non-finite value produced by op '{op}'$"):
        _run(name, a)


def test_deal_returns_only_after_every_thread_is_done():
    """The block failing the guard raises in the caller, and no thread is
    still inside a block when it does."""
    inside, done = [], []
    blocks = list(range(ops._DEAL_MIN_BLOCKS * (ops._executor()[1] + 1)))

    def body(block, _):
        inside.append(block)
        time.sleep(0.02)
        done.append(block)
        guard_finite("probe", np.array([np.nan if block == 0 else 0.0]))

    with pytest.raises(NumericError, match="op 'probe'"):
        ops._deal(blocks, body)
    assert sorted(done) == sorted(inside)


def _leaky_in_child(x, want, conn):
    fresh = ops._EXECUTOR is None
    conn.send(fresh and ops.leaky_relu(Tensor(x)).data.tobytes() == want)


def test_forked_child_runs_dealt_blocks():
    """A fork of a process whose pool has run work starts without it, and
    makes its own to deal blocks."""
    x = _inputs()["x"]
    want = ops.leaky_relu(Tensor(x)).data.tobytes()
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_leaky_in_child, args=(x, want, child_end))
    proc.start()
    try:
        ok = parent_end.poll(120) and parent_end.recv()
    finally:
        proc.join(timeout=30)
        if proc.is_alive():
            proc.kill()
    assert not proc.is_alive()
    assert proc.exitcode == 0
    assert ok is True


def test_two_threads_run_the_desk_forward_at_once():
    model = SegmentationModel(RunConfig.desk().model)
    images = _desk_images()
    lone = model(images, train=False).maps
    got = [None, None]

    def run(k):
        got[k] = model(images, train=False).maps

    threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    for maps in got:
        assert maps is not None and sorted(maps) == sorted(lone)
        for k, m in maps.items():
            assert m.data.tobytes() == lone[k].data.tobytes(), k


def test_concurrent_callers_share_the_pool():
    """More calling threads than cores, switching often, each deal every
    block of their own outputs exactly once: a block taken twice or skipped
    would leave np.empty garbage or a differing byte."""
    a = _inputs()
    want = {name: _run(name, a) for name in ("leaky_relu", "bilinear_upsample")}
    failures = []

    def run():
        for _ in range(3):
            for name, out in want.items():
                if _run(name, a).tobytes() != out.tobytes():
                    failures.append(name)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run)
                   for _ in range(2 * (ops._executor()[1] + 1) + 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
