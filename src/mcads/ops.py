"""Differentiable primitives over channels-last numpy tensors.

Each op computes eagerly and returns through _emit, which checks the result
for non-finite values and (when a Tape is active and an input is tracked)
records a closure that maps the output gradient to per-input gradients.
A closure captures only the arrays, shapes and dtypes its gradient reads,
never a Tensor, so an activation no gradient reads is freed as soon as the
forward drops it; relu and leaky_relu differentiate from their output.
conv2d runs odd kernels at stride 1 with 'same' padding, which pads each
axis equally on both sides: the model's only geometry and the only one the
convolution kernels serve. Dense convs run as blocked im2col, the output
walked in blocks whose windows are copied into one patch buffer, reused
across blocks, and multiplied by the weights into the output in one BLAS
call per block; depthwise as a cache-blocked loop over the kernel taps.
Both share one block plan. Input gradients are the forward's own kernel over
the output gradient's 'same' canvas with the spatially flipped weights.
Bilinear upsampling differentiates through two interpolation-matrix
products. Train-mode batch norm uses the closed form of its gradient.
Every bias, batch-norm and activation forward is one elementwise pass,
y = act(bn(x + bias)) (_epilogue), over rows of whole pixels with tiled
per-channel vectors (_pixel_rows): conv2d and dense add their bias in their
own output, an untaped eval conv fusing batch norm and relu or leaky_relu
after it (under a tape, the call is the conv -> batch_norm chain, so each
gradient has one form); batch_norm, with or without an activation, and
relu and leaky_relu write one fresh output. Every op returns a C-contiguous
array: a strided result changes the summation order of the BLAS calls
downstream. This module is the one place for the numbers the architecture
fixes, which no op takes as an argument: LeakyReLU slope 0.01, batch-norm
eps 1e-3, BCE clamp 1e-7, 2x2 max pooling, depth-to-space by block 2, and
softmax over the last axis.

The memory-bound kernels run block by block, the blocks (of _block_plan,
sized for a core's L2 cache) dealt between the calling thread and one worker
thread per further core (_deal): the depthwise tap loop, forward and input
gradient; the epilogue; train-mode batch norm's two backward passes; and the
bilinear forward, which writes its output rows from small reused scratch.
Each body guards the block it finishes while it is still in cache, the
epilogue stage by stage: the bias sum under the producing op, the normalized
map under batch_norm before the activation (which would turn a -inf into 0),
a lone activation under its own name. The op raises only once every thread
is done. Each output element gets the same float32 operations in the same
order whichever thread runs it, so results are byte-identical to one core.
Three things stay serial: the depthwise weight gradient and train-mode batch
norm's channel statistics, whose sums run across blocks in a fixed order,
and everything that calls BLAS, which already runs its own threads. A map
is dealt over only as many threads as get _DEAL_MIN_BLOCKS blocks each, so
a small one (every map of the desk model) runs in the caller, as a plain
loop that touches neither the pool nor a lock. Outside this module, one
caller deals with min_blocks=1: metrics.surface_metrics, whose two blocks
are a mask pair's two directed KD-tree distance sets.
"""

from __future__ import annotations

import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .tensor import Tensor, add_macs, guard_finite, record, recording

LEAKY_SLOPE = 0.01
BN_EPS = 1e-3
BCE_CLAMP = 1e-7


def _require(cond: bool, op: str, msg: str) -> None:
    if not cond:
        raise ValueError(f"{op}: {msg}")


def _same_dtype(op, *tensors):
    dtype = tensors[0].dtype
    for t in tensors[1:]:
        if t.dtype != dtype:
            raise TypeError(f"{op}: mixed dtypes {dtype} vs {t.dtype}")
    return dtype


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient down to `shape`, inverting numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _emit(op: str, y: np.ndarray, inputs, backward, guarded: bool = False) -> Tensor:
    """The one exit of every op that computes values: guard, wrap, record.

    `guarded` says _deal's finite guard already checked every block of y.
    Layout ops (reshape and friends) only move values an earlier op already
    checked, so they call record directly. `record` is looked up in this
    module's globals at call time, so a wrapper swapped in for ops.record
    sees every op.
    """
    if not guarded:
        guard_finite(op, y)
    return record(op, Tensor(y), inputs, backward)


# ---------------------------------------------------------------------------
# blocks dealt over the cores


# Blocks per thread below which _deal runs every block in the caller: over
# two cores, maps of 1-2 MB (4-8 blocks) ran slower dealt than in one thread,
# 4 MB about even, and 8 MB and up 1.1-1.6x faster.
_DEAL_MIN_BLOCKS = 8
# (executor, workers): one worker thread per core this process may run on,
# beside the calling thread; no executor on one core. Made on first use and
# forgotten in a forked child, which inherits none of the threads.
_EXECUTOR = None
_EXECUTOR_LOCK = threading.Lock()


def _executor():
    global _EXECUTOR
    with _EXECUTOR_LOCK:
        if _EXECUTOR is None:
            cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                     else os.cpu_count() or 1)
            _EXECUTOR = (ThreadPoolExecutor(cores - 1) if cores > 1 else None, cores - 1)
        return _EXECUTOR


def _forget_executor():
    global _EXECUTOR, _EXECUTOR_LOCK
    _EXECUTOR, _EXECUTOR_LOCK = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_executor)


def _deal(blocks, body, scratch: int = 0, dtype=None,
          min_blocks: int = _DEAL_MIN_BLOCKS) -> None:
    """Run body(block, buf) for every block, each in one thread: dealt, one
    at a time as each thread comes free, between this thread and as many of
    the pool's workers as leave each thread at least `min_blocks` blocks; in
    this one alone, in order, as a plain loop (no lock, no futures), when
    that is none of them. Every kernel here keeps the default;
    metrics.surface_metrics passes min_blocks=1 for its two directed
    distance sets. Each thread passes every block it takes the same
    `buf`, an np.empty(scratch, dtype) made here (None when scratch is 0). A
    body that finishes an op's output guards what it wrote, while it is
    still in cache. Returns, or raises the first failure, only once every
    thread is done, so no worker still writes into an output its caller has
    dropped.

    A body must compute each output element from its inputs alone, so the
    results do not depend on which thread ran which block: work that sums
    across blocks (channel statistics, the depthwise weight gradient) stays
    serial, and so does BLAS, which runs its own threads.
    """
    pool, workers = _executor()
    parts = max(1, min(workers + 1, len(blocks) // min_blocks))
    bufs = [np.empty(scratch, dtype) if scratch else None for _ in range(parts)]
    if parts == 1:
        for block in blocks:
            body(block, bufs[0])
        return
    lock, todo = threading.Lock(), iter(blocks)

    def part(buf):
        while True:
            with lock:
                block = next(todo, None)
            if block is None:
                return
            body(block, buf)

    futures = [pool.submit(part, buf) for buf in bufs[1:]]
    try:
        part(bufs[0])
    finally:
        # a worker still queued behind another caller's blocks is dropped
        started = [f for f in futures if not f.cancel()]
        wait(started)
    for f in started:
        f.result()


# Elements per row of the 2-D views that per-channel passes run over: a (C,)
# vector broadcast over (pixels, C) restarts numpy's inner loop every C
# elements, which made one pass about 1.6x slower at C = 64 than over rows
# of this length.
_ROW_ELEMS = 1 << 14


def _pixels_per_row(pixels: int, c: int) -> int:
    """The largest power of two k dividing `pixels` with k * c at most
    _ROW_ELEMS (at least 1): per-channel vectors tiled k times then line up
    with the rows of a (pixels / k, k * c) view."""
    k = 1
    while 2 * k * c <= _ROW_ELEMS and 2 * k <= pixels and pixels % (2 * k) == 0:
        k *= 2
    return k


def _pixel_rows(*arrays):
    """The arrays, of one (..., C) shape (a 0-d one is one pixel of one
    channel), as 2-D arrays whose rows hold k whole pixels (k of
    _pixels_per_row), views of the C-contiguous ones; the row slices of
    their blocks of _block_plan at _BLOCK_BYTES; and tile(v), which repeats
    a (C,) vector k times to line up with those rows."""
    a = arrays[0]
    c = a.shape[-1] if a.ndim else 1
    pixels = a.size // max(c, 1)
    k = _pixels_per_row(pixels, c)
    rows = pixels // k
    _, blocks = _block_plan(1, rows, k * c * a.itemsize, _BLOCK_BYTES)

    def tile(v):  # np.tile's result, at a quarter of its cost on small maps
        out = np.empty((k, c), v.dtype)
        out[...] = v
        return out.reshape(-1)

    return ([t.reshape(rows, k * c) for t in arrays],
            [slice(r, r + br) for _, _, r, br in blocks], tile)


def _epilogue(op: str, x: np.ndarray, y: np.ndarray, bias=None, bn=(),
              act: str | None = None) -> None:
    """y = act(bn(x + bias)) in one pass dealt over the blocks of
    _pixel_rows(x, y), each guarded stage by stage as the module docstring
    says; every stage is optional and y may be x. bn is batch norm's (mean,
    ivar, gamma, beta) vectors. leaky_relu writes its product to _deal's
    scratch when it runs in place, else to y."""
    (xv, yv), blocks, tile = _pixel_rows(x, y)
    bias = None if bias is None else tile(bias)
    bn = [tile(v) for v in bn]
    lone = bias is None and not bn
    in_place = act == "leaky_relu" and (y is x or not lone)

    def body(s, buf):
        src, out = xv[s], yv[s]
        if bias is not None:
            src = np.add(src, bias, out=out)
            guard_finite(op, out)
        if bn:
            mean, ivar, gamma, beta = bn
            src = np.subtract(src, mean, out=out)
            out *= ivar
            out *= gamma
            out += beta
            guard_finite("batch_norm", out)
        if act == "relu":
            np.maximum(src, 0, out=out)
        elif act == "leaky_relu":
            # equals where(x > 0, x, LEAKY_SLOPE*x), the slope being in [0, 1]
            prod = buf[:out.size].reshape(out.shape) if in_place else out
            np.maximum(src, np.multiply(src, LEAKY_SLOPE, out=prod), out=out)
        if lone:
            guard_finite(op, out)

    rows = max((s.stop - s.start for s in blocks), default=0)
    _deal(blocks, body, rows * yv.shape[1] if in_place else 0, y.dtype)


# ---------------------------------------------------------------------------
# convolution machinery


def _conv_axis(k: int, dilation: int) -> int:
    """The pad on each side of one axis under stride-1 'same' padding,
    which keeps the extent of an odd kernel side `k`."""
    return dilation * (k - 1) // 2


def _window_view(xp: np.ndarray, kh: int, kw: int, oh: int, ow: int,
                 dilation: int) -> np.ndarray:
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    shape = (n, oh, ow, kh, kw, c)
    strides = (sn, sh, sw, dilation * sh, dilation * sw, sc)
    return np.lib.stride_tricks.as_strided(xp, shape, strides, writeable=False)


def _canvas(a: np.ndarray, pad_h: int, pad_w: int) -> np.ndarray:
    """Zero-pad the spatial axes of `a` by pad_h and pad_w on each side;
    `a` itself when there is nothing to pad."""
    if not (pad_h or pad_w):
        return a
    n, h, w, c = a.shape
    out = np.zeros((n, h + 2 * pad_h, w + 2 * pad_w, c), dtype=a.dtype)
    out[:, pad_h:pad_h + h, pad_w:pad_w + w, :] = a
    return out


# Output bytes per block of the kernels _deal runs (the depthwise tap loop,
# bilinear upsampling and the elementwise passes): a block, its scratch and
# the input rows it reads stay in a core's L2 cache.
_BLOCK_BYTES = 1 << 18
# Patch-matrix bytes per block of a dense conv: large enough that each
# block's matrix product runs at full BLAS speed even at small extents.
_IM2COL_BLOCK_BYTES = 1 << 24


def _even_runs(total: int, most: int):
    """range(total) as the fewest (start, length) runs of at most `most`,
    their lengths differing by at most one."""
    k = -(-total // most)
    bounds = [total * j // k for j in range(k + 1)]
    return [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])]


@functools.lru_cache(maxsize=256)
def _block_plan(n: int, oh: int, row_bytes: int, budget: int):
    """Split an (n, oh, ...) output into blocks of at most about `budget`
    bytes, one output row costing `row_bytes`: runs of whole images when one
    image fits, else runs of rows of one image, split evenly so no block is
    a short remainder. Returns (the most output rows a block holds, at most
    n * oh; the blocks as (first image, images, first row, rows)); an empty
    output has no blocks. Memoized: the plans are shared tuples."""
    if not n * oh * row_bytes:
        return 0, ()
    rows = max(1, budget // row_bytes)
    if rows >= oh:
        blocks = tuple((i, bn, 0, oh) for i, bn in _even_runs(n, rows // oh))
    else:
        blocks = tuple((i, 1, r, br) for i in range(n) for r, br in _even_runs(oh, rows))
    return max(bn * br for _, bn, _, br in blocks), blocks


def _dw_plan(xp: np.ndarray, oh: int, ow: int):
    """_block_plan at _BLOCK_BYTES of a stride-1 depthwise correlation's
    (N, oh, ow, C) output, read from the canvas xp."""
    return _block_plan(xp.shape[0], oh, ow * xp.shape[3] * xp.itemsize, _BLOCK_BYTES)


def _dw_taps(xp: np.ndarray, block, kh: int, kw: int, ow: int, dilation: int):
    """For one block (first image, images, first row, rows) of _dw_plan,
    yields each tap (u, v) in row-major order with the canvas window it
    reads for the block."""
    i, bn, r, br = block
    for u in range(kh):
        h0 = r + u * dilation
        for v in range(kw):
            w0 = v * dilation
            yield u, v, xp[i:i + bn, h0:h0 + br, w0:w0 + ow]


@functools.lru_cache(maxsize=32)
def _ones(n: int, dtype) -> np.ndarray:
    """A read-only vector of n ones, shared by every caller."""
    ones = np.ones(n, dtype)
    ones.flags.writeable = False
    return ones


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Sum an NHWC array over N, H, W: one matrix-vector product, several
    times faster than a ufunc reduction over the leading axes."""
    c = a.shape[-1]
    return _ones(a.size // c, a.dtype) @ a.reshape(-1, c)


def _conv(xp: np.ndarray, wd: np.ndarray, dilation: int,
          depthwise: bool) -> np.ndarray:
    """Slide (kh, kw, C_in, C_out) weights, or depthwise (kh, kw, 1, C)
    ones, over a padded canvas: the fresh (N, oh, ow, C_out) correlation.

    Dense, per block of _block_plan at _IM2COL_BLOCK_BYTES, the block's
    windows are copied into one patch buffer, allocated once per call, and
    multiplied by the (kh*kw*C_in, C_out) weights straight into the block's
    output rows. Every output is then the dot product one product over the
    whole window view computes, provided BLAS runs each block with the
    same kernel: OpenBLAS sums in another order below M*N*K of about 1e6,
    and the even split keeps every block at a quarter of the budget or
    more. A 1x1 conv's canvas is its patch matrix already.

    Depthwise, per block of _dw_plan (dealt over the cores), the first
    tap's product is written straight into the output and each later one is
    added on, so every output sums its taps in row-major (u, v) order, in
    whichever thread runs its block. Each tap's weights are
    tiled along W once, so the product runs over contiguous OW*C rows: a
    broadcast (C,) vector would keep numpy from merging the W and C axes.
    """
    kh, kw, cin, c = wd.shape
    oh, ow = xp.shape[1] - dilation * (kh - 1), xp.shape[2] - dilation * (kw - 1)
    if not depthwise:
        n, k = xp.shape[0], kh * kw * cin
        wm = wd.reshape(k, c)
        if kh == kw == 1:
            return np.dot(xp.reshape(-1, k), wm).reshape(n, oh, ow, c)
        patches = _window_view(xp, kh, kw, oh, ow, dilation)
        y = np.empty((n * oh * ow, c), dtype=np.result_type(xp, wd))
        cap, blocks = _block_plan(n, oh, ow * k * xp.itemsize, _IM2COL_BLOCK_BYTES)
        cols = np.empty(cap * ow * k, dtype=xp.dtype)
        for i, bn, r, br in blocks:
            m, start = bn * br * ow, (i * oh + r) * ow
            block = cols[:m * k].reshape(bn, br, ow, kh, kw, cin)
            block[...] = patches[i:i + bn, r:r + br]
            np.dot(block.reshape(m, k), wm, out=y[start:start + m])
        return y.reshape(n, oh, ow, c)
    wt = np.ascontiguousarray(np.broadcast_to(wd[:, :, :1], (kh, kw, ow, c)))
    y = np.empty((xp.shape[0], oh, ow, c), dtype=xp.dtype)

    def block_taps(block, scratch):
        i, bn, r, br = block
        out = y[i:i + bn, r:r + br]
        buf = scratch[:out.size].reshape(out.shape)
        for u, v, win in _dw_taps(xp, block, kh, kw, ow, dilation):
            if u == v == 0:
                np.multiply(win, wt[u, v], out=out)
            else:
                out += np.multiply(win, wt[u, v], out=buf)

    cap, blocks = _dw_plan(xp, oh, ow)
    _deal(blocks, block_taps, cap * ow * c, xp.dtype)
    return y


def _conv_weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int,
                      dilation: int, depthwise: bool) -> np.ndarray:
    """Gradient of _conv with respect to its (kh, kw, ., .) weights, given
    the padded canvas `xp` it read and the output gradient `g`."""
    n, oh, ow, c = g.shape
    if not depthwise:
        patches = _window_view(xp, kh, kw, oh, ow, dilation)
        return np.tensordot(patches, g, axes=([0, 1, 2], [0, 1, 2]))
    # serial: each tap's channel sums add up over the blocks in plan order
    dw = np.zeros((kh, kw, 1, c), dtype=g.dtype)
    cap, blocks = _dw_plan(xp, oh, ow)
    scratch = np.empty(cap * ow * c, dtype=xp.dtype)
    for block in blocks:
        i, bn, r, br = block
        gb = g[i:i + bn, r:r + br]
        buf = scratch[:gb.size].reshape(gb.shape)
        for u, v, win in _dw_taps(xp, block, kh, kw, ow, dilation):
            dw[u, v, 0] += _channel_sum(np.multiply(win, gb, out=buf))
    return dw


def conv2d(x: Tensor, w: Tensor, b: Tensor, *, dilation: int = 1,
           groups: int = 1, bn=None, act: str | None = None) -> Tensor:
    """Stride-1 2D convolution with 'same' padding, NHWC input,
    (kh, kw, C_in/groups, C_out) weights and (C_out,) bias; kh, kw odd.

    groups is 1 (dense) or C_in (depthwise: a single-channel kernel axis and
    C_out == C_in); the model uses no other grouping.

    bn, the (gamma, beta, running_mean, running_var) of the eval-mode batch
    norm the output feeds, and act, "relu" or "leaky_relu" after it, give
    conv2d then batch_norm(train=False, act=act), bit for bit. Untaped (an
    inference-only form), they run block by block in the bias's pass, in
    place in the output: one map instead of two. Under a tape with a tracked
    input, the call is that chain, its two nodes and their gradients.
    """
    _require(x.ndim == 4, "conv2d", f"input must be NHWC, got ndim {x.ndim}")
    _require(w.ndim == 4, "conv2d", f"weights must be rank 4, got {w.ndim}")
    n, h, wdt, cin = x.shape
    kh, kw, cg, cout = w.shape
    depthwise = groups != 1
    _require(groups == cin and cg == 1 and cout == cin if depthwise else cg == cin,
             "conv2d", f"groups {groups}, C_in {cin}, weights {w.shape}: need "
             "groups 1 with weights (kh, kw, C_in, C_out), or depthwise groups "
             "C_in with weights (kh, kw, 1, C_in)")
    _require(kh % 2 == kw % 2 == 1, "conv2d",
             f"kernel sides must be odd, got weights {w.shape}")
    _require(dilation >= 1, "conv2d", f"dilation must be >= 1, got {dilation}")
    _require(act is None or bn is not None, "conv2d", f"act {act!r} needs bn")
    _same_dtype("conv2d", x, w, b)
    _require(b.shape == (cout,), "conv2d", f"bias shape {b.shape} != ({cout},)")
    norm = ()
    if bn is not None:
        _check_bn(cout, x, *bn, act)
        if recording((x, w, b, *bn[:2])):
            return batch_norm(conv2d(x, w, b, dilation=dilation, groups=groups), *bn,
                              train=False, act=act)
        gamma, beta, mean, var = (t.data for t in bn)
        norm = (mean, 1.0 / np.sqrt(var + BN_EPS), gamma, beta)
    xd, wd = x.data, w.data
    pad_h, pad_w = _conv_axis(kh, dilation), _conv_axis(kw, dilation)
    y = _conv(_canvas(xd, pad_h, pad_w), wd, dilation, depthwise)
    add_macs(n * h * wdt * kh * kw * cg * cout)
    _epilogue("conv2d", y, y, b.data, norm, act)
    # the backward rebuilds x's canvas rather than keep it alive on the tape
    wf = wd[::-1, ::-1] if depthwise else wd[::-1, ::-1].transpose(0, 1, 3, 2)
    return _emit("conv2d", y, (x, w, b), lambda g: (
        _conv(_canvas(g, pad_h, pad_w), wf, dilation, depthwise),
        _conv_weight_grad(_canvas(xd, pad_h, pad_w), g, kh, kw, dilation, depthwise),
        _channel_sum(g)), True)


# ---------------------------------------------------------------------------
# normalization


def _check_bn(c: int, x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
              running_var: Tensor, act: str | None) -> None:
    """Batch norm's checks of its activation, and of its four vectors
    against the C channels of the map it normalizes (x's dtype)."""
    _require(act in (None, "relu", "leaky_relu"), "batch_norm", f"unknown act {act!r}")
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        _require(t.shape == (c,), "batch_norm", f"{name} shape {t.shape} != ({c},)")
    _same_dtype("batch_norm", x, gamma, beta, running_mean, running_var)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor, *, train: bool, momentum: float = 0.99,
               act: str | None = None) -> Tensor:
    """Per-channel batch normalization over the N, H, W axes with eps BN_EPS.

    Train mode normalizes with batch statistics, differentiates through them,
    and updates the (untracked) running stats in place with the given
    momentum. Inference mode uses the running stats only.

    act "relu" or "leaky_relu" applies that activation in place, block by
    block in the pass that normalizes and guards the output: the values and
    gradients of the two ops chained, bit for bit, with one output and one
    tape node fewer.
    """
    _require(x.ndim == 4, "batch_norm", f"input must be NHWC, got ndim {x.ndim}")
    c = x.shape[3]
    _check_bn(c, x, gamma, beta, running_mean, running_var, act)
    xd, gd = x.data, gamma.data
    if train:
        m = xd.size // c
        mean = _channel_sum(xd) / m
        (xv,), _, tile = _pixel_rows(xd)
        sq = np.subtract(xv, tile(mean))
        var = _channel_sum(np.square(sq, out=sq).reshape(xd.shape)) / m
        del sq  # freed before y is written
        running_mean.data = momentum * running_mean.data + (1.0 - momentum) * mean
        running_var.data = momentum * running_var.data + (1.0 - momentum) * var
    else:
        mean, var = running_mean.data, running_var.data
    ivar = 1.0 / np.sqrt(var + BN_EPS)
    y = np.empty(xd.shape, xd.dtype)
    _epilogue("batch_norm", xd, y, bn=(mean, ivar, gd, beta.data), act=act)
    act_grad = _rectify_grad(act, y)

    if train:
        def bwd(g):
            g = act_grad(g)
            (xv, gv), blocks, tile = _pixel_rows(xd, g)
            mean_t, ivar_t = tile(mean), tile(ivar)
            dx = np.empty(gv.shape, gv.dtype)

            def xhat(s):
                # recomputed, twice, rather than kept: the tape holds xd anyway
                out = np.subtract(xv[s], mean_t, out=dx[s])
                out *= ivar_t
                return out

            # dx holds g * xhat for dgamma's sum, then the input gradient
            _deal(blocks, lambda s, _: np.multiply(xhat(s), gv[s], out=dx[s]))
            dgamma, dbeta = _channel_sum(dx.reshape(xd.shape)), _channel_sum(g)
            scale, shift, gain = tile(dgamma / m), tile(dbeta / m), tile(gd * ivar)

            def grad(s, _):
                out = xhat(s)
                out *= scale
                out += shift
                np.subtract(gv[s], out, out=out)
                out *= gain
                return out

            _deal(blocks, grad)
            return dx.reshape(xd.shape), dgamma, dbeta
    else:
        def bwd(g):
            g = act_grad(g)
            xhat = (xd - mean) * ivar
            return g * (gd * ivar), (g * xhat).sum(axis=(0, 1, 2)), g.sum(axis=(0, 1, 2))

    return _emit("batch_norm", y, (x, gamma, beta), bwd, True)


# ---------------------------------------------------------------------------
# activations


def _rectify_grad(act: str | None, y: np.ndarray):
    """g -> the gradient at act's input, read from its output y; the
    identity, which keeps no y, for act None. Reading the output lets the
    input be freed: y > 0 exactly when x > 0, for any slope in [0, 1]."""
    if act is None:
        return lambda g: g
    if act == "relu":
        return lambda g: g * (y > 0)
    return lambda g: g * np.maximum(y > 0, LEAKY_SLOPE, dtype=y.dtype)


def _activation(act: str, x: Tensor) -> Tensor:
    y = np.empty(x.shape, x.dtype)
    _epilogue(act, x.data, y, act=act)
    grad = _rectify_grad(act, y)
    return _emit(act, y, (x,), lambda g: (grad(g),), True)


def relu(x: Tensor) -> Tensor:
    return _activation("relu", x)


def leaky_relu(x: Tensor) -> Tensor:
    return _activation("leaky_relu", x)


def _logistic(xd: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as 1 / (1 + e) or e / (1 + e) by sign, with
    e = exp(-|x|), which never overflows."""
    e = np.exp(-np.abs(xd))
    return np.where(xd >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    # Saturated outputs are pulled one ulp inside (0,1): downstream contracts
    # treat the interval as open, and y*(1-y) then stays a truthful (tiny)
    # slope instead of exactly zero.
    xd = x.data
    y = _logistic(xd)
    one = xd.dtype.type(1.0)
    np.clip(y, np.finfo(xd.dtype).tiny, np.nextafter(one, one * 0), out=y)
    return _emit("sigmoid", y, (x,), lambda g: (g * y * (1.0 - y),))


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x)."""
    xd = x.data
    s = _logistic(xd)
    y = xd * s
    return _emit("swish", y, (x,), lambda g: (g * (s * (1.0 + xd * (1.0 - s))),))


def softmax(x: Tensor) -> Tensor:
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return _emit("softmax", y, (x,), bwd)


# ---------------------------------------------------------------------------
# pooling and resampling


def _tie_split(x: np.ndarray, extreme: np.ndarray, axis):
    """Backward of a max or min over `axis`, `extreme` kept with its reduced
    axes, working only when called: the gradient is split evenly among the
    inputs tying for the extreme, which on distinct values is argmax routing."""
    def route(g):
        mask = x == extreme
        return mask * (g / mask.sum(axis=axis, keepdims=True).astype(x.dtype))

    return route


def _pool(op: str, x: Tensor, xr: np.ndarray, kind: str, axis, shape) -> Tensor:
    """Reduce `xr`, a reshaped view of x.data, over `axis` with the numpy
    reduction `kind` (mean, sum, max or min) and emit it as `shape`. Mean
    and sum gradients broadcast back over the reduced axes; max and min
    gradients go to the tied extremes."""
    y = getattr(xr, kind)(axis=axis, keepdims=True)
    kept, xr_shape, x_shape = y.shape, xr.shape, x.shape
    if kind in ("max", "min"):
        route = _tie_split(xr, y, axis)
    else:
        k = xr.size // y.size if kind == "mean" else 1
        route = lambda g: np.broadcast_to(g / k, xr_shape)
    return _emit(op, y.reshape(shape), (x,),
                 lambda g: (route(g.reshape(kept)).reshape(x_shape),))


def _windows(op: str, x: Tensor, size: int):
    """(N, H, W, C) as non-overlapping size x size windows on axes 2 and 4."""
    _require(x.ndim == 4, op, f"input must be NHWC, got ndim {x.ndim}")
    n, h, w, c = x.shape
    _require(h % size == 0 and w % size == 0, op,
             f"extent ({h}, {w}) not divisible by window {size}")
    return (x.data.reshape(n, h // size, size, w // size, size, c),
            (n, h // size, w // size, c))


def pool_global(x: Tensor, kind: str) -> Tensor:
    """Whole-image pooling per channel: (N, H, W, C) -> (N, 1, 1, C)."""
    _require(x.ndim == 4, "pool_global", f"input must be NHWC, got ndim {x.ndim}")
    _require(kind in ("avg", "max"), "pool_global", f"unknown kind {kind!r}")
    n, _, _, c = x.shape
    return _pool("pool_global", x, x.data, "mean" if kind == "avg" else "max",
                 (1, 2), (n, 1, 1, c))


def pool_channel(x: Tensor, kind: str) -> Tensor:
    """Across-channel pooling per pixel: (N, H, W, C) -> (N, H, W, 1)."""
    _require(x.ndim == 4, "pool_channel", f"input must be NHWC, got ndim {x.ndim}")
    _require(kind in ("mean", "max", "min", "sum"), "pool_channel",
             f"unknown kind {kind!r}")
    return _pool("pool_channel", x, x.data, kind, 3, x.shape[:3] + (1,))


def max_pool2d(x: Tensor) -> Tensor:
    """Non-overlapping 2x2 spatial max pooling; extents must be even."""
    xr, shape = _windows("max_pool2d", x, 2)
    return _pool("max_pool2d", x, xr, "max", (2, 4), shape)


def avg_pool2d(x: Tensor, factor: int) -> Tensor:
    """Non-overlapping spatial mean pooling by an integer factor."""
    _require(factor >= 1, "avg_pool2d", f"factor must be >= 1, got {factor}")
    xr, shape = _windows("avg_pool2d", x, factor)
    return _pool("avg_pool2d", x, xr, "mean", (2, 4), shape)


def _bilinear_axis(out_len: int, in_len: int, factor: int, dtype):
    src = (np.arange(out_len, dtype=np.float64) + 0.5) / factor - 0.5
    src = np.clip(src, 0.0, in_len - 1.0)
    i0 = np.floor(src).astype(np.intp)
    frac = (src - i0).astype(dtype)
    i1 = np.minimum(i0 + 1, in_len - 1)
    return i0, i1, frac


def _interp_matrix(i0, i1, frac, in_len: int) -> np.ndarray:
    """(out_len, in_len) matrix of one axis' interpolation weights."""
    a = np.zeros((len(i0), in_len), dtype=frac.dtype)
    rows = np.arange(len(i0))
    a[rows, i0] = 1.0 - frac
    a[rows, i1] += frac
    return a


def bilinear_upsample(x: Tensor, factor: int) -> Tensor:
    """Bilinear x`factor` upsampling with half-pixel-aligned sample centers.

    Constant inputs stay constant; factor 1 is the identity.
    """
    _require(x.ndim == 4, "bilinear_upsample", f"input must be NHWC, got ndim {x.ndim}")
    _require(factor >= 1, "bilinear_upsample", f"factor must be >= 1, got {factor}")
    n, h, w, c = x.shape
    oh, ow = h * factor, w * factor
    xd = x.data
    i0, i1, fy = _bilinear_axis(oh, h, factor, xd.dtype)
    j0, j1, fx = _bilinear_axis(ow, w, factor, xd.dtype)
    wy0, wy1 = (1.0 - fy)[:, None, None], fy[:, None, None]
    wx0, wx1 = (1.0 - fx)[:, None], fx[:, None]
    y = np.empty((n, oh, ow, c), dtype=xd.dtype)

    def interpolate(block, scratch):
        # rows then columns: every output is (a*wy0 + b*wy1) of the two
        # input rows it reads, then (p*wx0 + q*wx1) of two of those sums
        i, bn, r, br = block
        xb, out, rs = xd[i:i + bn], y[i:i + bn, r:r + br], slice(r, r + br)
        m = bn * br * w * c
        rows = scratch[:m].reshape(bn, br, w, c)
        other = scratch[m:2 * m].reshape(bn, br, w, c)
        # mode "clip" (the indices are in range) keeps np.take from
        # buffering its output
        np.take(xb, i0[rs], axis=1, out=rows, mode="clip")
        rows *= wy0[rs]
        rows += np.multiply(np.take(xb, i1[rs], axis=1, out=other, mode="clip"),
                            wy1[rs], out=other)
        cols = scratch[2 * m:2 * m + out.size].reshape(out.shape)
        np.take(rows, j0, axis=2, out=out, mode="clip")
        out *= wx0
        out += np.multiply(np.take(rows, j1, axis=2, out=cols, mode="clip"),
                           wx1, out=cols)
        guard_finite("bilinear_upsample", out)

    cap, blocks = _block_plan(n, oh, ow * c * xd.itemsize, _BLOCK_BYTES)
    _deal(blocks, interpolate, cap * (2 * w + ow) * c, xd.dtype)

    def bwd(g):
        ax = _interp_matrix(j0, j1, fx, w)
        ay = _interp_matrix(i0, i1, fy, h)
        drows = np.matmul(ax.T, g)  # (n, oh, w, c)
        return ((ay.T @ drows.reshape(n, oh, w * c)).reshape(n, h, w, c),)

    return _emit("bilinear_upsample", y, (x,), bwd, True)


def _d2s(arr: np.ndarray) -> np.ndarray:
    n, h, w, c = arr.shape
    t = arr.reshape(n, h, w, c // 4, 2, 2).transpose(0, 1, 4, 2, 5, 3)
    return t.reshape(n, h * 2, w * 2, c // 4)


def _s2d(arr: np.ndarray) -> np.ndarray:
    n, h, w, c = arr.shape
    t = arr.reshape(n, h // 2, 2, w // 2, 2, c)
    return t.transpose(0, 1, 3, 5, 2, 4).reshape(n, h // 2, w // 2, c * 4)


def depth_to_space(x: Tensor) -> Tensor:
    """Rearrange channel blocks to space by block 2, depth-major within each
    block: output pixel (2h+dy, 2w+dx, c) reads input channel 4c + 2dy + dx."""
    _require(x.ndim == 4, "depth_to_space", f"input must be NHWC, got ndim {x.ndim}")
    _require(x.shape[3] % 4 == 0, "depth_to_space",
             f"channels {x.shape[3]} not divisible by 4")
    return record("depth_to_space", Tensor(_d2s(x.data)), (x,), lambda g: (_s2d(g),))


def space_to_depth(x: Tensor) -> Tensor:
    """Inverse of depth_to_space."""
    _require(x.ndim == 4, "space_to_depth", f"input must be NHWC, got ndim {x.ndim}")
    _require(x.shape[1] % 2 == 0 and x.shape[2] % 2 == 0, "space_to_depth",
             f"extent {x.shape[1:3]} not divisible by 2")
    return record("space_to_depth", Tensor(_s2d(x.data)), (x,), lambda g: (_d2s(g),))


# ---------------------------------------------------------------------------
# linear algebra and structure


def dense(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map over the last axis: (..., d_in) @ (d_in, d_out) + b."""
    _require(w.ndim == 2, "dense", f"weights must be rank 2, got {w.ndim}")
    _require(x.shape[-1] == w.shape[0], "dense",
             f"input width {x.shape[-1]} != weight rows {w.shape[0]}")
    _same_dtype("dense", x, w, b)
    _require(b.shape == w.shape[1:], "dense", f"bias shape {b.shape} != ({w.shape[1]},)")
    lead = tuple(range(x.ndim - 1))
    xd, wd = x.data, w.data
    y = xd @ wd
    add_macs(x.size // x.shape[-1] * w.shape[0] * w.shape[1])
    _epilogue("dense", y, y, b.data)
    return _emit("dense", y, (x, w, b), lambda g: (
        g @ wd.T, np.tensordot(xd, g, axes=(lead, lead)), g.sum(axis=lead)), True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product; leading batch axes must match exactly."""
    _require(a.ndim >= 2 and b.ndim >= 2, "matmul", "operands must be rank >= 2")
    _require(a.ndim == b.ndim, "matmul",
             f"rank mismatch {a.ndim} vs {b.ndim} (no batch broadcasting)")
    _require(a.shape[:-2] == b.shape[:-2], "matmul",
             f"batch axes differ: {a.shape[:-2]} vs {b.shape[:-2]}")
    _require(a.shape[-1] == b.shape[-2], "matmul",
             f"inner extents differ: {a.shape[-1]} vs {b.shape[-2]}")
    _same_dtype("matmul", a, b)
    ad, bd = a.data, b.data
    y = ad @ bd
    batch = 1
    for s in a.shape[:-2]:
        batch *= s
    add_macs(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])

    def bwd(g):
        da = g @ np.swapaxes(bd, -1, -2)
        db = np.swapaxes(ad, -1, -2) @ g
        return da, db

    return _emit("matmul", y, (a, b), bwd)


def swap_last2(x: Tensor) -> Tensor:
    """Transpose the trailing two axes (key transpose in attention)."""
    _require(x.ndim >= 2, "swap_last2", "operand must be rank >= 2")
    return record("swap_last2", Tensor(np.swapaxes(x.data, -1, -2)), (x,),
                  lambda g: (np.swapaxes(g, -1, -2),))


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("add", a, b)
    a_shape, b_shape = a.shape, b.shape
    return _emit("add", a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting; covers (N,1,1,C) channel gates
    and (N,H,W,1) spatial gates."""
    _same_dtype("mul", a, b)
    ad, bd = a.data, b.data
    return _emit("mul", ad * bd, (a, b),
                 lambda g: (_unbroadcast(g * bd, ad.shape),
                            _unbroadcast(g * ad, bd.shape)))


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (attention's 1/sqrt(d_k) and friends)."""
    s = x.dtype.type(s)
    return _emit("scale", x.data * s, (x,), lambda g: (g * s,))


def concat(tensors, axis: int) -> Tensor:
    tensors = tuple(tensors)
    _require(len(tensors) >= 1, "concat", "needs at least one tensor")
    _same_dtype("concat", *tensors)
    y = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _emit("concat", y, tensors, bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x_shape = x.shape
    return record("reshape", Tensor(x.data.reshape(tuple(shape))), (x,),
                  lambda g: (g.reshape(x_shape),))


def reduce_sum(x: Tensor) -> Tensor:
    x_shape = x.shape
    return _emit("reduce_sum", np.asarray(x.data.sum(), dtype=x.dtype), (x,),
                 lambda g: (np.broadcast_to(g, x_shape),))


# ---------------------------------------------------------------------------
# loss


def bce_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean binary cross-entropy, predictions clamped to [BCE_CLAMP, 1 - BCE_CLAMP].

    The clamp keeps saturated predictions finite; gradients are zero in the
    clamped region (the clamp is flat there).
    """
    _require(pred.shape == target.shape, "bce_loss",
             f"shape mismatch {pred.shape} vs {target.shape}")
    _same_dtype("bce_loss", pred, target)
    p = np.clip(pred.data, BCE_CLAMP, 1.0 - BCE_CLAMP)
    t = target.data
    y = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean()
    m, dtype = pred.size, pred.dtype
    inside = (pred.data > BCE_CLAMP) & (pred.data < 1.0 - BCE_CLAMP)

    def bwd(g):
        dp = g * inside * (p - t) / (p * (1.0 - p)) / m
        return dp.astype(dtype, copy=False), None

    return _emit("bce_loss", np.asarray(y, dtype=pred.dtype), (pred, target), bwd)
