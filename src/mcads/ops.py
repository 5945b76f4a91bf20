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
Batch norm applies an optional relu or leaky_relu in place, in the pass that
guards its output, with the standalone ops' float operations and gradients;
eval-mode batch norm, relu and leaky_relu compute in place in their one
fresh output. Every op returns a C-contiguous array: a strided result
changes the summation order of the BLAS calls downstream. This module is
the one place for the numbers the architecture fixes, which no op takes as
an argument: LeakyReLU slope 0.01, batch-norm eps 1e-3, BCE clamp 1e-7, 2x2
max pooling, depth-to-space by block 2, and softmax over the last axis.

The memory-bound kernels run block by block, the blocks (of _block_plan,
sized for a core's L2 cache) dealt between the calling thread and one
worker thread per further core (_deal): the depthwise tap loop, forward and
input gradient; eval-mode batch norm with its activation, and train-mode
batch norm's guard and activation pass; relu and leaky_relu; the conv and
dense bias epilogue; and the bilinear forward, which writes its output rows
from small reused scratch. The finite guard checks each block as it is
finished, while it is still in cache, and the op raises only once every
thread is done. Each output element gets the same float32 operations in the
same order whichever thread runs it, so results are byte-identical to one
core. Three things stay serial: the depthwise weight gradient and train-mode
batch norm's channel statistics, whose sums run across blocks in a fixed
order, and everything that calls BLAS, which already runs its own threads.
Maps too small to give every thread several blocks run in the caller.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .tensor import Tensor, add_macs, guard_finite, record

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


def _deal(op: str | None, blocks, body, scratch: int = 0, dtype=None) -> None:
    """Run body(block, buf) for every block, each in one thread: in this one
    alone when there are fewer than _DEAL_MIN_BLOCKS per thread, else dealt,
    one at a time as each thread comes free, between this thread and the
    pool's workers. Each thread passes every block it takes the same `buf`,
    an np.empty(scratch, dtype) made here (None when scratch is 0). body
    returns the output it wrote; unless op is None the finite guard checks
    that at once, while it is still in cache. Returns, or raises the first
    failure, only once every thread is done, so no worker still writes into
    an output its caller has dropped.

    A body must compute each output element from its inputs alone, so the
    results do not depend on which thread ran which block: work that sums
    across blocks (channel statistics, the depthwise weight gradient) stays
    serial, and so does BLAS, which runs its own threads.
    """
    pool, workers = _executor()
    dealt = pool is not None and len(blocks) >= _DEAL_MIN_BLOCKS * (workers + 1)
    parts = workers + 1 if dealt else 1
    bufs = [np.empty(scratch, dtype) if scratch else None for _ in range(parts)]
    lock, todo = threading.Lock(), iter(blocks)

    def part(buf):
        while True:
            with lock:
                block = next(todo, None)
            if block is None:
                return
            out = body(block, buf)
            if op is not None:
                guard_finite(op, out)

    futures = [pool.submit(part, buf) for buf in bufs[1:]]
    try:
        part(bufs[0])
    finally:
        # a worker still queued behind another caller's blocks is dropped
        started = [f for f in futures if not f.cancel()]
        wait(started)
    for f in started:
        f.result()


# Elements per row of eval batch norm's 2-D views: a (C,) vector broadcast
# over (pixels, C) restarts numpy's inner loop every C elements, which made
# one pass about 1.6x slower at C = 64 than over rows of this length.
_ROW_ELEMS = 1 << 14


def _pixels_per_row(pixels: int, c: int) -> int:
    """The largest power of two k dividing `pixels` with k * c at most
    _ROW_ELEMS (at least 1): per-channel vectors tiled k times then line up
    with the rows of a (pixels / k, k * c) view."""
    k = 1
    while 2 * k * c <= _ROW_ELEMS and 2 * k <= pixels and pixels % (2 * k) == 0:
        k *= 2
    return k


def _row_blocks(*arrays):
    """The arrays, of one shape, as 2-D views whose rows run along the last
    axis, and the row slices of the blocks of _block_plan at _BLOCK_BYTES."""
    a = arrays[0]
    c = a.shape[-1] if a.ndim else 1
    rows = a.size // c if c else 0
    _, blocks = _block_plan(1, rows, c * a.itemsize, _BLOCK_BYTES)
    return ([t.reshape(rows, c) for t in arrays],
            [slice(r, r + br) for _, _, r, br in blocks])


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


def _block_plan(n: int, oh: int, row_bytes: int, budget: int):
    """Split an (n, oh, ...) output into blocks of at most about `budget`
    bytes, one output row costing `row_bytes`: runs of whole images when one
    image fits, else runs of rows of one image, split evenly so no block is
    a short remainder. Returns (the most output rows a block holds, at most
    n * oh; the blocks as (first image, images, first row, rows)); an empty
    output has no blocks."""
    if not n * oh * row_bytes:
        return 0, []
    rows = max(1, budget // row_bytes)
    if rows >= oh:
        blocks = [(i, bn, 0, oh) for i, bn in _even_runs(n, rows // oh)]
    else:
        blocks = [(i, 1, r, br) for i in range(n) for r, br in _even_runs(oh, rows)]
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


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Sum an NHWC array over N, H, W: one matrix-vector product, several
    times faster than a ufunc reduction over the leading axes."""
    c = a.shape[-1]
    return np.ones(a.size // c, dtype=a.dtype) @ a.reshape(-1, c)


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
        return out

    cap, blocks = _dw_plan(xp, oh, ow)
    _deal(None, blocks, block_taps, cap * ow * c, xp.dtype)
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


def _bias_epilogue(op: str, x: Tensor, w: Tensor, b: Tensor, width: int, bias_grad):
    """Check the operands' dtypes and the (width,) bias of an affine op
    before any compute. Returns finish(y, bwd): it adds the bias in place to
    the fresh output y and emits it; bwd(g) gives (dx, dw) and bias_grad(g)
    the bias gradient."""
    _same_dtype(op, x, w, b)
    _require(b.shape == (width,), op, f"bias shape {b.shape} != ({width},)")

    def finish(y, bwd):
        (yv,), blocks = _row_blocks(y)
        _deal(op, blocks, lambda s, _: np.add(yv[s], b.data, out=yv[s]))
        return _emit(op, y, (x, w, b), lambda g: (*bwd(g), bias_grad(g)), True)

    return finish


def conv2d(x: Tensor, w: Tensor, b: Tensor, *, dilation: int = 1,
           groups: int = 1) -> Tensor:
    """Stride-1 2D convolution with 'same' padding, NHWC input,
    (kh, kw, C_in/groups, C_out) weights and (C_out,) bias; kh, kw odd.

    groups is 1 (dense) or C_in (depthwise: a single-channel kernel axis and
    C_out == C_in); the model uses no other grouping.
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
    finish = _bias_epilogue("conv2d", x, w, b, cout, _channel_sum)
    xd, wd = x.data, w.data
    pad_h, pad_w = _conv_axis(kh, dilation), _conv_axis(kw, dilation)
    y = _conv(_canvas(xd, pad_h, pad_w), wd, dilation, depthwise)
    add_macs(n * h * wdt * kh * kw * cg * cout)
    # the backward rebuilds x's canvas rather than keep it alive on the tape
    wf = wd[::-1, ::-1] if depthwise else wd[::-1, ::-1].transpose(0, 1, 3, 2)
    return finish(y, lambda g: (
        _conv(_canvas(g, pad_h, pad_w), wf, dilation, depthwise),
        _conv_weight_grad(_canvas(xd, pad_h, pad_w), g, kh, kw, dilation,
                          depthwise)))


# ---------------------------------------------------------------------------
# normalization


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor, *, train: bool, momentum: float = 0.99,
               act: str | None = None) -> Tensor:
    """Per-channel batch normalization over the N, H, W axes with eps BN_EPS.

    Train mode normalizes with batch statistics, differentiates through them,
    and updates the (untracked) running stats in place with the given
    momentum. Inference mode uses the running stats only.

    act "relu" or "leaky_relu" applies that activation in place, block by
    block in the pass that guards the normalized output: the values and
    gradients of the two ops chained, bit for bit, with one output and one
    tape node fewer.
    """
    _require(x.ndim == 4, "batch_norm", f"input must be NHWC, got ndim {x.ndim}")
    _require(act in (None, "relu", "leaky_relu"), "batch_norm", f"unknown act {act!r}")
    c = x.shape[3]
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        _require(t.shape == (c,), "batch_norm", f"{name} shape {t.shape} != ({c},)")
    _same_dtype("batch_norm", x, gamma, beta, running_mean, running_var)
    axes = (0, 1, 2)
    xd, gd = x.data, gamma.data

    def activate(yb, buf):
        # guarded before the activation, which would turn a -inf into 0
        guard_finite("batch_norm", yb)
        if act is not None:
            scratch = None if buf is None else buf[:yb.size].reshape(yb.shape)
            _rectify(act, yb, yb, scratch)
        return yb

    if train:
        m = xd.size // c
        mu = _channel_sum(xd) / m
        xhat = xd - mu
        sq = np.square(xhat)
        var = _channel_sum(sq) / m
        running_mean.data = momentum * running_mean.data + (1.0 - momentum) * mu
        running_var.data = momentum * running_var.data + (1.0 - momentum) * var
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= ivar
        y = np.multiply(gd, xhat, out=sq)
        y += beta.data
        (yv,), blocks = _row_blocks(y)

        def body(s, buf):
            return activate(yv[s], buf)
    else:
        mean = running_mean.data
        ivar = 1.0 / np.sqrt(running_var.data + BN_EPS)
        y = np.empty(xd.shape, xd.dtype)
        pixels = xd.shape[0] * xd.shape[1] * xd.shape[2]
        k = _pixels_per_row(pixels, c)
        mean_t, ivar_t, gamma_t, beta_t = (np.tile(v, k)
                                           for v in (mean, ivar, gd, beta.data))
        (xv, yv), blocks = _row_blocks(*(a.reshape(pixels // k, k * c) for a in (xd, y)))

        def body(s, buf):
            yb = np.subtract(xv[s], mean_t, out=yv[s])
            yb *= ivar_t
            yb *= gamma_t
            yb += beta_t
            return activate(yb, buf)

    rows = max((s.stop - s.start for s in blocks), default=0)
    _deal(None, blocks, body, rows * yv.shape[1] if act == "leaky_relu" else 0, xd.dtype)
    act_grad = _rectify_grad(act, y)

    if train:
        def bwd(g):
            g = act_grad(g)
            # recomputed rather than kept: the tape holds xd anyway
            xhat = xd - mu
            xhat *= ivar
            dbeta = _channel_sum(g)
            dx = g * xhat
            dgamma = _channel_sum(dx)
            np.multiply(xhat, dgamma / m, out=dx)
            dx += dbeta / m
            np.subtract(g, dx, out=dx)
            dx *= gd * ivar
            return dx, dgamma, dbeta
    else:
        def bwd(g):
            g = act_grad(g)
            xhat = (xd - mean) * ivar
            return g * (gd * ivar), (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _emit("batch_norm", y, (x, gamma, beta), bwd, True)


# ---------------------------------------------------------------------------
# activations


def _rectify(act: str, xb: np.ndarray, out: np.ndarray, buf) -> np.ndarray:
    """relu or leaky_relu of the block xb into out, which may be xb itself;
    leaky_relu also writes buf, which must not be xb. The standalone ops and
    batch norm's fused form all run these float operations."""
    if act == "relu":
        return np.maximum(xb, 0, out=out)
    # equals where(x > 0, x, LEAKY_SLOPE*x), the slope being in [0, 1]
    return np.maximum(xb, np.multiply(xb, LEAKY_SLOPE, out=buf), out=out)


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
    (xv, yv), blocks = _row_blocks(x.data, y)
    _deal(act, blocks, lambda s, _: _rectify(act, xv[s], yv[s], yv[s]))
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
        return out

    cap, blocks = _block_plan(n, oh, ow * c * xd.itemsize, _BLOCK_BYTES)
    _deal("bilinear_upsample", blocks, interpolate, cap * (2 * w + ow) * c, xd.dtype)

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
    lead = tuple(range(x.ndim - 1))
    finish = _bias_epilogue("dense", x, w, b, w.shape[1],
                            lambda g: g.sum(axis=lead))
    xd, wd = x.data, w.data
    y = xd @ wd
    add_macs(x.size // x.shape[-1] * w.shape[0] * w.shape[1])
    return finish(y, lambda g: (g @ wd.T, np.tensordot(xd, g, axes=(lead, lead))))


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
