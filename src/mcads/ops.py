"""Differentiable primitives over channels-last numpy tensors.

Each op computes eagerly and returns through _emit, which checks the result
for non-finite values and (when a Tape is active and an input is tracked)
records a closure that maps the output gradient to per-input gradients.
Dense convolutions go through an im2col-style strided window view feeding
one BLAS contraction; depthwise convolutions run a cache-blocked loop over
the kernel taps. Input gradients of both are the forward's own kernel run
over the zero-stuffed, padded output gradient with the spatially flipped
weights. conv2d_transpose is conv2d's adjoint, built from the same three
kernels (_conv, _conv_input_grad, _conv_weight_grad). Bilinear upsampling
differentiates through two interpolation-matrix products, and train-mode
batch norm uses the closed form of its gradient. Every op returns a
C-contiguous array: a strided result changes the summation order of the
BLAS calls downstream.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, add_macs, guard_finite, record


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


def _emit(op: str, y: np.ndarray, inputs, backward) -> Tensor:
    """The one exit of every op that computes values: guard, wrap, record.

    Layout ops (reshape and friends) only move values an earlier op already
    checked, so they call record directly. `record` is looked up in this
    module's globals at call time, so a wrapper swapped in for ops.record
    sees every op.
    """
    guard_finite(op, y)
    return record(op, Tensor(y), inputs, backward)


# ---------------------------------------------------------------------------
# convolution machinery


def _conv_axis(extent: int, k: int, stride: int, dilation: int, padding: str):
    """Return (pad_lo, pad_hi, out_extent) for one spatial axis."""
    span = dilation * (k - 1) + 1
    if padding == "valid":
        _require(extent >= span, "conv2d",
                 f"kernel span {span} exceeds extent {extent} with valid padding")
        return 0, 0, (extent - span) // stride + 1
    if padding == "same":
        out = -(-extent // stride)
        total = max((out - 1) * stride + span - extent, 0)
        return total // 2, total - total // 2, out
    raise ValueError(f"conv2d: unknown padding {padding!r}")


def _window_view(xp: np.ndarray, kh: int, kw: int, oh: int, ow: int,
                 stride: int, dilation: int) -> np.ndarray:
    n, _, _, c = xp.shape
    sn, sh, sw, sc = xp.strides
    shape = (n, oh, ow, kh, kw, c)
    strides = (sn, stride * sh, stride * sw, dilation * sh, dilation * sw, sc)
    return np.lib.stride_tricks.as_strided(xp, shape, strides, writeable=False)


def _canvas(a: np.ndarray, pad_h: tuple, pad_w: tuple, stuff: int = 1) -> np.ndarray:
    """Zero-pad the spatial axes of `a` by (lo, hi) each, after spacing its
    pixels `stuff` apart (zero-stuffing); `a` itself when that is a no-op."""
    n, h, w, c = a.shape
    if stuff == 1 and not any(pad_h + pad_w):
        return a
    hs = (h - 1) * stuff + 1
    ws = (w - 1) * stuff + 1
    out = np.zeros((n, pad_h[0] + hs + pad_h[1], pad_w[0] + ws + pad_w[1], c),
                   dtype=a.dtype)
    out[:, pad_h[0]:pad_h[0] + hs:stuff, pad_w[0]:pad_w[0] + ws:stuff, :] = a
    return out


# Output bytes per block of the depthwise tap loop: a block, its scratch
# product and the canvas rows its taps read stay in a core's L2 cache.
_DW_BLOCK_BYTES = 1 << 18


def _dw_taps(xp: np.ndarray, kh: int, kw: int, oh: int, ow: int, stride: int,
             dilation: int):
    """Walk a depthwise correlation's (N, oh, ow, C) output in blocks of
    about _DW_BLOCK_BYTES: several whole images when one image is smaller,
    else row blocks of one image. For each block and each tap (u, v), in
    row-major order, yields (the block's index into the output, (u, v), the
    canvas window that tap reads for the block, a scratch array of the
    block's shape)."""
    n, c = xp.shape[0], xp.shape[3]
    rows = max(1, _DW_BLOCK_BYTES // (ow * c * xp.itemsize))
    images = max(1, rows // oh)
    rows = min(rows, oh)
    scratch = np.empty(images * rows * ow * c, dtype=xp.dtype)
    span_w = (ow - 1) * stride + 1
    for i in range(0, n, images):
        bn = min(images, n - i)
        for r in range(0, oh, rows):
            br = min(rows, oh - r)
            block = (slice(i, i + bn), slice(r, r + br))
            buf = scratch[:bn * br * ow * c].reshape(bn, br, ow, c)
            for u in range(kh):
                h0 = r * stride + u * dilation
                rows_u = slice(h0, h0 + (br - 1) * stride + 1, stride)
                for v in range(kw):
                    w0 = v * dilation
                    yield (block, (u, v),
                           xp[i:i + bn, rows_u, w0:w0 + span_w:stride], buf)


def _channel_sum(a: np.ndarray) -> np.ndarray:
    """Sum an NHWC array over N, H, W: one matrix-vector product, several
    times faster than a ufunc reduction over the leading axes."""
    c = a.shape[-1]
    return np.ones(a.size // c, dtype=a.dtype) @ a.reshape(-1, c)


def _conv(xp: np.ndarray, wd: np.ndarray, oh: int, ow: int, stride: int,
          dilation: int, depthwise: bool) -> np.ndarray:
    """Slide (kh, kw, C_in, C_out) weights, or depthwise (kh, kw, 1, C)
    ones, over a padded canvas: the fresh (N, oh, ow, C_out) correlation.

    Dense weights contract with the strided window view in one BLAS call.
    Depthwise, per block of _dw_taps, the first tap's product is written
    straight into the output and each later one is added on, so every
    output sums its taps in row-major (u, v) order. Each tap's weights are
    tiled along W once: the product then runs over contiguous OW*C rows,
    where a broadcast (C,) vector would keep numpy from merging the W and C
    axes.
    """
    kh, kw, _, c = wd.shape
    if not depthwise:
        patches = _window_view(xp, kh, kw, oh, ow, stride, dilation)
        return np.tensordot(patches, wd, axes=([3, 4, 5], [0, 1, 2]))
    wt = np.ascontiguousarray(np.broadcast_to(wd[:, :, :1], (kh, kw, ow, c)))
    y = np.empty((xp.shape[0], oh, ow, c), dtype=xp.dtype)
    for block, (u, v), win, buf in _dw_taps(xp, kh, kw, oh, ow, stride, dilation):
        out = y[block]
        if u == v == 0:
            np.multiply(win, wt[u, v], out=out)
        else:
            out += np.multiply(win, wt[u, v], out=buf)
    return y


def _conv_input_grad(g: np.ndarray, wd: np.ndarray, in_hw: tuple, pad_lo: tuple,
                     stride: int, dilation: int, depthwise: bool) -> np.ndarray:
    """Gradient of _conv w.r.t. its unpadded (N, *in_hw, C_in) input, from
    the output gradient `g` and the canvas' low pads `pad_lo`. Tap u carries
    output pixel i to input pixel i*stride + u*dilation - pad_lo, so this is
    a stride-1 correlation of the zero-stuffed output gradient with the
    flipped kernel (channel axes swapped when dense); the low pad lines the
    flipped taps up, the high pad fills out to the input extent."""
    (h, w), (ph, pw) = in_hw, pad_lo
    oh, ow = g.shape[1:3]
    reach_h, reach_w = dilation * (wd.shape[0] - 1), dilation * (wd.shape[1] - 1)
    gp = _canvas(g, (reach_h - ph, h + ph - (oh - 1) * stride - 1),
                 (reach_w - pw, w + pw - (ow - 1) * stride - 1), stride)
    wf = wd[::-1, ::-1] if depthwise else wd[::-1, ::-1].transpose(0, 1, 3, 2)
    return _conv(gp, wf, h, w, 1, dilation, depthwise)


def _conv_weight_grad(xp: np.ndarray, g: np.ndarray, kh: int, kw: int,
                      stride: int, dilation: int, depthwise: bool) -> np.ndarray:
    """Gradient of _conv with respect to its (kh, kw, ., .) weights, given
    the padded canvas `xp` it read and the output gradient `g`."""
    n, oh, ow, c = g.shape
    if not depthwise:
        patches = _window_view(xp, kh, kw, oh, ow, stride, dilation)
        return np.tensordot(patches, g, axes=([0, 1, 2], [0, 1, 2]))
    dw = np.zeros((kh, kw, 1, c), dtype=g.dtype)
    for block, (u, v), win, buf in _dw_taps(xp, kh, kw, oh, ow, stride, dilation):
        dw[u, v, 0] += _channel_sum(np.multiply(win, g[block], out=buf))
    return dw


def _bias_epilogue(op: str, x: Tensor, w: Tensor, b: Tensor | None, width: int,
                   bias_grad):
    """Check the operands' dtypes and the optional (width,) bias of an
    affine op before any compute. Returns finish(y, bwd): it adds the bias
    in place to the fresh output y and emits it; bwd(g) gives (dx, dw) and
    bias_grad(g) the bias gradient."""
    _same_dtype(op, *((x, w) if b is None else (x, w, b)))
    if b is None:
        return lambda y, bwd: _emit(op, y, (x, w), bwd)
    _require(b.shape == (width,), op, f"bias shape {b.shape} != ({width},)")

    def finish(y, bwd):
        y += b.data
        return _emit(op, y, (x, w, b), lambda g: (*bwd(g), bias_grad(g)))

    return finish


def conv2d(x: Tensor, w: Tensor, b: Tensor | None = None, *, stride: int = 1,
           padding: str = "same", dilation: int = 1, groups: int = 1) -> Tensor:
    """2D convolution, NHWC input, (kh, kw, C_in/groups, C_out) weights.

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
    finish = _bias_epilogue("conv2d", x, w, b, cout, _channel_sum)
    ph_lo, ph_hi, oh = _conv_axis(h, kh, stride, dilation, padding)
    pw_lo, pw_hi, ow = _conv_axis(wdt, kw, stride, dilation, padding)
    xp = _canvas(x.data, (ph_lo, ph_hi), (pw_lo, pw_hi))
    y = _conv(xp, w.data, oh, ow, stride, dilation, depthwise)
    add_macs(n * oh * ow * kh * kw * cg * cout)
    return finish(y, lambda g: (
        _conv_input_grad(g, w.data, (h, wdt), (ph_lo, pw_lo), stride, dilation,
                         depthwise),
        _conv_weight_grad(xp, g, kh, kw, stride, dilation, depthwise)))


def conv2d_transpose(x: Tensor, w: Tensor, b: Tensor | None = None, *,
                     stride: int = 2) -> Tensor:
    """Transpose convolution, conv2d's adjoint: spatial extents multiplied
    by `stride`.

    Weights are (kh, kw, C_out, C_in): the same array the matched conv,
    mapping C_out -> C_in with 'same' padding at this stride, would use. So
    the forward here is that conv's input gradient, the input gradient here
    is its forward, and the weight gradient is its weight gradient with
    input and output gradient swapped.
    """
    _require(x.ndim == 4, "conv2d_transpose", f"input must be NHWC, got ndim {x.ndim}")
    _require(w.ndim == 4, "conv2d_transpose", f"weights must be rank 4, got {w.ndim}")
    n, h, wdt, cin = x.shape
    kh, kw, cout, wcin = w.shape
    _require(wcin == cin, "conv2d_transpose",
             f"weight input axis {wcin} != input channels {cin}")
    finish = _bias_epilogue("conv2d_transpose", x, w, b, cout, _channel_sum)
    oh, ow = h * stride, wdt * stride
    ph_lo, ph_hi, _ = _conv_axis(oh, kh, stride, 1, "same")
    pw_lo, pw_hi, _ = _conv_axis(ow, kw, stride, 1, "same")
    y = _conv_input_grad(x.data, w.data, (oh, ow), (ph_lo, pw_lo), stride, 1, False)
    add_macs(n * oh * ow * kh * kw * cin * cout)

    def bwd(g):
        gp = _canvas(g, (ph_lo, ph_hi), (pw_lo, pw_hi))
        return (_conv(gp, w.data, h, wdt, stride, 1, False),
                _conv_weight_grad(gp, x.data, kh, kw, stride, 1, False))

    return finish(y, bwd)


# ---------------------------------------------------------------------------
# normalization


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, running_mean: Tensor,
               running_var: Tensor, *, train: bool, eps: float = 1e-3,
               momentum: float = 0.99) -> Tensor:
    """Per-channel batch normalization over the N, H, W axes.

    Train mode normalizes with batch statistics, differentiates through them,
    and updates the (untracked) running stats in place with the given
    momentum. Inference mode uses the running stats only.
    """
    _require(x.ndim == 4, "batch_norm", f"input must be NHWC, got ndim {x.ndim}")
    c = x.shape[3]
    for name, t in (("gamma", gamma), ("beta", beta),
                    ("running_mean", running_mean), ("running_var", running_var)):
        _require(t.shape == (c,), "batch_norm", f"{name} shape {t.shape} != ({c},)")
    axes = (0, 1, 2)
    xd = x.data

    if train:
        m = xd.size // c
        mu = _channel_sum(xd) / m
        xhat = xd - mu
        sq = np.square(xhat)
        var = _channel_sum(sq) / m
        running_mean.data = momentum * running_mean.data + (1.0 - momentum) * mu
        running_var.data = momentum * running_var.data + (1.0 - momentum) * var
        ivar = 1.0 / np.sqrt(var + eps)
        xhat *= ivar
        y = np.multiply(gamma.data, xhat, out=sq)
        y += beta.data

        def bwd(g):
            dbeta = _channel_sum(g)
            dx = g * xhat
            dgamma = _channel_sum(dx)
            np.multiply(xhat, dgamma / m, out=dx)
            dx += dbeta / m
            np.subtract(g, dx, out=dx)
            dx *= gamma.data * ivar
            return dx, dgamma, dbeta

        return _emit("batch_norm", y, (x, gamma, beta), bwd)

    ivar = 1.0 / np.sqrt(running_var.data + eps)
    xhat = (xd - running_mean.data) * ivar
    y = gamma.data * xhat + beta.data

    def bwd_infer(g):
        return g * (gamma.data * ivar), (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _emit("batch_norm", y, (x, gamma, beta), bwd_infer)


# ---------------------------------------------------------------------------
# activations


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0)
    return _emit("relu", y, (x,), lambda g: (g * (x.data > 0),))


def leaky_relu(x: Tensor, alpha: float = 0.01) -> Tensor:
    _require(0.0 <= alpha <= 1.0, "leaky_relu", f"alpha must be in [0, 1], got {alpha}")
    xd = x.data
    y = np.maximum(xd, alpha * xd)  # equals where(x > 0, x, alpha*x) for alpha in [0, 1]
    return _emit("leaky_relu", y, (x,),
                 lambda g: (g * np.maximum(xd > 0, alpha, dtype=xd.dtype),))


def _logistic(xd: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), split by sign so exp never overflows."""
    s = np.empty_like(xd)
    pos = xd >= 0
    s[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    ex = np.exp(xd[~pos])
    s[~pos] = ex / (1.0 + ex)
    return s


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


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return _emit("softmax", y, (x,), bwd)


# ---------------------------------------------------------------------------
# pooling and resampling


def _tie_split(x: np.ndarray, extreme: np.ndarray, axis):
    """Backward of a max or min over `axis`, `extreme` kept with its reduced
    axes: the gradient is split evenly among the inputs that tie for the
    extreme, which on distinct values is plain argmax routing."""
    mask = x == extreme
    counts = mask.sum(axis=axis, keepdims=True).astype(x.dtype)
    return lambda g: mask * (g / counts)


def _pool(op: str, x: Tensor, xr: np.ndarray, kind: str, axis, shape) -> Tensor:
    """Reduce `xr`, a reshaped view of x.data, over `axis` with the numpy
    reduction `kind` (mean, sum, max or min) and emit it as `shape`. Mean
    and sum gradients broadcast back over the reduced axes; max and min
    gradients go to the tied extremes."""
    y = getattr(xr, kind)(axis=axis, keepdims=True)
    if kind in ("max", "min"):
        route = _tie_split(xr, y, axis)
    else:
        k = xr.size // y.size if kind == "mean" else 1
        route = lambda g: np.broadcast_to(g / k, xr.shape)
    return _emit(op, y.reshape(shape), (x,),
                 lambda g: (route(g.reshape(y.shape)).reshape(x.shape),))


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


def max_pool2d(x: Tensor, size: int = 2) -> Tensor:
    """Non-overlapping spatial max pooling; extents must divide by `size`."""
    xr, shape = _windows("max_pool2d", x, size)
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
    wy0 = (1.0 - fy)[None, :, None, None]
    wy1 = fy[None, :, None, None]
    wx0 = (1.0 - fx)[None, None, :, None]
    wx1 = fx[None, None, :, None]
    # np.take gathers into C order; fancy indexing an inner axis would leave
    # the products (and y) strided
    rows = np.take(xd, i0, axis=1) * wy0 + np.take(xd, i1, axis=1) * wy1
    y = np.take(rows, j0, axis=2) * wx0 + np.take(rows, j1, axis=2) * wx1

    def bwd(g):
        ax = _interp_matrix(j0, j1, fx, w)
        ay = _interp_matrix(i0, i1, fy, h)
        drows = np.matmul(ax.T, g)  # (n, oh, w, c)
        return ((ay.T @ drows.reshape(n, oh, w * c)).reshape(n, h, w, c),)

    return _emit("bilinear_upsample", y, (x,), bwd)


def _d2s(arr: np.ndarray, block: int) -> np.ndarray:
    n, h, w, c = arr.shape
    c2 = c // (block * block)
    t = arr.reshape(n, h, w, c2, block, block).transpose(0, 1, 4, 2, 5, 3)
    return t.reshape(n, h * block, w * block, c2)


def _s2d(arr: np.ndarray, block: int) -> np.ndarray:
    n, h, w, c = arr.shape
    t = arr.reshape(n, h // block, block, w // block, block, c)
    return t.transpose(0, 1, 3, 5, 2, 4).reshape(n, h // block, w // block,
                                                 c * block * block)


def depth_to_space(x: Tensor, block: int) -> Tensor:
    """Rearrange channel blocks to space, depth-major within each block:
    output pixel (h*b+dy, w*b+dx, c) reads input channel c*b*b + dy*b + dx."""
    _require(x.ndim == 4, "depth_to_space", f"input must be NHWC, got ndim {x.ndim}")
    _require(x.shape[3] % (block * block) == 0, "depth_to_space",
             f"channels {x.shape[3]} not divisible by block^2 {block * block}")
    return record("depth_to_space", Tensor(_d2s(x.data, block)), (x,),
                  lambda g: (_s2d(g, block),))


def space_to_depth(x: Tensor, block: int) -> Tensor:
    """Inverse of depth_to_space."""
    _require(x.ndim == 4, "space_to_depth", f"input must be NHWC, got ndim {x.ndim}")
    _require(x.shape[1] % block == 0 and x.shape[2] % block == 0, "space_to_depth",
             f"extent {x.shape[1:3]} not divisible by block {block}")
    return record("space_to_depth", Tensor(_s2d(x.data, block)), (x,),
                  lambda g: (_d2s(g, block),))


# ---------------------------------------------------------------------------
# linear algebra and structure


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine map over the last axis: (..., d_in) @ (d_in, d_out) + b."""
    _require(w.ndim == 2, "dense", f"weights must be rank 2, got {w.ndim}")
    _require(x.shape[-1] == w.shape[0], "dense",
             f"input width {x.shape[-1]} != weight rows {w.shape[0]}")
    lead = tuple(range(x.ndim - 1))
    finish = _bias_epilogue("dense", x, w, b, w.shape[1],
                            lambda g: g.sum(axis=lead))
    y = x.data @ w.data
    add_macs(x.size // x.shape[-1] * w.shape[0] * w.shape[1])
    return finish(y, lambda g: (g @ w.data.T,
                                np.tensordot(x.data, g, axes=(lead, lead))))


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
    y = a.data @ b.data
    batch = 1
    for s in a.shape[:-2]:
        batch *= s
    add_macs(batch * a.shape[-2] * a.shape[-1] * b.shape[-1])

    def bwd(g):
        da = g @ np.swapaxes(b.data, -1, -2)
        db = np.swapaxes(a.data, -1, -2) @ g
        return da, db

    return _emit("matmul", y, (a, b), bwd)


def swap_last2(x: Tensor) -> Tensor:
    """Transpose the trailing two axes (key transpose in attention)."""
    _require(x.ndim >= 2, "swap_last2", "operand must be rank >= 2")
    return record("swap_last2", Tensor(np.swapaxes(x.data, -1, -2)), (x,),
                  lambda g: (np.swapaxes(g, -1, -2),))


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_dtype("add", a, b)
    return _emit("add", a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product with broadcasting; covers (N,1,1,C) channel gates
    and (N,H,W,1) spatial gates."""
    _same_dtype("mul", a, b)
    return _emit("mul", a.data * b.data, (a, b),
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar (attention's 1/sqrt(d_k) and friends)."""
    return _emit("scale", x.data * x.dtype.type(s), (x,),
                 lambda g: (g * x.dtype.type(s),))


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
    return record("reshape", Tensor(x.data.reshape(tuple(shape))), (x,),
                  lambda g: (g.reshape(x.shape),))


def reduce_sum(x: Tensor) -> Tensor:
    return _emit("reduce_sum", np.asarray(x.data.sum(), dtype=x.dtype), (x,),
                 lambda g: (np.broadcast_to(g, x.shape),))


# ---------------------------------------------------------------------------
# loss


def bce_loss(pred: Tensor, target: Tensor, eps: float = 1e-7) -> Tensor:
    """Mean binary cross-entropy with predictions clamped to [eps, 1-eps].

    The clamp keeps saturated predictions finite; gradients are zero in the
    clamped region (the clamp is flat there).
    """
    _require(pred.shape == target.shape, "bce_loss",
             f"shape mismatch {pred.shape} vs {target.shape}")
    _same_dtype("bce_loss", pred, target)
    p = np.clip(pred.data, eps, 1.0 - eps)
    t = target.data
    y = -(t * np.log(p) + (1.0 - t) * np.log(1.0 - p)).mean()
    m = pred.size
    inside = (pred.data > eps) & (pred.data < 1.0 - eps)

    def bwd(g):
        dp = g * inside * (p - t) / (p * (1.0 - p)) / m
        return dp.astype(pred.dtype, copy=False), None

    return _emit("bce_loss", np.asarray(y, dtype=pred.dtype), (pred, target), bwd)
