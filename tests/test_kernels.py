"""Backward kernels against the adjoint identity, the blocked depthwise
kernel against plain tap sums, the blocked dense kernel against one
contraction, activation gradients taken from the output against the input
mask, and the layout of outputs.

The convolution kernels and bilinear_upsample are linear
in each input, so for any output gradient g the input gradient dx must
satisfy <op(x), g> == <x, dx> (and the same for the weights) to float64
rounding.
"""

import weakref

import numpy as np
import pytest

from mcads import gradcheck, ops
from mcads.config import RunConfig
from mcads.network import SegmentationModel
from mcads.tensor import Tape, Tensor, backward


def _adjoint(op, *arrays, seed=0):
    """Return (<op(*arrays), g>, [<a, da> for each array]) for a random g."""
    inputs = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape() as tape:
        y = op(*inputs)
        g = np.random.default_rng(seed).normal(size=y.shape)
        loss = ops.reduce_sum(ops.mul(y, Tensor(g)))
    backward(tape, loss)
    return float(np.vdot(y.data, g)), [float(np.vdot(t.data, t.grad)) for t in inputs]


def _normal(seed, *shape):
    return np.random.default_rng(seed).normal(size=shape)


def _zero_bias(w):
    """A zero bias for conv weights `w`: it leaves the conv linear."""
    return Tensor(np.zeros(w.shape[-1], w.dtype))


def _axis(extent, k, dilation, padding):
    """(pad on each side, out_extent) of one axis, padded 'same' as conv2d
    pads it, or not at all ('valid')."""
    if padding == "same":
        return ops._conv_axis(k, dilation), extent
    return 0, extent - dilation * (k - 1)


# Dense and depthwise, over a square kernel and one whose sides differ (so
# the two axes pad differently), each at dilation 1 and 2. Every kernel side
# is odd; the id keeps the stride (1) and padding ('same') conv2d runs at.
_ADJOINT_CASES = [
    pytest.param(depthwise, kernel, dilation,
                 id=f"{'depthwise' if depthwise else 'dense'}-kernel{i}-1-"
                    f"{dilation}-same")
    for depthwise in (False, True) for i, kernel in enumerate([(3, 3), (5, 3)])
    for dilation in (1, 2)]


@pytest.mark.parametrize("depthwise, kernel, dilation", _ADJOINT_CASES)
def test_conv2d_adjoint(depthwise, kernel, dilation):
    x = _normal(1, 2, 9, 8, 3)
    w = _normal(2, *kernel, 1, 3) if depthwise else _normal(2, *kernel, 3, 4)
    groups = 3 if depthwise else 1
    inner, (ax, aw) = _adjoint(
        lambda a, b: ops.conv2d(a, b, _zero_bias(b), dilation=dilation, groups=groups),
        x, w)
    assert ax == pytest.approx(inner, rel=1e-12)
    assert aw == pytest.approx(inner, rel=1e-12)


# (N, H, W, C), kernel side, dilation, padding
_DW_CASES = {
    "3x3-c8": ((4, 16, 16, 8), 3, 1, "same"),
    "3x3-c16": ((2, 24, 20, 16), 3, 1, "same"),
    "3x3-c128": ((2, 12, 12, 128), 3, 1, "same"),
    "7x7-c4": ((2, 32, 32, 4), 7, 1, "same"),
    "odd-extent": ((2, 17, 15, 16), 3, 1, "same"),
    "dilation2": ((2, 16, 16, 16), 3, 2, "same"),
    "valid": ((2, 13, 11, 8), 3, 1, "valid"),
    "image-over-block": ((2, 96, 96, 16), 3, 1, "same"),
    "images-in-block": ((7, 8, 8, 16), 3, 1, "same"),
    "partial-image-block": ((5, 40, 40, 16), 3, 1, "same"),
}


def _dw_case(name, dtype):
    shape, k, dilation, padding = _DW_CASES[name]
    rng = np.random.default_rng(7)
    x = rng.normal(size=shape).astype(dtype)
    w = rng.normal(size=(k, k, 1, shape[3])).astype(dtype)
    (ph, oh), (pw, ow) = (_axis(e, k, dilation, padding) for e in shape[1:3])
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    return x, w, xp, (oh, ow), (k, dilation)


def test_depthwise_cases_cross_block_seams():
    block = ops._BLOCK_BYTES
    n, h, w, c = _DW_CASES["image-over-block"][0]
    assert h * w * c * 4 > block
    n, h, w, c = _DW_CASES["images-in-block"][0]
    assert 1 < n and n * h * w * c * 4 <= block
    n, h, w, c = _DW_CASES["partial-image-block"][0]
    assert n % (block // (h * w * c * 4)) != 0


@pytest.mark.parametrize("name", list(_DW_CASES))
def test_depthwise_forward_is_the_plain_tap_sum(name):
    """Bit for bit in float32: the blocked kernel adds the same products in
    the same row-major (u, v) order as one pass over the whole arrays."""
    x, w, xp, (oh, ow), (k, dilation) = _dw_case(name, np.float32)
    want = None
    for u in range(k):
        for v in range(k):
            win = xp[:, u * dilation:, v * dilation:][:, :oh, :ow]
            term = win * w[u, v, 0]
            want = term if want is None else want + term
    got = ops._conv(xp, w, dilation, True)
    assert got.dtype == np.float32
    assert np.array_equal(got, want)


@pytest.mark.parametrize("name", list(_DW_CASES))
def test_depthwise_weight_gradient_matches_window_contraction(name):
    x, w, xp, (oh, ow), (k, dilation) = _dw_case(name, np.float64)
    g = np.random.default_rng(8).normal(size=(x.shape[0], oh, ow, x.shape[3]))
    got = ops._conv_weight_grad(xp, g, k, k, dilation, True)
    want = np.einsum("nhwuvc,nhwc->uvc",
                     ops._window_view(xp, k, k, oh, ow, dilation), g)
    np.testing.assert_allclose(got[:, :, 0, :], want, rtol=0,
                               atol=1e-12 * np.abs(want).max())


# (N, H, W, C_in), kernel side, C_out, dilation. Each case splits into
# blocks under _SEAM_BUDGET, and each block's product stays far above
# OpenBLAS's small-matrix cutoff (M*N*K of about 1e6), as the default budget
# guarantees for every shape.
_DENSE_CASES = {
    "image-over-block": ((1, 48, 48, 32), 3, 32, 1),
    "images-in-block": ((9, 12, 12, 32), 3, 32, 1),
    "uneven-row-blocks": ((1, 50, 40, 32), 3, 32, 1),
    "dilation2": ((2, 40, 40, 32), 3, 32, 2),
}
_SEAM_BUDGET = 1 << 20


def _dense_calls(monkeypatch):
    """Shrink the dense block budget to _SEAM_BUDGET and record every dense
    _conv call as (its arguments, its output, one np.tensordot over the
    whole window view of the same canvas)."""
    calls = []
    conv = ops._conv

    def recorded(xp, wd, dilation, depthwise):
        y = conv(xp, wd, dilation, depthwise)
        if not depthwise:
            (kh, kw), (oh, ow) = wd.shape[:2], y.shape[1:3]
            want = np.tensordot(ops._window_view(xp, kh, kw, oh, ow, dilation),
                                wd, axes=([3, 4, 5], [0, 1, 2]))
            calls.append(((xp, wd, oh, ow), y, want))
        return y

    monkeypatch.setattr(ops, "_conv", recorded)
    monkeypatch.setattr(ops, "_IM2COL_BLOCK_BYTES", _SEAM_BUDGET)
    return calls


def _run_dense(name):
    shape, k, cout, dilation = _DENSE_CASES[name]
    rng = np.random.default_rng(9)
    x = rng.normal(size=shape).astype(np.float32)
    w = rng.normal(size=(k, k, shape[3], cout)).astype(np.float32)
    return ops.conv2d(Tensor(x), Tensor(w), _zero_bias(w), dilation=dilation).data


def test_dense_cases_cross_block_seams(monkeypatch):
    calls = _dense_calls(monkeypatch)
    plans = {}
    for name in _DENSE_CASES:
        _run_dense(name)
        (xp, wd, oh, ow), _, _ = calls[-1]
        _, blocks = ops._block_plan(xp.shape[0], oh, ow * wd[..., 0].size * 4,
                                    _SEAM_BUDGET)
        plans[name] = oh, blocks
        assert len(blocks) > 1, name
    oh, blocks = plans["image-over-block"]
    assert all(bn == 1 and br < oh for _, bn, _, br in blocks)
    assert any(bn > 1 for _, bn, _, _ in plans["images-in-block"][1])
    for name in ("images-in-block", "uneven-row-blocks"):
        assert len({bn * br for _, bn, _, br in plans[name][1]}) > 1, name


@pytest.mark.parametrize("name", list(_DENSE_CASES))
def test_dense_blocks_equal_one_contraction(name, monkeypatch):
    """Bit for bit in float32: every output row is the same BLAS dot
    product of the same patch row, whichever block it falls in."""
    calls = _dense_calls(monkeypatch)
    y = _run_dense(name)
    [(_, got, want)] = calls
    assert y is got
    assert got.dtype == np.float32 and got.flags.c_contiguous
    assert np.array_equal(got, want)


@pytest.mark.parametrize("shape, factor", [
    ((2, 3, 5, 2), 1), ((2, 3, 5, 2), 2), ((2, 3, 5, 2), 3), ((2, 3, 5, 2), 32),
    ((1, 2, 2, 3), 32),
])
def test_bilinear_upsample_adjoint(shape, factor):
    inner, (ax,) = _adjoint(lambda a: ops.bilinear_upsample(a, factor),
                            _normal(5, *shape))
    assert ax == pytest.approx(inner, rel=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("alpha", [None, ops.LEAKY_SLOPE], ids=lambda a: f"alpha{a}")
def test_activation_gradient_reads_the_output(dtype, alpha):
    """relu (alpha None) and leaky_relu (alpha its slope) take their
    gradient from their output, so their input can be freed before
    backward; the gradient still equals the input-mask form g * (x > 0), or
    g * max(x > 0, alpha), bit for bit, at signed zeros, subnormals and
    +-1e30 too."""
    info = np.finfo(dtype)
    edge = [0.0, info.smallest_subnormal, 3 * info.smallest_subnormal,
            info.tiny, 1e30]
    rng = np.random.default_rng(7)
    xd = np.concatenate([edge, np.negative(edge), rng.normal(size=64)]).astype(dtype)
    g = rng.normal(size=xd.shape).astype(dtype)
    leaf = Tensor(xd, requires_grad=True)
    with Tape() as tape:
        x = ops.scale(leaf, 1.0)  # op-produced, so only a closure can keep it
        y = ops.relu(x) if alpha is None else ops.leaky_relu(x)
        loss = ops.reduce_sum(ops.mul(y, Tensor(g)))
    assert x.data.tobytes() == xd.tobytes()
    input_data = weakref.ref(x.data)
    del x
    assert input_data() is None
    backward(tape, loss)
    mask = xd > 0 if alpha is None else np.maximum(xd > 0, alpha, dtype=dtype)
    expected = g * mask
    assert leaf.grad.dtype == expected.dtype
    assert leaf.grad.tobytes() == expected.tobytes()


def test_every_op_output_is_c_contiguous(monkeypatch):
    """A strided view where an op used to return a fresh array changes the
    summation order of the BLAS calls downstream, which moves the model's
    outputs. Every op that computes values must hand back C order."""
    emit = ops._emit
    seen = {}

    def checked(op, y, inputs, backward, guarded=False):
        if all(t.data.flags.c_contiguous for t in inputs):
            seen[op] = seen.get(op, True) and y.flags.c_contiguous
        return emit(op, y, inputs, backward, guarded)

    monkeypatch.setattr(ops, "_emit", checked)
    for _, case in gradcheck.primitive_cases():
        case()[0]()
    model = SegmentationModel(RunConfig.desk().model)
    x = np.random.default_rng(6).uniform(size=(2, 64, 64, 3)).astype(np.float32)
    for train in (False, True):
        with Tape():
            model(x, train=train)
    assert "conv2d" in seen and "batch_norm" in seen
    assert [op for op, ok in seen.items() if not ok] == []
