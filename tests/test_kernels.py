"""Backward kernels against the adjoint identity, and the layout of outputs.

conv2d, conv2d_transpose and bilinear_upsample are linear in each input, so
for any output gradient g the input gradient dx must satisfy
<op(x), g> == <x, dx> (and the same for the weights) to float64 rounding.
"""

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


@pytest.mark.parametrize("padding", ["same", "valid"])
@pytest.mark.parametrize("dilation", [1, 2])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kernel", [(3, 3), (2, 3)])
@pytest.mark.parametrize("depthwise", [False, True], ids=["dense", "depthwise"])
def test_conv2d_adjoint(depthwise, kernel, stride, dilation, padding):
    x = _normal(1, 2, 9, 8, 3)
    w = _normal(2, *kernel, 1, 3) if depthwise else _normal(2, *kernel, 3, 4)
    groups = 3 if depthwise else 1
    inner, (ax, aw) = _adjoint(
        lambda a, b: ops.conv2d(a, b, stride=stride, padding=padding,
                                dilation=dilation, groups=groups), x, w)
    assert ax == pytest.approx(inner, rel=1e-12)
    assert aw == pytest.approx(inner, rel=1e-12)


@pytest.mark.parametrize("kernel, stride", [(3, 2), (2, 2), (4, 2), (1, 2), (3, 3)])
def test_conv2d_transpose_adjoint(kernel, stride):
    x = _normal(3, 2, 3, 4, 3)
    w = _normal(4, kernel, kernel, 2, 3)
    inner, (ax, aw) = _adjoint(
        lambda a, b: ops.conv2d_transpose(a, b, stride=stride), x, w)
    assert ax == pytest.approx(inner, rel=1e-12)
    assert aw == pytest.approx(inner, rel=1e-12)


@pytest.mark.parametrize("shape, factor", [
    ((2, 3, 5, 2), 1), ((2, 3, 5, 2), 2), ((2, 3, 5, 2), 3), ((2, 3, 5, 2), 32),
    ((1, 2, 2, 3), 32),
])
def test_bilinear_upsample_adjoint(shape, factor):
    inner, (ax,) = _adjoint(lambda a: ops.bilinear_upsample(a, factor),
                            _normal(5, *shape))
    assert ax == pytest.approx(inner, rel=1e-12)


def test_every_op_output_is_c_contiguous(monkeypatch):
    """A strided view where an op used to return a fresh array changes the
    summation order of the BLAS calls downstream, which moves the model's
    outputs. Every op that computes values must hand back C order."""
    emit = ops._emit
    seen = {}

    def checked(op, y, inputs, backward):
        if all(t.data.flags.c_contiguous for t in inputs):
            seen[op] = seen.get(op, True) and y.flags.c_contiguous
        return emit(op, y, inputs, backward)

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
