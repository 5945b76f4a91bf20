"""Forward semantics of the tensor primitives."""

import numpy as np
import pytest

from mcads import ops
from mcads.tensor import NumericError, Tape, Tensor, count_macs


def t(arr, grad=False, dtype=np.float32):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=grad)


def test_conv2d_all_ones_valid():
    x = t(np.ones((1, 3, 3, 1)))
    w = t(np.ones((3, 3, 1, 1)))
    y = ops.conv2d(x, w, padding="valid")
    assert y.shape == (1, 1, 1, 1)
    assert y.data[0, 0, 0, 0] == 9.0


def test_conv2d_same_padding_shape():
    x = t(np.random.default_rng(0).normal(size=(2, 7, 5, 3)))
    w = t(np.random.default_rng(1).normal(size=(3, 3, 3, 4)))
    assert ops.conv2d(x, w, padding="same").shape == (2, 7, 5, 4)
    assert ops.conv2d(x, w, stride=2, padding="same").shape == (2, 4, 3, 4)


def test_conv2d_depthwise_group_separation():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
    w = rng.normal(size=(3, 3, 1, 2)).astype(np.float32)
    y = ops.conv2d(t(x), t(w), groups=2, padding="same")
    assert y.shape == (1, 4, 4, 2)
    # channel 0 must not react to changes in input channel 1
    x2 = x.copy()
    x2[..., 1] += 1.0
    y2 = ops.conv2d(t(x2), t(w), groups=2, padding="same")
    np.testing.assert_array_equal(y.data[..., 0], y2.data[..., 0])
    assert np.any(y.data[..., 1] != y2.data[..., 1])


def test_conv2d_rejects_general_groups():
    # only dense (groups=1) and depthwise (groups=C_in) convs are supported
    x = t(np.ones((1, 4, 4, 4)))
    with pytest.raises(ValueError, match="groups"):
        ops.conv2d(x, t(np.ones((3, 3, 2, 4))), groups=2)


def test_conv2d_dilation_matches_inserted_zeros():
    rng = np.random.default_rng(3)
    x = t(rng.normal(size=(1, 9, 9, 1)), dtype=np.float64)
    w = rng.normal(size=(3, 3, 1, 1))
    # dilation 2 equals a 5x5 kernel with zeros between taps
    w5 = np.zeros((5, 5, 1, 1))
    w5[::2, ::2] = w
    y_dil = ops.conv2d(x, t(w, dtype=np.float64), dilation=2, padding="valid")
    y_dense = ops.conv2d(x, t(w5, dtype=np.float64), padding="valid")
    np.testing.assert_allclose(y_dil.data, y_dense.data, rtol=1e-12)


def test_conv2d_transpose_doubles_extent():
    rng = np.random.default_rng(4)
    x = t(rng.normal(size=(1, 3, 5, 2)))
    w = t(rng.normal(size=(3, 3, 4, 2)))  # (kh, kw, c_out, c_in)
    assert ops.conv2d_transpose(x, w, stride=2).shape == (1, 6, 10, 4)


def test_conv2d_transpose_is_conv_input_gradient():
    # forward transpose conv == backward of the matched stride-2 'same' conv,
    # with the conv's (kh,kw,cin,cout) weights reinterpreted as (cout,cin)
    rng = np.random.default_rng(5)
    g = Tensor(rng.normal(size=(1, 3, 3, 2)))  # gradient-shaped input
    w = Tensor(rng.normal(size=(3, 3, 4, 2)))
    xin = Tensor(rng.normal(size=(1, 6, 6, 4)), requires_grad=True)
    with Tape() as tape:
        y = ops.conv2d(xin, w, stride=2, padding="same")
        loss = ops.reduce_sum(ops.mul(y, Tensor(g.data)))
    from mcads.tensor import backward
    backward(tape, loss)
    z = ops.conv2d_transpose(g, w, stride=2)
    np.testing.assert_allclose(z.data, xin.grad, rtol=1e-10, atol=1e-12)


def test_batch_norm_train_standardizes():
    rng = np.random.default_rng(6)
    x = t(rng.normal(2.0, 3.0, size=(4, 8, 8, 3)))
    gamma = t(np.ones(3))
    beta = t(np.zeros(3))
    mean = t(np.zeros(3))
    var = t(np.ones(3))
    y = ops.batch_norm(x, gamma, beta, mean, var, train=True, eps=1e-10).data
    assert np.all(np.abs(y.mean(axis=(0, 1, 2))) < 1e-6)
    assert np.all(np.abs(y.var(axis=(0, 1, 2)) - 1.0) < 1e-5)


def test_batch_norm_constant_channel_is_zeroed():
    x = t(np.full((2, 4, 4, 1), 7.0))
    y = ops.batch_norm(x, t(np.ones(1)), t(np.zeros(1)), t(np.zeros(1)),
                       t(np.ones(1)), train=True).data
    np.testing.assert_allclose(y, 0.0, atol=1e-5)


def test_batch_norm_updates_running_stats():
    rng = np.random.default_rng(7)
    x = t(rng.normal(5.0, 2.0, size=(8, 4, 4, 2)))
    mean = t(np.zeros(2))
    var = t(np.ones(2))
    ops.batch_norm(x, t(np.ones(2)), t(np.zeros(2)), mean, var,
                   train=True, momentum=0.5)
    batch_mean = x.data.mean(axis=(0, 1, 2))
    np.testing.assert_allclose(mean.data, 0.5 * batch_mean, rtol=1e-5)


def test_activations_pointwise_values():
    x = t([-2.0, -0.5, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(ops.relu(x).data, [0, 0, 0, 0.5, 2.0])
    np.testing.assert_allclose(ops.leaky_relu(x, 0.01).data,
                               [-0.02, -0.005, 0, 0.5, 2.0], rtol=1e-6)
    sig = 1.0 / (1.0 + np.exp(-x.data))
    np.testing.assert_allclose(ops.sigmoid(x).data, sig, rtol=1e-6)
    np.testing.assert_allclose(ops.swish(x).data, x.data * sig, rtol=1e-6)


def test_sigmoid_extreme_inputs_stay_finite():
    x = t([-500.0, 500.0])
    y = ops.sigmoid(x).data
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-30)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(8)
    x = t(rng.normal(size=(5, 9)) * 10)
    y = ops.softmax(x, axis=-1).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(y > 0)


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0]], np.float32)
    a = ops.softmax(t(x), axis=-1).data
    b = ops.softmax(t(x + 1000.0), axis=-1).data
    np.testing.assert_allclose(a, b, rtol=1e-6)


def test_pools():
    x = t(np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1))
    assert ops.pool_global(x, "avg").data[0, 0, 0, 0] == 7.5
    assert ops.pool_global(x, "max").data[0, 0, 0, 0] == 15.0
    y = ops.max_pool2d(x, 2).data
    np.testing.assert_array_equal(y[0, :, :, 0], [[5, 7], [13, 15]])
    y = ops.avg_pool2d(x, 2).data
    np.testing.assert_allclose(y[0, :, :, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_pool_channel_kinds():
    x = t(np.array([[[[1.0, 2.0, 4.0, -1.0]]]]))
    assert ops.pool_channel(x, "mean").data[0, 0, 0, 0] == 1.5
    assert ops.pool_channel(x, "max").data[0, 0, 0, 0] == 4.0
    assert ops.pool_channel(x, "min").data[0, 0, 0, 0] == -1.0
    assert ops.pool_channel(x, "sum").data[0, 0, 0, 0] == 6.0


def test_bilinear_upsample_constant_preserved():
    x = t(np.full((1, 3, 5, 2), 0.7))
    y = ops.bilinear_upsample(x, 2).data
    assert y.shape == (1, 6, 10, 2)
    np.testing.assert_allclose(y, 0.7, rtol=1e-6)


def test_bilinear_upsample_linear_ramp():
    # half-pixel-centered interpolation reproduces a linear ramp's interior
    x = t(np.arange(4, dtype=np.float32).reshape(1, 1, 4, 1))
    y = ops.bilinear_upsample(x, 2).data[0, 0, :, 0]
    np.testing.assert_allclose(y[1:-1], np.arange(0.25, 3.0, 0.5), rtol=1e-6)


def test_depth_to_space_fixture():
    # channels (a,b,c,d) of one pixel land as [[a,b],[c,d]] in the 2x2 tile
    x = t(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
    y = ops.depth_to_space(x, 2).data
    np.testing.assert_array_equal(y[0, :, :, 0], [[1, 2], [3, 4]])


def test_depth_space_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        c = int(rng.integers(1, 4)) * 4
        x = rng.normal(size=(n, h, w, c)).astype(np.float32)
        y = ops.space_to_depth(ops.depth_to_space(t(x), 2), 2).data
        np.testing.assert_array_equal(x, y)


def test_dense_and_matmul():
    x = t([[1.0, 2.0]])
    w = t([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
    b = t([10.0, 20.0, 30.0])
    np.testing.assert_allclose(ops.dense(x, w, b).data, [[11, 22, 38]])
    a = t(np.eye(3)[None])
    m = t(np.arange(9, dtype=np.float32).reshape(1, 3, 3))
    np.testing.assert_array_equal(ops.matmul(a, m).data, m.data)


def test_swap_last2():
    x = t(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
    y = ops.swap_last2(x).data
    np.testing.assert_array_equal(y, np.swapaxes(x.data, -1, -2))


def test_add_mul_broadcast():
    a = t(np.ones((2, 3, 4)))
    b = t(np.full((1, 1, 4), 2.0))
    assert ops.add(a, b).shape == (2, 3, 4)
    np.testing.assert_allclose(ops.mul(a, b).data, 2.0)


def test_concat_and_reshape():
    a = t(np.ones((1, 2, 2, 3)))
    b = t(np.zeros((1, 2, 2, 1)))
    y = ops.concat((a, b), axis=3)
    assert y.shape == (1, 2, 2, 4)
    z = ops.reshape(y, (1, 16))
    assert z.shape == (1, 16)


def test_reductions():
    x = t([[1.0, 2.0], [3.0, 4.0]])
    assert ops.reduce_sum(x).data == 10.0
    assert ops.reduce_sum(x).shape == ()


def test_bce_matches_formula_and_clamps():
    p = t([[0.9, 0.1]])
    y = t([[1.0, 0.0]])
    expect = -np.log(0.9)
    np.testing.assert_allclose(ops.bce_loss(p, y).data, expect, rtol=1e-5)
    # exact 0/1 predictions stay finite through the clamp
    hard = ops.bce_loss(t([[0.0, 1.0]]), t([[1.0, 0.0]]))
    assert np.isfinite(hard.data)


def test_mixed_dtype_rejected():
    a = Tensor(np.ones((2, 2), np.float32))
    b = Tensor(np.ones((2, 2), np.float64))
    with pytest.raises(TypeError):
        ops.add(a, b)


def test_finite_guard_raises_and_names_op():
    bad = Tensor(np.array([np.inf, 1.0], dtype=np.float32))
    with np.errstate(invalid="ignore"):  # inf * 0 is the point of the test
        with pytest.raises(NumericError, match="mul"):
            ops.mul(bad, Tensor(np.zeros(2, np.float32)))


def test_mac_counting_convolution():
    x = t(np.ones((1, 4, 4, 3)))
    w = t(np.ones((3, 3, 3, 8)))
    with count_macs() as macs:
        ops.conv2d(x, w, padding="same")
    assert macs["macs"] == 4 * 4 * 3 * 3 * 3 * 8


@pytest.mark.parametrize("op, make", [
    ("conv2d", lambda b: ops.conv2d(t(np.ones((1, 4, 4, 3))),
                                    t(np.ones((3, 3, 3, 4))), b)),
    ("conv2d", lambda b: ops.conv2d(t(np.ones((1, 4, 4, 3))),
                                    t(np.ones((3, 3, 1, 3))), b, groups=3)),
    ("conv2d_transpose", lambda b: ops.conv2d_transpose(
        t(np.ones((1, 4, 4, 3))), t(np.ones((3, 3, 2, 3))), b)),
    ("dense", lambda b: ops.dense(t(np.ones((2, 5))), t(np.ones((5, 2))), b)),
], ids=["conv2d-dense", "conv2d-depthwise", "conv2d_transpose", "dense"])
def test_bias_rejected_before_compute(op, make):
    width = make(None).shape[-1]
    with count_macs() as macs:
        with pytest.raises(ValueError, match=f"^{op}: bias shape"):
            make(t(np.zeros(width + 1)))
        with pytest.raises(TypeError, match=f"^{op}: mixed dtypes"):
            make(t(np.zeros(width), dtype=np.float64))
    assert macs["macs"] == 0


def test_determinism_bit_identical():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 8, 8, 3)).astype(np.float32)
    w = rng.normal(size=(3, 3, 3, 4)).astype(np.float32)
    a = ops.conv2d(t(x), t(w)).data
    b = ops.conv2d(t(x), t(w)).data
    assert np.array_equal(a, b)


def test_shape_errors():
    x = t(np.ones((1, 4, 4, 3)))
    with pytest.raises(ValueError):
        ops.conv2d(x, t(np.ones((3, 3, 2, 4))))  # channel mismatch
    with pytest.raises(ValueError):
        ops.max_pool2d(t(np.ones((1, 5, 4, 1))), 2)  # odd extent
    with pytest.raises(ValueError):
        ops.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))
