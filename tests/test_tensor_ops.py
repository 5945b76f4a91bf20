"""Forward semantics of the tensor primitives."""

import contextlib

import numpy as np
import pytest

from mcads import ops
from mcads.tensor import NumericError, Tape, Tensor, backward, count_macs, record


def t(arr, grad=False, dtype=np.float32):
    return Tensor(np.asarray(arr, dtype=dtype), requires_grad=grad)


def zero_bias(w):
    """A zero bias for the weights `w`, in their dtype."""
    return Tensor(np.zeros(w.shape[-1], w.dtype))


def test_conv2d_all_ones_valid():
    # 'same' padding: the one window wholly inside the image (the 'valid'
    # output) sums all nine taps, the others count the taps they cover
    x = t(np.ones((1, 3, 3, 1)))
    w = t(np.ones((3, 3, 1, 1)))
    y = ops.conv2d(x, w, zero_bias(w))
    assert y.shape == (1, 3, 3, 1)
    np.testing.assert_array_equal(y.data[0, :, :, 0], [[4, 6, 4], [6, 9, 6], [4, 6, 4]])


def test_conv2d_same_padding_shape():
    x = t(np.random.default_rng(0).normal(size=(2, 7, 5, 3)))
    w = t(np.random.default_rng(1).normal(size=(3, 3, 3, 4)))
    assert ops.conv2d(x, w, zero_bias(w)).shape == (2, 7, 5, 4)
    assert ops.conv2d(x, w, zero_bias(w), dilation=3).shape == (2, 7, 5, 4)


def test_conv2d_depthwise_group_separation():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
    w = rng.normal(size=(3, 3, 1, 2)).astype(np.float32)
    y = ops.conv2d(t(x), t(w), zero_bias(w), groups=2)
    assert y.shape == (1, 4, 4, 2)
    # channel 0 must not react to changes in input channel 1
    x2 = x.copy()
    x2[..., 1] += 1.0
    y2 = ops.conv2d(t(x2), t(w), zero_bias(w), groups=2)
    np.testing.assert_array_equal(y.data[..., 0], y2.data[..., 0])
    assert np.any(y.data[..., 1] != y2.data[..., 1])


def test_conv2d_rejects_general_groups():
    # only dense (groups=1) and depthwise (groups=C_in) convs with odd
    # kernel sides are supported, and the check runs before any compute
    x = t(np.ones((1, 4, 4, 4)))
    rows = [((3, 3, 2, 4), 2, "groups"),
            ((2, 3, 4, 4), 1, r"^conv2d: .*odd.*\(2, 3, 4, 4\)")]
    with count_macs() as macs:
        for shape, groups, match in rows:
            with pytest.raises(ValueError, match=match):
                ops.conv2d(x, t(np.ones(shape)), t(np.zeros(shape[3])), groups=groups)
    assert macs["macs"] == 0


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("op, name, run", [
    ("avg_pool2d", "factor", lambda x, v: ops.avg_pool2d(x, v)),
    ("bilinear_upsample", "factor", lambda x, v: ops.bilinear_upsample(x, v)),
    ("conv2d", "dilation",
     lambda x, v: ops.conv2d(x, t(np.ones((3, 3, 2, 2))), t(np.zeros(2)), dilation=v)),
], ids=["avg_pool2d", "bilinear_upsample", "conv2d"])
def test_integer_arguments_below_one_rejected_before_compute(op, name, run, value):
    x = t(np.ones((1, 4, 4, 2)))
    with count_macs() as macs:
        with pytest.raises(ValueError, match=f"^{op}: {name} must be >= 1, got {value}$"):
            run(x, value)
    assert macs["macs"] == 0


def test_conv2d_dilation_matches_inserted_zeros():
    rng = np.random.default_rng(3)
    x = t(rng.normal(size=(1, 9, 9, 1)), dtype=np.float64)
    w = rng.normal(size=(3, 3, 1, 1))
    # dilation 2 equals a 5x5 kernel with zeros between taps
    w5 = np.zeros((5, 5, 1, 1))
    w5[::2, ::2] = w
    y_dil = ops.conv2d(x, t(w, dtype=np.float64), zero_bias(w), dilation=2)
    y_dense = ops.conv2d(x, t(w5, dtype=np.float64), zero_bias(w))
    # every window wholly inside the image; a border output can cancel to
    # near zero, where the two summation orders differ in relative terms
    inner = (slice(None), slice(2, -2), slice(2, -2))
    np.testing.assert_allclose(y_dil.data[inner], y_dense.data[inner], rtol=1e-12)


def test_batch_norm_train_standardizes():
    # the closed form at BN_EPS: mean 0, variance var / (var + BN_EPS)
    rng = np.random.default_rng(6)
    x = t(rng.normal(2.0, 3.0, size=(4, 8, 8, 3)))
    gamma = t(np.ones(3))
    beta = t(np.zeros(3))
    mean = t(np.zeros(3))
    var = t(np.ones(3))
    y = ops.batch_norm(x, gamma, beta, mean, var, train=True).data
    batch_var = x.data.astype(np.float64).var(axis=(0, 1, 2))
    assert np.all(np.abs(y.mean(axis=(0, 1, 2))) < 1e-6)
    assert np.all(np.abs(y.var(axis=(0, 1, 2)) - batch_var / (batch_var + ops.BN_EPS))
                  < 1e-5)


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
    np.testing.assert_allclose(ops.leaky_relu(x).data,
                               [-0.02, -0.005, 0, 0.5, 2.0], rtol=1e-6)
    sig = 1.0 / (1.0 + np.exp(-x.data))
    np.testing.assert_allclose(ops.sigmoid(x).data, sig, rtol=1e-6)
    np.testing.assert_allclose(ops.swish(x).data, x.data * sig, rtol=1e-6)


def test_sigmoid_extreme_inputs_stay_finite():
    x = t([-500.0, 500.0])
    y = ops.sigmoid(x).data
    assert np.all(np.isfinite(y))
    np.testing.assert_allclose(y, [0.0, 1.0], atol=1e-30)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_and_swish_match_two_branch_formula(dtype):
    """Bit for bit, signs of zero included, against 1 / (1 + exp(-x)) for
    x >= 0 and exp(x) / (1 + exp(x)) below, at +-0, the float32 exp limit,
    +-1e30 and normals at scales 1 to 1e4."""
    rng = np.random.default_rng(11)
    x = np.concatenate([[0.0, -0.0, 88.7, -88.7, 1e30, -1e30]]
                       + [rng.normal(scale=s, size=64) for s in (1, 10, 1e2, 1e4)])
    x = x.astype(dtype)
    want = np.empty_like(x)
    pos = x >= 0
    want[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    want[~pos] = ex / (1.0 + ex)
    one = dtype(1.0)
    clipped = np.clip(want, np.finfo(dtype).tiny, np.nextafter(one, one * 0))
    assert ops.sigmoid(t(x, dtype=dtype)).data.tobytes() == clipped.tobytes()
    assert ops.swish(t(x, dtype=dtype)).data.tobytes() == (x * want).tobytes()


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(8)
    x = t(rng.normal(size=(5, 9)) * 10)
    y = ops.softmax(x).data
    np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-6)
    assert np.all(y > 0)


def test_softmax_shift_invariance():
    x = np.array([[1.0, 2.0, 3.0]], np.float32)
    a = ops.softmax(t(x)).data
    b = ops.softmax(t(x + 1000.0)).data
    np.testing.assert_allclose(a, b, rtol=1e-6)


def test_pools():
    x = t(np.arange(16, dtype=np.float32).reshape(1, 4, 4, 1))
    assert ops.pool_global(x, "avg").data[0, 0, 0, 0] == 7.5
    assert ops.pool_global(x, "max").data[0, 0, 0, 0] == 15.0
    y = ops.max_pool2d(x).data
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
    y = ops.depth_to_space(x).data
    np.testing.assert_array_equal(y[0, :, :, 0], [[1, 2], [3, 4]])


def test_depth_space_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 3))
        h = int(rng.integers(1, 5))
        w = int(rng.integers(1, 5))
        c = int(rng.integers(1, 4)) * 4
        x = rng.normal(size=(n, h, w, c)).astype(np.float32)
        y = ops.space_to_depth(ops.depth_to_space(t(x))).data
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
    # eval batch norm computes in place in x's dtype, so its statistics
    # must share it
    x = Tensor(np.ones((1, 2, 2, 2), np.float32))
    stats = [Tensor(np.ones(2, np.float32)) for _ in range(3)]
    with pytest.raises(TypeError, match="^batch_norm: mixed dtypes"):
        ops.batch_norm(x, *stats, Tensor(np.ones(2)), train=False)


def test_finite_guard_raises_and_names_op():
    bad = Tensor(np.array([np.inf, 1.0], dtype=np.float32))
    with np.errstate(invalid="ignore"):  # inf * 0 is the point of the test
        with pytest.raises(NumericError, match="mul"):
            ops.mul(bad, Tensor(np.zeros(2, np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("where", [0, 7, 14], ids=["first", "middle", "last"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                         ids=["nan", "+inf", "-inf"])
def test_finite_guard_catches_every_non_finite_value(value, where, dtype):
    arr = np.arange(15, dtype=dtype).reshape(3, 5)
    arr.flat[where] = value
    with pytest.raises(NumericError, match="'scale'"):
        ops.scale(Tensor(arr), 1.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_finite_guard_passes_extremes_and_empty(dtype):
    big = np.finfo(dtype).max
    y = ops.scale(Tensor(np.array([[big, -big, 0.0]], dtype=dtype)), 1.0)
    assert y.data[0, 0] == big
    assert ops.scale(Tensor(np.zeros((0, 3), dtype=dtype)), 1.0).shape == (0, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_batch_norm_and_leaky_relu_bit_identical(dtype):
    """The in-place forms round exactly like the plain expressions."""
    check_eval_batch_norm_and_leaky_relu_bit_identical(dtype, (2, 5, 6, 4))


@pytest.mark.parametrize("shape", [(1, 3, 5, 7), (2, 16, 16, 8)],
                         ids=["1px-rows", "one-row"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_eval_batch_norm_bit_identical_on_other_row_layouts(dtype, shape):
    """The same holds when eval batch norm's rows hold one pixel, or the
    whole map, rather than several pixels."""
    check_eval_batch_norm_and_leaky_relu_bit_identical(dtype, shape)


def check_eval_batch_norm_and_leaky_relu_bit_identical(dtype, shape):
    rng = np.random.default_rng(11)
    x = rng.normal(size=shape).astype(dtype)
    c = shape[-1]
    gamma, beta, mean = (rng.normal(size=c).astype(dtype) for _ in range(3))
    var = rng.uniform(0.1, 2.0, size=c).astype(dtype)
    ivar = 1.0 / np.sqrt(var + ops.BN_EPS)
    y = ops.batch_norm(Tensor(x), Tensor(gamma), Tensor(beta), Tensor(mean),
                       Tensor(var), train=False).data
    assert y.dtype == dtype
    assert np.array_equal(y, gamma * ((x - mean) * ivar) + beta)
    y = ops.leaky_relu(Tensor(x)).data
    assert y.dtype == dtype
    assert np.array_equal(y, np.maximum(x, ops.LEAKY_SLOPE * x))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("train", [False, True], ids=["infer", "train"])
@pytest.mark.parametrize("act", ["relu", "leaky_relu"])
def test_fused_batch_norm_equals_the_two_op_chain(act, train, dtype):
    """batch_norm(..., act=act) gives the output, every gradient and the
    running stats of batch_norm followed by the standalone op, bit for bit,
    over a map of enough blocks to be dealt over up to 4 cores, with one
    tape node where the chain has two."""
    rng = np.random.default_rng(13)
    shape = (4, 128, 65, 64)
    arrays = [rng.normal(size=shape), rng.normal(size=64), rng.normal(size=64),
              rng.normal(size=64), rng.uniform(0.1, 2.0, size=64)]
    probe = Tensor(rng.normal(size=shape).astype(dtype))
    runs = []
    for fused in (True, False):
        x, gamma, beta = (Tensor(a.astype(dtype), requires_grad=True) for a in arrays[:3])
        mean, var = (Tensor(a.astype(dtype)) for a in arrays[3:])
        with Tape() as tape:
            if fused:
                y = ops.batch_norm(x, gamma, beta, mean, var, train=train, act=act)
            else:
                y = getattr(ops, act)(ops.batch_norm(x, gamma, beta, mean, var,
                                                     train=train))
            nodes = len(tape)
            loss = ops.reduce_sum(ops.mul(y, probe))
        backward(tape, loss)
        runs.append((nodes, [y.data, x.grad, gamma.grad, beta.grad, mean.data, var.data]))
    (fused_nodes, fused), (chain_nodes, chain) = runs
    assert (fused_nodes, chain_nodes) == (1, 2)
    assert len(ops._pixel_rows(fused[0])[1]) >= 4 * ops._DEAL_MIN_BLOCKS
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("train", [False, True], ids=["infer", "train"])
def test_fused_relu_keeps_a_batch_norm_inf_visible(train):
    """A batch-norm output that overflows to -inf at one pixel, which relu
    would turn into 0, still raises batch_norm's error when relu runs in
    batch norm's pass: each block is guarded before its activation."""
    x = np.zeros((1, 4, 4, 1), np.float32)
    x[0, 0, 0, 0] = -4.0  # normalizes to about -4 in both modes; gamma 1e38
    args = [t(x), t([1e38]), t([0.0]), t([0.0]), t([1.0])]
    match = r"^non-finite value produced by op 'batch_norm'$"
    with pytest.raises(NumericError, match=match), \
            np.errstate(over="ignore"):  # the overflow is the point of the test
        ops.batch_norm(*args, train=train, act="relu")


def test_batch_norm_rejects_an_unknown_activation():
    x = t(np.ones((1, 2, 2, 1)))
    with pytest.raises(ValueError, match="^batch_norm: unknown act 'swish'$"):
        ops.batch_norm(x, t([1.0]), t([0.0]), t([0.0]), t([1.0]), train=False,
                       act="swish")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["kxk", "1x1", "dw"])
@pytest.mark.parametrize("act", ["relu", "leaky_relu"])
def test_fused_conv_epilogue_equals_the_chain(act, kind, dtype, monkeypatch):
    """Untaped, conv2d(..., bn=, act=) gives the output of conv2d then eval
    batch_norm(act=), bit for bit, over a map dealt over two cores; under a
    tape it records that chain's two nodes, and every gradient matches."""
    rng = np.random.default_rng(17)
    shape, c = (4, 128, 65, 32), 32
    kernel, cg, groups = {"kxk": (3, c, 1), "1x1": (1, c, 1), "dw": (3, 1, c)}[kind]
    arrays = [rng.normal(size=shape), rng.normal(size=(kernel, kernel, cg, c)) * 0.3,
              *(rng.normal(size=c) for _ in range(4)), rng.uniform(0.1, 2.0, size=c)]
    probe = Tensor(rng.normal(size=shape).astype(dtype))
    recorded = []

    def spy(op, out, inputs, bwd):
        recorded.append(op)
        return record(op, out, inputs, bwd)

    monkeypatch.setattr(ops, "record", spy)
    runs = []
    for fused in (True, False):
        x, w, b, gamma, beta = (t(a, True, dtype) for a in arrays[:5])
        mean, var = (t(a, False, dtype) for a in arrays[5:])

        def forward():
            if fused:
                return ops.conv2d(x, w, b, groups=groups, bn=(gamma, beta, mean, var),
                                  act=act)
            return ops.batch_norm(ops.conv2d(x, w, b, groups=groups), gamma, beta, mean,
                                  var, train=False, act=act)

        untaped = forward().data
        recorded.clear()
        with Tape() as tape:
            y = forward()
            nodes = (len(tape), tuple(recorded))
            loss = ops.reduce_sum(ops.mul(y, probe))
        backward(tape, loss)
        runs.append((nodes, [untaped, y.data, x.grad, w.grad, b.grad, gamma.grad,
                             beta.grad]))
    (fused_nodes, fused), (chain_nodes, chain) = runs
    assert fused_nodes == chain_nodes == (2, ("conv2d", "batch_norm"))
    assert len(ops._pixel_rows(fused[0])[1]) >= 2 * ops._DEAL_MIN_BLOCKS
    for got, want in zip(fused, chain):
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


def test_fused_conv_epilogue_raises_each_ops_error():
    """A non-finite conv output raises conv2d's error before batch norm runs
    on it; a finite one that batch norm overflows to -inf raises
    batch_norm's, though relu would turn it into 0: untaped in the fused
    pass, and under a tape with tracked inputs in the chain it records."""
    x = np.zeros((1, 4, 4, 1), np.float32)
    x[0, 0, 0, 0] = -4.0
    for taped in (False, True):
        w = t(np.ones((1, 1, 1, 1)), taped)
        bn = (t([1e38], taped), t([0.0]), t([0.0]), t([1.0]))  # -4 past float32's range
        with Tape() if taped else contextlib.nullcontext() as tape, \
                np.errstate(over="ignore"):  # the overflows are the point of the test
            with pytest.raises(NumericError,
                               match=r"^non-finite value produced by op 'conv2d'$"):
                ops.conv2d(t(x, taped), t(np.full((1, 1, 1, 1), 1e38), taped), t([0.0]),
                           bn=bn, act="relu")
            with pytest.raises(NumericError,
                               match=r"^non-finite value produced by op 'batch_norm'$"):
                ops.conv2d(t(x, taped), w, t([0.0]), bn=bn, act="relu")
        if taped:  # the chain's conv node, recorded before batch norm raised
            assert len(tape) == 1


def test_fused_conv_epilogue_rejects_what_batch_norm_rejects():
    x, w, b = t(np.ones((1, 2, 2, 1))), t(np.ones((1, 1, 1, 2))), t(np.zeros(2))
    bn = (t([1.0, 1.0]), t([0.0, 0.0]), t([0.0, 0.0]), t([1.0, 1.0]))
    with pytest.raises(ValueError, match="^conv2d: act 'relu' needs bn$"):
        ops.conv2d(x, w, b, act="relu")
    with pytest.raises(ValueError, match="^batch_norm: unknown act 'swish'$"):
        ops.conv2d(x, w, b, bn=bn, act="swish")
    with pytest.raises(ValueError, match=r"^batch_norm: beta shape \(1,\) != \(2,\)$"):
        ops.conv2d(x, w, b, bn=(bn[0], t([0.0]), *bn[2:]), act="relu")


def test_mac_counting_convolution():
    x = t(np.ones((1, 4, 4, 3)))
    w = t(np.ones((3, 3, 3, 8)))
    with count_macs() as macs:
        ops.conv2d(x, w, zero_bias(w))
    assert macs["macs"] == 4 * 4 * 3 * 3 * 3 * 8


@pytest.mark.parametrize("op, width, make", [
    ("conv2d", 4, lambda b: ops.conv2d(t(np.ones((1, 4, 4, 3))),
                                       t(np.ones((3, 3, 3, 4))), b)),
    ("conv2d", 3, lambda b: ops.conv2d(t(np.ones((1, 4, 4, 3))),
                                       t(np.ones((3, 3, 1, 3))), b, groups=3)),
    ("dense", 2, lambda b: ops.dense(t(np.ones((2, 5))), t(np.ones((5, 2))), b)),
], ids=["conv2d-dense", "conv2d-depthwise", "dense"])
def test_bias_rejected_before_compute(op, width, make):
    assert make(t(np.zeros(width))).shape[-1] == width
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
    a = ops.conv2d(t(x), t(w), zero_bias(w)).data
    b = ops.conv2d(t(x), t(w), zero_bias(w)).data
    assert np.array_equal(a, b)


def test_shape_errors():
    x = t(np.ones((1, 4, 4, 3)))
    with pytest.raises(ValueError):
        ops.conv2d(x, t(np.ones((3, 3, 2, 4))), t(np.zeros(4)))  # channel mismatch
    with pytest.raises(ValueError):
        ops.max_pool2d(t(np.ones((1, 5, 4, 1))))  # odd extent
    with pytest.raises(ValueError):
        ops.matmul(t(np.ones((2, 3))), t(np.ones((4, 2))))
