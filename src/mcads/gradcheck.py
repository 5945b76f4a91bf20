"""Finite-difference verification of analytic gradients.

check_gradients() runs one taped backward pass, then re-evaluates the loss
with per-coordinate central differences (f64, eps=1e-4) on a sampled subset
of coordinates per tensor, and reports the worst relative error
|a - n| / max(|a|, |n|, 1e-4); the floor keeps roundoff-scale coordinates
from dominating. Inputs for kinked ops (relu family, max pools) are
constructed away from their non-smooth points.

run_suite() covers every primitive op and every architecture block, ending
with a micro-scale full model. The `fault` flag corrupts the first case's
analytic gradient on purpose so callers can verify the harness actually
rejects wrong gradients.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .blocks import (AttentionFusion, BlockConfig, BilinearUpsampleBlock,
                     ChannelAttention, ConvBlock, DepthToSpaceUpsample,
                     DualAttentionBlock, ResidualConvChain, SegmentationHead,
                     SpatialAttention, TransposeConvUpsample)
from .decoder import DecoderConfig, DecoderStage
from .encoder import EncoderConfig, RSU
from .network import ModelConfig, SegmentationModel
from .params import ParameterStore
from .tensor import Tape, Tensor, backward

EPS = 1e-4
PRIMITIVE_TOL = 1e-5
BLOCK_TOL = 1e-4
_ERR_FLOOR = 1e-4


def check_gradients(build, tensors, *, eps: float = EPS, per_tensor: int = 8,
                    total_coords: int | None = None, seed: int = 0,
                    corrupt: bool = False) -> float:
    """Worst sampled relative error between taped and numeric gradients.

    `build` must recompute the scalar loss from the current tensor contents
    on every call. With `total_coords`, coordinates are drawn size-weighted
    across all tensors (whole-model mode); otherwise up to `per_tensor` per
    tensor. `corrupt` deliberately scales one analytic gradient, for testing
    the harness itself.
    """
    tensors = list(tensors)
    for t in tensors:
        if t.dtype != np.float64:
            raise ValueError("gradient checks require float64 tensors")
        t.requires_grad = True
        t.grad = None
    with Tape() as tape:
        loss = build()
    backward(tape, loss)
    analytic = []
    for t in tensors:
        g = t.grad if t.grad is not None else np.zeros(t.shape, np.float64)
        analytic.append(np.array(g, dtype=np.float64).reshape(-1))
    if corrupt:
        analytic[0] = analytic[0] * 1.01 + 1e-3

    rng = np.random.default_rng(seed)
    coords: list[tuple[int, int]] = []
    if total_coords is not None:
        sizes = np.array([t.size for t in tensors])
        bounds = np.cumsum(sizes)
        n = min(total_coords, int(bounds[-1]))
        for flat in rng.choice(bounds[-1], size=n, replace=False):
            ti = int(np.searchsorted(bounds, flat, side="right"))
            coords.append((ti, int(flat - (bounds[ti - 1] if ti else 0))))
    else:
        for ti, t in enumerate(tensors):
            if t.size <= per_tensor:
                coords.extend((ti, i) for i in range(t.size))
            else:
                picks = rng.choice(t.size, size=per_tensor, replace=False)
                coords.extend((ti, int(i)) for i in picks)

    worst = 0.0
    for ti, idx in coords:
        flat = tensors[ti].data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + eps
        f_plus = float(build().data)
        flat[idx] = orig - eps
        f_minus = float(build().data)
        flat[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * eps)
        a = analytic[ti][idx]
        err = abs(a - numeric) / max(abs(a), abs(numeric), _ERR_FLOOR)
        worst = max(worst, err)
    return worst


def _rng(seed):
    return np.random.default_rng(seed)


def _t(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


def _signed(rng, shape, lo=0.1, hi=1.2):
    """Values bounded away from zero: safe for relu-family kinks."""
    mag = rng.uniform(lo, hi, size=shape)
    return mag * rng.choice([-1.0, 1.0], size=shape)


def _distinct(rng, shape):
    """All-distinct values: safe for max/min pooling argmax routing."""
    n = int(np.prod(shape))
    vals = rng.permutation(n).astype(np.float64) / n + rng.uniform(0, 1e-4)
    return vals.reshape(shape)


def _probe_loss(y, probe):
    return ops.reduce_sum(ops.mul(y, probe))


def _probe_for(shape, seed):
    return Tensor(_rng(seed).normal(size=shape), requires_grad=False,
                  dtype=np.float64)


def _unary_case(shape, op, seed, signed=False, distinct=False):
    rng = _rng(seed)
    if distinct:
        data = _distinct(rng, shape)
    elif signed:
        data = _signed(rng, shape)
    else:
        data = rng.normal(size=shape)
    x = _t(data)
    probe = {}

    def build():
        y = op(x)
        if y.shape not in probe:
            probe[y.shape] = _probe_for(y.shape, seed + 1)
        return _probe_loss(y, probe[y.shape])

    return build, [x]


def _case_conv2d():
    rng = _rng(10)
    x = _t(rng.normal(size=(2, 5, 5, 3)))
    w = _t(rng.normal(size=(3, 3, 3, 4)) * 0.5)
    b = _t(rng.normal(size=(4,)) * 0.2)
    probe = _probe_for((2, 5, 5, 4), 11)
    return (lambda: _probe_loss(ops.conv2d(x, w, b), probe)), [x, w, b]


def _case_conv2d_strided():
    rng = _rng(12)
    x = _t(rng.normal(size=(1, 7, 6, 2)))
    w = _t(rng.normal(size=(3, 3, 2, 3)) * 0.5)
    probe = _probe_for((1, 3, 2, 3), 13)
    return (lambda: _probe_loss(
        ops.conv2d(x, w, stride=2, padding="valid"), probe)), [x, w]


def _case_conv2d_dilated():
    rng = _rng(14)
    x = _t(rng.normal(size=(1, 8, 8, 2)))
    w = _t(rng.normal(size=(3, 3, 2, 2)) * 0.5)
    b = _t(rng.normal(size=(2,)) * 0.2)
    probe = _probe_for((1, 8, 8, 2), 15)
    return (lambda: _probe_loss(ops.conv2d(x, w, b, dilation=2), probe)), [x, w, b]


def _case_conv2d_depthwise():
    rng = _rng(16)
    x = _t(rng.normal(size=(2, 5, 5, 4)))
    w = _t(rng.normal(size=(3, 3, 1, 4)) * 0.5)
    b = _t(rng.normal(size=(4,)) * 0.2)
    probe = _probe_for((2, 5, 5, 4), 17)
    return (lambda: _probe_loss(ops.conv2d(x, w, b, groups=4), probe)), [x, w, b]


def _case_conv2d_transpose():
    rng = _rng(20)
    x = _t(rng.normal(size=(1, 3, 4, 3)))
    w = _t(rng.normal(size=(3, 3, 2, 3)) * 0.5)
    b = _t(rng.normal(size=(2,)) * 0.2)
    probe = _probe_for((1, 6, 8, 2), 21)
    return (lambda: _probe_loss(
        ops.conv2d_transpose(x, w, b, stride=2), probe)), [x, w, b]


def _case_batch_norm(train):
    rng = _rng(22)
    x = _t(rng.normal(size=(2, 4, 4, 3)) * 2.0 + 0.5)
    gamma = _t(rng.uniform(0.5, 1.5, size=(3,)))
    beta = _t(rng.normal(size=(3,)) * 0.3)
    mean = Tensor(rng.normal(size=(3,)) * 0.2, dtype=np.float64)
    var = Tensor(rng.uniform(0.5, 2.0, size=(3,)), dtype=np.float64)
    probe = _probe_for((2, 4, 4, 3), 23)
    return (lambda: _probe_loss(
        ops.batch_norm(x, gamma, beta, mean, var, train=train), probe)), \
        [x, gamma, beta]


def _case_softmax():
    rng = _rng(24)
    x = _t(rng.normal(size=(3, 6)) * 2.0)
    probe = _probe_for((3, 6), 25)
    return (lambda: _probe_loss(ops.softmax(x, axis=-1), probe)), [x]


def _case_bilinear(factor):
    rng = _rng(26 + factor)
    x = _t(rng.normal(size=(2, 3, 4, 3)))
    probe = _probe_for((2, 3 * factor, 4 * factor, 3), 27 + factor)
    return (lambda: _probe_loss(ops.bilinear_upsample(x, factor), probe)), [x]


def _case_dense():
    rng = _rng(30)
    x = _t(rng.normal(size=(2, 3, 5)))
    w = _t(rng.normal(size=(5, 4)) * 0.5)
    b = _t(rng.normal(size=(4,)) * 0.2)
    probe = _probe_for((2, 3, 4), 31)
    return (lambda: _probe_loss(ops.dense(x, w, b), probe)), [x, w, b]


def _case_matmul():
    rng = _rng(32)
    a = _t(rng.normal(size=(2, 3, 4)))
    b = _t(rng.normal(size=(2, 4, 5)))
    probe = _probe_for((2, 3, 5), 33)
    return (lambda: _probe_loss(ops.matmul(a, b), probe)), [a, b]


def _case_add_mul(which):
    rng = _rng(34)
    a = _t(rng.normal(size=(2, 3, 4, 5)))
    b = _t(rng.normal(size=(2, 1, 1, 5)))
    c = _t(rng.normal(size=(2, 3, 4, 1)))
    probe = _probe_for((2, 3, 4, 5), 35)
    op = ops.add if which == "add" else ops.mul
    return (lambda: _probe_loss(op(op(a, b), c), probe)), [a, b, c]


def _case_concat():
    rng = _rng(36)
    a = _t(rng.normal(size=(1, 3, 3, 2)))
    b = _t(rng.normal(size=(1, 3, 3, 4)))
    probe = _probe_for((1, 3, 3, 6), 37)
    return (lambda: _probe_loss(ops.concat((a, b), axis=3), probe)), [a, b]


def _case_bce():
    rng = _rng(38)
    pred = _t(rng.uniform(0.05, 0.95, size=(2, 4, 4, 1)))
    target = Tensor(rng.integers(0, 2, size=(2, 4, 4, 1)).astype(np.float64))
    return (lambda: ops.bce_loss(pred, target)), [pred]


def primitive_cases():
    """(name, case constructor) for every differentiable primitive."""
    return [
        ("conv2d", _case_conv2d),
        ("conv2d_strided_valid", _case_conv2d_strided),
        ("conv2d_dilated", _case_conv2d_dilated),
        ("conv2d_depthwise", _case_conv2d_depthwise),
        ("conv2d_transpose", _case_conv2d_transpose),
        ("batch_norm_train", lambda: _case_batch_norm(True)),
        ("batch_norm_infer", lambda: _case_batch_norm(False)),
        ("relu", lambda: _unary_case((2, 4, 4, 3), ops.relu, 40, signed=True)),
        ("leaky_relu", lambda: _unary_case(
            (2, 4, 4, 3), lambda x: ops.leaky_relu(x, 0.01), 41, signed=True)),
        ("sigmoid", lambda: _unary_case((2, 4, 4, 3), ops.sigmoid, 42)),
        ("swish", lambda: _unary_case((2, 4, 4, 3), ops.swish, 43)),
        ("softmax", _case_softmax),
        ("pool_global_avg", lambda: _unary_case(
            (2, 4, 4, 3), lambda x: ops.pool_global(x, "avg"), 44)),
        ("pool_global_max", lambda: _unary_case(
            (2, 4, 4, 3), lambda x: ops.pool_global(x, "max"), 45, distinct=True)),
        ("pool_channel_mean", lambda: _unary_case(
            (2, 3, 3, 4), lambda x: ops.pool_channel(x, "mean"), 46)),
        ("pool_channel_max", lambda: _unary_case(
            (2, 3, 3, 4), lambda x: ops.pool_channel(x, "max"), 47, distinct=True)),
        ("pool_channel_min", lambda: _unary_case(
            (2, 3, 3, 4), lambda x: ops.pool_channel(x, "min"), 48, distinct=True)),
        ("pool_channel_sum", lambda: _unary_case(
            (2, 3, 3, 4), lambda x: ops.pool_channel(x, "sum"), 49)),
        ("max_pool2d", lambda: _unary_case(
            (2, 4, 6, 3), lambda x: ops.max_pool2d(x, 2), 50, distinct=True)),
        ("avg_pool2d", lambda: _unary_case(
            (2, 4, 6, 3), lambda x: ops.avg_pool2d(x, 2), 51)),
        ("bilinear_upsample_x2", lambda: _case_bilinear(2)),
        ("bilinear_upsample_x3", lambda: _case_bilinear(3)),
        ("depth_to_space", lambda: _unary_case(
            (1, 3, 3, 8), lambda x: ops.depth_to_space(x, 2), 52)),
        ("space_to_depth", lambda: _unary_case(
            (1, 4, 6, 3), lambda x: ops.space_to_depth(x, 2), 53)),
        ("dense", _case_dense),
        ("matmul", _case_matmul),
        ("swap_last2", lambda: _unary_case((2, 3, 4), ops.swap_last2, 54)),
        ("add_broadcast", lambda: _case_add_mul("add")),
        ("mul_broadcast", lambda: _case_add_mul("mul")),
        ("scale", lambda: _unary_case((2, 3, 4), lambda x: ops.scale(x, 0.37), 55)),
        ("concat", _case_concat),
        ("reshape", lambda: _unary_case(
            (2, 3, 4), lambda x: ops.reshape(x, (2, 12)), 56)),
        ("reduce_sum", lambda: (_reduce_case(ops.reduce_sum, 57))),
        ("bce_loss", _case_bce),
    ]


def _reduce_case(op, seed):
    x = _t(_rng(seed).normal(size=(2, 3, 4)))
    return (lambda: op(x)), [x]


# ---------------------------------------------------------------------------
# block cases


def _block_case(make_block, in_shape, seed, *, two_inputs=False, cfg=None):
    cfg = cfg or BlockConfig()
    store = ParameterStore(seed, np.float64)
    block = make_block(store, cfg)
    rng = _rng(seed + 1)
    if two_inputs:
        skip = _t(rng.normal(size=in_shape[0]))
        up = _t(rng.normal(size=in_shape[1]))
        probe = {}

        def build():
            y = block(skip, up, True)
            if y.shape not in probe:
                probe[y.shape] = _probe_for(y.shape, seed + 2)
            return _probe_loss(y, probe[y.shape])

        tensors = [skip, up] + store.trainable_parameters()
    else:
        x = _t(rng.normal(size=in_shape))
        probe = {}

        def build():
            y = block(x, True)
            if y.shape not in probe:
                probe[y.shape] = _probe_for(y.shape, seed + 2)
            return _probe_loss(y, probe[y.shape])

        tensors = [x] + store.trainable_parameters()
    return build, tensors


def _case_head():
    store = ParameterStore(70, np.float64)
    head = SegmentationHead(store, "head", 5, BlockConfig())
    x = _t(_rng(71).normal(size=(1, 4, 4, 5)))
    probe = _probe_for((1, 8, 8, 1), 72)
    return (lambda: _probe_loss(head(x, (8, 8), True), probe)), \
        [x] + store.trainable_parameters()


def _case_decoder_stage():
    store = ParameterStore(73, np.float64)
    stage = DecoderStage(store, "d", 8, 6, 6, "dsub", 2, DecoderConfig(),
                         BlockConfig())
    rng = _rng(74)
    deeper = _t(rng.normal(size=(1, 4, 4, 8)))
    skip = _t(rng.normal(size=(1, 8, 8, 6)))
    probe = _probe_for((1, 8, 8, 6), 75)
    return (lambda: _probe_loss(stage(deeper, skip, True), probe)), \
        [deeper, skip] + store.trainable_parameters()


def _smooth_operating_point(store):
    """Move the whole net to a locally smooth operating point.

    Central differences need the loss smooth inside the eps window. In a
    deep net a single-coordinate wiggle shifts every downstream
    pre-activation, so at random parameter values some relu input always
    crosses zero and the numeric slope is contaminated. Kink handling is
    already verified per primitive at constructed inputs; the composite
    case verifies chain-rule plumbing, so its operating point is curated:
    batch-norm affine terms pin post-norm activations near +3, and raw
    convs that feed relus without an intervening norm get shrunk weights
    plus a positive bias.
    """
    rng = _rng(99)
    for p in store.parameters():
        name = p.name
        if name.endswith(".gamma"):
            p.data[...] = rng.uniform(0.05, 0.15, p.shape)
        elif name.endswith(".beta"):
            p.data[...] = rng.uniform(2.5, 3.5, p.shape)
        elif name.endswith((".expand.w", ".post.w", ".conv3.w", ".conv1.w")):
            p.data[...] *= 0.05
        elif name.endswith((".expand.b", ".post.b")):
            p.data[...] = 2.0 + rng.uniform(0.0, 0.5, p.shape)


def _case_micro_model():
    cfg = ModelConfig(
        encoder=EncoderConfig(stage_filters=(2, 4, 4, 4, 8, 8),
                              rsu_depths=(4, 4, 3, 3, 3, 3)),
        decoder=DecoderConfig(),
        block=BlockConfig(),
        seed=76)
    model = SegmentationModel(cfg, dtype=np.float64)
    _smooth_operating_point(model.store)
    rng = _rng(77)
    x = _t(rng.normal(size=(1, 32, 32, 3)) * 0.5 + 0.4)
    target = rng.integers(0, 2, size=(1, 32, 32, 1)).astype(np.float64)

    def build():
        out = model.forward(x, train=True)
        total, _ = model.loss(out, target)
        return total

    return build, [x] + model.store.trainable_parameters()


def block_cases(include_model: bool = True):
    cfg_small_cap = BlockConfig(attention_token_cap=16)
    cases = [
        ("conv_block", lambda: _block_case(
            lambda s, c: ConvBlock(s, "cb", 3, 5, c), (2, 4, 4, 3), 100)),
        ("dsub", lambda: _block_case(
            lambda s, c: DepthToSpaceUpsample(s, "dsub", 4, 3, c),
            (1, 3, 3, 4), 101)),
        ("eub", lambda: _block_case(
            lambda s, c: BilinearUpsampleBlock(s, "eub", 4, 3, c),
            (1, 3, 3, 4), 102)),
        ("convtp_upsample", lambda: _block_case(
            lambda s, c: TransposeConvUpsample(s, "tp", 4, 3, c),
            (1, 3, 3, 4), 103)),
        ("cam", lambda: _block_case(
            lambda s, c: ChannelAttention(s, "cam", 6, c), (2, 4, 4, 6), 104)),
        ("sam", lambda: _block_case(
            lambda s, c: SpatialAttention(s, "sam", c), (2, 5, 5, 3), 105)),
        ("casab", lambda: _block_case(
            lambda s, c: DualAttentionBlock(s, "casab", 4, 6, c),
            (1, 4, 4, 4), 106)),
        ("residual_chain", lambda: _block_case(
            lambda s, c: ResidualConvChain(s, "rb", 3, 2, c), (1, 4, 4, 3), 107)),
        ("attention_fusion", lambda: _block_case(
            lambda s, c: AttentionFusion(s, "rlab", 3, 4, 1, c),
            ((1, 4, 4, 3), (1, 4, 4, 4)), 108, two_inputs=True)),
        ("attention_fusion_capped", lambda: _block_case(
            lambda s, c: AttentionFusion(s, "rlabc", 2, 2, 1, c),
            ((1, 8, 8, 2), (1, 8, 8, 2)), 109, two_inputs=True,
            cfg=cfg_small_cap)),
        ("segmentation_head", _case_head),
        ("rsu_shallow", lambda: _block_case(
            lambda s, c: RSU(s, "rsu", 3, 6, 4, 3, dilated=False,
                             inner_attention=True, cfg=c), (1, 8, 8, 3), 110)),
        ("rsu_dilated", lambda: _block_case(
            lambda s, c: RSU(s, "rsud", 3, 4, 2, 3, dilated=True,
                             inner_attention=True, cfg=c), (1, 6, 6, 3), 111)),
        ("decoder_stage", _case_decoder_stage),
    ]
    if include_model:
        cases.append(("micro_model", _case_micro_model))
    return cases


def run_suite(include_model: bool = True, fault: bool = False,
              per_tensor: int = 6, model_coords: int = 24):
    """Check every primitive and block; returns a list of result dicts."""
    results = []
    first = True
    for name, case in primitive_cases():
        build, tensors = case()
        err = check_gradients(build, tensors, per_tensor=per_tensor,
                              corrupt=fault and first)
        results.append({"name": name, "kind": "primitive", "max_rel_err": err,
                        "tol": PRIMITIVE_TOL, "passed": err < PRIMITIVE_TOL})
        first = False
    for name, case in block_cases(include_model):
        build, tensors = case()
        budget = model_coords if name == "micro_model" else None
        err = check_gradients(build, tensors, per_tensor=per_tensor,
                              total_coords=budget)
        results.append({"name": name, "kind": "block", "max_rel_err": err,
                        "tol": BLOCK_TOL, "passed": err < BLOCK_TOL})
    return results
