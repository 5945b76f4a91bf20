"""Finite-difference verification of analytic gradients.

check_gradients() runs one taped backward pass, then re-evaluates the loss
with per-coordinate central differences (f64, eps=1e-4) on a sampled subset
of coordinates per tensor, and reports the worst relative error
|a - n| / max(|a|, |n|, 1e-4); the floor keeps roundoff-scale coordinates
from dominating. Inputs for kinked ops (relu family, max pools) are
constructed away from their non-smooth points.

run_suite() covers every primitive op and every architecture block, ending
with a micro-scale full model.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from . import ops
from .blocks import (AttentionFusion, BlockConfig, BilinearUpsampleBlock,
                     ChannelAttention, ConvBlock, DepthToSpaceUpsample,
                     DualAttentionBlock, ResidualConvChain, SegmentationHead,
                     SpatialAttention)
from .decoder import DecoderConfig, DecoderStage
from .encoder import EncoderConfig, RSU
from .network import ModelConfig, SegmentationModel
from .params import ParameterStore
from .tensor import Tape, Tensor, backward

EPS = 1e-4
PER_TENSOR = 6  # sampled coordinates per tensor
MODEL_COORDS = 24  # size-weighted coordinates across the micro model
PRIMITIVE_TOL = 1e-5
BLOCK_TOL = 1e-4
_ERR_FLOOR = 1e-4


def check_gradients(build, tensors, total_coords: int | None = None) -> float:
    """Worst sampled relative error between taped and numeric gradients.

    `build` must recompute the scalar loss from the current tensor contents
    on every call. With `total_coords`, coordinates are drawn size-weighted
    across all tensors (whole-model mode); otherwise up to PER_TENSOR per
    tensor. The draw is seeded, so a check is repeatable.
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

    rng = np.random.default_rng(0)
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
            if t.size <= PER_TENSOR:
                coords.extend((ti, i) for i in range(t.size))
            else:
                picks = rng.choice(t.size, size=PER_TENSOR, replace=False)
                coords.extend((ti, int(i)) for i in picks)

    worst = 0.0
    for ti, idx in coords:
        flat = tensors[ti].data.reshape(-1)
        orig = flat[idx]
        flat[idx] = orig + EPS
        f_plus = float(build().data)
        flat[idx] = orig - EPS
        f_minus = float(build().data)
        flat[idx] = orig
        numeric = (f_plus - f_minus) / (2.0 * EPS)
        a = analytic[ti][idx]
        err = abs(a - numeric) / max(abs(a), abs(numeric), _ERR_FLOOR)
        worst = max(worst, err)
    return worst


def _rng(seed):
    return np.random.default_rng(seed)


def _t(arr):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


# Input draws: each maps a generator to an array (a differentiable input)
# or to a Tensor (a constant input such as running stats or a target).

def _normal(*shape, scale=1.0):
    return lambda rng: rng.normal(size=shape) * scale


def _signed(*shape):
    """Values bounded away from zero: safe for relu-family kinks."""
    def draw(rng):
        mag = rng.uniform(0.1, 1.2, size=shape)
        return mag * rng.choice([-1.0, 1.0], size=shape)
    return draw


def _mirrored(*shape):
    """_signed values for the first half of axis 0 and their negations for
    the second: every channel's batch mean is 0, so batch norm keeps each
    value's distance from zero."""
    half = _signed(shape[0] // 2, *shape[1:])

    def draw(rng):
        h = half(rng)
        return np.concatenate([h, -h])
    return draw


def _distinct(*shape):
    """All-distinct values: safe for max/min pooling argmax routing."""
    def draw(rng):
        n = int(np.prod(shape))
        vals = rng.permutation(n).astype(np.float64) / n + rng.uniform(0, 1e-4)
        return vals.reshape(shape)
    return draw


def _fixed(draw):
    return lambda rng: Tensor(draw(rng), dtype=np.float64)


def _probed(forward, seed):
    """Loss builder: the output of forward() dotted with a fixed normal
    probe drawn from `seed`; an output that is already a scalar loss is
    returned as is."""
    probe = []

    def build():
        y = forward()
        if y.ndim == 0:
            return y
        if not probe:
            probe.append(Tensor(_rng(seed).normal(size=y.shape), dtype=np.float64))
        return ops.reduce_sum(ops.mul(y, probe[0]))

    return build


def _op_case(seed, op, *draws):
    """op over inputs drawn in order from default_rng(seed), probed with
    seed + 1; returns (build, differentiable inputs)."""
    rng = _rng(seed)
    inputs = [draw(rng) for draw in draws]
    inputs = [x if isinstance(x, Tensor) else _t(x) for x in inputs]
    return (_probed(lambda: op(*inputs), seed + 1),
            [x for x in inputs if x.requires_grad])


def _conv_bn(x, w, b, gamma, beta, mean, var, *, groups, act):
    return ops.conv2d(x, w, b, groups=groups, bn=(gamma, beta, mean, var), act=act)


def primitive_cases():
    """(name, case constructor) for every differentiable primitive."""
    x = _normal(2, 4, 4, 3)
    xs = _signed(2, 4, 4, 3)
    bn = (lambda rng: rng.normal(size=(2, 4, 4, 3)) * 2.0 + 0.5,
          lambda rng: rng.uniform(0.5, 1.5, size=(3,)), _normal(3, scale=0.3),
          _fixed(_normal(3, scale=0.2)),
          _fixed(lambda rng: rng.uniform(0.5, 2.0, size=(3,))))
    # BN outputs at least ~0.05 from the activation's kink: beta is small
    # against gamma times the normalized magnitudes, 0.1 and up
    bn_act = (_mirrored(2, 4, 4, 3), lambda rng: rng.uniform(0.5, 1.5, size=(3,)),
              lambda rng: rng.uniform(-0.02, 0.02, size=(3,)),
              _fixed(lambda rng: np.zeros(3)),
              _fixed(lambda rng: rng.uniform(0.5, 2.0, size=(3,))))
    # conv2d(bn=, act=) under a tape, which records the conv -> batch_norm
    # chain: a beta of either sign, beyond gamma times the normalized conv
    # outputs, keeps each channel on one side of the activation's kink
    conv_bn = (_normal(2, 5, 5, 4), _normal(4, scale=0.2),
               lambda rng: rng.uniform(0.05, 0.15, size=(4,)),
               lambda rng: rng.uniform(2.5, 3.5, size=(4,)) * rng.choice([-1.0, 1.0], size=4),
               _fixed(_normal(4, scale=0.2)),
               _fixed(lambda rng: rng.uniform(0.5, 2.0, size=(4,))))
    broadcast = (_normal(2, 3, 4, 5), _normal(2, 1, 1, 5), _normal(2, 3, 4, 1))
    rows = [
        ("conv2d", 10, ops.conv2d, _normal(2, 5, 5, 3),
         _normal(3, 3, 3, 4, scale=0.5), _normal(4, scale=0.2)),
        ("conv2d_dilated", 14, partial(ops.conv2d, dilation=2),
         _normal(1, 8, 8, 2), _normal(3, 3, 2, 2, scale=0.5),
         _normal(2, scale=0.2)),
        ("conv2d_depthwise", 16, partial(ops.conv2d, groups=4),
         _normal(2, 5, 5, 4), _normal(3, 3, 1, 4, scale=0.5),
         _normal(4, scale=0.2)),
        ("batch_norm_train", 22, partial(ops.batch_norm, train=True), *bn),
        ("batch_norm_infer", 22, partial(ops.batch_norm, train=False), *bn),
        *((f"batch_norm_{mode}_{act}", 23, partial(ops.batch_norm, train=train, act=act),
           *bn_act)
          for mode, train in (("train", True), ("infer", False))
          for act in ("relu", "leaky_relu")),
        *((f"conv2d{kind}_bn_infer_{act}", seed, partial(_conv_bn, groups=groups, act=act),
           conv_bn[0], _normal(k, k, cg, 4, scale=0.3), *conv_bn[1:])
          for kind, seed, k, cg, groups in (("", 18, 3, 4, 1), ("_1x1", 19, 1, 4, 1),
                                            ("_depthwise", 20, 3, 1, 4))
          for act in ("relu", "leaky_relu")),
        ("relu", 40, ops.relu, xs),
        ("leaky_relu", 41, ops.leaky_relu, xs),
        ("sigmoid", 42, ops.sigmoid, x),
        ("swish", 43, ops.swish, x),
        ("softmax", 24, ops.softmax, _normal(3, 6, scale=2.0)),
        ("pool_global_avg", 44, partial(ops.pool_global, kind="avg"), x),
        ("pool_global_max", 45, partial(ops.pool_global, kind="max"),
         _distinct(2, 4, 4, 3)),
        ("pool_channel_mean", 46, partial(ops.pool_channel, kind="mean"),
         _normal(2, 3, 3, 4)),
        ("pool_channel_max", 47, partial(ops.pool_channel, kind="max"),
         _distinct(2, 3, 3, 4)),
        ("pool_channel_min", 48, partial(ops.pool_channel, kind="min"),
         _distinct(2, 3, 3, 4)),
        ("pool_channel_sum", 49, partial(ops.pool_channel, kind="sum"),
         _normal(2, 3, 3, 4)),
        ("max_pool2d", 50, ops.max_pool2d, _distinct(2, 4, 6, 3)),
        ("avg_pool2d", 51, partial(ops.avg_pool2d, factor=2), _normal(2, 4, 6, 3)),
        ("bilinear_upsample_x2", 28, partial(ops.bilinear_upsample, factor=2),
         _normal(2, 3, 4, 3)),
        ("bilinear_upsample_x3", 29, partial(ops.bilinear_upsample, factor=3),
         _normal(2, 3, 4, 3)),
        ("depth_to_space", 52, ops.depth_to_space, _normal(1, 3, 3, 8)),
        ("space_to_depth", 53, ops.space_to_depth, _normal(1, 4, 6, 3)),
        ("dense", 30, ops.dense, _normal(2, 3, 5), _normal(5, 4, scale=0.5),
         _normal(4, scale=0.2)),
        ("matmul", 32, ops.matmul, _normal(2, 3, 4), _normal(2, 4, 5)),
        ("swap_last2", 54, ops.swap_last2, _normal(2, 3, 4)),
        ("add_broadcast", 34, lambda a, b, c: ops.add(ops.add(a, b), c),
         *broadcast),
        ("mul_broadcast", 34, lambda a, b, c: ops.mul(ops.mul(a, b), c),
         *broadcast),
        ("scale", 55, partial(ops.scale, s=0.37), _normal(2, 3, 4)),
        ("concat", 36, lambda a, b: ops.concat((a, b), axis=3),
         _normal(1, 3, 3, 2), _normal(1, 3, 3, 4)),
        ("reshape", 56, partial(ops.reshape, shape=(2, 12)), _normal(2, 3, 4)),
        ("reduce_sum", 57, ops.reduce_sum, _normal(2, 3, 4)),
        ("bce_loss", 38, ops.bce_loss,
         lambda rng: rng.uniform(0.05, 0.95, size=(2, 4, 4, 1)),
         _fixed(lambda rng: rng.integers(0, 2, size=(2, 4, 4, 1)))),
    ]
    return [(name, partial(_op_case, seed, op, *draws))
            for name, seed, op, *draws in rows]


# ---------------------------------------------------------------------------
# block cases


def _block_case(seed, make, ctor, shapes, args=(), cfg=None):
    """make(store, *ctor, cfg=cfg) with the store seeded by `seed`, one
    normal input per shape from seed + 1, output probed with seed + 2."""
    store = ParameterStore(seed, np.float64)
    block = make(store, *ctor, cfg=cfg or BlockConfig())
    rng = _rng(seed + 1)
    inputs = [_t(rng.normal(size=shape)) for shape in shapes]
    build = _probed(lambda: block(*inputs, *args, True), seed + 2)
    return build, inputs + store.trainable_parameters()


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
    cfg = ModelConfig(encoder=EncoderConfig(stage_filters=(2, 4, 4, 4, 8, 8),
                                            rsu_depths=(4, 4, 3, 3, 3, 3)),
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
    """(name, case constructor) for every block, then the micro model."""
    rsu = partial(RSU, inner_attention=True)
    # name, seed, block, its arguments after the store, input shapes and,
    # optionally, extra call arguments and a BlockConfig
    rows = [
        ("conv_block", 100, ConvBlock, ("cb", 3, 5), [(2, 4, 4, 3)]),
        ("dsub", 101, DepthToSpaceUpsample, ("dsub", 4, 3), [(1, 3, 3, 4)]),
        ("eub", 102, BilinearUpsampleBlock, ("eub", 4, 3), [(1, 3, 3, 4)]),
        ("cam", 104, ChannelAttention, ("cam", 6), [(2, 4, 4, 6)]),
        ("sam", 105, SpatialAttention, ("sam",), [(2, 5, 5, 3)]),
        ("casab", 106, DualAttentionBlock, ("casab", 4, 6), [(1, 4, 4, 4)]),
        ("residual_chain", 107, ResidualConvChain, ("rb", 3, 2), [(1, 4, 4, 3)]),
        ("attention_fusion", 108, AttentionFusion, ("rlab", 3, 4, 1),
         [(1, 4, 4, 3), (1, 4, 4, 4)]),
        ("attention_fusion_capped", 109, AttentionFusion, ("rlabc", 2, 2, 1),
         [(1, 8, 8, 2)] * 2, (), BlockConfig(attention_token_cap=16)),
        ("segmentation_head", 70, SegmentationHead, ("head", 5), [(1, 4, 4, 5)],
         ((8, 8),)),
        ("rsu_shallow", 110, partial(rsu, dilated=False), ("rsu", 3, 6, 4, 3),
         [(1, 8, 8, 3)]),
        ("rsu_dilated", 111, partial(rsu, dilated=True), ("rsud", 3, 4, 2, 3),
         [(1, 6, 6, 3)]),
        ("decoder_stage", 73, DecoderStage, ("d", 8, 6, "dsub", 2, DecoderConfig()),
         [(1, 4, 4, 8), (1, 8, 8, 6)]),
    ]
    cases = [(name, partial(_block_case, *row)) for name, *row in rows]
    if include_model:
        cases.append(("micro_model", _case_micro_model))
    return cases


def run_suite(include_model: bool = True):
    """Check every primitive and block; returns a list of result dicts."""
    results = []
    for kind, tol, cases in (("primitive", PRIMITIVE_TOL, primitive_cases()),
                             ("block", BLOCK_TOL, block_cases(include_model))):
        for name, case in cases:
            build, tensors = case()
            err = check_gradients(build, tensors,
                                  MODEL_COORDS if name == "micro_model" else None)
            results.append({"name": name, "kind": kind, "max_rel_err": err,
                            "tol": tol, "passed": err < tol})
    return results
