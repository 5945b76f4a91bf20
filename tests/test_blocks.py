"""Block-level invariants: gates, attention rows, shapes, parameter counts."""

import tracemalloc

import numpy as np
import pytest

from mcads import ops
from mcads.blocks import (AttentionFusion, BilinearUpsampleBlock, BlockConfig,
                          ChannelAttention, ConvBlock, DepthToSpaceUpsample,
                          DualAttentionBlock, ResidualConvChain,
                          SegmentationHead, SpatialAttention)
from mcads.ops import BN_EPS, LEAKY_SLOPE
from mcads.params import ParameterStore
from mcads.tensor import Tensor

CFG = BlockConfig()


def t(shape, seed, dtype=np.float32):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape).astype(dtype))


def zero(store, *names):
    for name in names:
        store[name].data = np.zeros_like(store[name].data)


def test_conv_block_parameter_count():
    store = ParameterStore(seed=0)
    ConvBlock(store, "cb", 16, 32, CFG)
    # depthwise 3x3x1x16 + bias + BN(16) + pointwise 1x1x16x32 + bias + BN(32)
    assert store.count("cb.") == 144 + 16 + 32 + 512 + 32 + 64 == 800
    assert store.count("cb.", trainable_only=False) - store.count("cb.") == 96


def test_conv_block_shape():
    store = ParameterStore(seed=1)
    cb = ConvBlock(store, "cb", 3, 7, CFG)
    assert cb(t((2, 5, 6, 3), 10), train=True).shape == (2, 5, 6, 7)


def test_eval_conv_block_writes_one_map_per_conv():
    """An eval CB call's numpy allocations peak at about one map per conv:
    each batch norm and LeakyReLU run in place in their conv's output. At
    the peak, the depthwise conv's output sits beside its padded input
    canvas (1.06 maps here) and its tap scratch; the two-op chains peaked
    at 3.25 maps."""
    store = ParameterStore(seed=0)
    cb = ConvBlock(store, "cb", 32, 32, CFG)
    x = t((4, 64, 64, 32), 12)
    want = cb(x, train=False).data  # draws the weights and starts the thread pool
    tracemalloc.start()
    try:
        y = cb(x, train=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.data.tobytes() == want.tobytes()
    assert peak <= 2.5 * x.data.nbytes, peak / x.data.nbytes


def test_channel_attention_gate_range_and_shape():
    store = ParameterStore(seed=2)
    cam = ChannelAttention(store, "cam", 12, CFG)
    x = t((2, 6, 6, 12), 11)
    y = cam(x, train=True)
    assert y.shape == (2, 6, 6, 12)
    gate = cam.gate(x).data
    assert np.all(gate > 0) and np.all(gate < 1)


def test_channel_attention_zero_fc_halves_input():
    store = ParameterStore(seed=3)
    cam = ChannelAttention(store, "cam", 8, CFG)
    zero(store, "cam.fc1.w", "cam.fc1.b", "cam.fc2.w", "cam.fc2.b")
    x = t((1, 4, 4, 8), 12)
    y = cam(x, train=True)
    np.testing.assert_allclose(y.data, 0.5 * x.data, rtol=1e-6)


def test_spatial_attention_gate_range():
    store = ParameterStore(seed=4)
    sam = SpatialAttention(store, "sam", CFG)
    x = t((2, 7, 7, 5), 13)
    y = sam(x, train=True)
    assert y.shape == (2, 7, 7, 5)
    gate = sam.gate(x).data
    assert np.all(gate > 0) and np.all(gate < 1)
    assert gate.shape == (2, 7, 7, 1)  # one gate per pixel


def test_spatial_attention_zero_collapse_halves_input():
    store = ParameterStore(seed=5)
    sam = SpatialAttention(store, "sam", CFG)
    zero(store, "sam.pwc.w", "sam.pwc.b")
    x = t((1, 5, 5, 3), 14)
    np.testing.assert_allclose(sam(x, train=True).data, 0.5 * x.data, rtol=1e-6)


def test_dual_attention_zeroed_gates_reduce_to_refined_map():
    # with both gates pinned at 0.5 the two branches sum back to the CB output
    store = ParameterStore(seed=6)
    casab = DualAttentionBlock(store, "casab", 5, 9, CFG)
    zero(store, "casab.cam.fc1.w", "casab.cam.fc1.b",
         "casab.cam.fc2.w", "casab.cam.fc2.b",
         "casab.sam.pwc.w", "casab.sam.pwc.b")
    x = t((2, 4, 4, 5), 15)
    y = casab(x, train=True)
    refined = casab.refine(x, train=True)
    np.testing.assert_allclose(y.data, refined.data, rtol=1e-5)


def test_residual_chain_zero_convs_is_norm_of_activation():
    store = ParameterStore(seed=7)
    rb = ResidualConvChain(store, "rb", 6, 1, CFG)
    zero(store, "rb.rb1.conv3.w", "rb.rb1.conv3.b",
         "rb.rb1.conv1.w", "rb.rb1.conv1.b")
    x = t((1, 4, 4, 6), 16)
    y = rb(x, train=False)  # running stats are identity (mean 0, var 1)
    expected = np.where(x.data > 0, x.data, LEAKY_SLOPE * x.data)
    expected = expected / np.sqrt(1.0 + BN_EPS)
    np.testing.assert_allclose(y.data, expected, rtol=1e-5, atol=1e-7)


def test_residual_chain_parameters_independent_per_iteration():
    store = ParameterStore(seed=8)
    ResidualConvChain(store, "rb", 4, 3, CFG)
    per_iter = store.count("rb.rb1.")
    assert per_iter > 0
    assert store.count("rb.") == 3 * per_iter
    assert not np.array_equal(store["rb.rb1.conv3.w"].data,
                              store["rb.rb2.conv3.w"].data)


def test_attention_fusion_rows_sum_to_one():
    store = ParameterStore(seed=9)
    rlab = AttentionFusion(store, "rlab", 3, 4, 2, CFG)
    skip, up = t((2, 5, 5, 3), 17), t((2, 5, 5, 4), 18)
    y = rlab(skip, up, train=True)
    assert y.shape == (2, 5, 5, 7)
    xbar = ops.concat((rlab.chain(skip, train=True), up), axis=3)
    att, _ = rlab.attend(xbar, train=True)
    rows = att.data.sum(axis=-1)
    np.testing.assert_allclose(rows, np.ones_like(rows), atol=1e-6)


def test_attention_fusion_zero_values_passes_fused_map_through():
    store = ParameterStore(seed=10)
    rlab = AttentionFusion(store, "rlab", 3, 4, 1, CFG)
    zero(store, "rlab.v.w", "rlab.v.b")
    skip, up = t((1, 4, 4, 3), 19), t((1, 4, 4, 4), 20)
    y = rlab(skip, up, train=True)
    xbar = ops.concat((rlab.chain(skip, train=True), up), axis=3)
    np.testing.assert_array_equal(y.data, xbar.data)


def test_attention_fusion_token_cap_pools_tokens():
    cfg = BlockConfig(attention_token_cap=16)
    store = ParameterStore(seed=11)
    rlab = AttentionFusion(store, "rlab", 2, 2, 1, cfg)
    skip, up = t((1, 8, 8, 2), 21), t((1, 8, 8, 2), 22)
    y = rlab(skip, up, train=True)
    assert y.shape == (1, 8, 8, 4)
    xbar = ops.concat((rlab.chain(skip, train=True), up), axis=3)
    att, _ = rlab.attend(xbar, train=True)
    assert att.shape == (1, 16, 16)  # 64 tokens pooled 2x2
    rows = att.data.sum(axis=-1)
    np.testing.assert_allclose(rows, np.ones_like(rows), atol=1e-6)


def test_attention_fusion_cap_needs_divisible_extents():
    cfg = BlockConfig(attention_token_cap=4)
    store = ParameterStore(seed=12)
    rlab = AttentionFusion(store, "rlab", 2, 2, 1, cfg)
    with pytest.raises(ValueError, match="token cap"):
        rlab(t((1, 6, 6, 2), 23), t((1, 6, 6, 2), 24), train=True)


def test_attention_fusion_extent_mismatch():
    store = ParameterStore(seed=13)
    rlab = AttentionFusion(store, "rlab", 2, 2, 1, CFG)
    with pytest.raises(ValueError, match="extent"):
        rlab(t((1, 4, 4, 2), 25), t((1, 8, 8, 2), 26), train=True)


def test_depth_to_space_upsample_shapes_and_params():
    store = ParameterStore(seed=15)
    dsub = DepthToSpaceUpsample(store, "dsub", 6, 4, CFG)
    y = dsub(t((2, 3, 5, 6), 27), train=True)
    assert y.shape == (2, 6, 10, 4)
    assert store["dsub.expand.w"].shape == (3, 3, 6, 24)  # 4x channel expansion


def test_bilinear_upsample_block_shape():
    store = ParameterStore(seed=16)
    eub = BilinearUpsampleBlock(store, "eub", 6, 4, CFG)
    assert eub(t((2, 3, 5, 6), 28), train=True).shape == (2, 6, 10, 4)


def test_eub_cheaper_than_dsub():
    a = ParameterStore(seed=0)
    DepthToSpaceUpsample(a, "u", 32, 32, CFG)
    b = ParameterStore(seed=0)
    BilinearUpsampleBlock(b, "u", 32, 32, CFG)
    assert b.count("u.") < a.count("u.")


def test_segmentation_head_range_and_shape():
    store = ParameterStore(seed=18)
    head = SegmentationHead(store, "head", 9, CFG)
    y = head(t((2, 8, 8, 9), 30), (64, 64), train=False)
    assert y.shape == (2, 64, 64, 1)
    assert np.all(y.data > 0) and np.all(y.data < 1)


def test_segmentation_head_zero_weights_give_half():
    store = ParameterStore(seed=19)
    head = SegmentationHead(store, "head", 4, CFG)
    zero(store, "head.conv.w", "head.conv.b")
    y = head(t((1, 4, 4, 4), 31), (16, 16), train=False)
    np.testing.assert_allclose(y.data, np.full((1, 16, 16, 1), 0.5), atol=1e-7)


def test_segmentation_head_rejects_fractional_factor():
    store = ParameterStore(seed=20)
    head = SegmentationHead(store, "head", 4, CFG)
    with pytest.raises(ValueError, match="integer factor"):
        head(t((1, 5, 5, 4), 32), (64, 64), train=False)
