"""Encoder pyramid structure and RSU behavior."""

import numpy as np
import pytest

from mcads import ops
from mcads.blocks import BlockConfig
from mcads.config import ConfigError, ModelConfig
from mcads.encoder import RSU, Encoder, EncoderConfig
from mcads.network import SegmentationModel
from mcads.params import ParameterStore
from mcads.tensor import Tensor

CFG = BlockConfig()


def t(shape, seed):
    return Tensor(np.random.default_rng(seed).normal(size=shape).astype(np.float32))


def small_config(**kw):
    base = dict(stage_filters=(4, 4, 8, 8, 8, 8), rsu_depths=(4, 4, 3, 3, 3, 3))
    base.update(kw)
    return EncoderConfig(**base)


def test_rsu_preserves_extent():
    store = ParameterStore(seed=0)
    rsu = RSU(store, "rsu", 3, 8, 4, 4, dilated=False, inner_attention=True,
              cfg=CFG)
    assert rsu(t((1, 16, 16, 3), 0), train=True).shape == (1, 16, 16, 8)


def test_rsu_dilated_preserves_extent():
    store = ParameterStore(seed=1)
    rsu = RSU(store, "rsu", 3, 8, 4, 4, dilated=True, inner_attention=True,
              cfg=CFG)
    assert rsu(t((1, 6, 6, 3), 1), train=True).shape == (1, 6, 6, 8)


def test_rsu_rejects_tiny_input():
    store = ParameterStore(seed=2)
    rsu = RSU(store, "rsu", 3, 8, 4, 5, dilated=False, inner_attention=False,
              cfg=CFG)
    # depth 5 pools three times; 12x12 halves to 6 then hits odd 3
    with pytest.raises(ValueError, match="not divisible by window 2"):
        rsu(t((1, 12, 12, 3), 2), train=True)


def test_rsu_rejects_depth_below_three():
    """The model entry rejects an RSU depth of 2 in any stage, naming the
    key, before it creates a parameter."""
    cfg = ModelConfig(encoder=small_config(rsu_depths=(4, 4, 3, 3, 3, 2)))
    with pytest.raises(ConfigError, match=r"'model\.encoder\.rsu_depths' "
                       r"entries must be at least 3, got \[4, 4, 3, 3, 3, 2\]"):
        SegmentationModel(cfg)


def test_rsu_outer_residual():
    # zeroing everything after convin leaves y = dec-chain(...) + convin(x);
    # checked indirectly: the output must differ from the dec chain alone by
    # exactly the convin activation, so zero all dec convs and compare.
    store = ParameterStore(seed=4)
    rsu = RSU(store, "rsu", 3, 6, 4, 3, dilated=False, inner_attention=False,
              cfg=CFG)
    x = t((1, 8, 8, 3), 3)
    y = rsu(x, train=False)
    x0 = rsu.convin(x, train=False)
    for name in store.names():
        if ".dec1." in name and name.endswith((".w", ".b")):
            store[name].data = np.zeros_like(store[name].data)
    y2 = rsu(x, train=False)
    # with the last dec conv zeroed, output collapses to relu(bn(0)) + x0
    bn = rsu.dec[-1].bn
    base = np.maximum(bn.beta.data, 0.0)
    np.testing.assert_allclose(y2.data, base + x0.data, rtol=1e-5, atol=1e-6)
    assert not np.allclose(y.data, y2.data)


def test_encoder_pyramid_shapes():
    store = ParameterStore(seed=5)
    enc = Encoder(store, small_config(), CFG)
    feats = enc(t((2, 64, 64, 3), 4), train=True)
    shapes = [f.shape for f in feats]
    assert shapes == [(2, 64, 64, 4), (2, 32, 32, 4), (2, 16, 16, 8),
                      (2, 8, 8, 8), (2, 4, 4, 8), (2, 2, 2, 8)]


def test_encoder_rejects_indivisible_extent():
    store = ParameterStore(seed=6)
    enc = Encoder(store, small_config(), CFG)
    with pytest.raises(ValueError, match="divisible by 32"):
        enc(t((1, 48, 48, 3), 5), train=True)


def test_encoder_rejects_wrong_channels():
    store = ParameterStore(seed=7)
    enc = Encoder(store, small_config(), CFG)
    with pytest.raises(ValueError, match="channels"):
        enc(t((1, 64, 64, 1), 6), train=True)


def test_encoder_toggles_change_registry():
    def count(**kw):
        store = ParameterStore(seed=0)
        Encoder(store, small_config(**kw), CFG)
        return store.count()

    full = count()
    assert count(inner_attention=False) < full
    assert count(casab_per_stage=False) < full
    names_plain = None
    store = ParameterStore(seed=0)
    Encoder(store, small_config(inner_attention=False, casab_per_stage=False),
            CFG)
    names_plain = store.names()
    assert not any(".att" in n or ".casab." in n for n in names_plain)


def test_encoder_full_width_registry():
    # full-size registry is constructable without a forward pass
    store = ParameterStore(seed=0)
    Encoder(store, EncoderConfig(), CFG)
    assert store.count() > 10_000_000
    assert "encoder.bridge.rsu.convin.conv.w" in store.names()


def test_encoder_needs_six_stages():
    """Both per-stage tuples need six entries; the model entry names the
    key whose length is wrong."""
    for key, value in (("stage_filters", (4, 4, 8)), ("rsu_depths", (3,) * 7)):
        cfg = ModelConfig(encoder=small_config(**{key: value}))
        with pytest.raises(ConfigError, match=rf"'model\.encoder\.{key}' "
                           rf"needs 6 values, got {len(value)}"):
            SegmentationModel(cfg)


def test_dilated_stages_skip_internal_pooling():
    # a 64x64 input reaches the bridge at 2x2; plain RSUs there would demand
    # more divisions than the extent allows, so depth-4 dilated must pass
    store = ParameterStore(seed=9)
    cfg = small_config(rsu_depths=(4, 4, 3, 3, 4, 4))
    enc = Encoder(store, cfg, CFG)
    feats = enc(t((1, 64, 64, 3), 7), train=True)
    assert feats[-1].shape == (1, 2, 2, 8)
