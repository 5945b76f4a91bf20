"""Decoder outputs, the deep-supervision loss, and ablation wiring."""

import numpy as np
import pytest

from mcads.blocks import BlockConfig
from mcads.config import ConfigError
from mcads.decoder import HEAD_ORDER, DecoderConfig
from mcads.network import ModelConfig, SegmentationModel
from mcads.encoder import EncoderConfig
from mcads.tensor import Tape, Tensor, backward


def small_model(decoder=None, seed=0, **block_kw):
    cfg = ModelConfig(
        encoder=EncoderConfig(stage_filters=(4, 4, 8, 8, 8, 8),
                              rsu_depths=(4, 4, 3, 3, 3, 3)),
        decoder=decoder or DecoderConfig(),
        block=BlockConfig(**block_kw),
        seed=seed)
    return SegmentationModel(cfg)


def image_batch(n=1, hw=64, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, size=(n, hw, hw, 3)).astype(np.float32)


def test_six_heads_full_resolution_open_interval():
    model = small_model()
    out = model.forward(image_batch(2), train=False)
    assert [k for k, _ in out.ordered()] == list(HEAD_ORDER)
    for _, pred in out.ordered():
        assert pred.shape == (2, 64, 64, 1)
        assert np.all(pred.data > 0) and np.all(pred.data < 1)
    assert out.final is out.maps["d1"]


def test_uniform_half_maps_hit_analytic_loss():
    model = small_model()
    # zero every head conv so each map is exactly sigmoid(0) = 0.5
    for name in model.store.names():
        if ".head_" in name:
            model.store[name].data = np.zeros_like(model.store[name].data)
    masks = (np.random.default_rng(1).uniform(size=(1, 64, 64, 1)) > 0.7)
    out = model.forward(image_batch(), train=False)
    total, parts = model.loss(out, masks.astype(np.float32))
    assert abs(total.item() - 6.0 * np.log(2.0)) < 1e-6
    for v in parts.values():
        assert abs(v - np.log(2.0)) < 1e-6


def test_per_head_loss_prefers_matching_target():
    from mcads import ops
    model = small_model()
    out = model.forward(image_batch(), train=False)
    for _, pred in out.ordered():
        hard = Tensor((pred.data >= 0.5).astype(np.float32))
        flipped = Tensor(1.0 - hard.data)
        assert ops.bce_loss(pred, hard).item() < ops.bce_loss(pred, flipped).item()


def test_loss_backward_reaches_all_trainables():
    model = small_model()
    masks = (image_batch(seed=2)[..., :1] > 0.5).astype(np.float32)
    with Tape() as tape:
        out = model.forward(image_batch(), train=True)
        total, _ = model.loss(out, masks)
        backward(tape, total)
    missing = [p.name for p in model.store.trainable_parameters()
               if p.grad is None]
    assert missing == []


def _model_objects(root):
    """Every mcads object with attributes reachable from `root`: the model,
    its encoder and decoder, every block, configs and the store."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__.startswith("mcads.") and hasattr(obj, "__dict__"):
            found.append(obj)
            stack.extend(vars(obj).values())
    return found


def test_forward_leaves_blocks_unchanged():
    # blocks are pure functions of (input, train flag): a forward pass may
    # update parameter arrays (BN running stats) but binds no attribute
    model = small_model()
    objects = _model_objects(model)
    assert any(type(o).__name__ == "AttentionFusion" for o in objects)
    for train in (True, False):
        before = [dict(vars(o)) for o in objects]
        model.forward(image_batch(), train=train)
        for obj, attrs in zip(objects, before):
            now = vars(obj)
            assert now.keys() == attrs.keys(), type(obj).__name__
            changed = [k for k, v in attrs.items() if now[k] is not v]
            assert changed == [], (type(obj).__name__, changed)


def test_upsampler_map_validation():
    """The per-stage kinds, d5 .. d1, need one entry per stage and a known
    kind at each; the model entry names the key."""
    for kinds in (("dsub",), ("dsub",) * 6):
        with pytest.raises(ConfigError, match=r"'model\.decoder\.upsampler' "
                           rf"needs 5 values, got {len(kinds)}"):
            small_model(decoder=DecoderConfig(upsampler=kinds))
    bad = ["nearest", "dsub", "eub", "eub", "eub"]
    entries = r"'model\.decoder\.upsampler' entries must be one of dsub, eub"
    with pytest.raises(ConfigError, match=entries + r', got \["nearest"'):
        small_model(decoder=DecoderConfig(upsampler=tuple(bad)))
    # the parameter-free bilinear is an ablation fallback, not a named kind,
    # and a kind is checked even when the learned upsamplers are off
    bad[0] = "bilinear"
    with pytest.raises(ConfigError, match=entries + r', got \["bilinear"'):
        small_model(decoder=DecoderConfig(upsampler=tuple(bad),
                                          enable_upsampler=False))


def count_params(decoder_cfg):
    model = small_model(decoder=decoder_cfg)
    return model.store.count()


def test_ablation_toggles_strictly_add_parameters():
    base = DecoderConfig(enable_upsampler=False, enable_rlab=False,
                         enable_casab=False)
    plus_up = DecoderConfig(enable_rlab=False, enable_casab=False)
    plus_rlab = DecoderConfig(enable_casab=False)
    full = DecoderConfig()
    counts = [count_params(c) for c in (base, plus_up, plus_rlab, full)]
    assert counts == sorted(counts)
    assert len(set(counts)) == 4


def test_ablated_model_still_runs():
    cfg = DecoderConfig(enable_upsampler=False, enable_rlab=False,
                        enable_casab=False)
    model = small_model(decoder=cfg)
    out = model.forward(image_batch(hw=32), train=True)
    for _, pred in out.ordered():
        assert pred.shape == (1, 32, 32, 1)


def test_rlab_iteration_schedule_names():
    model = small_model()
    names = model.store.names()
    # d5 runs five chained residual iterations, d1 only one
    assert "decoder.d5.rlab.rb5.conv3.w" in names
    assert "decoder.d1.rlab.rb1.conv3.w" in names
    assert "decoder.d1.rlab.rb2.conv3.w" not in names


def test_seed_changes_weights_not_structure():
    a, b = small_model(seed=0), small_model(seed=1)
    assert a.store.names() == b.store.names()
    w = "decoder.d1.rlab.q.w"
    assert not np.array_equal(a.store[w].data, b.store[w].data)
