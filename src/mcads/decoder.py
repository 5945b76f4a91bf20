"""Decoder: five fusion stages, each upsampling the deeper feature,
attention-fusing it with the matching encoder skip, and refining with a
DualAttentionBlock. Six sigmoid heads (bridge + five decoder stages) emit
probability maps bilinearly restored to the input resolution; training
supervises all six, and the shallowest (d1) is the model's final output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import ops
from .blocks import (AttentionFusion, BlockConfig, ConvBlock, DualAttentionBlock,
                     SegmentationHead, UPSAMPLERS)
from .encoder import EncoderConfig

# Decoder stages ordered deep to shallow: the key names the encoder level
# whose feature the stage upsamples.
STAGE_KEYS = ("bridge", "s4", "s3", "s2", "s1")
HEAD_ORDER = ("b1", "d5", "d4", "d3", "d2", "d1")


@dataclass
class DecoderConfig:
    upsampler: dict = field(default_factory=lambda: {
        "bridge": "dsub", "s4": "dsub", "s3": "eub", "s2": "eub", "s1": "eub"})
    rlab_iterations: tuple = (5, 4, 3, 2, 1)  # d5 .. d1
    enable_upsampler: bool = True
    enable_rlab: bool = True
    enable_casab: bool = True

    def kinds(self):
        unknown = set(self.upsampler) - set(STAGE_KEYS)
        if unknown:
            raise ValueError(f"unknown upsampler stage keys {sorted(unknown)}")
        missing = set(STAGE_KEYS) - set(self.upsampler)
        if missing:
            raise ValueError(f"upsampler map missing stages {sorted(missing)}")
        for key, kind in self.upsampler.items():
            if kind not in UPSAMPLERS:
                raise ValueError(f"unknown upsampler kind {kind!r} at {key!r}")
        return [self.upsampler[k] for k in STAGE_KEYS]


class DecoderStage:
    """upsample(deeper) -> fuse with skip -> refine to the skip's width."""

    def __init__(self, store, prefix, deeper_c, skip_c, kind, iterations,
                 dec_cfg: DecoderConfig, cfg: BlockConfig):
        if dec_cfg.enable_upsampler:
            self.up = UPSAMPLERS[kind](store, f"{prefix}.up.{kind}",
                                       deeper_c, skip_c, cfg)
            up_c = skip_c
        else:
            self.up = None  # parameter-free bilinear, channels untouched
            up_c = deeper_c
        fused_c = skip_c + up_c
        if dec_cfg.enable_rlab:
            self.fuse = AttentionFusion(store, f"{prefix}.rlab", skip_c, up_c,
                                        iterations, cfg)
        else:
            self.fuse = None
        if dec_cfg.enable_casab:
            self.post = DualAttentionBlock(store, f"{prefix}.casab",
                                           fused_c, skip_c, cfg)
        else:
            self.post = ConvBlock(store, f"{prefix}.refine", fused_c, skip_c, cfg)

    def __call__(self, deeper, skip, train):
        up = self.up(deeper, train) if self.up is not None \
            else ops.bilinear_upsample(deeper, 2)
        if self.fuse is not None:
            y = self.fuse(skip, up, train)
        else:
            y = ops.concat((skip, up), axis=3)
        return self.post(y, train)


class SegmentationOutput:
    """The six probability maps, all at input resolution; d1 is final."""

    def __init__(self, maps: dict):
        self.maps = maps

    @property
    def final(self):
        return self.maps["d1"]

    def ordered(self):
        return [(k, self.maps[k]) for k in HEAD_ORDER]


class Decoder:
    def __init__(self, store, enc_cfg: EncoderConfig, dec_cfg: DecoderConfig,
                 cfg: BlockConfig):
        # Widths deep to shallow: the bridge, then the skips s5 .. s1. Stage
        # d(5 - i) maps width i to its skip's width i + 1 whatever the
        # toggles, so the ablated variants only change widths inside a stage.
        widths = tuple(enc_cfg.stage_filters)[::-1]
        stages = zip(widths[:-1], widths[1:], dec_cfg.kinds(), dec_cfg.rlab_iterations,
                     strict=True)
        self.stages = [DecoderStage(store, f"decoder.d{5 - i}", *stage, dec_cfg, cfg)
                       for i, stage in enumerate(stages)]
        self.heads = {name: SegmentationHead(store, f"decoder.head_{name}", c, cfg)
                      for name, c in zip(HEAD_ORDER, widths)}

    def __call__(self, feats, train):
        *skips, cur = feats  # s1 .. s5, bridge
        target_hw = skips[0].shape[1:3]
        outs = [cur]
        for stage, skip in zip(self.stages, reversed(skips)):
            cur = stage(cur, skip, train)
            outs.append(cur)
        return SegmentationOutput({name: self.heads[name](y, target_hw, train)
                                   for name, y in zip(HEAD_ORDER, outs)})


def supervision_loss(output: SegmentationOutput, target):
    """Unweighted sum of the six per-head BCE losses against one target.

    Returns (total, per_head) where per_head holds plain floats for logging.
    """
    parts = {}
    total = None
    for name, pred in output.ordered():
        term = ops.bce_loss(pred, target)
        parts[name] = term.item()
        total = term if total is None else ops.add(total, term)
    return total, parts
