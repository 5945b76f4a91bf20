"""Six-stage encoder built from residual U-shaped (RSU) blocks.

Each stage is an RSU of configurable internal depth: an inner encoder-decoder
over 3x3 conv+BN+ReLU units with an outer residual. The last two stages use
the dilated variant, which trades pooling for growing dilation so the bridge
keeps its spatial extent. Skip junctions inside every RSU optionally fuse
through a one-iteration AttentionFusion instead of plain concat, and each
stage output optionally passes a DualAttentionBlock before the 2x2 max-pool
handoff to the next stage.

Stage outputs come back shallow-to-deep at scales 1, 1/2, ... 1/32; the last
entry is the bridge.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ops
from .blocks import AttentionFusion, BatchNorm, BlockConfig, Conv2d, DualAttentionBlock


@dataclass
class EncoderConfig:
    stage_filters: tuple = (64, 128, 256, 512, 512, 512)
    rsu_depths: tuple = (7, 6, 5, 4, 4, 4)
    inner_attention: bool = True
    casab_per_stage: bool = True
    input_channels: int = 3

    def input_pools(self) -> int:
        """How often an input side is halved, so it must divide by 2 to this
        power: five 2x pools between the stages, and depth - 2 more inside
        each of the four plain RSUs, whose input has already been pooled
        once per earlier stage."""
        plain = enumerate(self.rsu_depths[:4])
        return max(5, max(i + d - 2 for i, d in plain))


class _ConvUnit:
    """conv3x3 (optional dilation) -> BN -> ReLU, the RSU workhorse; the ReLU
    runs in the BN's own pass."""

    def __init__(self, store, prefix, cin, cout, dilation, cfg: BlockConfig):
        self.conv = Conv2d(store, f"{prefix}.conv", 3, cin, cout, dilation=dilation)
        self.bn = BatchNorm(store, f"{prefix}.bn", cout, cfg)

    def __call__(self, x, train):
        return self.bn(self.conv(x), train, "relu")


class RSU:
    """Residual U-shaped block of depth L.

    Plain variant pools L-2 times on the way down and upsamples bilinearly on
    the way up; the dilated variant keeps full resolution with dilations
    1, 2, 4, ... on the way down and mirrored on the way up. The L-1 inner
    junctions concatenate (skip, deeper) directly, or through a one-iteration
    AttentionFusion when inner attention is on. Encoder checks up front that
    input sides survive the plain variant's L-2 pools.
    """

    def __init__(self, store, prefix, cin, cout, mid, depth, *, dilated,
                 inner_attention, cfg: BlockConfig):
        self.dilated = dilated
        self.convin = _ConvUnit(store, f"{prefix}.convin", cin, cout, 1, cfg)
        enc_dil = [2 ** i if dilated else 1 for i in range(depth - 1)]
        bottom_dil = 2 ** (depth - 1) if dilated else 2
        self.enc = [_ConvUnit(store, f"{prefix}.enc{i + 1}",
                              cout if i == 0 else mid, mid, enc_dil[i], cfg)
                    for i in range(depth - 1)]
        self.bottom = _ConvUnit(store, f"{prefix}.enc{depth}", mid, mid,
                                bottom_dil, cfg)
        self.dec = []
        self.fusions = []
        for j in range(depth - 2, -1, -1):
            dec_out = cout if j == 0 else mid
            dec_dil = 2 ** j if dilated else 1
            self.dec.append(_ConvUnit(store, f"{prefix}.dec{j + 1}",
                                      2 * mid, dec_out, dec_dil, cfg))
            if inner_attention:
                self.fusions.append(AttentionFusion(
                    store, f"{prefix}.att{j + 1}", mid, mid, 1, cfg))
            else:
                self.fusions.append(None)

    def __call__(self, x, train):
        x0 = self.convin(x, train)
        skips = []
        cur = x0
        for i, unit in enumerate(self.enc):
            if i > 0 and not self.dilated:
                cur = ops.max_pool2d(cur)
            cur = unit(cur, train)
            skips.append(cur)
        d = self.bottom(skips[-1], train)
        for step, (dec, fusion) in enumerate(zip(self.dec, self.fusions)):
            skip = skips[len(skips) - 1 - step]
            if fusion is not None:
                d = fusion(skip, d, train)
            else:
                d = ops.concat((skip, d), axis=3)
            d = dec(d, train)
            if step < len(self.dec) - 1 and not self.dilated:
                d = ops.bilinear_upsample(d, 2)
        return ops.add(d, x0)


class EncoderStage:
    """One RSU plus the optional per-stage DualAttentionBlock."""

    def __init__(self, store, prefix, cin, cout, mid, depth, *, dilated,
                 inner_attention, casab, cfg):
        self.rsu = RSU(store, f"{prefix}.rsu", cin, cout, mid, depth,
                       dilated=dilated, inner_attention=inner_attention, cfg=cfg)
        self.casab = (DualAttentionBlock(store, f"{prefix}.casab", cout, cout, cfg)
                      if casab else None)

    def __call__(self, x, train):
        y = self.rsu(x, train)
        if self.casab is not None:
            y = self.casab(y, train)
        return y


class Encoder:
    """Stages s1..s5 + bridge with 2x2 max pooling between them."""

    def __init__(self, store, cfg: EncoderConfig, block_cfg: BlockConfig):
        names = ["s1", "s2", "s3", "s4", "s5", "bridge"]
        stages = zip(names, cfg.stage_filters, cfg.rsu_depths)
        self.stages = []
        cin = cfg.input_channels
        for i, (name, cout, depth) in enumerate(stages):
            # the RSU's inner width is half the stage width, at least 1
            self.stages.append(EncoderStage(
                store, f"encoder.{name}", cin, cout, max(cout // 2, 1), depth,
                dilated=i >= 4, inner_attention=cfg.inner_attention,
                casab=cfg.casab_per_stage, cfg=block_cfg))
            cin = cout
        self.input_channels = cfg.input_channels
        self.input_multiple = 2 ** cfg.input_pools()

    def __call__(self, x, train):
        if x.ndim != 4:
            raise ValueError(f"encoder input must be NHWC, got ndim {x.ndim}")
        if x.shape[3] != self.input_channels:
            raise ValueError(f"encoder expects {self.input_channels} input "
                             f"channels, got {x.shape[3]}")
        m = self.input_multiple
        if x.shape[1] % m or x.shape[2] % m:
            raise ValueError(f"encoder input extent {x.shape[1:3]} must be "
                             f"divisible by {m} (the encoder's 2x pools)")
        feats = []
        cur = x
        for i, stage in enumerate(self.stages):
            y = stage(cur, train)
            feats.append(y)
            if i < len(self.stages) - 1:
                cur = ops.max_pool2d(y)
        return feats
