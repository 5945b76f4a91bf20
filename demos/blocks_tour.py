"""A walk through the network's building blocks.

Each block registers its parameters in a ParameterStore under a dotted
name and is a pure function of (input, train flag) afterwards. This tour
builds each one at toy widths and shows what goes in and what comes out.

Run from the repository root:  python3 demos/blocks_tour.py
"""

import numpy as np

from mcads import ops
from mcads.blocks import (AttentionFusion, BlockConfig, ChannelAttention,
                          ConvBlock, DepthToSpaceUpsample, DualAttentionBlock,
                          BilinearUpsampleBlock, ResidualConvChain,
                          SegmentationHead, SpatialAttention)
from mcads.params import ParameterStore
from mcads.tensor import Tensor

rng = np.random.default_rng(0)
store = ParameterStore(seed=0)
cfg = BlockConfig()
x = Tensor(rng.normal(size=(1, 8, 8, 4)).astype(np.float32))

# CB: depthwise 3x3 + pointwise 1x1, each with BN and LeakyReLU. The
# depthwise/pointwise split is what keeps the parameter count low.
cb = ConvBlock(store, "cb", 4, 8, cfg)
print("CB      ", x.shape, "->", cb(x, train=False).shape)

# DSUB: expand channels 4x, rearrange depth into a 2x2 spatial block
# (lossless), then refine. EUB: plain bilinear x2 between two CBs.
dsub = DepthToSpaceUpsample(store, "dsub", 4, 6, cfg)
eub = BilinearUpsampleBlock(store, "eub", 4, 6, cfg)
print("DSUB    ", x.shape, "->", dsub(x, train=False).shape)
print("EUB     ", x.shape, "->", eub(x, train=False).shape)
print("DSUB params", store.count("dsub"), "vs EUB params", store.count("eub"))

# CAM gates channels from pooled statistics; SAM gates pixels from
# channel-pooled maps. Both gates are sigmoids, so strictly inside (0,1);
# calling a block multiplies its input by gate(input).
cam = ChannelAttention(store, "cam", 4, cfg)
sam = SpatialAttention(store, "sam", cfg)
cam_gate = cam.gate(x).data
print("CAM gate range", (round(float(cam_gate.min()), 4),
                         round(float(cam_gate.max()), 4)))
print("SAM gate shape", sam.gate(x).shape)

# CASAB refines once, then adds the channel-gated and pixel-gated copies.
casab = DualAttentionBlock(store, "casab", 4, 8, cfg)
print("CASAB   ", x.shape, "->", casab(x, train=False).shape)

# RB chain: iterated residual conv steps with per-iteration parameters.
rb = ResidualConvChain(store, "rb", 4, 3, cfg)
print("RB x3   ", x.shape, "->", rb(x, train=False).shape)

# RLAB fuses an encoder skip with the upsampled deeper feature: residual
# chain on the skip, concat, then single-head QKV attention over pixel
# tokens, added back. Rows of the attention matrix are a softmax; attend()
# returns it along with the map that gets added.
rlab = AttentionFusion(store, "rlab", 4, 6, 2, cfg)
up = Tensor(rng.normal(size=(1, 8, 8, 6)).astype(np.float32))
fused = rlab(x, up, train=False)
print("RLAB    ", x.shape, "+", up.shape, "->", fused.shape)
xbar = ops.concat((rlab.chain(x, train=False), up), axis=3)
att, _ = rlab.attend(xbar, train=False)
print("attention", att.shape,
      "row sums ~", np.round(att.data.sum(-1)[0, :3], 6))

# A head is a 1x1 conv, a sigmoid, and a bilinear climb to the requested
# resolution; probabilities stay strictly inside (0,1).
head = SegmentationHead(store, "head", 4, cfg)
prob = head(x, (32, 32), train=False)
print("head    ", x.shape, "->", prob.shape,
      "range", (float(prob.data.min()), float(prob.data.max())))

# Everything above landed in one registry, ready for checkpointing.
print("\nregistry:", len(store.names()), "tensors,",
      store.count(), "trainable scalars")
for name in store.names()[:6]:
    print("  ", name)
print("  ...")
