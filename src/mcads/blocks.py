"""Building blocks of the segmentation network.

Short names used throughout the docstrings are the architecture's own block
vocabulary: CB (conv block), DSUB (depth-to-space upsampling block), EUB
(bilinear upsampling block), CAM/SAM (channel/spatial attention), CASAB
(their sum over a refined map), RB (residual conv chain) and RLAB (residual
linear-attention fusion of a skip path with an upsampled deeper path).

Blocks register their parameters in a ParameterStore at construction and are
pure functions of (input, train flag) afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .params import ParameterStore

CAM_REDUCTION = 8  # CAM bottleneck: C -> max(C // 8, 1) -> C


@dataclass
class BlockConfig:
    """Knobs shared by every block.

    attention_token_cap bounds the RLAB token count: maps whose H*W exceeds
    the cap are average-pooled (queries included) before attention and the
    attention output is bilinearly restored, trading exactness for memory
    on large inputs. A cap of 2^28, the token count of the largest input
    side the config admits, never pools.
    """

    attention_token_cap: int = 1024
    bn_momentum: float = 0.99


class Conv2d:
    """Parameter bundle for one convolution (He-uniform kernel, zero bias)."""

    def __init__(self, store: ParameterStore, prefix: str, kernel: int,
                 cin: int, cout: int, *, groups: int = 1, dilation: int = 1):
        cg = cin // groups
        self.w = store.create(f"{prefix}.w", (kernel, kernel, cg, cout), "he",
                              fan_in=kernel * kernel * cg)
        self.b = store.create(f"{prefix}.b", (cout,), "zeros")
        self.groups = groups
        self.dilation = dilation

    def __call__(self, x):
        return ops.conv2d(x, self.w, self.b, dilation=self.dilation,
                          groups=self.groups)


class BatchNorm:
    def __init__(self, store: ParameterStore, prefix: str, c: int,
                 cfg: BlockConfig):
        self.gamma = store.create(f"{prefix}.gamma", (c,), "ones")
        self.beta = store.create(f"{prefix}.beta", (c,), "zeros")
        self.mean = store.create(f"{prefix}.mean", (c,), "zeros", trainable=False)
        self.var = store.create(f"{prefix}.var", (c,), "ones", trainable=False)
        self.momentum = cfg.bn_momentum

    def __call__(self, x, train: bool, act: str | None = None):
        """BN of x, then act ("relu" or "leaky_relu") in the same pass."""
        return ops.batch_norm(x, self.gamma, self.beta, self.mean, self.var,
                              train=train, momentum=self.momentum, act=act)


class ConvBNAct:
    """conv -> BN -> act ("relu" or "leaky_relu"), the unit CB and the RSU
    are built from. Train mode runs the conv, then BN with the activation in
    its pass (BN needs the whole map's batch statistics); eval mode hands
    both to the conv: untaped, one pass in place in the conv's one output;
    under a tape, the conv -> BN chain."""

    def __init__(self, conv: Conv2d, bn: BatchNorm, act: str):
        self.conv, self.bn, self.act = conv, bn, act

    def __call__(self, x, train: bool):
        conv, bn = self.conv, self.bn
        if train:
            return bn(conv(x), True, self.act)
        return ops.conv2d(x, conv.w, conv.b, dilation=conv.dilation, groups=conv.groups,
                          bn=(bn.gamma, bn.beta, bn.mean, bn.var), act=self.act)


class ConvBlock:
    """CB: depthwise 3x3 -> BN -> LeakyReLU -> 1x1 -> BN -> LeakyReLU, two
    ConvBNAct units."""

    def __init__(self, store, prefix, cin: int, cout: int, cfg: BlockConfig):
        self.dw = ConvBNAct(Conv2d(store, f"{prefix}.dwc", 3, cin, cin, groups=cin),
                            BatchNorm(store, f"{prefix}.bn1", cin, cfg), "leaky_relu")
        self.pw = ConvBNAct(Conv2d(store, f"{prefix}.pwc", 1, cin, cout),
                            BatchNorm(store, f"{prefix}.bn2", cout, cfg), "leaky_relu")

    def __call__(self, x, train: bool):
        return self.pw(self.dw(x, train), train)


class DepthToSpaceUpsample:
    """DSUB: conv3x3 expands to 4*C_in channels, ReLU, depth-to-space(2)
    restores C_in at doubled resolution, then conv3x3 + ReLU + CB produce
    the output width."""

    def __init__(self, store, prefix, cin: int, cout: int, cfg: BlockConfig):
        self.expand = Conv2d(store, f"{prefix}.expand", 3, cin, 4 * cin)
        self.post = Conv2d(store, f"{prefix}.post", 3, cin, cout)
        self.cb = ConvBlock(store, f"{prefix}.cb", cout, cout, cfg)

    def __call__(self, x, train: bool):
        y = ops.depth_to_space(ops.relu(self.expand(x)))
        y = ops.relu(self.post(y))
        return self.cb(y, train)


class BilinearUpsampleBlock:
    """EUB: CB -> bilinear x2 -> CB."""

    def __init__(self, store, prefix, cin: int, cout: int, cfg: BlockConfig):
        self.cb1 = ConvBlock(store, f"{prefix}.cb1", cin, cout, cfg)
        self.cb2 = ConvBlock(store, f"{prefix}.cb2", cout, cout, cfg)

    def __call__(self, x, train: bool):
        return self.cb2(ops.bilinear_upsample(self.cb1(x, train), 2), train)


class ChannelAttention:
    """CAM: gate = sigmoid(FC(swish(FC(GAP(x) + GMP(x))))), output = x * gate.

    The bottleneck width is max(C // CAM_REDUCTION, 1); both FCs carry biases.
    """

    def __init__(self, store, prefix, c: int, cfg: BlockConfig):
        hidden = max(c // CAM_REDUCTION, 1)
        self.w1 = store.create(f"{prefix}.fc1.w", (c, hidden), "he", fan_in=c)
        self.b1 = store.create(f"{prefix}.fc1.b", (hidden,), "zeros")
        self.w2 = store.create(f"{prefix}.fc2.w", (hidden, c), "he", fan_in=hidden)
        self.b2 = store.create(f"{prefix}.fc2.b", (c,), "zeros")

    def gate(self, x):
        """Per-channel gate, shape (N, 1, 1, C), strictly inside (0, 1)."""
        g = ops.add(ops.pool_global(x, "avg"), ops.pool_global(x, "max"))
        g = ops.swish(ops.dense(g, self.w1, self.b1))
        return ops.sigmoid(ops.dense(g, self.w2, self.b2))

    def __call__(self, x, train: bool):
        return ops.mul(x, self.gate(x))


class SpatialAttention:
    """SAM: pool channels four ways (mean/max/min/sum), refine the 4-channel
    map with a 7x7 depthwise conv, swish, collapse with a 1x1 conv, sigmoid,
    and gate the input per pixel."""

    def __init__(self, store, prefix, cfg: BlockConfig):
        self.dwc7 = Conv2d(store, f"{prefix}.dwc7", 7, 4, 4, groups=4)
        self.pwc = Conv2d(store, f"{prefix}.pwc", 1, 4, 1)

    def gate(self, x):
        """Per-pixel gate, shape (N, H, W, 1), strictly inside (0, 1)."""
        pooled = ops.concat([ops.pool_channel(x, k)
                             for k in ("mean", "max", "min", "sum")], axis=3)
        return ops.sigmoid(self.pwc(ops.swish(self.dwc7(pooled))))

    def __call__(self, x, train: bool):
        return ops.mul(x, self.gate(x))


class DualAttentionBlock:
    """CASAB: one CB maps in->out channels, then the channel-gated and
    spatially-gated copies of that refined map are summed."""

    def __init__(self, store, prefix, cin: int, cout: int, cfg: BlockConfig):
        self.refine = ConvBlock(store, f"{prefix}.refine", cin, cout, cfg)
        self.cam = ChannelAttention(store, f"{prefix}.cam", cout, cfg)
        self.sam = SpatialAttention(store, f"{prefix}.sam", cfg)

    def __call__(self, x, train: bool):
        y = self.refine(x, train)
        return ops.add(self.cam(y, train), self.sam(y, train))


class ResidualConvChain:
    """RB iterations: x_i = BN(LeakyReLU(x_{i-1} + conv1x1(conv3x3(x_{i-1})))),
    with independent parameters per iteration."""

    def __init__(self, store, prefix, c: int, iterations: int, cfg: BlockConfig):
        self.steps = []
        for i in range(1, iterations + 1):
            self.steps.append((
                Conv2d(store, f"{prefix}.rb{i}.conv3", 3, c, c),
                Conv2d(store, f"{prefix}.rb{i}.conv1", 1, c, c),
                BatchNorm(store, f"{prefix}.rb{i}.bn", c, cfg),
            ))

    def __call__(self, x, train: bool):
        for conv3, conv1, bn in self.steps:
            y = ops.add(x, conv1(conv3(x)))
            x = bn(ops.leaky_relu(y), train)
        return x


def _cap_factor(h: int, w: int, cap: int) -> int:
    """Smallest power-of-two pooling factor bringing h*w under the token cap.
    Factors must divide both extents; raises when they cannot."""
    f = 1
    while (h // f) * (w // f) > cap:
        f *= 2
        if h % f or w % f:
            raise ValueError(
                f"attention token cap {cap}: extent ({h}, {w}) not divisible "
                f"by pooling factor {f}")
    return f


class AttentionFusion:
    """RLAB: fuse a skip feature with an equally-sized upsampled deeper one.

    x_bar = concat(RB_chain(skip), up); a CB refines x_bar at constant width;
    per-pixel tokens of the refined map go through single-head scaled
    dot-product attention (query, key and value width = channel width); the
    attention output is added back onto x_bar. Output width is therefore
    always skip_channels + up_channels.
    """

    def __init__(self, store, prefix, skip_c: int, up_c: int, iterations: int,
                 cfg: BlockConfig):
        self.chain = ResidualConvChain(store, prefix, skip_c, iterations, cfg)
        c = skip_c + up_c
        self.cb = ConvBlock(store, f"{prefix}.cb", c, c, cfg)
        self.wq = store.create(f"{prefix}.q.w", (c, c), "he", fan_in=c)
        self.bq = store.create(f"{prefix}.q.b", (c,), "zeros")
        self.wk = store.create(f"{prefix}.k.w", (c, c), "he", fan_in=c)
        self.bk = store.create(f"{prefix}.k.b", (c,), "zeros")
        self.wv = store.create(f"{prefix}.v.w", (c, c), "he", fan_in=c)
        self.bv = store.create(f"{prefix}.v.b", (c,), "zeros")
        self.cap = cfg.attention_token_cap

    def __call__(self, skip, up, train: bool):
        if skip.shape[1:3] != up.shape[1:3]:
            raise ValueError(
                f"attention fusion: skip extent {skip.shape[1:3]} != "
                f"up extent {up.shape[1:3]}")
        xbar = ops.concat((self.chain(skip, train), up), axis=3)
        return ops.add(xbar, self.attend(xbar, train)[1])

    def attend(self, xbar, train: bool):
        """Attention over the CB-refined pixel tokens of xbar.

        Returns (attention matrix (N, T, T), attended map shaped like xbar);
        T is the token count after any cap pooling.
        """
        t = self.cb(xbar, train)
        n, h, w, c = t.shape
        factor = _cap_factor(h, w, self.cap)
        if factor > 1:
            t = ops.avg_pool2d(t, factor)
        th, tw = t.shape[1], t.shape[2]
        tokens = ops.reshape(t, (n, th * tw, c))
        q = ops.dense(tokens, self.wq, self.bq)
        k = ops.dense(tokens, self.wk, self.bk)
        v = ops.dense(tokens, self.wv, self.bv)
        att = ops.softmax(ops.scale(ops.matmul(q, ops.swap_last2(k)),
                                    1.0 / np.sqrt(c)))
        o = ops.reshape(ops.matmul(att, v), (n, th, tw, c))
        if factor > 1:
            o = ops.bilinear_upsample(o, factor)
        return att, o


class SegmentationHead:
    """1x1 conv to a single channel, sigmoid, bilinear up to target size."""

    def __init__(self, store, prefix, cin: int, cfg: BlockConfig):
        self.conv = Conv2d(store, f"{prefix}.conv", 1, cin, 1)

    def __call__(self, x, target_hw, train: bool):
        y = ops.sigmoid(self.conv(x))
        h, w = y.shape[1], y.shape[2]
        if (target_hw[0] % h) or (target_hw[1] % w) or \
                target_hw[0] // h != target_hw[1] // w:
            raise ValueError(f"head: cannot upsample {(h, w)} to {target_hw} "
                             "with one integer factor")
        factor = target_hw[0] // h
        if factor > 1:
            y = ops.bilinear_upsample(y, factor)
        return y


UPSAMPLERS = {
    "dsub": DepthToSpaceUpsample,
    "eub": BilinearUpsampleBlock,
}
