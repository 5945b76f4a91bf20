"""Full segmentation network: encoder + decoder + deep supervision loss."""

from __future__ import annotations

import numpy as np

from . import config
from .config import ModelConfig
from .decoder import Decoder, SegmentationOutput, supervision_loss
from .encoder import Encoder
from .params import ParameterStore
from .tensor import Tensor


class SegmentationModel:
    """Owns the parameter store; forward is a pure function of the inputs.
    The config passes the same check as load_config's (ConfigError naming
    the key) before any parameter is created."""

    def __init__(self, cfg: ModelConfig, dtype=np.float32):
        config.check(cfg, "model")
        self.cfg = cfg
        self.store = ParameterStore(cfg.seed, dtype)
        self.encoder = Encoder(self.store, cfg.encoder, cfg.block)
        self.decoder = Decoder(self.store, cfg.encoder, cfg.decoder, cfg.block)

    def _wrap(self, arr) -> Tensor:
        if isinstance(arr, Tensor):
            return arr
        return Tensor(np.asarray(arr, dtype=self.store.dtype))

    def forward(self, images, train: bool = False) -> SegmentationOutput:
        feats = self.encoder(self._wrap(images), train)
        return self.decoder(feats, train)

    __call__ = forward

    def loss(self, output: SegmentationOutput, masks):
        """Returns (total loss tensor, per-head float dict)."""
        return supervision_loss(output, self._wrap(masks))
