"""Shared fixtures."""

import numpy as np
import pytest

from mcads import ops
from mcads.config import RunConfig
from mcads.network import SegmentationModel


@pytest.fixture()
def scale_grad_too_large(monkeypatch):
    """Swap in an ops.scale whose backward is 1.01x too large: a planted
    gradient bug the gradient checks must catch. Cases built after the swap
    call it."""
    def scale(x, s):
        k = x.dtype.type(s)
        return ops._emit("scale", x.data * k, (x,), lambda g: (g * k * 1.01,))

    monkeypatch.setattr(ops, "scale", scale)


@pytest.fixture()
def desk_step():
    """The desk model and one seeded batch of its training input, as
    (model, images, masks)."""
    cfg = RunConfig.desk()
    rng = np.random.default_rng(12)
    shape = (cfg.train.batch, cfg.data.patch, cfg.data.patch)
    images = rng.uniform(size=shape + (3,)).astype(np.float32)
    masks = (rng.uniform(size=shape + (1,)) > 0.5).astype(np.float32)
    return SegmentationModel(cfg.model), images, masks
