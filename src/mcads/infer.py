"""Patch-based inference: plan, predict, reassemble, threshold."""

from __future__ import annotations

import numpy as np

from . import data as data_mod
from . import metrics
from .network import SegmentationModel


def predict_probabilities(model: SegmentationModel, image: np.ndarray, *,
                          patch: int, stride: int,
                          batch: int = 4) -> np.ndarray:
    """Full-image probability map via overlapping patches."""
    if image.ndim != 3:
        raise ValueError(f"image must be (H,W,C), got {image.shape}")
    grid = data_mod.plan_patches(image.shape[:2], patch, stride)
    padded = data_mod.reflect_pad(image, grid.padded_hw)
    tiles = [padded[r:r + patch, c:c + patch] for r, c in grid.offsets]
    preds = []
    for i in range(0, len(tiles), batch):
        final = model.forward(np.stack(tiles[i:i + batch]), train=False).final
        preds.extend(np.asarray(final.data, dtype=np.float32))
    return data_mod.reassemble(preds, grid)


def predict_mask(model: SegmentationModel, image: np.ndarray, *,
                 patch: int, stride: int, threshold: float = 0.5,
                 batch: int = 4):
    """(bool (H,W,1) mask, float32 (H,W,1) probability map) for one image."""
    prob = predict_probabilities(model, image, patch=patch, stride=stride,
                                 batch=batch)
    return metrics.threshold(prob, threshold), prob
