"""Segmentation metrics: IoU, Dice, Precision, Recall, FOR, HD95, ASD.

Empty-mask conventions (documented, not claimed to match any publication):
IoU/Dice/Precision/Recall are 1.0 when both masks are empty; Precision is
0.0 when the prediction is empty but ground truth is not (and Recall
symmetrically); FOR is 0.0 when fn+tn = 0. Surface distances are undefined
for an empty mask and raise EmptyMaskError; report() records them as
skipped.

Surface convention: a boundary pixel is a foreground pixel with at least
one background 4-neighbor, where pixels beyond the image border count as
background. HD95 is the 95th percentile (linear interpolation) of the
pooled directed nearest-boundary distances in both directions; ASD is the
mean of the same pool. Both are symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree


class EmptyMaskError(ValueError):
    """Surface distances are undefined when a mask has no foreground."""


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def _as_binary(arr, name: str) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    b = arr.astype(bool)
    if not np.array_equal(arr, b):  # one pass; NaN equals neither 0 nor 1
        raise ValueError(f"{name} must be binary, found values {np.unique(arr)[:5]}")
    return b


def threshold(pred_prob, t: float = 0.5) -> np.ndarray:
    """Probabilities to {0,1} float mask; ties (== t) go to foreground."""
    pred_prob = np.asarray(pred_prob)
    return (pred_prob >= t).astype(np.float32)


def confusion(pred, gt) -> ConfusionCounts:
    p = _as_binary(pred, "pred")
    g = _as_binary(gt, "gt")
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {g.shape}")
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = int(np.count_nonzero(~p & ~g))
    return ConfusionCounts(tp, fp, fn, tn)


def _ratio(num: int, den: int, empty_value: float) -> float:
    return num / den if den else empty_value


def pixel_metrics(pred, gt) -> dict:
    c = confusion(pred, gt)
    both_empty = 1.0  # see module docstring for the conventions
    return {
        "iou": _ratio(c.tp, c.tp + c.fp + c.fn, both_empty),
        "dice": _ratio(2 * c.tp, 2 * c.tp + c.fp + c.fn, both_empty),
        "precision": _ratio(c.tp, c.tp + c.fp, 1.0 if c.fn == 0 else 0.0),
        "recall": _ratio(c.tp, c.tp + c.fn, 1.0 if c.fp == 0 else 0.0),
        "for_rate": _ratio(c.fn, c.fn + c.tn, 0.0),
    }


def boundary_pixels(mask) -> np.ndarray:
    """(K,2) row/col coordinates of foreground pixels touching background."""
    m = _as_binary(mask, "mask")
    padded = np.pad(m, 1, mode="constant")
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return np.argwhere(m & ~interior)


def surface_metrics(pred, gt, spacing: float = 1.0) -> dict:
    pb = boundary_pixels(pred)
    gb = boundary_pixels(gt)
    if len(pb) == 0 or len(gb) == 0:
        raise EmptyMaskError("surface distance undefined for an empty mask")
    d_pg, _ = cKDTree(gb).query(pb)
    d_gp, _ = cKDTree(pb).query(gb)
    pooled = np.concatenate([d_pg, d_gp]) * spacing
    return {
        "hd95": float(np.percentile(pooled, 95)),
        "asd": float(pooled.mean()),
    }


def report(entries) -> dict:
    """Evaluate (id, pred_mask, gt_mask) triples into the JSON report shape.

    Pixel metrics are always present; surface metrics are omitted for pairs
    where either mask is empty, and counted in skipped_surface. Aggregates
    are unweighted means over the images that have each metric.
    """
    per_image = []
    skipped = 0
    for sid, pred, gt in entries:
        row = {"id": sid}
        row.update(pixel_metrics(pred, gt))
        try:
            row.update(surface_metrics(pred, gt))
        except EmptyMaskError:
            skipped += 1
        per_image.append(row)
    aggregate = {}
    for key in ("iou", "dice", "precision", "recall", "for_rate",
                "hd95", "asd"):
        vals = [r[key] for r in per_image if key in r]
        if vals:
            aggregate[key] = float(np.mean(vals))
    return {"per_image": per_image, "aggregate": aggregate,
            "skipped_surface": skipped}
