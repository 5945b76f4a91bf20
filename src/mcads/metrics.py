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
mean of the same pool. Both are symmetric by construction. A boundary pixel
that is also on the other mask's boundary is at distance 0 without a
query; every other one gets its exact nearest distance from a KD-tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def as_binary(arr, name: str) -> np.ndarray:
    """The one mask check: a bool array is returned as it is, a numeric {0,1}
    array as bool; any other value raises ValueError naming `name`."""
    arr = np.asarray(arr)
    if arr.dtype == bool:
        return arr
    b = arr.astype(bool)
    if not np.array_equal(arr, b):  # one pass; NaN equals neither 0 nor 1
        raise ValueError(f"{name} must be binary, found values {np.unique(arr)[:5]}")
    return b


def _plane(mask, name: str) -> np.ndarray:  # (H,W,1) drops its channel axis
    m = as_binary(mask, name)
    if m.ndim < 2 or m.shape[2:] not in ((), (1,)):
        raise ValueError(f"{name} must be (H, W) or (H, W, 1), got shape {m.shape}")
    return m[:, :, 0] if m.ndim == 3 else m


def threshold(pred_prob, t: float = 0.5) -> np.ndarray:
    """Probabilities to a bool mask of their shape; ties (== t) are foreground."""
    return np.asarray(pred_prob) >= t


def _pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p, g = _plane(pred, "pred"), _plane(gt, "gt")
    if p.shape != g.shape:
        raise ValueError(f"prediction shape {p.shape} does not match "
                         f"reference {g.shape}")
    return p, g


def confusion(pred, gt) -> ConfusionCounts:
    p, g = _pair(pred, gt)
    tp = int(np.count_nonzero(p & g))
    n_p, n_g = int(np.count_nonzero(p)), int(np.count_nonzero(g))
    return ConfusionCounts(tp, n_p - tp, n_g - tp, p.size - n_p - n_g + tp)


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
    m = _plane(mask, "mask")
    edge = m.copy()  # a foreground pixel on the border touches the outside
    edge[1:-1, 1:-1] &= ~(m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:])
    return np.stack(np.divmod(np.flatnonzero(edge), m.shape[1]), axis=1)


def surface_metrics(pred, gt, spacing: float = 1.0) -> dict:
    # imported here, so commands that score no surface never load scipy.spatial
    from scipy.spatial import cKDTree

    p, g = _pair(pred, gt)
    pb, gb = boundary_pixels(p), boundary_pixels(g)
    if len(pb) == 0 or len(gb) == 0:
        raise EmptyMaskError("surface distance undefined for an empty mask")
    pooled = np.zeros(len(pb) + len(gb))  # shared boundary pixels stay 0
    on_other = np.empty(p.shape, bool)
    for pts, other, out in ((pb, gb, pooled[:len(pb)]), (gb, pb, pooled[len(pb):])):
        on_other.fill(False)
        on_other[other[:, 0], other[:, 1]] = True
        off = ~on_other[pts[:, 0], pts[:, 1]]
        if off.any():
            # sliding-midpoint splits build about twice as fast; queries stay exact
            tree = cKDTree(other, balanced_tree=False, compact_nodes=False)
            out[off] = tree.query(pts[off])[0]
    pooled *= spacing
    return {
        "hd95": float(np.percentile(pooled, 95)),
        "asd": float(pooled.mean()),
    }


def report(entries) -> dict:
    """Evaluate (id, pred_mask, gt_mask) triples into the JSON report shape.

    A pair that cannot be scored raises ValueError prefixed with its id.
    Pixel metrics are always present; surface metrics are omitted for pairs
    where either mask is empty, and counted in skipped_surface. Aggregates
    are unweighted means over the images that have each metric.
    """
    per_image = []
    skipped = 0
    for sid, pred, gt in entries:
        try:
            pred, gt = _pair(pred, gt)
        except ValueError as e:
            raise ValueError(f"{sid}: {e}") from e
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
