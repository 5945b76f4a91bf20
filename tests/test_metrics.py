"""Pixel and surface metrics against closed-form fixtures and brute force."""

import numpy as np
import pytest

from mcads.metrics import (ConfusionCounts, EmptyMaskError, boundary_pixels,
                           confusion, pixel_metrics, report, surface_metrics,
                           threshold)


def m(rows):
    return np.asarray(rows, dtype=np.float32)


def test_confusion_fixture():
    pred = m([[1, 1], [0, 0]])
    gt = m([[1, 0], [1, 0]])
    c = confusion(pred, gt)
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 1, 1, 1)
    assert c.total == 4


def test_pixel_metrics_fixture():
    got = pixel_metrics(m([[1, 1], [0, 0]]), m([[1, 0], [1, 0]]))
    assert got["iou"] == pytest.approx(1 / 3)
    assert got["dice"] == pytest.approx(1 / 2)
    assert got["precision"] == pytest.approx(1 / 2)
    assert got["recall"] == pytest.approx(1 / 2)
    assert got["for_rate"] == pytest.approx(1 / 2)


def test_identical_masks_are_perfect():
    mask = (np.random.default_rng(0).uniform(size=(9, 9)) > 0.6).astype(np.float32)
    got = pixel_metrics(mask, mask)
    assert got["iou"] == got["dice"] == got["precision"] == got["recall"] == 1.0
    assert got["for_rate"] == 0.0


def test_empty_mask_conventions():
    empty, full = m(np.zeros((4, 4))), m(np.ones((4, 4)))
    both = pixel_metrics(empty, empty)
    assert both["iou"] == both["dice"] == 1.0
    assert both["precision"] == both["recall"] == 1.0
    assert both["for_rate"] == 0.0
    pred_only = pixel_metrics(full, empty)
    assert pred_only["precision"] == 0.0 and pred_only["recall"] == 0.0
    gt_only = pixel_metrics(empty, full)
    assert gt_only["precision"] == 0.0 and gt_only["recall"] == 0.0
    assert gt_only["for_rate"] == 1.0  # every pixel is a false omission


def test_dice_iou_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = (rng.uniform(size=(8, 8)) > rng.uniform(0.2, 0.8)).astype(np.float32)
        b = (rng.uniform(size=(8, 8)) > rng.uniform(0.2, 0.8)).astype(np.float32)
        got = pixel_metrics(a, b)
        expect = 2.0 * got["iou"] / (1.0 + got["iou"])
        assert abs(got["dice"] - expect) < 1e-12


def test_iou_symmetry_dice_symmetry():
    rng = np.random.default_rng(2)
    a = (rng.uniform(size=(6, 6)) > 0.5).astype(np.float32)
    b = (rng.uniform(size=(6, 6)) > 0.5).astype(np.float32)
    ab, ba = pixel_metrics(a, b), pixel_metrics(b, a)
    assert ab["iou"] == ba["iou"] and ab["dice"] == ba["dice"]
    assert ab["precision"] == ba["recall"]


def test_threshold_tie_goes_foreground():
    probs = np.array([[0.49, 0.5, 0.51]], dtype=np.float32)
    np.testing.assert_array_equal(threshold(probs, 0.5), [[0.0, 1.0, 1.0]])
    # monotone in t: raising the threshold can only shrink the mask
    counts = [threshold(probs, t).sum() for t in (0.3, 0.5, 0.7)]
    assert counts == sorted(counts, reverse=True)


def test_rejects_nonbinary_and_mismatched():
    for bad in (0.5, np.nan, 2.0):
        with pytest.raises(ValueError, match="binary"):
            pixel_metrics(m([[bad]]), m([[1]]))
    with pytest.raises(ValueError, match="mismatch"):
        pixel_metrics(m([[1, 0]]), m([[1], [0]]))


def test_boundary_pixels_fixture():
    mask = np.zeros((5, 5), np.float32)
    mask[1:4, 1:4] = 1.0
    boundary = {tuple(p) for p in boundary_pixels(mask)}
    expect = {(r, c) for r in range(1, 4) for c in range(1, 4)} - {(2, 2)}
    assert boundary == expect


def test_boundary_counts_border_as_background():
    mask = np.ones((3, 3), np.float32)
    assert len(boundary_pixels(mask)) == 8  # everything but the center


def test_surface_identical_masks_zero():
    mask = np.zeros((8, 8), np.float32)
    mask[2:6, 3:7] = 1.0
    got = surface_metrics(mask, mask)
    assert got["hd95"] == 0.0 and got["asd"] == 0.0


def test_surface_single_pixel_offset():
    a = np.zeros((10, 10), np.float32)
    b = np.zeros((10, 10), np.float32)
    a[3, 4] = 1.0
    b[6, 8] = 1.0  # displaced by (3, 4): distance 5 both ways
    got = surface_metrics(a, b)
    assert got["hd95"] == pytest.approx(5.0)
    assert got["asd"] == pytest.approx(5.0)


def test_surface_spacing_scales_linearly():
    a = np.zeros((6, 6), np.float32)
    b = np.zeros((6, 6), np.float32)
    a[1, 1] = 1.0
    b[1, 4] = 1.0
    one = surface_metrics(a, b, spacing=1.0)
    two = surface_metrics(a, b, spacing=2.0)
    assert two["hd95"] == pytest.approx(2 * one["hd95"])
    assert two["asd"] == pytest.approx(2 * one["asd"])


def brute_force_surface(pred, gt):
    """All-pairs oracle for the pooled directed boundary distances."""
    pb = boundary_pixels(pred).astype(np.float64)
    gb = boundary_pixels(gt).astype(np.float64)
    d = np.sqrt(((pb[:, None, :] - gb[None, :, :]) ** 2).sum(-1))
    pooled = np.concatenate([d.min(axis=1), d.min(axis=0)])
    return float(np.percentile(pooled, 95)), float(pooled.mean())


def test_surface_matches_all_pairs_oracle():
    rng = np.random.default_rng(3)
    done = 0
    while done < 50:
        a = (rng.uniform(size=(16, 16)) > rng.uniform(0.3, 0.7)).astype(np.float32)
        b = (rng.uniform(size=(16, 16)) > rng.uniform(0.3, 0.7)).astype(np.float32)
        if not a.any() or not b.any():
            continue
        got = surface_metrics(a, b)
        hd95, asd = brute_force_surface(a, b)
        assert abs(got["hd95"] - hd95) <= 1e-9
        assert abs(got["asd"] - asd) <= 1e-9
        done += 1


def test_asd_bounded_by_directed_means():
    rng = np.random.default_rng(4)
    a = (rng.uniform(size=(12, 12)) > 0.5).astype(np.float32)
    b = (rng.uniform(size=(12, 12)) > 0.5).astype(np.float32)
    pb, gb = boundary_pixels(a), boundary_pixels(b)
    from scipy.spatial import cKDTree
    d_pg = cKDTree(gb).query(pb)[0].mean()
    d_gp = cKDTree(pb).query(gb)[0].mean()
    got = surface_metrics(a, b)["asd"]
    assert min(d_pg, d_gp) - 1e-12 <= got <= max(d_pg, d_gp) + 1e-12


def test_surface_raises_on_empty():
    empty = np.zeros((4, 4), np.float32)
    full = np.ones((4, 4), np.float32)
    with pytest.raises(EmptyMaskError):
        surface_metrics(empty, full)
    with pytest.raises(EmptyMaskError):
        surface_metrics(full, empty)


def test_report_shape_and_skips():
    mask = np.zeros((6, 6), np.float32)
    mask[2:4, 2:4] = 1.0
    empty = np.zeros((6, 6), np.float32)
    out = report([("a", mask, mask), ("b", empty, mask), ("c", empty, empty)])
    assert [r["id"] for r in out["per_image"]] == ["a", "b", "c"]
    assert out["skipped_surface"] == 2
    assert "hd95" in out["per_image"][0]
    assert "hd95" not in out["per_image"][1]
    assert out["aggregate"]["hd95"] == out["per_image"][0]["hd95"]
    # pixel metrics aggregate over all three
    expect_iou = np.mean([r["iou"] for r in out["per_image"]])
    assert out["aggregate"]["iou"] == pytest.approx(expect_iou)
