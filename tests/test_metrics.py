"""Pixel and surface metrics against closed-form fixtures and brute force."""

import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from scipy import ndimage
from scipy.spatial import cKDTree

from mcads import metrics, netpbm, ops
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
    mask = threshold(probs, 0.5)
    assert mask.dtype == bool
    np.testing.assert_array_equal(mask, [[False, True, True]])
    # monotone in t: raising the threshold can only shrink the mask
    counts = [threshold(probs, t).sum() for t in (0.3, 0.5, 0.7)]
    assert counts == sorted(counts, reverse=True)


def test_rejects_nonbinary_and_mismatched():
    """Every scoring entry point names the mask holding a non-binary value
    or more than one channel, and rejects mismatched shapes; report puts
    the pair's id in front."""
    good = np.zeros((5, 5), np.float32)
    good[1:4, 1:4] = 1.0
    two = np.stack([good, good], axis=2)  # (5, 5, 2): the square per channel
    for score, prefix in ((pixel_metrics, ""), (surface_metrics, ""),
                          (lambda p, g: report([("x", p, g)]), "x: ")):
        for which in ("pred", "gt"):
            for bad in (0.5, np.nan, 2.0):
                broken = good.copy()
                broken[2, 2] = bad
                pair = {"pred": good, "gt": good, which: broken}
                with pytest.raises(ValueError,
                                   match=f"^{prefix}{which} must be binary"):
                    score(pair["pred"], pair["gt"])
            pair = {"pred": good, "gt": good, which: two}
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"{prefix}{which} must be (H, W) or (H, W, 1), "
                    "got shape (5, 5, 2)")):
                score(pair["pred"], pair["gt"])
        with pytest.raises(ValueError, match="^" + re.escape(
                f"{prefix}prediction shape (1, 2) does not match "
                "reference (2, 1)")):
            score(m([[1, 0]]), m([[1], [0]]))
    with pytest.raises(ValueError, match=r"^mask must be \(H, W\)"):
        boundary_pixels(two)


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
    d_pg = cKDTree(gb).query(pb)[0].mean()
    d_gp = cKDTree(pb).query(gb)[0].mean()
    got = surface_metrics(a, b)["asd"]
    assert min(d_pg, d_gp) - 1e-12 <= got <= max(d_pg, d_gp) + 1e-12


@pytest.mark.parametrize("spacing", [-1.0, 0.0, np.nan, np.inf, "1"])
def test_surface_rejects_a_spacing_not_finite_and_positive(spacing):
    a = np.zeros((6, 6), np.float32)
    a[1, 1] = 1.0
    with pytest.raises(ValueError, match="^spacing must be a finite number > 0"):
        surface_metrics(a, a[::-1], spacing=spacing)


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
    out = report([("a", mask, mask), ("b", empty, mask), ("c", empty, empty),
                  ("d", mask, empty)])
    assert [r["id"] for r in out["per_image"]] == ["a", "b", "c", "d"]
    assert out["skipped_surface"] == 3
    assert "hd95" in out["per_image"][0]
    assert not any("hd95" in r for r in out["per_image"][1:])
    assert out["aggregate"]["hd95"] == out["per_image"][0]["hd95"]
    # pixel metrics aggregate over all three
    expect_iou = np.mean([r["iou"] for r in out["per_image"]])
    assert out["aggregate"]["iou"] == pytest.approx(expect_iou)


def reference_boundary(mask):
    """boundary_pixels() as first written: np.pad, then argwhere."""
    padded = np.pad(mask, 1, mode="constant")
    interior = (padded[:-2, 1:-1] & padded[2:, 1:-1]
                & padded[1:-1, :-2] & padded[1:-1, 2:])
    return np.argwhere(mask & ~interior)


def reference_report(entries):
    """report() as first written: four masked confusion passes, the
    reference boundaries, and a default cKDTree over every boundary pixel."""
    def ratio(num, den, empty_value):
        return num / den if den else empty_value

    per_image, skipped = [], 0
    for sid, pred, gt in entries:
        p, g = (np.asarray(a).reshape(np.shape(a)[:2]).astype(bool) for a in (pred, gt))
        tp, fp = int(np.count_nonzero(p & g)), int(np.count_nonzero(p & ~g))
        fn, tn = int(np.count_nonzero(~p & g)), int(np.count_nonzero(~p & ~g))
        row = {"id": sid,
               "iou": ratio(tp, tp + fp + fn, 1.0),
               "dice": ratio(2 * tp, 2 * tp + fp + fn, 1.0),
               "precision": ratio(tp, tp + fp, 1.0 if fn == 0 else 0.0),
               "recall": ratio(tp, tp + fn, 1.0 if fp == 0 else 0.0),
               "for_rate": ratio(fn, fn + tn, 0.0)}
        pb, gb = reference_boundary(p), reference_boundary(g)
        if len(pb) and len(gb):
            pooled = np.concatenate([cKDTree(gb).query(pb)[0], cKDTree(pb).query(gb)[0]])
            row.update(hd95=float(np.percentile(pooled, 95)), asd=float(pooled.mean()))
        else:
            skipped += 1
        per_image.append(row)
    aggregate = {key: float(np.mean([r[key] for r in per_image if key in r]))
                 for key in ("iou", "dice", "precision", "recall", "for_rate", "hd95", "asd")
                 if any(key in r for r in per_image)}
    return {"per_image": per_image, "aggregate": aggregate, "skipped_surface": skipped}


def blob_pair(rng, hw, kind):
    """A ground-truth mask of random ellipses and a prediction derived from it
    by a shift, a dilation, an erosion, or dropping and adding blobs."""
    def blobs(count):
        yy, xx = np.mgrid[:hw, :hw]
        mask = np.zeros((hw, hw), bool)
        for _ in range(count):
            cy, cx = rng.uniform(0, hw, size=2)
            a, b = rng.uniform(0.03 * hw, 0.2 * hw, size=2)
            mask |= ((yy - cy) / a) ** 2 + ((xx - cx) / b) ** 2 <= 1.0
        return mask

    count = int(rng.integers(1, 12))
    gt = blobs(count)
    if kind == "shift":
        pred = np.roll(gt, tuple(int(s) for s in rng.integers(-6, 7, size=2)), axis=(0, 1))
    elif kind == "dilate":
        pred = ndimage.binary_dilation(gt, iterations=3)
    elif kind == "erode":
        pred = ndimage.binary_erosion(gt, iterations=2)
    else:  # drop_add
        pred = gt & ~blobs(count // 2 + 1) | blobs(count // 2 + 1)
    return pred, gt


def assert_same_report(entries):
    # float reprs round-trip, so equal JSON means every score is equal bit
    # for bit (and -0.0 differs from 0.0), as `mcads eval --out` writes it
    assert json.dumps(report(entries)) == json.dumps(reference_report(entries))


def test_report_is_bit_identical_to_the_reference_on_random_pairs(tmp_path):
    rng = np.random.default_rng(21)
    entries = []
    for i in range(24):
        hw = int(rng.integers(64, 201))
        pred, gt = blob_pair(rng, hw, ("shift", "dilate", "erode", "drop_add")[i % 4])
        if i % 2:  # (H,W,1) float32 {0,1}
            pred, gt = (a.astype(np.float32)[:, :, None] for a in (pred, gt))
        entries.append((f"pair{i}", pred, gt))
    assert_same_report(entries)
    # through the files `mcads eval` reads: bool (H,W,1) masks back from P5
    as_float, read_back = [], []
    for sid, pred, gt in entries:
        pair = []
        for kind, mask in (("pred", pred), ("gt", gt)):
            path = tmp_path / f"{sid}-{kind}.pgm"
            netpbm.write_mask(path, mask)
            pair.append(netpbm.read_mask(path))
        assert all(a.dtype == bool and a.ndim == 3 for a in pair)
        read_back.append((sid, *pair))
        as_float.append((sid, *(a.reshape(a.shape[:2] + (1,)).astype(np.float32)
                                for a in (pred, gt))))
    assert json.dumps(report(read_back)) == json.dumps(report(as_float))


def test_report_is_bit_identical_on_edge_cases():
    rng = np.random.default_rng(22)
    one = np.ones((1, 1), bool)
    dot = np.zeros((9, 7), bool)
    dot[4, 3] = True
    border = np.zeros((12, 10), bool)
    border[0, :] = border[-1, :] = border[:, 0] = border[:, -1] = True
    left, right = np.zeros((8, 8), bool), np.zeros((8, 8), bool)
    left[2:6, :3], right[1:7, 5:] = True, True
    cases = [(one, one), (one, ~one),
             (rng.uniform(size=(1, 9)) > 0.4, rng.uniform(size=(1, 9)) > 0.4),
             (rng.uniform(size=(9, 1)) > 0.4, rng.uniform(size=(9, 1)) > 0.4),
             (rng.uniform(size=(2, 2)) > 0.3, np.ones((2, 2), bool)),
             (np.ones((6, 5), bool), np.ones((6, 5), bool)), (dot, np.ones((9, 7), bool)),
             (dot, dot), (border, np.ones((12, 10), bool)), (border, border[::-1, ::-1]),
             (left, right), (right, left)]
    blob, _ = blob_pair(rng, 80, "shift")
    cases.append((blob, blob))  # every distance is 0
    entries = [(f"case{i}", p, g) for i, (p, g) in enumerate(cases)]
    entries += [(f"f{sid}", p.astype(np.float32)[:, :, None], g.astype(np.float32)[:, :, None])
                for sid, p, g in entries]
    assert_same_report(entries)
    identical = report([("same", blob, blob)])["per_image"][0]
    assert identical["hd95"] == identical["asd"] == 0.0


def test_boundary_pixels_match_argwhere_order():
    rng = np.random.default_rng(23)
    for shape in ((1, 1), (1, 6), (6, 1), (2, 2), (3, 3), (17, 29)):
        mask = rng.uniform(size=shape) > 0.3
        got, want = boundary_pixels(mask), reference_boundary(mask)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def dealt_pairs():
    """Eight seeded 256x256 blob pairs, two of each kind, for report()."""
    rng = np.random.default_rng(31)
    kinds = ("shift", "dilate", "erode", "drop_add") * 2
    return [(f"pair{i}", *blob_pair(rng, 256, kind)) for i, kind in enumerate(kinds)]


def _cores():
    return len(os.sched_getaffinity(0))


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_dealt_report_equals_a_one_core_run(tmp_path):
    """Each pair's two directed distance sets are dealt over two threads
    here; a child pinned to one core scores them both in its one thread."""
    if _cores() < 2:
        pytest.skip("one core: both sides would run in one thread")
    assert ops._executor()[1] == _cores() - 1
    path = tmp_path / "one_core.json"
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(ops.__file__)))
    child = ("import os, json\n"
             "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
             "import test_metrics as t\n"
             "from mcads import metrics, ops\n"
             "assert ops._executor() == (None, 0)\n"
             f"open({str(path)!r}, 'w').write(json.dumps(metrics.report(t.dealt_pairs())))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, here])}
    subprocess.run([sys.executable, "-c", child], env=env, check=True, timeout=300)
    assert json.dumps(report(dealt_pairs())) == path.read_text()


def test_traced_functions_stay_on_the_calling_thread(monkeypatch):
    """A tracer keeping one span stack per process sees every metrics
    function entered on the calling thread; only cKDTree (and numpy) runs
    on the pool's worker, which takes one direction of each pair."""
    off_main, query_threads = [], set()

    def on_main(fn):
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                off_main.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    class SpyTree(cKDTree):
        def query(self, *args, **kwargs):
            query_threads.add(threading.get_ident())
            return super().query(*args, **kwargs)

    for name in ("report", "pixel_metrics", "surface_metrics", "boundary_pixels"):
        monkeypatch.setattr(metrics, name, on_main(getattr(metrics, name)))
    monkeypatch.setattr("scipy.spatial.cKDTree", SpyTree)
    pairs = dealt_pairs()
    assert json.dumps(metrics.report(pairs)) == json.dumps(report(pairs))
    assert off_main == []
    if _cores() >= 2:  # on more cores, pairs may reach different workers
        assert len(query_threads) >= 2
