"""Release gates. Nine checks, one test each, run in file order.

Every gate states its own tolerance inline. The overfit gate dominates the
runtime (a 300-step training run, a few minutes of CPU); everything else is
seconds. Gates must stay independent: a failure in one leaves the others
meaningful.
"""

import math
import os

import numpy as np

from mcads import data as data_mod
from mcads import ops
from mcads.blocks import (AttentionFusion, BlockConfig, ChannelAttention,
                          SpatialAttention)
from mcads.config import RunConfig
from mcads.decoder import DecoderConfig, HEAD_ORDER
from mcads.encoder import EncoderConfig
from mcads.gradcheck import BLOCK_TOL, PRIMITIVE_TOL, run_suite
from mcads.infer import predict_mask
from mcads.metrics import pixel_metrics, surface_metrics
from mcads.network import ModelConfig, SegmentationModel
from mcads.params import ParameterStore
from mcads.summary import summary_report
from mcads.tensor import Tensor
from mcads.train import run_training

from time import monotonic


def test_01_gradient_suite_primitives_and_blocks():
    """Every primitive within 1e-5 and every block within 1e-4 of central
    finite differences at f64, eps 1e-4; whole sweep under five minutes."""
    assert PRIMITIVE_TOL == 1e-5 and BLOCK_TOL == 1e-4
    t0 = monotonic()
    results = run_suite(include_model=True)
    elapsed = monotonic() - t0
    failed = [r["name"] for r in results if not r["passed"]]
    assert failed == [], f"gradient mismatches: {failed}"
    for r in results:
        tol = PRIMITIVE_TOL if r["kind"] == "primitive" else BLOCK_TOL
        assert r["max_rel_err"] < tol, (r["name"], r["max_rel_err"])
    covered = {r["name"] for r in results}
    assert {"conv_block", "dsub", "eub", "cam", "sam", "casab",
            "residual_chain", "attention_fusion", "segmentation_head",
            "rsu_shallow", "rsu_dilated", "decoder_stage",
            "micro_model"} <= covered
    assert elapsed < 300.0, f"gradient suite took {elapsed:.0f}s"


def test_02_depth_space_round_trip_bit_exact():
    """space_to_depth inverts depth_to_space exactly on 100 random shapes;
    a single pixel's four channels tile its 2x2 block row-major."""
    rng = np.random.default_rng(20)
    for i in range(100):
        n = int(rng.integers(1, 4))
        h = int(rng.integers(1, 9))
        w = int(rng.integers(1, 9))
        c = 4 * int(rng.integers(1, 7))
        dtype = np.float64 if i % 3 == 0 else np.float32
        x = rng.normal(size=(n, h, w, c)).astype(dtype)
        y = ops.space_to_depth(ops.depth_to_space(Tensor(x))).data
        assert np.array_equal(x, y)
    fixture = Tensor(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 1, 1, 4))
    tile = ops.depth_to_space(fixture).data[0, :, :, 0]
    np.testing.assert_array_equal(tile, [[1.0, 2.0], [3.0, 4.0]])


def test_03_desk_scale_overfit(tmp_path):
    """Four synthetic 64x64 samples, 300 full-batch Adam steps at lr 1e-3:
    final loss under 10% of the first step's, mean training IoU >= 0.95
    through the patch-inference path, bit-identical reruns, ten-minute cap."""
    def overfit_cfg() -> RunConfig:
        cfg = RunConfig.desk()
        cfg.model.seed = 0
        cfg.train.lr = 1e-3
        cfg.train.epochs = 300  # batch 4 of 4 samples: one step per epoch
        cfg.train.batch = 4
        cfg.train.seed = 0
        cfg.train.val_fraction = 0.0
        cfg.train.augment = False
        cfg.data.synth_n = 4
        cfg.data.synth_hw = 64
        cfg.data.synth_seed = 8
        return cfg

    cfg = overfit_cfg()
    t0 = monotonic()
    result = run_training(cfg, str(tmp_path / "run"))
    elapsed = monotonic() - t0
    assert result.steps == 300

    with open(result.csv_path) as f:
        rows = f.read().splitlines()
    initial = float(rows[1].split(",")[1])
    final = float(rows[-1].split(",")[1])
    assert final < 0.10 * initial, f"loss {initial:.3f} -> {final:.3f}"

    samples = data_mod.synth_dataset(cfg.data.synth_n, cfg.data.synth_hw,
                                     np.random.default_rng(cfg.data.synth_seed))
    ious = []
    for s in samples:
        mask, _ = predict_mask(result.model, s.image, patch=cfg.data.patch,
                               stride=cfg.data.stride)
        ious.append(pixel_metrics(mask, s.mask)["iou"])
    assert float(np.mean(ious)) >= 0.95, f"training IoU {np.mean(ious):.4f}"
    assert elapsed < 600.0, f"overfit run took {elapsed:.0f}s"

    # same config, same seeds: reruns must match to the byte
    short = overfit_cfg()
    short.train.epochs = 5
    paths = []
    for name in ("a", "b"):
        r = run_training(short, str(tmp_path / name))
        paths.append((r.csv_path, r.last_path))
    with open(paths[0][0], "rb") as f0, open(paths[1][0], "rb") as f1:
        assert f0.read() == f1.read()
    with open(paths[0][1], "rb") as f0, open(paths[1][1], "rb") as f1:
        assert f0.read() == f1.read()


def test_04_metric_oracles():
    """Pixel metrics equal independent bit-count arithmetic on every 4x4
    mask against 16 random partners (with the empty-mask conventions);
    Dice matches 2*IoU/(1+IoU) to 1e-12; HD95/ASD match a brute-force
    all-pairs oracle to 1e-9 on 50 random 16x16 pairs."""
    bits = np.unpackbits(np.arange(65536, dtype=">u2").view(np.uint8)
                         .reshape(-1, 2), axis=1)
    arrays = bits.reshape(65536, 4, 4).astype(np.float32)
    popcount = bits.sum(axis=1).astype(int)

    def expected(p: int, g: int) -> dict:
        tp = popcount[p & g]
        fp = popcount[p & ~g & 0xFFFF]
        fn = popcount[~p & 0xFFFF & g]
        tn = 16 - tp - fp - fn
        return {
            "iou": tp / (tp + fp + fn) if tp + fp + fn else 1.0,
            "dice": 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0,
            "precision": tp / (tp + fp) if tp + fp else
                         (1.0 if fn == 0 else 0.0),
            "recall": tp / (tp + fn) if tp + fn else
                      (1.0 if fp == 0 else 0.0),
            "for_rate": fn / (fn + tn) if fn + tn else 0.0,
        }

    rng = np.random.default_rng(40)
    partners = rng.integers(0, 65536, size=(65536, 16))
    partners[0, :2] = (0, 65535)  # force the all-empty and disjoint corners
    partners[65535, :2] = (65535, 0)
    for p in range(65536):
        for g in partners[p]:
            got = pixel_metrics(arrays[p], arrays[g])
            want = expected(p, int(g))
            assert got == want, (p, int(g), got, want)
            assert abs(got["dice"]
                       - 2.0 * got["iou"] / (1.0 + got["iou"])) < 1e-12

    def oracle_boundary(m):
        h, w = m.shape
        pts = []
        for r in range(h):
            for c in range(w):
                if not m[r, c]:
                    continue
                for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                    if not (0 <= rr < h and 0 <= cc < w) or not m[rr, cc]:
                        pts.append((r, c))
                        break
        return pts

    def oracle_surface(p, g):
        pb, gb = oracle_boundary(p), oracle_boundary(g)
        pool = sorted(
            [min(math.hypot(a - c, b - d) for c, d in gb) for a, b in pb]
            + [min(math.hypot(a - c, b - d) for c, d in pb) for a, b in gb])
        rank = 0.95 * (len(pool) - 1)
        lo = int(math.floor(rank))
        hi = min(lo + 1, len(pool) - 1)
        hd95 = pool[lo] + (rank - lo) * (pool[hi] - pool[lo])
        return hd95, sum(pool) / len(pool)

    for _ in range(50):
        pair = []
        for _ in range(2):
            m = rng.random((16, 16)) < 0.5
            m[rng.integers(0, 16), rng.integers(0, 16)] = True  # never empty
            pair.append(m)
        got = surface_metrics(pair[0].astype(np.float32),
                              pair[1].astype(np.float32))
        hd95, asd = oracle_surface(pair[0], pair[1])
        assert abs(got["hd95"] - hd95) < 1e-9
        assert abs(got["asd"] - asd) < 1e-9


def test_05_upsampler_mix_parameter_ordering():
    """Swapping bilinear-conv upsamplers for depth-to-space ones, one stage
    at a time from the deepest, strictly grows the trainable total. The
    ordering is asserted, not the absolute counts."""
    totals = []
    for k in range(6):
        kinds = tuple("dsub" if i < k else "eub" for i in range(5))  # d5 .. d1
        cfg = ModelConfig(decoder=DecoderConfig(upsampler=kinds))
        totals.append(summary_report(cfg)["total_trainable"])
    assert all(a < b for a, b in zip(totals, totals[1:])), totals


def test_06_module_ablation_parameter_ordering():
    """Enabling learned upsamplers, then attention fusion, then the dual
    gate strictly grows the trainable total."""
    stages = [
        dict(enable_upsampler=False, enable_rlab=False, enable_casab=False),
        dict(enable_upsampler=True, enable_rlab=False, enable_casab=False),
        dict(enable_upsampler=True, enable_rlab=True, enable_casab=False),
        dict(enable_upsampler=True, enable_rlab=True, enable_casab=True),
    ]
    totals = [summary_report(ModelConfig(decoder=DecoderConfig(**kw)))
              ["total_trainable"] for kw in stages]
    assert all(a < b for a, b in zip(totals, totals[1:])), totals


def test_07_six_heads_at_input_resolution():
    """Any valid config and 32-divisible input: exactly six maps at input
    resolution, strictly inside (0,1); with heads forced to emit 0.5 the
    supervision total is 6*ln(2) within 1e-6."""
    cfg = ModelConfig(
        encoder=EncoderConfig(stage_filters=(4, 4, 8, 8, 8, 8),
                              rsu_depths=(4, 4, 3, 3, 3, 3)),
        decoder=DecoderConfig(rlab_iterations=(1, 1, 1, 1, 1)))
    rng = np.random.default_rng(70)
    for hw in (32, 64):
        model = SegmentationModel(cfg)
        x = rng.uniform(0, 1, (1, hw, hw, 3)).astype(np.float32)
        out = model.forward(x, train=False)
        assert [k for k, _ in out.ordered()] == list(HEAD_ORDER)
        assert len(out.maps) == 6
        for _, m in out.ordered():
            assert m.shape == (1, hw, hw, 1)
            assert np.all(m.data > 0.0) and np.all(m.data < 1.0)

        for p in model.store.parameters():
            if ".head_" in p.name:
                p.data[...] = 0.0  # sigmoid(0) = 0.5 on every head
        out = model.forward(x, train=False)
        target = rng.integers(0, 2, (1, hw, hw, 1)).astype(np.float32)
        total, parts = model.loss(out, target)
        assert abs(total.item() - 6.0 * math.log(2.0)) < 1e-6
        assert len(parts) == 6


def test_08_patch_pipeline_identity_reassembly():
    """A 1000x1000 image plans to 49 patches of 256 at stride 128 over a
    1024 reflect-pad; feeding the patches back reproduces the original
    region to 1e-12."""
    image = np.random.default_rng(80).uniform(0, 1, (1000, 1000, 1))
    grid = data_mod.plan_patches(image.shape[:2], 256, 128)
    assert grid.padded_hw == (1024, 1024)
    assert len(grid.offsets) == 49
    padded = data_mod.reflect_pad(image, grid.padded_hw)
    tiles = [padded[r:r + 256, c:c + 256] for r, c in grid.offsets]
    rebuilt = data_mod.reassemble(tiles, grid)
    assert rebuilt.shape == image.shape
    assert float(np.max(np.abs(rebuilt - image))) < 1e-12


def test_09_attention_invariants():
    """Fusion attention rows sum to 1 within 1e-6; with a zeroed value
    projection the fusion returns its concatenated input bit-exactly; both
    gate blocks emit values strictly inside (0,1)."""
    store = ParameterStore(90, np.float32)
    fusion = AttentionFusion(store, "rlab", 3, 4, 2, BlockConfig())
    rng = np.random.default_rng(91)
    skip = Tensor(rng.normal(size=(2, 8, 8, 3)).astype(np.float32))
    up = Tensor(rng.normal(size=(2, 8, 8, 4)).astype(np.float32))
    xbar = ops.concat((fusion.chain(skip, False), up), axis=3)
    att, _ = fusion.attend(xbar, False)
    rows = att.data.sum(axis=-1)
    assert np.max(np.abs(rows - 1.0)) < 1e-6

    store["rlab.v.w"].data[...] = 0.0
    store["rlab.v.b"].data[...] = 0.0
    got = fusion(skip, up, False)
    assert np.array_equal(got.data, xbar.data)

    cam = ChannelAttention(store, "cam", 6, BlockConfig())
    sam = SpatialAttention(store, "sam", BlockConfig())
    x = Tensor(rng.normal(size=(2, 7, 7, 6)).astype(np.float32))
    for gate in (cam.gate(x).data, sam.gate(x).data):
        assert np.all(gate > 0.0) and np.all(gate < 1.0)
