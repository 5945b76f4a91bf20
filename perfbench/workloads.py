"""The benchmark's three workloads, driven through mcads's public modules.

Each workload has the same life cycle, run by ``run.py``:

``prepare``  makes the inputs from the seed (not timed);
``setup``    is what a user pays before the first operation (timed, repeated);
``op``       is one measured operation: a training step, one predicted image,
             or one scored directory of mask pairs; it raises ``CheckFailed``
             on bad output;
``finish``   runs after the measured loop and returns failed checks.

Module attributes are looked up at call time (``data.augment``, not
``from mcads.data import augment``) so the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
from scipy import ndimage

import mcads
from mcads import data, infer, metrics, netpbm, network, params, tensor
from mcads.config import RunConfig

SRC = os.path.dirname(os.path.dirname(os.path.abspath(mcads.__file__)))


class CheckFailed(Exception):
    """An output of the program differs from what the benchmark expects."""


def _flush(path) -> None:
    """Push a freshly written input file to disk, so that its writeback does
    not compete with the timed phases that follow."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _synth_image(seed: int, hw: int) -> np.ndarray:
    """A synthetic microscopy field; `hw` is rounded up to the generator's
    multiple of 32 and cropped back."""
    size = -(-hw // 32) * 32
    sample = data.synth_dataset(1, size, np.random.default_rng(seed))[0]
    return np.ascontiguousarray(sample.image[:hw, :hw])


class Workload:
    """Defaults for the life cycle; ``labels`` maps the generic end-to-end
    metrics to the workload's own (name, factor, unit)."""

    labels: dict = {}
    warmup = 0
    min_ops = 1  # operations (warm-up included) a run must complete

    def prepare(self) -> None:
        pass

    def finish(self) -> list[str]:
        return []

    def named_metrics(self) -> dict:
        return {}


class TrainDesk(Workload):
    """Desk-scale training steps on the built-in synthetic set."""

    name = "train_desk"
    labels = {"op_ms_p50": ("train_step_ms_p50", 1.0, "ms"),
              "op_ms_tail": ("train_step_ms_tail", 1.0, "ms"),
              "throughput_per_s": ("train_samples_per_s", 1.0, "samples/s")}
    loss_step = 8  # train_loss_final is the loss after this many steps

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.work_dir = work_dir
        cfg = RunConfig.desk()
        cfg.model.seed = seed
        cfg.train.seed = seed
        cfg.data.synth_seed = seed
        cfg.data.synth_n = 16
        if smoke:
            cfg.data.synth_n, cfg.data.synth_hw = 4, 32
            cfg.data.patch, cfg.data.stride = 32, 16
            cfg.train.batch = 2
            self.loss_step = 3
        self.cfg = cfg
        self.warmup = 1 if smoke else 2
        self.min_ops = self.loss_step
        self.setup_reps = 3 if smoke else 9
        self.items_per_op = cfg.train.batch
        self.losses: list[float] = []
        self.final_loss = float("nan")
        self.macs_per_step = 0

    def setup(self) -> None:
        cfg = self.cfg
        self.model = network.SegmentationModel(cfg.model)
        samples = data.synth_dataset(cfg.data.synth_n, cfg.data.synth_hw,
                                     np.random.default_rng(cfg.data.synth_seed))
        patches = []
        for s in samples:
            grid = data.plan_patches(s.image.shape[:2], cfg.data.patch,
                                     cfg.data.stride)
            patches.extend(data.extract_patches(s, grid))
        self.patches = patches
        self.rng = np.random.default_rng(cfg.train.seed)
        self.order: list[int] = []

    def _next_batch(self):
        batch = self.cfg.train.batch
        if len(self.order) < batch:
            self.order = [int(i) for i in self.rng.permutation(len(self.patches))]
        picked, self.order = self.order[:batch], self.order[batch:]
        return [self.patches[i] for i in picked]

    def op(self) -> None:
        batch = [data.augment(s, self.rng) for s in self._next_batch()]
        images = np.stack([s.image for s in batch])
        masks = np.stack([s.mask for s in batch])
        model = self.model
        model.store.zero_grads()
        with tensor.count_macs() as macs, tensor.Tape() as tape:
            out = model.forward(images, train=True)
            loss, _ = model.loss(out, masks)
        self.macs_per_step = macs["macs"]
        value = float(loss.data)
        tensor.backward(tape, loss)
        params.adam_step(model.store.trainable_parameters(), self.cfg.train.lr)
        self.losses.append(value)
        if len(self.losses) == self.loss_step:
            self.final_loss = value
        if not math.isfinite(value):
            raise CheckFailed(f"training loss {value} is not finite")

    def finish(self) -> list[str]:
        path = os.path.join(self.work_dir, "last.mct")
        state = self.model.store.state()
        params.save_checkpoint(path, state)
        self.ckpt_bytes = os.path.getsize(path)
        loaded = params.load_checkpoint(path)
        if list(loaded) != list(state) or not all(
                loaded[k].dtype == state[k].dtype and np.array_equal(loaded[k], state[k])
                for k in state):
            return ["load_checkpoint of the saved .mct differs from the model state"]
        return []

    def named_metrics(self) -> dict:
        return {"train_loss_final": (self.final_loss, "BCE")}


class PredictFull(Workload):
    """Patch inference with the full-width model from a .mct checkpoint.

    The model weights come from a fixed seed, and the image's top-left patch
    is a fixed reference field shared by every seed. Output pixels in the
    top-left stride x stride corner are covered by that patch alone, so their
    probabilities are seed-independent: their 8x8 block means are compared
    with the values recorded in reference.json.
    """

    name = "predict_full"
    labels = {"op_ms_p50": ("predict_image_s", 1e-3, "s"),
              "throughput_per_s": ("predict_mpix_per_s", 1.0, "Mpix/s")}
    model_seed = 0
    reference_seed = 0
    block = 8

    def __init__(self, seed: int, smoke: bool, work_dir: str, reference: dict):
        self.seed = seed
        self.kind = "smoke" if smoke else "full"
        self.cfg = RunConfig.desk() if smoke else RunConfig()
        self.cfg.model.seed = self.model_seed
        self.hw = 80 if smoke else 320
        self.setup_reps = 2 if smoke else 3
        self.items_per_op = self.hw * self.hw / 1e6
        self.reference = reference.get(self.kind)
        self.image_path = os.path.join(work_dir, "image.ppm")
        self.ckpt_path = os.path.join(work_dir, "model.mct")
        self.out_path = os.path.join(work_dir, "mask.pgm")
        self.macs_per_tile = 0

    def prepare(self) -> None:
        model = network.SegmentationModel(self.cfg.model)
        params.save_checkpoint(self.ckpt_path, model.store.state())
        del model
        patch = self.cfg.data.patch
        image = _synth_image(self.seed, self.hw)
        image[:patch, :patch] = _synth_image(self.reference_seed, patch)
        netpbm.write_image(self.image_path, image)
        for path in (self.ckpt_path, self.image_path):
            _flush(path)
        self.ckpt_bytes = os.path.getsize(self.ckpt_path)
        self.tiles = len(data.plan_patches(image.shape[:2], self.cfg.data.patch,
                                           self.cfg.data.stride).offsets)

    def setup(self) -> None:
        self.model = None  # free the previous repetition's model first
        model = network.SegmentationModel(self.cfg.model)
        model.store.load_state(params.load_checkpoint(self.ckpt_path))
        self.image = netpbm.read_image(self.image_path)
        self.model = model

    def predict(self, image):
        return infer.predict_mask(self.model, image, patch=self.cfg.data.patch,
                                  stride=self.cfg.data.stride, batch=4)

    def op(self) -> None:
        image = netpbm.read_image(self.image_path)
        with tensor.count_macs() as macs:
            mask, prob = self.predict(image)
        netpbm.write_mask(self.out_path, mask)
        self.macs_per_tile = macs["macs"] // self.tiles
        self.check(image, prob)

    def corner_means(self, prob) -> np.ndarray:
        """Block means over the seed-independent corner of the map."""
        region, block = self.cfg.data.stride, self.block
        corner = np.asarray(prob[:region, :region, 0], dtype=np.float64)
        k = region // block
        return corner.reshape(k, block, k, block).mean(axis=(1, 3))

    def check(self, image, prob) -> None:
        if prob.shape != image.shape[:2] + (1,):
            raise CheckFailed(f"probability map shape {prob.shape} for image "
                              f"{image.shape}")
        if not (np.all(prob > 0.0) and np.all(prob < 1.0)):
            raise CheckFailed("probabilities leave the open interval (0, 1)")
        if self.reference is None:
            return
        if self.macs_per_tile != self.reference["macs_per_tile"]:
            raise CheckFailed(f"{self.macs_per_tile} MACs per tile, mcads summary "
                              f"counts {self.reference['macs_per_tile']}")
        want = np.asarray(self.reference["block_means"], dtype=np.float64)
        err = float(np.max(np.abs(self.corner_means(prob) - want)))
        if err > self.reference["atol"]:
            raise CheckFailed(f"corner block means differ from the reference "
                              f"by {err:.3g} > {self.reference['atol']}")


# Mask-pair templates: (blob count, radius range as a share of the side,
# how the prediction is derived). They span foreground fraction and
# boundary length; "empty_pred" and "empty_gt" exercise skipped_surface.
PAIR_TEMPLATES = (
    (1, (0.25, 0.35), "shift"),
    (4, (0.08, 0.15), "dilate"),
    (20, (0.03, 0.06), "erode"),
    (80, (0.012, 0.025), "shift"),
    (300, (0.005, 0.01), "drop_add"),
    (2, (0.1, 0.2), "empty_pred"),
    (12, (0.02, 0.05), "empty_gt"),
    (40, (0.01, 0.03), "drop_add"),
)


def _blobs(rng, hw: int, count: int, radii) -> np.ndarray:
    mask = np.zeros((hw, hw), dtype=bool)
    for _ in range(count):
        a, b = rng.uniform(radii[0] * hw, radii[1] * hw, size=2)
        cy, cx = rng.uniform(0, hw, size=2)
        theta = rng.uniform(0.0, np.pi)
        r = int(math.ceil(max(a, b)))
        y0, y1 = max(int(cy) - r, 0), min(int(cy) + r + 1, hw)
        x0, x1 = max(int(cx) - r, 0), min(int(cx) + r + 1, hw)
        yy, xx = np.mgrid[y0:y1, x0:x1]
        u = (yy - cy) * np.cos(theta) + (xx - cx) * np.sin(theta)
        v = -(yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta)
        mask[y0:y1, x0:x1] |= (u / a) ** 2 + (v / b) ** 2 <= 1.0
    return mask


def make_pair(rng, hw: int, template) -> tuple[np.ndarray, np.ndarray]:
    count, radii, kind = template
    gt = _blobs(rng, hw, count, radii)
    if kind == "shift":
        dy, dx = rng.integers(-6, 7, size=2)
        pred = np.roll(gt, (int(dy), int(dx)), axis=(0, 1))
    elif kind == "dilate":
        pred = ndimage.binary_dilation(gt, iterations=3)
    elif kind == "erode":
        pred = ndimage.binary_erosion(gt, iterations=2)
    elif kind == "drop_add":
        pred = gt & ~_blobs(rng, hw, count // 4, radii) | _blobs(rng, hw, count // 4, radii)
    elif kind == "empty_pred":
        pred = np.zeros_like(gt)
    else:  # empty_gt
        pred, gt = gt, np.zeros_like(gt)
    return pred, gt


def oracle_scores(pred: np.ndarray, gt: np.ndarray) -> dict:
    """Reference scores, computed without mcads.metrics: pixel counts, and
    surface distances from Euclidean distance transforms of the boundary
    maps (4-neighbour boundary, outside the image is background)."""
    p, g = pred.astype(bool), gt.astype(bool)
    tp = int(np.sum(p & g))
    fp = int(np.sum(p & ~g))
    fn = int(np.sum(~p & g))
    tn = p.size - tp - fp - fn
    out = {
        "iou": tp / (tp + fp + fn) if tp + fp + fn else 1.0,
        "dice": 2 * tp / (2 * tp + fp + fn) if tp + fp + fn else 1.0,
        "precision": tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0),
        "recall": tp / (tp + fn) if tp + fn else (1.0 if fp == 0 else 0.0),
        "for_rate": fn / (fn + tn) if fn + tn else 0.0,
    }
    four = ndimage.generate_binary_structure(2, 1)
    pb = p & ~ndimage.binary_erosion(p, four, border_value=0)
    gb = g & ~ndimage.binary_erosion(g, four, border_value=0)
    if pb.any() and gb.any():
        pooled = np.concatenate([ndimage.distance_transform_edt(~gb)[pb],
                                 ndimage.distance_transform_edt(~pb)[gb]])
        out["hd95"] = float(np.percentile(pooled, 95))
        out["asd"] = float(pooled.mean())
    return out


class EvalMasks(Workload):
    """Score directories of prediction/reference mask pairs as ``mcads eval``
    does: list and pair the ids, read every pair, then one metrics.report.

    One operation scores one directory holding one pair of each template,
    so every operation sees the same mix of shapes and empty masks; the
    per-pair figures divide by the pairs in a directory.
    """

    name = "eval_masks"
    pairs_per_dir = len(PAIR_TEMPLATES)
    labels = {"op_ms_p50": ("eval_pair_ms_p50", 1.0 / pairs_per_dir, "ms"),
              "op_ms_tail": ("eval_pair_ms_tail", 1.0 / pairs_per_dir, "ms"),
              "throughput_per_s": ("eval_pairs_per_s", 1.0, "pairs/s")}
    rtol = 1e-9  # scores must match the reference up to float rounding

    def __init__(self, seed: int, smoke: bool, work_dir: str):
        self.seed = seed
        self.hw = 128 if smoke else 1000
        self.dirs = [os.path.join(work_dir, f"set{d}")
                     for d in range(1 if smoke else 8)]
        self.setup_reps = 2 if smoke else 5
        self.items_per_op = self.pairs_per_dir
        self.expected: dict[tuple, dict] = {}
        self.next = 0

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        for d in self.dirs:
            os.makedirs(os.path.join(d, "pred"))
            os.makedirs(os.path.join(d, "gt"))
            for i, template in enumerate(PAIR_TEMPLATES):
                sid = f"pair{i:02d}"
                pred, gt = make_pair(rng, self.hw, template)
                for kind, mask in (("pred", pred), ("gt", gt)):
                    path = os.path.join(d, kind, sid + ".pgm")
                    netpbm.write_mask(path, mask)
                    _flush(path)
                self.expected[(d, sid)] = oracle_scores(pred, gt)

    @staticmethod
    def _mask_ids(directory) -> set:
        return {os.path.splitext(f)[0] for f in os.listdir(directory)
                if f.endswith(".pgm")}

    def setup(self) -> None:
        subprocess.run([sys.executable, "-c", "import mcads.cli"], check=True,
                       env={**os.environ, "PYTHONPATH": SRC})
        self.index = []
        for d in self.dirs:
            pred = self._mask_ids(os.path.join(d, "pred"))
            gt = self._mask_ids(os.path.join(d, "gt"))
            if pred != gt:
                raise CheckFailed(f"{d}: unpaired mask ids {sorted(pred ^ gt)}")
            self.index.append((d, sorted(pred)))

    def op(self) -> None:
        d, ids = self.index[self.next % len(self.index)]
        self.next += 1
        entries = [(sid, netpbm.read_mask(os.path.join(d, "pred", sid + ".pgm")),
                    netpbm.read_mask(os.path.join(d, "gt", sid + ".pgm")))
                   for sid in ids]
        rep = metrics.report(entries)
        if [row["id"] for row in rep["per_image"]] != ids:
            raise CheckFailed(f"{d}: report covers other ids than the directory")
        for row in rep["per_image"]:
            want = self.expected[(d, row["id"])]
            if set(row) - {"id"} != set(want):
                raise CheckFailed(f"{row['id']}: scored {sorted(row)}, "
                                  f"expected {sorted(want)}")
            for key, value in want.items():
                if not math.isclose(row[key], value, rel_tol=self.rtol, abs_tol=1e-12):
                    raise CheckFailed(f"{row['id']}: {key} {row[key]!r} != "
                                      f"reference {value!r}")
