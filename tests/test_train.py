"""Training loop and patch-based inference."""

import csv
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from mcads import data as data_mod
from mcads import ops
from mcads.config import RunConfig
from mcads.infer import predict_mask, predict_probabilities
from mcads.metrics import threshold
from mcads.network import SegmentationModel
from mcads.params import adam_step, load_checkpoint
from mcads.tensor import Tape, backward
from mcads.train import (LOG_COLUMNS, load_samples, run_training,
                         split_samples)


def tiny_run() -> RunConfig:
    """Smallest config that still exercises every stage: 32x32 synthetic
    patches through a 4..8 filter pyramid, full-batch, no augmentation."""
    cfg = RunConfig()
    cfg.model.encoder.stage_filters = (4, 4, 8, 8, 8, 8)
    cfg.model.encoder.rsu_depths = (4, 4, 3, 3, 3, 3)
    cfg.model.decoder.rlab_iterations = (1, 1, 1, 1, 1)
    cfg.model.block.attention_token_cap = 256
    cfg.train.batch = 2
    cfg.train.epochs = 1
    cfg.train.val_fraction = 0.0
    cfg.train.augment = False
    cfg.data.synth_n = 2
    cfg.data.synth_hw = 32
    cfg.data.patch = 32
    cfg.data.stride = 32
    return cfg


def tiny_model(cfg: RunConfig) -> SegmentationModel:
    return SegmentationModel(cfg.model)


# ---------------------------------------------------------------------------
# sample splitting


def test_split_is_deterministic_and_disjoint():
    rng = np.random.default_rng(3)
    samples = data_mod.synth_dataset(10, 32, rng)
    a_train, a_val = split_samples(samples, 0.3, seed=5)
    b_train, b_val = split_samples(samples, 0.3, seed=5)
    assert [s.id for s in a_train] == [s.id for s in b_train]
    assert [s.id for s in a_val] == [s.id for s in b_val]
    assert len(a_val) == 3
    ids = sorted(s.id for s in a_train + a_val)
    assert ids == sorted(s.id for s in samples)


def test_split_zero_fraction_keeps_everything():
    rng = np.random.default_rng(3)
    samples = data_mod.synth_dataset(4, 32, rng)
    train, val = split_samples(samples, 0.0, seed=0)
    assert val == []
    assert [s.id for s in train] == sorted(s.id for s in samples)


def test_empty_training_split_rejected(tmp_path):
    cfg = tiny_run()
    cfg.data.synth_n = 1
    cfg.train.val_fraction = 0.6  # rounds to the whole one-sample dataset
    with pytest.raises(ValueError, match="training split"):
        run_training(cfg, str(tmp_path / "run"))


def test_load_samples_uses_synthetic_when_no_root():
    cfg = tiny_run()
    samples = load_samples(cfg)
    assert len(samples) == cfg.data.synth_n
    assert samples[0].image.shape == (32, 32, 3)


def test_default_synthetic_set_fills_its_patch_lattice():
    """The default synthetic images are as large as the default patch, so
    training on them never sees mirrored padding."""
    cfg = RunConfig().data
    grid = data_mod.plan_patches((cfg.synth_hw, cfg.synth_hw), cfg.patch, cfg.stride)
    assert grid.padded_hw == grid.original_hw


def test_desk_data_settings_are_unchanged():
    assert dataclasses.asdict(RunConfig.desk().data) == {
        "root": "", "synth_n": 8, "synth_hw": 64, "synth_seed": 8,
        "patch": 64, "stride": 32}


# ---------------------------------------------------------------------------
# the loop itself


def test_training_artifacts_and_log(tmp_path):
    cfg = tiny_run()
    cfg.train.epochs = 2
    out = str(tmp_path / "run")
    result = run_training(cfg, out)
    assert result.steps == 2  # one full batch per epoch
    assert math.isfinite(result.final_loss)
    assert os.path.exists(result.best_path)
    assert os.path.exists(result.last_path)
    with open(result.csv_path) as f:
        rows = list(csv.reader(f))
    assert tuple(rows[0]) == LOG_COLUMNS
    assert len(rows) == 3
    for row in rows[1:]:
        total = float(row[1])
        heads = [float(v) for v in row[2:]]
        assert len(heads) == 6
        # the logged total is the sum of the six head losses
        assert total == pytest.approx(sum(heads), abs=5e-5)


def test_epochs_zero_checkpoints_match_fresh_init(tmp_path):
    cfg = tiny_run()
    cfg.train.epochs = 0
    result = run_training(cfg, str(tmp_path / "run"))
    assert result.steps == 0
    assert math.isinf(result.best_loss)
    best = load_checkpoint(result.best_path)
    last = load_checkpoint(result.last_path)
    state = result.model.store.state()
    assert set(best) == set(last) == set(state)
    for name in state:
        assert np.array_equal(best[name], state[name])
        assert np.array_equal(last[name], state[name])


def test_best_equals_last_after_single_improving_epoch(tmp_path):
    cfg = tiny_run()
    result = run_training(cfg, str(tmp_path / "run"))
    with open(result.best_path, "rb") as f:
        best = f.read()
    with open(result.last_path, "rb") as f:
        last = f.read()
    assert best == last  # the first epoch always beats the +inf sentinel


def test_gradients_reset_between_steps(tmp_path):
    """run_training must match a hand-rolled loop that clears .grad before
    every backward pass; stale gradients would otherwise accumulate and
    poison the Adam update."""
    cfg = tiny_run()
    cfg.train.epochs = 2
    result = run_training(cfg, str(tmp_path / "run"))

    samples = load_samples(cfg)
    train, _ = split_samples(samples, 0.0, cfg.train.seed)
    patches = []
    for s in train:
        grid = data_mod.plan_patches(s.image.shape[:2], cfg.data.patch,
                                     cfg.data.stride)
        patches.extend(data_mod.extract_patches(s, grid))
    model = tiny_model(cfg)
    rng = np.random.default_rng(cfg.train.seed)
    for _ in range(cfg.train.epochs):
        order = rng.permutation(len(patches))
        batch = [patches[int(j)] for j in order]
        images = np.stack([s.image for s in batch])
        masks = np.stack([s.mask for s in batch])
        model.store.zero_grads()
        with Tape() as tape:
            out = model.forward(images, train=True)
            loss, _ = model.loss(out, masks)
        backward(tape, loss)
        adam_step(model.store.trainable_parameters(), cfg.train.lr)

    trained = result.model.store.state()
    manual = model.store.state()
    for name in manual:
        assert np.array_equal(trained[name], manual[name]), name


def test_bool_masks_train_like_float32_masks(desk_step):
    """One desk training step on bool masks gives the loss and every
    parameter's gradient of the float32 masks with the same values, byte
    for byte: the loss turns either into the same float32 targets."""
    model, images, masks = desk_step
    runs = []
    for target in (masks.astype(bool), masks):
        fresh = SegmentationModel(model.cfg)
        with Tape() as tape:
            loss, _ = fresh.loss(fresh.forward(images, train=True), target)
        backward(tape, loss)
        runs.append([loss.data.tobytes()] + [p.grad.tobytes() for p in
                                             fresh.store.trainable_parameters()])
    assert runs[0] == runs[1]


def test_backward_frees_the_tape_as_it_runs(monkeypatch, desk_step):
    """backward releases each node as it fires: on the desk step, numpy's
    traced memory never climbs more than 10% above what the end of the
    forward holds, no padded conv canvas outlives its forward, and only
    leaves keep .grad afterwards."""
    model, images, masks = desk_step
    canvases = []
    canvas = ops._canvas

    def tracked(a, *args):
        out = canvas(a, *args)
        if out is not a:
            canvases.append(weakref.ref(out))
        return out

    monkeypatch.setattr(ops, "_canvas", tracked)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = model.forward(images, train=True)
            loss, _ = model.loss(out, masks)
        forward_end, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert canvases and all(ref() is None for ref in canvases)
        backward(tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * forward_end, (peak, forward_end)

    model.store.zero_grads()
    with Tape() as tape:
        out = model.forward(images, train=True)
        loss, _ = model.loss(out, masks)
    slots = [slot for slot, _, _ in tape._nodes]
    backward(tape, loss)
    assert len(tape) == 0
    assert all(slot.grad is None for slot in slots)
    assert all(t.grad is None for _, t in out.ordered())
    assert all(p.grad is not None for p in model.store.trainable_parameters())


def test_forward_keeps_only_what_backward_reads(monkeypatch, desk_step):
    """Before backward runs, the desk step keeps alive at most 55 MB of the
    85 MB its taped ops produce (views not counted; 53.8 MB measured): no
    node holds a Tensor, so an output dies once the forward drops it unless
    a closure reads it. A residual sum feeding leaky_relu (whose gradient
    reads its own output) and an attention-score product are already
    gone."""
    model, images, masks = desk_step
    produced = []  # (op, weakref, nbytes) of each taped output
    by_id = {}  # id(array) -> its entry; a dead array's id may be reused
    watched = {"add -> leaky_relu": [], "matmul -> scale": []}
    record = ops.record

    def tracked(op, out, inputs, backward):
        for t in inputs:
            op_in, ref, _ = by_id.get(id(t.data), (None, None, 0))
            edge = f"{op_in} -> {op}"
            if edge in watched and ref() is t.data:
                watched[edge].append(ref)
        result = record(op, out, inputs, backward)
        if out.tape is not None and out.data.base is None:
            produced.append((op, weakref.ref(out.data), out.data.nbytes))
            by_id[id(out.data)] = produced[-1]
        return result

    monkeypatch.setattr(ops, "record", tracked)
    with Tape() as tape:
        out = model.forward(images, train=True)
        loss, _ = model.loss(out, masks)
    monkeypatch.undo()
    total = sum(nbytes for _, _, nbytes in produced)
    alive = sum(nbytes for _, ref, nbytes in produced if ref() is not None)
    assert alive <= 55_000_000, (alive, total)
    for edge, refs in watched.items():
        assert refs and refs[0]() is None, edge
    backward(tape, loss)


# ---------------------------------------------------------------------------
# whole-image inference


def test_predict_shape_and_open_range():
    cfg = tiny_run()
    model = tiny_model(cfg)
    image = np.random.default_rng(0).uniform(0, 1, (96, 96, 3)).astype(np.float32)
    prob = predict_probabilities(model, image, patch=32, stride=32)
    assert prob.shape == (96, 96, 1)
    assert prob.dtype == np.float32
    assert np.all(prob > 0.0) and np.all(prob < 1.0)


def test_predict_batch_size_does_not_change_result():
    cfg = tiny_run()
    model = tiny_model(cfg)
    image = np.random.default_rng(2).uniform(0, 1, (96, 96, 3)).astype(np.float32)
    one = predict_probabilities(model, image, patch=32, stride=32, batch=1)
    four = predict_probabilities(model, image, patch=32, stride=32, batch=4)
    assert np.allclose(one, four, atol=1e-6)


def test_predict_overlapping_strides_average():
    cfg = tiny_run()
    model = tiny_model(cfg)
    image = np.random.default_rng(3).uniform(0, 1, (64, 64, 3)).astype(np.float32)
    prob = predict_probabilities(model, image, patch=32, stride=16)
    assert prob.shape == (64, 64, 1)
    assert np.all(prob > 0.0) and np.all(prob < 1.0)


def test_predict_mask_is_thresholded_probability():
    cfg = tiny_run()
    model = tiny_model(cfg)
    image = np.random.default_rng(4).uniform(0, 1, (32, 32, 3)).astype(np.float32)
    mask, prob = predict_mask(model, image, patch=32, stride=32, threshold=0.5)
    assert np.array_equal(mask, threshold(prob, 0.5))
    assert mask.dtype == bool and mask.shape == (32, 32, 1)


def test_predict_rejects_flat_image():
    cfg = tiny_run()
    model = tiny_model(cfg)
    with pytest.raises(ValueError, match=r"\(H,W,C\)"):
        predict_probabilities(model, np.zeros((32, 32), np.float32),
                              patch=32, stride=32)


TRAIN_MEMORY = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                            "train_memory.py")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs Linux's /proc/self/status")
def test_train_memory_reads_its_own_peak():
    """tools/train_memory.py reports its own peak RSS, not the larger one of
    the process that started it (Linux keeps ru_maxrss across execve)."""
    held = np.ones(200 * 2**20 // 8)  # this process touches about 200 MB
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    child = ("import runpy, sys; "
             "print(runpy.run_path(sys.argv[1])['peak_rss_mb']())")
    out = subprocess.run([sys.executable, "-c", child, TRAIN_MEMORY],
                         env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
                         check=True, capture_output=True, text=True, timeout=120)
    assert held.sum() == held.size
    assert 0 < float(out.stdout) < 150
