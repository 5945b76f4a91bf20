"""Training loop: Adam on the six-head supervision loss.

One epoch is one shuffled pass over the extracted training patches.
Checkpoints: best.mct tracks the lowest validation loss (training loss
when there is no validation split), last.mct is always the final state,
and both exist even for epochs=0. They hold parameters and batch-norm
statistics but no Adam moments or RNG state, so a run cannot resume.
All randomness (split, shuffling, augmentation) flows from train.seed.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from . import data as data_mod
from .config import RunConfig
from .decoder import HEAD_ORDER
from .network import SegmentationModel
from .params import adam_step, save_checkpoint
from .tensor import Tape, backward

LOG_COLUMNS = ("step", "loss_total") + tuple(f"loss_{h}" for h in HEAD_ORDER)


@dataclass
class TrainResult:
    steps: int
    final_loss: float
    best_loss: float
    csv_path: str
    best_path: str
    last_path: str
    model: SegmentationModel


def split_samples(samples, val_fraction: float, seed: int):
    """Deterministic split: shuffle id-sorted samples, first k go to val."""
    ordered = sorted(samples, key=lambda s: s.id)
    perm = np.random.default_rng(seed).permutation(len(ordered))
    k = int(round(len(ordered) * val_fraction))
    val_idx = set(int(i) for i in perm[:k])
    train = [s for i, s in enumerate(ordered) if i not in val_idx]
    val = [ordered[i] for i in sorted(val_idx)]
    return train, val


def load_samples(cfg: RunConfig):
    if cfg.data.root:
        return data_mod.load_dataset(cfg.data.root)
    rng = np.random.default_rng(cfg.data.synth_seed)
    return data_mod.synth_dataset(cfg.data.synth_n, cfg.data.synth_hw, rng)


def _patches(samples, patch: int, stride: int):
    out = []
    for s in samples:
        grid = data_mod.plan_patches(s.image.shape[:2], patch, stride)
        out.extend(data_mod.extract_patches(s, grid))
    return out


def _stack(batch):
    images = np.stack([s.image for s in batch])
    masks = np.stack([s.mask for s in batch])
    return images, masks


def _mean_loss(model, patches, batch: int) -> float:
    total = 0.0
    for i in range(0, len(patches), batch):
        images, masks = _stack(patches[i:i + batch])
        out = model.forward(images, train=False)
        loss, _ = model.loss(out, masks)
        total += float(loss.data) * len(patches[i:i + batch])
    return total / len(patches)


def run_training(cfg: RunConfig, out_dir: str) -> TrainResult:
    samples = load_samples(cfg)
    for s in samples:
        data_mod.check_channels(s.image, cfg.model.encoder.input_channels,
                                f"sample {s.id}")
    train_samples, val_samples = split_samples(
        samples, cfg.train.val_fraction, cfg.train.seed)
    if not train_samples:
        raise ValueError(f"training split is empty: train.val_fraction "
                         f"{cfg.train.val_fraction} of {len(samples)} samples")
    os.makedirs(out_dir, exist_ok=True)
    train_patches = _patches(train_samples, cfg.data.patch, cfg.data.stride)
    val_patches = _patches(val_samples, cfg.data.patch, cfg.data.stride)

    model = SegmentationModel(cfg.model)
    rng = np.random.default_rng(cfg.train.seed)
    csv_path = os.path.join(out_dir, "training_log.csv")
    best_path = os.path.join(out_dir, "best.mct")
    last_path = os.path.join(out_dir, "last.mct")

    best = float("inf")
    step = 0
    final = float("nan")
    save_checkpoint(best_path, model.store.state())  # valid even at epochs=0
    with open(csv_path, "w", newline="") as f:
        log = csv.writer(f)
        log.writerow(LOG_COLUMNS)
        for _ in range(cfg.train.epochs):
            order = rng.permutation(len(train_patches))
            for i in range(0, len(order), cfg.train.batch):
                batch = [train_patches[int(j)] for j in order[i:i + cfg.train.batch]]
                if cfg.train.augment:
                    batch = [data_mod.augment(s, rng) for s in batch]
                images, masks = _stack(batch)
                model.store.zero_grads()  # backward() accumulates across calls
                with Tape() as tape:
                    out = model.forward(images, train=True)
                    loss, parts = model.loss(out, masks)
                final = float(loss.data)
                backward(tape, loss)
                adam_step(model.store.trainable_parameters(), cfg.train.lr)
                step += 1
                log.writerow([step, f"{final:.8f}"]
                             + [f"{parts[h]:.8f}" for h in HEAD_ORDER])
            gauge = (_mean_loss(model, val_patches, cfg.train.batch)
                     if val_patches else final)
            if gauge < best:
                best = gauge
                save_checkpoint(best_path, model.store.state())
    save_checkpoint(last_path, model.store.state())
    return TrainResult(step, final, best, csv_path, best_path, last_path,
                       model)
