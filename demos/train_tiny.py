"""Train a small model on the synthetic dataset, then look at the run.

Uses the desk preset with narrow filters so the whole thing takes well
under a minute; the full-scale recipe only changes widths and step counts.

Run from the repository root:  python3 demos/train_tiny.py
"""

import csv
import tempfile

import numpy as np

from mcads.config import RunConfig
from mcads.infer import predict_mask
from mcads.metrics import pixel_metrics
from mcads.train import load_samples, run_training

# The desk preset narrows the encoder and shortens the attention schedule.
# On top of that: two 32x32 synthetic samples, full-batch, no split.
cfg = RunConfig.desk()
cfg.model.encoder.stage_filters = (4, 4, 8, 8, 8, 8)
cfg.model.encoder.rsu_depths = (4, 4, 3, 3, 3, 3)
cfg.train.lr = 1e-3
cfg.train.epochs = 20
cfg.train.batch = 2
cfg.train.val_fraction = 0.0
cfg.train.augment = False
cfg.data.synth_n = 2
cfg.data.synth_hw = 32
cfg.data.patch = 32
cfg.data.stride = 32

# The run directory (two checkpoints and the CSV log) is removed on exit.
with tempfile.TemporaryDirectory(prefix="tiny-run-") as out_dir:
    result = run_training(cfg, out_dir)
    print(f"ran {result.steps} steps; loss {result.final_loss:.4f}")
    print("checkpoints:", result.best_path, "and", result.last_path)

    # The CSV log has one row per step: total loss plus the six head losses.
    with open(result.csv_path) as f:
        rows = list(csv.reader(f))
print("log columns:", ", ".join(rows[0]))
for row in rows[1::5]:
    print(f"  step {row[0]:>3}  total {float(row[1]):.4f}")

# Twenty steps will not segment anything well; the point is the plumbing.
# Predictions come from the same patch pipeline used for large images.
samples = load_samples(cfg)
for s in samples:
    mask, prob = predict_mask(result.model, s.image,
                              patch=cfg.data.patch, stride=cfg.data.stride)
    m = pixel_metrics(mask, s.mask)
    print(f"{s.id}: IoU {m['iou']:.3f}  dice {m['dice']:.3f}  "
          f"mean prob {float(np.mean(prob)):.3f}")
