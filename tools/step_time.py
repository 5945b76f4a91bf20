"""Best-of-N phase times of seeded desk training steps.

Runs the desk model (RunConfig.desk()) on seeded uniform images and random
masks at two sizes, 32x32 at batch 1 and 64x64 at batch 4. Each step zeroes
the gradients, then times the taped forward with the loss, the backward, and
one Adam update. After --warmup untimed steps it prints, per size, the best
of --steps milliseconds of each phase and of the whole step. The 32x32 step
is almost all fixed per-call cost; the 64x64 one has 16 times the pixels.
To compare two checkouts, run each in a fresh process and alternate them:

    PYTHONPATH=src python3 tools/step_time.py --steps 10
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from mcads.config import RunConfig
from mcads.network import SegmentationModel
from mcads.params import adam_step
from mcads.tensor import Tape, backward

SIZES = ((32, 1), (64, 4))  # (side, batch)
PHASES = ("forward", "backward", "adam", "step")


def step_times(side: int, batch: int, steps: int, warmup: int) -> dict[str, float]:
    """Best milliseconds of each phase over `steps` timed steps."""
    cfg = RunConfig.desk()
    model = SegmentationModel(cfg.model)
    params = model.store.trainable_parameters()
    rng = np.random.default_rng(side * 100 + batch)
    best = dict.fromkeys(PHASES, float("inf"))
    for k in range(warmup + steps):
        images = rng.uniform(size=(batch, side, side, 3)).astype(np.float32)
        masks = rng.uniform(size=(batch, side, side, 1)) > 0.5
        model.store.zero_grads()
        t0 = time.perf_counter()
        with Tape() as tape:
            loss, _ = model.loss(model.forward(images, train=True), masks)
        t1 = time.perf_counter()
        backward(tape, loss)
        t2 = time.perf_counter()
        adam_step(params, cfg.train.lr)
        t3 = time.perf_counter()
        if k >= warmup:
            for phase, seconds in zip(PHASES, (t1 - t0, t2 - t1, t3 - t2, t3 - t0)):
                best[phase] = min(best[phase], 1e3 * seconds)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--steps", type=int, default=10)
    parser.add_argument("--warmup", type=int, default=2)
    args = parser.parse_args()
    if args.steps < 1 or args.warmup < 0:
        parser.error("--steps must be at least 1 and --warmup at least 0")
    for side, batch in SIZES:
        best = step_times(side, batch, args.steps, args.warmup)
        print(f"{side}x{side}x{batch}: " + "  ".join(
            f"{phase} {best[phase]:.1f} ms" for phase in PHASES), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
