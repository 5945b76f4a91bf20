"""Peak memory of two full-width training steps.

Runs the default 113 M-parameter model (RunConfig()) at batch 1 on a
uniform image and a random mask (seed 4), both --size pixels square: each
step zeroes the gradients, runs the taped forward and the loss, the
backward and one Adam update. After each step it prints the loss, the
backward's seconds and the peak resident set size so far (ru_maxrss).
Exits 1 when that peak exceeds LIMIT_MB, the 4 GB the 256x256 step must
fit in.

    PYTHONPATH=src python3 tools/train_memory.py --size 256
"""

from __future__ import annotations

import argparse
import resource
import sys
import time

import numpy as np

from mcads.config import RunConfig
from mcads.network import SegmentationModel
from mcads.params import adam_step
from mcads.tensor import Tape, backward

STEPS = 2  # the second step is the first with Adam's moments allocated
LIMIT_MB = 4000


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", type=int, default=256)
    args = parser.parse_args()

    cfg = RunConfig()
    model = SegmentationModel(cfg.model)
    rng = np.random.default_rng(4)
    image = rng.uniform(size=(1, args.size, args.size, 3)).astype(np.float32)
    mask = (rng.uniform(size=(1, args.size, args.size, 1)) > 0.5).astype(np.float32)
    params = model.store.trainable_parameters()
    for step in range(1, STEPS + 1):
        model.store.zero_grads()
        with Tape() as tape:
            loss, _ = model.loss(model.forward(image, train=True), mask)
        start = time.perf_counter()
        backward(tape, loss)
        seconds = time.perf_counter() - start
        adam_step(params, cfg.train.lr)
        print(f"step {step}: loss {float(loss.data):.6f}  backward {seconds:.2f} s  "
              f"peak RSS {peak_rss_mb():.0f} MB", flush=True)
    if peak_rss_mb() > LIMIT_MB:
        print(f"peak RSS {peak_rss_mb():.0f} MB exceeds {LIMIT_MB} MB")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
