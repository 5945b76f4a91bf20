"""SHA-256 fingerprints of the numbers a change to the kernels must keep.

Prints one hash per item, so two checkouts give the same bytes exactly
when their lines match:

- desk_eval: the desk model's (RunConfig.desk()) six eval maps for seeded
  4x64x64 images;
- desk_train: three seeded desk training steps (taped forward, loss,
  backward, Adam): each step's losses, every parameter's gradient, and
  every parameter after the update, batch-norm running statistics
  included;
- dealt_eval: the eval maps of a model of dealt_config()'s widths (stages
  16-64 wide) for seeded 4x128x128 images, whose largest maps are dealt
  over the cores;
- dealt_train: desk_train's three steps at dealt_eval's widths on 4x128x128
  batches, whose largest maps are dealt in the forward and backward;
- gradcheck: the (name, max_rel_err) row of every gradcheck.run_suite()
  case.

Both eval items first run one untaped train-mode forward of the same
images at BN momentum 0, which sets the running statistics to that batch's:
with the initial ones (mean 0, variance 1) almost every eval probability
saturates at one of float32's bounds, where a change in rounding cannot
show. The hashes hold for one machine, numpy and OpenBLAS thread count
(OpenBLAS's threaded matrix-vector product, which sums train-mode batch
norm's channel statistics, adds in another order than one thread does), so
compare runs made in the same environment. With OpenBLAS on one thread,
every core and one core (`taskset -c 0`, where no kernel deals its blocks)
print the same lines:

    export OPENBLAS_NUM_THREADS=1 PYTHONPATH=src
    python3 tools/fingerprint.py > all.txt
    taskset -c 0 python3 tools/fingerprint.py | diff all.txt -
"""

from __future__ import annotations

import hashlib

import numpy as np

from mcads import gradcheck
from mcads.config import RunConfig
from mcads.decoder import HEAD_ORDER
from mcads.network import SegmentationModel
from mcads.params import adam_step
from mcads.tensor import Tape, backward

BATCH = 4
TRAIN_STEPS = 3
DESK_SIDE = 64
DEALT_SIDE = 128  # first-stage maps span two cores' blocks (test_dealt_blocks)


def dealt_config():
    """The desk model at stages 16-64 wide, whose largest maps at
    DEALT_SIDE are dealt over the cores."""
    cfg = RunConfig.desk().model
    cfg.encoder.stage_filters = (16, 32, 64, 64, 64, 64)
    cfg.encoder.rsu_depths = (4, 4, 3, 3, 3, 3)
    return cfg


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _images(seed: int, side: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(size=(BATCH, side, side, 3)).astype(np.float32)


def _eval_maps(model_cfg, images):
    model_cfg.block.bn_momentum = 0.0
    model = SegmentationModel(model_cfg)
    model(images, train=True)
    out = model(images, train=False)
    return [out.maps[k].data for k in HEAD_ORDER]


def _train_steps(model_cfg, side: int) -> str:
    """TRAIN_STEPS seeded training steps on BATCH x side x side batches."""
    model = SegmentationModel(model_cfg)
    rng = np.random.default_rng(5)
    store, params = model.store, model.store.trainable_parameters()
    lr, arrays = RunConfig.desk().train.lr, []
    for _ in range(TRAIN_STEPS):
        images = rng.uniform(size=(BATCH, side, side, 3)).astype(np.float32)
        masks = rng.uniform(size=(BATCH, side, side, 1)) > 0.5
        store.zero_grads()
        with Tape() as tape:
            loss, heads = model.loss(model.forward(images, train=True), masks)
        backward(tape, loss)
        arrays += [loss.data, np.array([heads[k] for k in sorted(heads)])]
        arrays += [p.grad for p in params]
        adam_step(params, lr)
        arrays += [store[name].data for name in store.names()]
    return _digest(arrays)


def desk_eval() -> str:
    return _digest(_eval_maps(RunConfig.desk().model, _images(4, DESK_SIDE)))


def desk_train() -> str:
    return _train_steps(RunConfig.desk().model, DESK_SIDE)


def dealt_eval() -> str:
    return _digest(_eval_maps(dealt_config(), _images(6, DEALT_SIDE)))


def dealt_train() -> str:
    return _train_steps(dealt_config(), DEALT_SIDE)


def gradcheck_rows() -> str:
    rows = [(r["name"], r["max_rel_err"]) for r in gradcheck.run_suite()]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def main() -> None:
    for name, item in (("desk_eval", desk_eval), ("desk_train", desk_train),
                       ("dealt_eval", dealt_eval), ("dealt_train", dealt_train),
                       ("gradcheck", gradcheck_rows)):
        print(f"{name:<11} {item()}", flush=True)


if __name__ == "__main__":
    main()
