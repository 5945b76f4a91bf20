"""Overlapping-patch pipeline, augmentation, dataset IO, synthetic data.

Images are float32 (H,W,C) in [0,1]; masks are bool (H,W,1), made so once by
Sample. Patch extraction reflect-pads up to the smallest size where the
patch lattice fits exactly, and reassembly averages every prediction that
covers a pixel, so identity predictions reconstruct the input on the
original region.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import metrics, netpbm


@dataclass(frozen=True)
class PatchGrid:
    original_hw: tuple
    padded_hw: tuple
    patch: int
    stride: int
    offsets: tuple  # (row, col) of every patch's top-left corner


@dataclass
class Sample:
    image: np.ndarray
    mask: np.ndarray
    id: str

    def __post_init__(self):
        if self.image.ndim != 3:
            raise ValueError(f"sample {self.id}: image must be (H,W,C), "
                             f"got {self.image.shape}")
        if self.mask.shape != self.image.shape[:2] + (1,):
            raise ValueError(
                f"sample {self.id}: mask shape {self.mask.shape} does not "
                f"match image {self.image.shape}")
        self.mask = metrics.as_binary(self.mask, f"sample {self.id}: mask")


def check_channels(image: np.ndarray, channels: int, name: str) -> None:
    """Reject an (H,W,C) image the encoder cannot read, naming it `name`."""
    if image.shape[2] != channels:
        raise ValueError(f"{name}: {image.shape[2]}-channel image, but "
                         f"model.encoder.input_channels is {channels}")


def _padded_extent(extent: int, patch: int, stride: int) -> int:
    """Smallest size >= extent with (size - patch) divisible by stride."""
    if extent <= patch:
        return patch
    spans = -(-(extent - patch) // stride)
    return patch + spans * stride


def plan_patches(hw, patch: int = 256, stride: int = 128) -> PatchGrid:
    """Lattice of overlapping patches covering an (H,W) image.

    A 1000x1000 image at patch 256 / stride 128 pads to 1024 and yields
    7x7 = 49 patches.
    """
    if not (patch >= stride >= 1):
        raise ValueError(f"need patch >= stride >= 1, got {patch}/{stride}")
    h, w = hw
    ph = _padded_extent(h, patch, stride)
    pw = _padded_extent(w, patch, stride)
    rows = range(0, ph - patch + 1, stride)
    cols = range(0, pw - patch + 1, stride)
    offsets = tuple((r, c) for r in rows for c in cols)
    return PatchGrid((h, w), (ph, pw), patch, stride, offsets)


def reflect_pad(arr: np.ndarray, padded_hw) -> np.ndarray:
    """Reflect-pad the two leading axes at the bottom and right up to
    padded_hw (numpy repeats the mirror for pads beyond the extent and
    edge-pads a 1-pixel axis)."""
    dh = padded_hw[0] - arr.shape[0]
    dw = padded_hw[1] - arr.shape[1]
    return np.pad(arr, ((0, dh), (0, dw), (0, 0)), mode="reflect")


def extract_patches(sample: Sample, grid: PatchGrid):
    if grid.original_hw != sample.image.shape[:2]:
        raise ValueError(
            f"grid planned for {grid.original_hw}, "
            f"sample is {sample.image.shape[:2]}")
    image = reflect_pad(sample.image, grid.padded_hw)
    mask = reflect_pad(sample.mask, grid.padded_hw)
    p = grid.patch
    out = []
    for r, c in grid.offsets:
        out.append(Sample(image[r:r + p, c:c + p].copy(),
                          mask[r:r + p, c:c + p].copy(),
                          f"{sample.id}+{r}+{c}"))
    return out


def reassemble(patch_preds, grid: PatchGrid) -> np.ndarray:
    """Average per-pixel over covering patches, cropped to the original."""
    preds = list(patch_preds)
    if len(preds) != len(grid.offsets):
        raise ValueError(
            f"{len(preds)} predictions for {len(grid.offsets)} offsets")
    p = grid.patch
    preds = [np.asarray(pred) for pred in preds]
    acc = np.zeros(grid.padded_hw + (1,), dtype=np.float64)
    cover = np.zeros(grid.padded_hw + (1,), dtype=np.float64)
    for (r, c), pred in zip(grid.offsets, preds):
        if pred.shape != (p, p, 1):
            raise ValueError(f"prediction shape {pred.shape}, want ({p},{p},1)")
        acc[r:r + p, c:c + p] += pred
        cover[r:r + p, c:c + p] += 1.0
    h, w = grid.original_hw
    # averaging runs in f64 either way; the output keeps the input precision
    return (acc / cover)[:h, :w].astype(preds[0].dtype)


def augment(sample: Sample, rng: np.random.Generator) -> Sample:
    """Dihedral augmentation: each of hflip/vflip/rot90 with prob 0.5."""
    image, mask = sample.image, sample.mask
    if rng.random() < 0.5:
        image, mask = image[:, ::-1], mask[:, ::-1]
    if rng.random() < 0.5:
        image, mask = image[::-1], mask[::-1]
    if rng.random() < 0.5:
        image = np.rot90(image, axes=(0, 1))
        mask = np.rot90(mask, axes=(0, 1))
    return Sample(np.ascontiguousarray(image), np.ascontiguousarray(mask),
                  sample.id)


def _ellipse(yy, xx, cy, cx, a, b, theta):
    u = (yy - cy) * np.cos(theta) + (xx - cx) * np.sin(theta)
    v = -(yy - cy) * np.sin(theta) + (xx - cx) * np.cos(theta)
    return (u / a) ** 2 + (v / b) ** 2 <= 1.0


def _synth_one(rng: np.random.Generator, hw: int):
    # imported here, so only the synthetic set loads scipy.ndimage
    from scipy.ndimage import gaussian_filter

    base = rng.uniform(0.15, 0.3)
    texture = gaussian_filter(rng.normal(0.0, 1.0, (hw, hw)), sigma=hw / 12)
    grain = rng.normal(0.0, 1.0, (hw, hw))
    background = base + 0.08 * texture + 0.02 * grain
    yy, xx = np.mgrid[0:hw, 0:hw]
    # One large nucleus anchored near a random corner. The mask must stay
    # representable by the coarsest probability heads (2x2 at a 64 input):
    # scattered small nuclei pin the total loss to a constant-prediction
    # floor no training can cross, corner-hugging blobs do not.
    cy = rng.choice([0.08, 0.92]) * hw + rng.uniform(-3.0, 3.0)
    cx = rng.choice([0.08, 0.92]) * hw + rng.uniform(-3.0, 3.0)
    a, b = rng.uniform(0.32 * hw, 0.45 * hw, size=2)
    mask = _ellipse(yy, xx, cy, cx, a, b, rng.uniform(0.0, np.pi))
    tint = rng.uniform(0.5, 0.7, size=3)
    body = gaussian_filter(mask.astype(np.float64), 1.0)
    image = background[:, :, None] + body[:, :, None] * tint
    image = np.clip(image, 0.0, 1.0).astype(np.float32)
    return image, mask[:, :, None]


def synth_dataset(n: int, hw: int, rng: np.random.Generator):
    """Blurred random ellipse nuclei on a textured background.

    Each sample's foreground fraction is forced into [0.06, 0.45] by
    deterministic redraws from spawned child generators, so the dataset is
    reproducible per seed and never empty or saturated.
    """
    if hw % 32 != 0:
        raise ValueError(f"hw must be divisible by 32, got {hw}")
    samples = []
    for i, child in enumerate(rng.spawn(n)):
        while True:
            image, mask = _synth_one(child, hw)
            frac = float(mask.mean(dtype=np.float32))  # float32 keeps seeded sets
            if 0.06 <= frac <= 0.45:
                break
        samples.append(Sample(image, mask, f"synth{i:03d}"))
    return samples


def paired_ids(dir_a, ext_a: str, dir_b, ext_b: str) -> list:
    """Sorted ids with both `dir_a/<id><ext_a>` and `dir_b/<id><ext_b>`; a
    missing directory, an unpaired id or no files on both sides raises
    FileNotFoundError naming it."""
    sides = []
    for directory, ext in ((dir_a, ext_a), (dir_b, ext_b)):
        if not os.path.isdir(directory):
            raise FileNotFoundError(f"not a directory: {directory}")
        sides.append({f[:-len(ext)] for f in os.listdir(directory)
                      if f.endswith(ext)})
    if not (sides[0] or sides[1]):
        raise FileNotFoundError(f"no {ext_a} files in {dir_a} and no {ext_b} files "
                                f"in {dir_b}")
    if sides[0] != sides[1]:
        raise FileNotFoundError(f"unpaired ids between {dir_a} and {dir_b}: "
                                f"{sorted(sides[0] ^ sides[1])}")
    return sorted(sides[0])


def load_dataset(root):
    """Read `images/<id>.ppm` + `masks/<id>.pgm` pairs, sorted by id."""
    img_dir = os.path.join(root, "images")
    mask_dir = os.path.join(root, "masks")
    samples = []
    for sid in paired_ids(img_dir, ".ppm", mask_dir, ".pgm"):
        image = netpbm.read_image(os.path.join(img_dir, sid + ".ppm"))
        mask = netpbm.read_mask(os.path.join(mask_dir, sid + ".pgm"))
        samples.append(Sample(image, mask, sid))
    return samples
