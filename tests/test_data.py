"""Patch lattice, reassembly, augmentation, synthetic data, and NetPBM IO."""

import numpy as np
import pytest

from mcads import netpbm
from mcads.data import (Sample, augment, extract_patches, load_dataset,
                        plan_patches, reassemble, reflect_pad, synth_dataset)
from mcads.netpbm import NetpbmError


def checkerboard_sample(hw=64, seed=0):
    rng = np.random.default_rng(seed)
    image = rng.uniform(size=(hw, hw, 3)).astype(np.float32)
    yy, xx = np.mgrid[0:hw, 0:hw]
    mask = (((yy // 8) + (xx // 8)) % 2).astype(np.float32)[..., None]
    return Sample(image, mask, "board")


def test_plan_every_lattice_fixture():
    grid = plan_patches((1000, 1000), 256, 128)
    assert grid.padded_hw == (1024, 1024)
    assert len(grid.offsets) == 49
    assert grid.offsets[0] == (0, 0) and grid.offsets[-1] == (768, 768)

    assert len(plan_patches((256, 256), 256, 128).offsets) == 1
    assert len(plan_patches((64, 64), 64, 32).offsets) == 1
    # non-square, non-multiple extents
    grid = plan_patches((300, 130), 256, 128)
    assert grid.padded_hw == (384, 256)
    assert len(grid.offsets) == 2 * 1


def test_plan_rejects_bad_sizes():
    with pytest.raises(ValueError, match="patch >= stride"):
        plan_patches((64, 64), 32, 64)


def test_grid_covers_every_pixel():
    grid = plan_patches((100, 70), 64, 32)
    count = np.zeros(grid.padded_hw)
    for r, c in grid.offsets:
        count[r:r + 64, c:c + 64] += 1
    assert count.min() >= 1
    assert (grid.padded_hw[0] - 64) % 32 == 0


def test_interior_patch_is_plain_slice():
    s = checkerboard_sample(hw=96)
    grid = plan_patches((96, 96), 64, 32)
    patches = extract_patches(s, grid)
    idx = grid.offsets.index((32, 32))
    np.testing.assert_array_equal(patches[idx].image, s.image[32:96, 32:96])
    assert patches[idx].id == "board+32+32"


def test_extract_rejects_foreign_grid():
    s = checkerboard_sample(hw=64)
    with pytest.raises(ValueError, match="planned for"):
        extract_patches(s, plan_patches((96, 96), 64, 32))


def test_identity_reassembly():
    s = checkerboard_sample(hw=100)  # forces reflect padding to 128
    grid = plan_patches((100, 100), 64, 32)
    patches = extract_patches(s, grid)
    rebuilt = reassemble([p.mask for p in patches], grid)
    assert rebuilt.shape == (100, 100, 1)
    assert np.abs(rebuilt - s.mask).max() < 1e-12


def test_reassembly_averages_disagreement():
    grid = plan_patches((64, 64), 64, 32)
    assert len(grid.offsets) == 1
    out = reassemble([np.full((64, 64, 1), 0.7, np.float32)], grid)
    np.testing.assert_allclose(out, 0.7, rtol=1e-6)

    grid = plan_patches((96, 96), 64, 32)
    preds = [np.full((64, 64, 1), 1.0 if i == 0 else 0.0, np.float32)
             for i in range(len(grid.offsets))]
    out = reassemble(preds, grid)
    # pixel (0,0) is covered only by the first patch
    assert out[0, 0, 0] == 1.0
    # center pixels collect all four overlapping patches
    assert 0.2 <= out[48, 48, 0] <= 0.3


def test_reassembly_interior_coverage_is_four():
    grid = plan_patches((128, 128), 64, 32)
    cover = np.zeros((128, 128))
    for r, c in grid.offsets:
        cover[r:r + 64, c:c + 64] += 1
    assert cover[64, 64] == 4.0


def test_reflect_pad_mirrors_content():
    arr = np.arange(6, dtype=np.float32).reshape(2, 3, 1)
    out = reflect_pad(arr, (4, 5))
    assert out.shape == (4, 5, 1)
    np.testing.assert_array_equal(out[:2, :3], arr)
    assert out[2, 0, 0] == arr[0, 0, 0]  # row 2 mirrors row 0
    assert out[0, 3, 0] == arr[0, 1, 0]  # col 3 mirrors col 1
    # a 1-pixel axis is edge-padded while the other axis still reflects
    row = np.array([[[1.0], [2.0]]], dtype=np.float32)
    np.testing.assert_array_equal(reflect_pad(row, (1, 4))[0, :, 0],
                                  [1.0, 2.0, 1.0, 2.0])
    np.testing.assert_array_equal(reflect_pad(row, (3, 4))[:, :, 0],
                                  [[1.0, 2.0, 1.0, 2.0]] * 3)


def test_sample_validation():
    img = np.zeros((8, 8, 3), np.float32)
    for value in (0.5, 2.0, np.nan, -1.0):
        mask = np.zeros((8, 8, 1), np.float32)
        mask[3, 4] = value
        with pytest.raises(ValueError, match="sample bad: mask must be strictly binary"):
            Sample(img, mask, "bad")
    Sample(img, np.ones((8, 8, 1), np.float32), "fine")
    with pytest.raises(ValueError, match="mask shape"):
        Sample(img, np.zeros((4, 4, 1), np.float32), "bad")


def test_augment_involution_and_pairing():
    s = checkerboard_sample()
    # same rng stream on a doubled flip must restore the original
    flipped = Sample(s.image[:, ::-1].copy(), s.mask[:, ::-1].copy(), s.id)
    again = Sample(flipped.image[:, ::-1].copy(), flipped.mask[:, ::-1].copy(),
                   s.id)
    np.testing.assert_array_equal(again.image, s.image)

    for seed in range(20):
        out = augment(s, np.random.default_rng(seed))
        assert set(np.unique(out.mask)) <= {0.0, 1.0}
        assert out.image.shape == s.image.shape
        # mask moved with the image: foreground count is invariant
        assert out.mask.sum() == s.mask.sum()


def test_augment_applies_same_transform_to_both():
    hw = 16
    rng = np.random.default_rng(3)
    image = rng.uniform(size=(hw, hw, 3)).astype(np.float32)
    mask = (image[..., :1] > 0.5).astype(np.float32)
    s = Sample(image, mask, "tied")
    for seed in range(20):
        out = augment(s, np.random.default_rng(seed))
        np.testing.assert_array_equal(out.mask,
                                      (out.image[..., :1] > 0.5).astype(np.float32))


def test_synth_determinism_and_fraction_bounds():
    a = synth_dataset(4, 64, np.random.default_rng(7))
    b = synth_dataset(4, 64, np.random.default_rng(7))
    for sa, sb in zip(a, b):
        np.testing.assert_array_equal(sa.image, sb.image)
        np.testing.assert_array_equal(sa.mask, sb.mask)
        assert sa.id == sb.id
    for seed in range(100):
        (s,) = synth_dataset(1, 64, np.random.default_rng(seed))
        frac = float(s.mask.mean())
        assert 0.05 <= frac <= 0.5
        assert s.image.dtype == np.float32
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0


def test_synth_rejects_bad_extent():
    with pytest.raises(ValueError, match="divisible by 32"):
        synth_dataset(1, 60, np.random.default_rng(0))


def test_dataset_roundtrip(tmp_path):
    samples = synth_dataset(3, 64, np.random.default_rng(5))
    (tmp_path / "images").mkdir(), (tmp_path / "masks").mkdir()
    for s in samples:
        netpbm.write_image(tmp_path / "images" / f"{s.id}.ppm", s.image)
        netpbm.write_mask(tmp_path / "masks" / f"{s.id}.pgm", s.mask)
    loaded = load_dataset(tmp_path)
    assert [s.id for s in loaded] == [s.id for s in samples]
    for orig, back in zip(samples, loaded):
        np.testing.assert_array_equal(back.mask, orig.mask)
        # image quantized to 8 bits on write
        assert np.abs(back.image - orig.image).max() <= 1.0 / 255.0 + 1e-7


def test_load_dataset_reports_unpaired_ids(tmp_path):
    samples = synth_dataset(2, 64, np.random.default_rng(6))
    (tmp_path / "images").mkdir(), (tmp_path / "masks").mkdir()
    for s in samples:
        netpbm.write_image(tmp_path / "images" / f"{s.id}.ppm", s.image)
    netpbm.write_mask(tmp_path / "masks" / "synth000.pgm", samples[0].mask)
    with pytest.raises(FileNotFoundError, match="synth001"):
        load_dataset(tmp_path)


# ---------------------------------------------------------------------------
# NetPBM format


def test_netpbm_roundtrip_gray_and_rgb(tmp_path):
    rng = np.random.default_rng(8)
    gray = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    rgb = rng.integers(0, 256, size=(4, 6, 3), dtype=np.uint8)
    netpbm.write_netpbm(tmp_path / "g.pgm", gray)
    netpbm.write_netpbm(tmp_path / "c.ppm", rgb)
    np.testing.assert_array_equal(netpbm.read_netpbm(tmp_path / "g.pgm"), gray)
    np.testing.assert_array_equal(netpbm.read_netpbm(tmp_path / "c.ppm"), rgb)


def test_netpbm_header_is_canonical(tmp_path):
    netpbm.write_netpbm(tmp_path / "g.pgm", np.zeros((2, 3), np.uint8))
    blob = (tmp_path / "g.pgm").read_bytes()
    assert blob.startswith(b"P5\n3 2\n255\n")
    assert len(blob) == len(b"P5\n3 2\n255\n") + 6


def test_netpbm_accepts_comments(tmp_path):
    payload = bytes(range(6))
    blob = b"P5 # gray\n# full line comment\n3 2 # dims\n255\n" + payload
    (tmp_path / "c.pgm").write_bytes(blob)
    arr = netpbm.read_netpbm(tmp_path / "c.pgm")
    np.testing.assert_array_equal(arr, np.arange(6, dtype=np.uint8).reshape(2, 3))


def test_netpbm_rejects_malformed(tmp_path):
    cases = {
        "magic.pgm": b"P4\n2 2\n255\n" + b"\x00" * 4,
        "maxval.pgm": b"P5\n2 2\n65535\n" + b"\x00" * 8,
        "trunc.pgm": b"P5\n4 4\n255\n" + b"\x00" * 7,
        "dims.pgm": b"P5\n0 2\n255\n",
    }
    for name, blob in cases.items():
        path = tmp_path / name
        path.write_bytes(blob)
        with pytest.raises(NetpbmError):
            netpbm.read_netpbm(path)


def test_mask_read_threshold(tmp_path):
    arr = np.array([[0, 127, 128, 255]], dtype=np.uint8)
    netpbm.write_netpbm(tmp_path / "m.pgm", arr)
    mask = netpbm.read_mask(tmp_path / "m.pgm")
    np.testing.assert_array_equal(mask[..., 0], [[0.0, 0.0, 1.0, 1.0]])


def test_write_mask_binarizes(tmp_path):
    mask = np.array([[[0.2], [0.5], [0.9]]], dtype=np.float32)
    netpbm.write_mask(tmp_path / "m.pgm", mask)
    back = netpbm.read_netpbm(tmp_path / "m.pgm")
    np.testing.assert_array_equal(back, [[0, 255, 255]])


def test_image_io_scales_to_unit_interval(tmp_path):
    img = np.array([[[0.0, 0.5, 1.0]]], dtype=np.float32)
    netpbm.write_image(tmp_path / "i.ppm", img)
    back = netpbm.read_image(tmp_path / "i.ppm")
    assert back.shape == (1, 1, 3)
    np.testing.assert_allclose(back[0, 0], [0.0, 128 / 255.0, 1.0], atol=1e-7)
