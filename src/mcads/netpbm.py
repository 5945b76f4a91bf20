"""Binary NetPBM readers and writers.

Only the 8-bit binary flavors are supported: P5 for grayscale masks and
probability maps, P6 for RGB images. Maxval must be 255; 16-bit files are
rejected. Headers may contain '#' comments. The writer emits the canonical
minimal header, e.g. b"P5\\n<w> <h>\\n255\\n" followed by the payload.
"""

from __future__ import annotations

import math

import numpy as np


class NetpbmError(ValueError):
    """Malformed header, truncated payload, or unsupported variant."""


def _read_header_tokens(data: bytes, count: int):
    """First `count` whitespace-separated tokens, skipping # comments."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i:i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        start = i
        while i < n and not data[i:i + 1].isspace():
            i += 1
        if i == start:
            raise NetpbmError("truncated NetPBM header")
        tokens.append(data[start:i])
    # exactly one whitespace byte separates the header from the payload
    return tokens, i + 1


def read_netpbm(path) -> np.ndarray:
    """Read a P5 or P6 file to a uint8 array, (H,W) or (H,W,3)."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        tokens, offset = _read_header_tokens(data, 4)
        magic = tokens[0]
        if magic not in (b"P5", b"P6"):
            raise NetpbmError(f"unsupported NetPBM magic {magic!r}")
        try:
            w, h, maxval = (int(t) for t in tokens[1:])
        except ValueError as e:
            raise NetpbmError(f"non-numeric NetPBM header field: {e}") from None
        if w <= 0 or h <= 0:
            raise NetpbmError(f"invalid NetPBM dimensions {w}x{h}")
        if maxval != 255:
            raise NetpbmError(f"only maxval 255 is supported, got {maxval}")
        shape = (h, w) if magic == b"P5" else (h, w, 3)
        need = math.prod(shape)
        payload = data[offset:offset + need]
        if len(payload) < need:
            raise NetpbmError(f"truncated payload: {len(payload)} of {need} bytes")
        return np.frombuffer(payload, dtype=np.uint8).reshape(shape).copy()
    except NetpbmError as e:
        raise NetpbmError(f"{path}: {e}") from None


def write_netpbm(path, arr: np.ndarray) -> None:
    """Write uint8 data as P5 (2D or HxWx1) or P6 (HxWx3)."""
    arr = np.asarray(arr)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.dtype != np.uint8:
        raise NetpbmError(f"expected uint8 data, got {arr.dtype}")
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise NetpbmError(f"cannot map shape {arr.shape} to P5/P6")
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(np.ascontiguousarray(arr).tobytes())


def read_image(path) -> np.ndarray:
    """Image file to float32 in [0,1], shaped (H,W,1) or (H,W,3)."""
    arr = read_netpbm(path)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    return arr.astype(np.float32) / 255.0


def write_image(path, image: np.ndarray) -> None:
    """Float image in [0,1] to an 8-bit file, values round(v*255)."""
    image = np.asarray(image)
    arr = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    write_netpbm(path, arr)


def read_mask(path) -> np.ndarray:
    """P5 mask to a bool array of shape (H,W,1); values >= 128 are fg."""
    arr = read_netpbm(path)
    if arr.ndim != 2:
        raise NetpbmError(f"{path}: masks must be single-channel P5")
    return arr[:, :, None] >= 128


def write_mask(path, mask: np.ndarray) -> None:
    """Bool mask, or floats where >= 0.5 is fg, to P5 bytes 0/255."""
    write_netpbm(path, np.where(np.asarray(mask) >= 0.5, 255, 0).astype(np.uint8))
