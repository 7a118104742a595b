"""Exhaustive check: the colour converters give the float formulas' bits
on all 2^24 RGB colours.

Run from the repository root, after the Tier-1 tests:

    PYTHONPATH=src python checks/converters.py

It walks the colours in chunks of four red values (262144 pixels), and
compares ``image_to_hsv`` and ``image_to_ycbcr`` with the float formulas
of ``rgb_to_hsv`` and ``rgb_to_ycbcr`` on whole arrays, as uint64 bit
patterns, so +0.0 and -0.0 differ.  Each chunk's planes must be
C-contiguous (3, h, w) float64.  It prints one line and exits 0 when every
bit matches, and exits 1 at the first chunk that differs.  The Tier-1
converter tests use its ``float_hsv`` and ``float_ycbcr`` as their oracle.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from lumaswitch.colorspace import image_to_hsv, image_to_ycbcr
from lumaswitch.imaging import ImageBuffer

REDS_PER_CHUNK = 4


def float_hsv(px: np.ndarray) -> np.ndarray:
    """The hexcone formulas of ``rgb_to_hsv``, per pixel, as (3, h, w)."""
    rgb = px.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = np.maximum(np.maximum(r, g), b)
    delta = mx - np.minimum(np.minimum(r, g), b)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = np.select(
            [delta == 0.0, mx == r, mx == g],
            [0.0, ((g - b) / delta) % 6.0 / 6.0, ((b - r) / delta + 2.0) / 6.0],
            ((r - g) / delta + 4.0) / 6.0,
        )
        s = np.where(mx == 0.0, 0.0, delta / mx)
    return np.stack([h % 1.0, s, mx])


def float_ycbcr(px: np.ndarray) -> np.ndarray:
    """The BT.601 formulas of ``rgb_to_ycbcr``, per pixel, as (3, h, w)."""
    rgb = px.astype(np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.clip(np.stack([y, cb, cr]), 0.0, 255.0)


def main() -> int:
    start = time.perf_counter()
    axes = (np.arange(REDS_PER_CHUNK), np.arange(256), np.arange(256))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 256, 3)
    for red in range(0, 256, REDS_PER_CHUNK):
        px = (grid + [red, 0, 0]).astype(np.uint8)
        image = ImageBuffer(px)
        for convert, oracle in ((image_to_hsv, float_hsv), (image_to_ycbcr, float_ycbcr)):
            got = convert(image)
            name = convert.__name__
            if got.dtype != np.float64 or got.shape != (3, *px.shape[:2]) or not got.flags.c_contiguous:
                print(f"{name}: {got.dtype} planes of shape {got.shape}, not C-order (3, h, w) float64")
                return 1
            if not np.array_equal(got.view(np.uint64), oracle(px).view(np.uint64)):
                print(f"{name} differs from its float formulas at red {red} to {red + REDS_PER_CHUNK - 1}")
                return 1
    seconds = time.perf_counter() - start
    print(f"HSV and YCbCr converters match their float formulas on all 2^24 colours ({seconds:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
