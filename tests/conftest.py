import re
from pathlib import Path

import numpy as np
import pytest

from lumaswitch.imaging import BinaryMask, ImageBuffer

SKIN = (180, 120, 100)  # passes all three default filters
PATCH_ROWS = slice(24, 40)
PATCH_COLS = slice(20, 36)
SALT_POSITIONS = [(2, 2), (2, 60), (60, 2), (60, 60), (45, 50)]
# the literal [0.112, 0.38] reading of the published HSV value range
NARROW_V = "hsv.v.lo = 0.112\nhsv.v.hi = 0.38\n"


def make_image(h, w, color=(0, 0, 0)):
    return ImageBuffer(np.full((h, w, 3), color, dtype=np.uint8))


def make_patch_image(with_salt=False):
    """64x64 black canvas with a 16x16 skin-colored patch; optionally five
    isolated skin-colored salt pixels far from the patch."""
    pixels = np.zeros((64, 64, 3), dtype=np.uint8)
    pixels[PATCH_ROWS, PATCH_COLS] = SKIN
    if with_salt:
        for y, x in SALT_POSITIONS:
            pixels[y, x] = SKIN
    return ImageBuffer(pixels)


def patch_mask():
    bits = np.zeros((64, 64), dtype=bool)
    bits[PATCH_ROWS, PATCH_COLS] = True
    return BinaryMask(bits)


def read_mask(path):
    """A mask artifact read without lumaswitch's own reader: 'P5', then
    width, height and 255 each after one whitespace byte, then one more
    whitespace byte and exactly width * height bytes, each 0 or 255."""
    header = re.fullmatch(rb"P5\s(\d+)\s(\d+)\s255\s(.*)", Path(path).read_bytes(), re.DOTALL)
    assert header, f"{path}: not a P5 file with maxval 255"
    width, height, raster = int(header[1]), int(header[2]), header[3]
    assert len(raster) == width * height, f"{path}: {len(raster)} pixel bytes"
    assert set(raster) <= {0, 255}, f"{path}: a byte other than 0 or 255"
    return BinaryMask(np.frombuffer(raster, np.uint8).reshape(height, width) == 255)


def random_mask(rng, max_side=32, density=0.5):
    h = int(rng.integers(1, max_side + 1))
    w = int(rng.integers(1, max_side + 1))
    return BinaryMask(rng.random((h, w)) < density)


def flood_fill_components(mask):
    """Brute-force 8-connected partition of the true pixels, as a set of
    frozensets of (y, x) coordinates.  Independent of lumaswitch.blobs."""
    bits = mask.bits
    h, w = bits.shape
    seen = np.zeros_like(bits)
    parts = set()
    for sy in range(h):
        for sx in range(w):
            if not bits[sy, sx] or seen[sy, sx]:
                continue
            frontier = [(sy, sx)]
            seen[sy, sx] = True
            members = []
            while frontier:
                y, x = frontier.pop()
                members.append((y, x))
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        ny, nx = y + dy, x + dx
                        if 0 <= ny < h and 0 <= nx < w and bits[ny, nx] and not seen[ny, nx]:
                            seen[ny, nx] = True
                            frontier.append((ny, nx))
            parts.add(frozenset(members))
    return parts


@pytest.fixture
def patch_image():
    return make_patch_image()


@pytest.fixture
def salted_patch_image():
    return make_patch_image(with_salt=True)
