"""Seeded scene generator and an independent oracle of the segmentation rules.

Two scene kinds, both written as binary PPM:

  smooth   a few large skin-toned ellipses on a smooth non-skin background
           (photo_batch).  The largest ellipse is lit so that one target
           colour space wins maxconnected.
  sparse   one small skin-toned ellipse on a smooth background (frame_stream).
           The whole frame shares one gain, so the lighting that decides the
           winning space is visible in the frame's channel means.

The oracle re-implements the range test and the 3x3 majority denoise with
numpy and labels with scipy.ndimage, so the generator can check what it made
without calling the program under test.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy import ndimage

SPACES = ("RGB", "HSV", "YCbCr")

# Every colour the default HSV range accepts is also accepted by the default
# RGB range, and denoise is monotone, so under the default filter HSV can never
# have a strictly larger blob than RGB and never wins maxconnected.  Raising
# the RGB red bound makes darker skin an HSV (and YCbCr) colour, so that each
# space wins on some images.  Every workload passes this file to the CLI.
FILTER_CONFIG = "rgb.r.lo = 150\n"

# (lo, hi) per constrained channel, after FILTER_CONFIG is applied.
RGB_RANGES = ((150, 255), (40, 255), (20, 255))
HSV_RANGES = ((0.04, 0.0882), (0.11, 0.68), (0.38, 1.0))
CBCR_RANGES = ((100, 125), (135, 170))

SKIN = np.array([200.0, 140.0, 110.0])
# Gain ranges that light SKIN into the class where the target space wins:
# bright skin passes all three spaces (RGB wins the tie), mid skin fails the
# raised RGB red bound (HSV wins its tie with YCbCr), dark skin passes YCbCr only.
GAINS = {"RGB": (0.95, 1.05), "HSV": (0.60, 0.68), "YCbCr": (0.40, 0.45)}
# Class code of each target: bit 0 RGB, bit 1 HSV, bit 2 YCbCr.
TARGET_CODE = {"RGB": 0b111, "HSV": 0b110, "YCbCr": 0b100}


# oracle -----------------------------------------------------------------------


def hsv_planes(px: np.ndarray) -> np.ndarray:
    rgb = px.astype(np.float64) / 255.0
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    mx = rgb.max(axis=-1)
    delta = mx - rgb.min(axis=-1)
    safe = np.where(delta == 0.0, 1.0, delta)
    h = np.select(
        [delta == 0, mx == r, mx == g],
        [0.0, ((g - b) / safe % 6.0) / 6.0, ((b - r) / safe + 2.0) / 6.0],
        ((r - g) / safe + 4.0) / 6.0,
    ) % 1.0
    s = np.where(mx == 0.0, 0.0, delta / np.where(mx == 0.0, 1.0, mx))
    return np.stack([h, s, mx], axis=-1)


def cbcr_planes(px: np.ndarray) -> np.ndarray:
    r, g, b = (px[..., i].astype(np.float64) for i in range(3))
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.clip(np.stack([cb, cr], axis=-1), 0.0, 255.0)


def _inside(planes: np.ndarray, ranges) -> np.ndarray:
    bits = np.ones(planes.shape[:-1], dtype=bool)
    for i, (lo, hi) in enumerate(ranges):
        bits &= (planes[..., i] >= lo) & (planes[..., i] <= hi)
    return bits


def raw_masks(px: np.ndarray) -> list[np.ndarray]:
    """Range-filter masks of an (..., 3) uint8 array, in RGB, HSV, YCbCr order."""
    return [
        _inside(px.astype(np.float64), RGB_RANGES),
        _inside(hsv_planes(px), HSV_RANGES),
        _inside(cbcr_planes(px), CBCR_RANGES),
    ]


def class_code(px: np.ndarray) -> np.ndarray:
    rgb, hsv, ycc = raw_masks(px)
    return rgb * 1 + hsv * 2 + ycc * 4


def denoise(bits: np.ndarray) -> np.ndarray:
    counts = ndimage.correlate(bits.astype(np.int8), np.ones((3, 3), np.int8), mode="constant")
    return np.where(bits, counts >= 4, counts >= 5)


EIGHT = np.ones((3, 3), dtype=bool)


def largest(bits: np.ndarray) -> np.ndarray:
    """The largest 8-connected component (lowest label on ties)."""
    labels, n = ndimage.label(bits, structure=EIGHT)
    if n == 0:
        return np.zeros_like(bits)
    sizes = np.bincount(labels.ravel())[1:]
    return labels == int(np.argmax(sizes)) + 1


def blobs(px: np.ndarray) -> list[np.ndarray]:
    return [largest(denoise(m)) for m in raw_masks(px)]


def maxconnected_winner(px: np.ndarray) -> str:
    sizes = [int(b.sum()) for b in blobs(px)]
    return SPACES[max(range(3), key=lambda i: (sizes[i], -i))]


# generator ----------------------------------------------------------------------


def write_ppm(path: Path, px: np.ndarray) -> None:
    h, w, _ = px.shape
    path.write_bytes(f"P6\n{w} {h}\n255\n".encode("ascii") + px.tobytes())


def _robust(colour: np.ndarray, code: int, margin: int) -> bool:
    """True when the colour and every corner of the cube +-margin around it
    have the given class code."""
    offs = np.array([[dr, dg, db] for dr in (-1, 0, 1) for dg in (-1, 0, 1) for db in (-1, 0, 1)])
    cube = np.clip(colour[None, :] + margin * offs, 0, 255).astype(np.uint8)
    return bool(np.all(class_code(cube) == code))


def pick_colour(rng, centre, jitter: float, code: int, margin: int = 4) -> np.ndarray:
    for _ in range(2000):
        c = np.round(np.asarray(centre, dtype=np.float64) + rng.uniform(-jitter, jitter, 3))
        c = np.clip(c, 0, 255)
        if _robust(c, code, margin):
            return c
    raise RuntimeError(f"no colour of class {code:03b} near {centre}")


def skin_colour(rng, target: str) -> np.ndarray:
    gain = rng.uniform(*GAINS[target])
    return pick_colour(rng, SKIN * gain, 6.0, TARGET_CODE[target])


def _smooth_field(rng, h: int, w: int, cells: int = 6) -> np.ndarray:
    """Low-frequency field in [-1, 1], bilinearly upsampled from a coarse grid."""
    coarse = rng.uniform(-1.0, 1.0, (cells + 1, cells + 1))
    return ndimage.zoom(coarse, ((h - 1) / cells + 1e-9, (w - 1) / cells + 1e-9), order=1)[:h, :w]


def _background(rng, h: int, w: int, gain: float) -> np.ndarray:
    """Smooth blue-green field; blue stays well above red, so no space accepts it."""
    lo = np.array([20.0, 50.0, 120.0])
    hi = np.array([80.0, 140.0, 210.0])
    base = np.stack(
        [lo[i] + (hi[i] - lo[i]) * (0.5 + 0.5 * _smooth_field(rng, h, w)) for i in range(3)],
        axis=-1,
    )
    return base * gain


def _ellipse(h: int, w: int, cy: float, cx: float, ry: float, rx: float) -> np.ndarray:
    yy, xx = np.ogrid[:h, :w]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def _paint(img, region, rng, colour, shade: float = 0.04) -> None:
    h, w = region.shape
    shading = 1.0 + shade * _smooth_field(rng, h, w, cells=3)
    img[region] = colour[None, :] * shading[region][:, None]


def _finish(rng, img: np.ndarray, noise: float, clean: np.ndarray, impulses: float = 0.003):
    """Sensor noise, plus salt and pepper of random colours for the denoise to
    remove.  No impulse lands where `clean` is set: an impulse on a region's
    edge could add a pixel to one space's blob and not another's, and so
    decide a tie that the scene means to leave to the RGB < HSV < YCbCr order."""
    img = img + rng.uniform(-noise, noise, img.shape)
    hit = (rng.random(img.shape[:2]) < impulses) & ~clean
    img[hit] = rng.uniform(0, 255, (int(hit.sum()), 3))
    return np.clip(np.round(img), 0, 255).astype(np.uint8)


def _edges(region: np.ndarray, width: int = 2) -> np.ndarray:
    grown = ndimage.binary_dilation(region, EIGHT, iterations=width)
    return grown & ~ndimage.binary_erosion(region, EIGHT, iterations=width)


def smooth_scene(rng, h: int, w: int, target: str) -> np.ndarray:
    """photo_batch image: a large ellipse lit for the target space, and
    smaller bright-skin ellipses that every space accepts."""
    gain = rng.uniform(*GAINS[target])
    img = _background(rng, h, w, gain)
    skin = np.zeros((h, w), dtype=bool)
    # secondary regions in the left third, the main region in the rest
    for cy in (0.27 * h, 0.73 * h):
        cy, cx = rng.uniform(cy - 0.05 * h, cy + 0.05 * h), rng.uniform(0.1 * w, 0.22 * w)
        region = _ellipse(h, w, cy, cx, rng.uniform(0.105, 0.115) * h, rng.uniform(0.055, 0.065) * w)
        _paint(img, region, rng, skin_colour(rng, "RGB"))
        skin |= region
    cy, cx = rng.uniform(0.45 * h, 0.55 * h), rng.uniform(0.6 * w, 0.68 * w)
    region = _ellipse(h, w, cy, cx, rng.uniform(0.325, 0.335) * h, rng.uniform(0.225, 0.235) * w)
    _paint(img, region, rng, skin_colour(rng, target))
    return _finish(rng, img, 3.0, _edges(skin | region))


def sparse_scene(rng, h: int, w: int, target: str) -> np.ndarray:
    """frame_stream frame: one small ellipse; background and skin share the gain."""
    gain = rng.uniform(*GAINS[target])
    img = _background(rng, h, w, gain / 0.8)
    cy, cx = rng.uniform(0.3 * h, 0.7 * h), rng.uniform(0.3 * w, 0.7 * w)
    region = _ellipse(h, w, cy, cx, rng.uniform(0.118, 0.122) * h, rng.uniform(0.083, 0.087) * w)
    _paint(img, region, rng, skin_colour(rng, target))
    return _finish(rng, img, 3.0, _edges(region))
