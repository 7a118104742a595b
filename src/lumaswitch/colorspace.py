"""RGB -> HSV / YCbCr conversion and the 9-mean image feature vector.

Conventions:
  * HSV via the standard hexcone: h in [0,1), s and v in [0,1].  Hue of
    achromatic pixels is 0, saturation of black is 0.
  * YCbCr via full-range ITU-R BT.601, chroma centered at 128, values
    kept as reals (clamped to [0,255], no rounding).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .imaging import ImageBuffer

__all__ = [
    "HsvPixel",
    "YcbcrPixel",
    "FeatureVector",
    "rgb_to_hsv",
    "rgb_to_ycbcr",
    "image_to_hsv",
    "image_to_ycbcr",
    "feature_vector",
]

class HsvPixel(NamedTuple):
    h: float
    s: float
    v: float


class YcbcrPixel(NamedTuple):
    y: float
    cb: float
    cr: float


def rgb_to_hsv(rgb) -> HsvPixel:
    """Hexcone conversion of an 8-bit RGB triple."""
    r, g, b = (c / 255.0 for c in rgb)
    mx = max(r, g, b)
    mn = min(r, g, b)
    delta = mx - mn
    if delta == 0.0:
        h = 0.0
    elif mx == r:
        h = ((g - b) / delta) % 6.0 / 6.0
    elif mx == g:
        h = ((b - r) / delta + 2.0) / 6.0
    else:
        h = ((r - g) / delta + 4.0) / 6.0
    s = 0.0 if mx == 0.0 else delta / mx
    return HsvPixel(h % 1.0, s, mx)


def rgb_to_ycbcr(rgb) -> YcbcrPixel:
    """Full-range BT.601 conversion of an 8-bit RGB triple."""
    r, g, b = (float(c) for c in rgb)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    clamp = lambda x: min(max(x, 0.0), 255.0)
    return YcbcrPixel(clamp(y), clamp(cb), clamp(cr))


def image_to_hsv(image: ImageBuffer) -> np.ndarray:
    """Per-pixel HSV planes, shape (h, w, 3) float64."""
    rgb = image.pixels.astype(np.float64) / 255.0
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
    return np.stack([h % 1.0, s, mx], axis=-1)


def image_to_ycbcr(image: ImageBuffer) -> np.ndarray:
    """Per-pixel full-range BT.601 planes, shape (h, w, 3) float64."""
    rgb = image.pixels.astype(np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    return np.clip(np.stack([y, cb, cr], axis=-1), 0.0, 255.0)


@dataclass(frozen=True)
class FeatureVector:
    """Per-image channel means in fixed order (H,S,V,Y,Cb,Cr,R,G,B)."""

    mean_h: float
    mean_s: float
    mean_v: float
    mean_y: float
    mean_cb: float
    mean_cr: float
    mean_r: float
    mean_g: float
    mean_b: float

    def as_array(self) -> np.ndarray:
        return np.array([getattr(self, k) for k in FEATURE_KEYS], dtype=np.float64)

    def to_json(self) -> str:
        return json.dumps({k: getattr(self, k) for k in FEATURE_KEYS})

    @classmethod
    def from_json(cls, text: str) -> "FeatureVector":
        obj = json.loads(text)
        return cls(**{k: float(obj[k]) for k in FEATURE_KEYS})


# the nine feature names, in field order: array, JSON and model input order
FEATURE_KEYS = tuple(f.name for f in fields(FeatureVector))


def feature_vector(planes) -> FeatureVector:
    """Mean of each of the 9 channels over all pixels, from an image's
    RGB, HSV and YCbCr planes in that order (``skinfilter.to_space``)."""
    rgb, hsv, ycc = planes
    means = [hsv[..., i].mean() for i in range(3)]
    means += [ycc[..., i].mean() for i in range(3)]
    means += [rgb[..., i].mean() for i in range(3)]
    return FeatureVector(*(float(m) for m in means))
