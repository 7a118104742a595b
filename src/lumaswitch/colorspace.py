"""RGB -> HSV / YCbCr conversion and the 9-mean image feature vector.

The features are one ``(9,)`` float64 array in ``FEATURE_KEYS`` order,
from ``feature_vector`` to the selector network and the eval report.

Conventions:
  * HSV via the standard hexcone: h in [0,1), s and v in [0,1].  Hue of
    achromatic pixels is 0, saturation of black is 0.
  * YCbCr via full-range ITU-R BT.601, chroma centered at 128, values
    kept as reals (clamped to [0,255], no rounding).

``image_to_hsv`` and ``image_to_ycbcr`` return channel-first (3, h, w)
planes, one contiguous plane per channel.  They evaluate the hexcone and
BT.601 float formulas in their operation order, one block of pixels at a
time, so the planes are bitwise those float values; the tests hold them to
those formulas.
"""

from __future__ import annotations

import numpy as np

from .imaging import ImageBuffer

__all__ = [
    "rgb_to_hsv",
    "rgb_to_ycbcr",
    "image_to_hsv",
    "image_to_ycbcr",
    "feature_vector",
]

# the nine feature names: array, model input and eval report order
FEATURE_KEYS = (
    "mean_h", "mean_s", "mean_v", "mean_y", "mean_cb", "mean_cr", "mean_r", "mean_g", "mean_b"
)


def rgb_to_hsv(rgb) -> tuple[float, float, float]:
    """Hexcone conversion of an 8-bit RGB triple to (h, s, v)."""
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
    return (h % 1.0, s, mx)


def rgb_to_ycbcr(rgb) -> tuple[float, float, float]:
    """Full-range BT.601 conversion of an 8-bit RGB triple to (y, cb, cr)."""
    r, g, b = (float(c) for c in rgb)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    clamp = lambda x: min(max(x, 0.0), 255.0)
    return (clamp(y), clamp(cb), clamp(cr))


# added before the division by 6, by branch: r is max and g >= b, r is max
# and g < b (the hexcone's "% 6"), g is max, b is max
_HUE_OFFSET = np.array([0.0, 6.0, 2.0, 4.0])

# pixels per block: a block's temporaries are reused from the heap and stay
# in cache, where whole-image temporaries would be fresh pages every call
_BLOCK = 16384


def _unit(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # cast first: numpy 1.x would divide uint8 by a Python float in float16
    return np.divide(c.astype(np.float64), 255.0, out=out)


def _hsv_rows(px: np.ndarray, out: np.ndarray) -> None:
    r, g, b = px.T.copy()  # contiguous planes: byte ops on them are fast
    mx = np.maximum(np.maximum(r, g), b)
    mn = np.minimum(np.minimum(r, g), b)
    # the branch of the max channel, tested r first, then g
    is_r = mx == r
    is_g = (mx == g) & ~is_r
    is_b = ~(is_r | is_g)
    # hue numerator: the two channels after the max one, in r -> g -> b order
    hi = is_r * g + is_g * b + is_b * r
    lo = is_r * b + is_g * r + is_b * g
    branch = (is_r & (g < b)) + is_g * np.uint8(2) + is_b * np.uint8(3)
    v = _unit(mx, out=out[2])
    delta = v - _unit(mn)
    # black's delta is 0, and 0/inf is its saturation 0
    np.divide(delta, np.where(mx == 0, np.inf, v), out=out[1])
    # an achromatic pixel's hue numerator is 0, and 0/inf is its hue 0
    np.copyto(delta, np.inf, where=mx == mn)
    h = _unit(hi)
    h -= _unit(lo)
    h /= delta
    h += _HUE_OFFSET.take(branch)
    np.divide(h, 6.0, out=out[0])


def _ycbcr_rows(px: np.ndarray, out: np.ndarray) -> None:
    r, g, b = px.T.astype(np.float64, order="C")
    out[0] = 0.299 * r + 0.587 * g + 0.114 * b
    out[1] = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    out[2] = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    np.clip(out, 0.0, 255.0, out=out)


def _by_blocks(rows, image: ImageBuffer) -> np.ndarray:
    px = image.pixels.reshape(-1, 3)
    out = np.empty((3, len(px)))
    for start in range(0, len(px), _BLOCK):
        rows(px[start : start + _BLOCK], out[:, start : start + _BLOCK])
    return out.reshape(3, *image.pixels.shape[:2])


def image_to_hsv(image: ImageBuffer) -> np.ndarray:
    """Per-pixel HSV planes, shape (3, h, w) float64, bitwise the values of
    ``rgb_to_hsv``."""
    return _by_blocks(_hsv_rows, image)


def image_to_ycbcr(image: ImageBuffer) -> np.ndarray:
    """Per-pixel full-range BT.601 planes, shape (3, h, w) float64, bitwise
    the values of ``rgb_to_ycbcr``."""
    return _by_blocks(_ycbcr_rows, image)


def feature_vector(planes) -> np.ndarray:
    """Mean of each of the 9 channels over all pixels, as a (9,) float64
    array in ``FEATURE_KEYS`` order, from an image's (3, h, w) RGB, HSV and
    YCbCr planes in that order (``skinfilter.to_space``)."""
    rgb, hsv, ycc = planes
    return np.array([p.mean() for p in (*hsv, *ycc, *rgb)])
