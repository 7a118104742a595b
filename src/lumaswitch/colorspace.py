"""RGB -> HSV / YCbCr conversion and the 9-mean image feature vector.

The features are one ``(9,)`` float64 array in ``FEATURE_KEYS`` order,
from ``feature_vector`` to the selector network and the eval report.

Conventions:
  * HSV via the standard hexcone: h in [0,1), s and v in [0,1].  Hue of
    achromatic pixels is 0, saturation of black is 0.
  * YCbCr via full-range ITU-R BT.601, chroma centered at 128, values
    kept as reals (clamped to [0,255], no rounding).

``image_to_hsv`` and ``image_to_ycbcr`` return channel-first (3, h, w)
planes, one contiguous plane per channel, gathered from tables indexed by
one byte or one byte pair.  The tables are built at import from the float
formulas in their operation order, so the planes are bitwise the hexcone
and BT.601 float values; the tests hold them to those formulas.
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


# Every float the converters compute is a function of one byte or of one
# byte pair, so tables built from the float expressions, in their operation
# order, give the same bits as evaluating them per pixel.  Pair (a, b) is
# entry a << 8 | b of a flat table.
_UNIT = np.arange(256) / 255.0
_DIFF = np.subtract.outer(_UNIT, _UNIT).ravel()  # a/255 - b/255
with np.errstate(divide="ignore", invalid="ignore"):
    _SAT = (_DIFF.reshape(256, 256) / _UNIT[:, None]).ravel()  # (mx, mn)
_SAT[:256] = 0.0  # mx == 0
# the hue divisor, infinite where mx == mn: an achromatic pixel's hue
# numerator is 0, and 0/inf is its hue 0
_HUE_DIV = _DIFF.copy()
_HUE_DIV[::257] = np.inf
# added before the division by 6, by branch: r is max and g >= b, r is max
# and g < b (the hexcone's "% 6"), g is max, b is max
_HUE_OFFSET = np.array([0.0, 6.0, 2.0, 4.0])

# (y, cb, cr) rows: the (r, g) terms, to which the b terms are added; cr's
# b term is stored negated, as x - y and x + (-y) round alike
_BYTE = np.arange(256.0)
_R, _G = _BYTE[:, None], _BYTE[None, :]
_YCC_RG = np.empty((3, 256, 256))
np.add(0.299 * _R, 0.587 * _G, out=_YCC_RG[0])
np.subtract(128.0 - 0.168736 * _R, 0.331264 * _G, out=_YCC_RG[1])
np.subtract(128.0 + 0.5 * _R, 0.418688 * _G, out=_YCC_RG[2])
_YCC_RG = _YCC_RG.reshape(3, 65536)
_YCC_B = np.stack([0.114 * _BYTE, 0.5 * _BYTE, -0.081312 * _BYTE])

# pixels per block: a block's temporaries are reused from the heap and stay
# in cache, where whole-image temporaries would be fresh pages every call
_BLOCK = 16384


def _pair(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    return (hi.astype(np.intp) << 8) | lo


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
    mm = _pair(mx, mn)
    h = _DIFF.take(_pair(hi, lo))
    h /= _HUE_DIV.take(mm)
    h += _HUE_OFFSET.take(branch)
    np.divide(h, 6.0, out=out[0])
    _SAT.take(mm, out=out[1])
    _UNIT.take(mx, out=out[2])


def _ycbcr_rows(px: np.ndarray, out: np.ndarray) -> None:
    r, g, b = px.T.copy()
    np.add(_YCC_RG.take(_pair(r, g), axis=1), _YCC_B.take(b, axis=1), out=out)
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
