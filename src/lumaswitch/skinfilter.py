"""Per-color-space planes (``to_space``) and their range test into skin / non-skin.

Default ranges (all bounds inclusive):

    RGB    R 95-255    G 40-255     B 20-255
    HSV    H 0.04-0.0882   S 0.11-0.68   V 0.38-1.0
    YCbCr  Cb 100-125  Cr 135-170   (Y unconstrained)

The published HSV value range is internally inconsistent (lower bound
above upper); the default reads it as [0.38, 1.0].  The literal [0.112, 0.38]
reading is the config ``hsv.v.lo = 0.112`` / ``hsv.v.hi = 0.38``.  A range
with lo > hi is an error: a hue band cannot wrap around 0.

``_CHANNELS`` is the one table of which planes each space tests and what
they are called; the range test, the report's ``filter`` object and the
``space.channel.lo/hi`` config keys are all read from it.

``apply_filter`` takes the planes of one space as ``to_space`` gives them,
or the image's uint8 RGB planes in any space.  From the RGB bytes it tests
HSV and YCbCr by the filter's exact interval tables, which each filter
object builds on first use, once, from ``to_space`` and the float test
itself.  So maxconnected and sigmaconnect classify all three spaces from
one RGB copy, and float planes serve ann (its features and its chosen
space), the features of ``train`` and ``eval``, and the table build.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .colorspace import image_to_hsv, image_to_ycbcr
from .imaging import BinaryMask, ImageBuffer

__all__ = [
    "ColorSpaceId",
    "ChannelRange",
    "SkinRangeFilter",
    "default_filter",
    "classify_pixel",
    "to_space",
    "apply_filter",
    "parse_filter_config",
]

class ColorSpaceId(enum.IntEnum):
    RGB = 0
    HSV = 1
    YCBCR = 2

    @classmethod
    def parse(cls, token: str) -> "ColorSpaceId":
        for space in cls:
            if space.name.lower() == token.strip().lower():
                return space
        raise ValueError(f"unknown color space {token!r}")

    @property
    def label(self) -> str:
        return {0: "RGB", 1: "HSV", 2: "YCbCr"}[int(self)]


# (channel name, plane index) of each channel a space's range test constrains;
# a SkinRangeFilter holds one range per entry, in this order
_CHANNELS = {
    ColorSpaceId.RGB: (("r", 0), ("g", 1), ("b", 2)),
    ColorSpaceId.HSV: (("h", 0), ("s", 1), ("v", 2)),
    ColorSpaceId.YCBCR: (("cb", 1), ("cr", 2)),  # luma is unconstrained
}


@dataclass(frozen=True)
class ChannelRange:
    """Inclusive [lo, hi] interval; lo > hi raises ValueError."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"range bounds out of order: lo {self.lo} > hi {self.hi}")


@dataclass(frozen=True)
class SkinRangeFilter:
    """The three per-space channel range sets.

    The YCbCr entry constrains only Cb and Cr; luma never participates.
    """

    rgb: tuple[ChannelRange, ChannelRange, ChannelRange]
    hsv: tuple[ChannelRange, ChannelRange, ChannelRange]
    ycbcr: tuple[ChannelRange, ChannelRange]

    def to_dict(self) -> dict:
        return {
            space.name.lower(): {c: [r.lo, r.hi] for (c, _), r in _ranges_for(space, self)}
            for space in ColorSpaceId
        }

    # built on first use, once per filter object: apply_filter's lookup
    # tables for uint8 RGB planes (see "interval tables" below)
    @cached_property
    def _hsv_table(self) -> np.ndarray:
        return _hsv_intervals(self)

    @cached_property
    def _ycbcr_table(self) -> np.ndarray:
        return _ycbcr_intervals(self)


def default_filter() -> SkinRangeFilter:
    """The published default ranges."""
    return SkinRangeFilter(
        rgb=(ChannelRange(95, 255), ChannelRange(40, 255), ChannelRange(20, 255)),
        hsv=(ChannelRange(0.04, 0.0882), ChannelRange(0.11, 0.68), ChannelRange(0.38, 1.0)),
        ycbcr=(ChannelRange(100, 125), ChannelRange(135, 170)),
    )


def _ranges_for(space: ColorSpaceId, filt: SkinRangeFilter):
    """((channel name, plane index), range) for each channel ``space`` constrains."""
    return zip(_CHANNELS[space], getattr(filt, space.name.lower()))


def classify_pixel(space: ColorSpaceId, pixel: Sequence[float], filt: SkinRangeFilter) -> bool:
    """True iff every constrained channel lies inside its range."""
    return all(r.lo <= float(pixel[i]) <= r.hi for (_, i), r in _ranges_for(space, filt))


def to_space(image: ImageBuffer, space: ColorSpaceId) -> np.ndarray:
    """The image's C-contiguous (3, h, w) planes in ``space`` (RGB: a uint8
    copy of its pixels; HSV, YCbCr: float64): the one space -> converter map."""
    if space == ColorSpaceId.RGB:
        return np.ascontiguousarray(np.moveaxis(image.pixels, -1, 0))
    if space == ColorSpaceId.HSV:
        return image_to_hsv(image)
    return image_to_ycbcr(image)


def _byte_bounds(r: ChannelRange) -> tuple[int, int]:
    """The integer [lo, hi] that holds the same uint8 values as ``r``:
    ceil(lo) and floor(hi), clamped to [-1, 256] (an empty range for nan)."""
    lo = 256 if not r.lo <= 256 else -1 if r.lo < -1 else math.ceil(r.lo)
    hi = -1 if not r.hi >= -1 else 256 if r.hi > 256 else math.floor(r.hi)
    return lo, hi


def apply_filter(planes: np.ndarray, space: ColorSpaceId, filt: SkinRangeFilter) -> BinaryMask:
    """Per-pixel range test over (3, h, w) planes.

    float64 planes hold the values of ``space`` (``to_space``) and are
    compared with the filter's bounds.  uint8 planes hold the image's RGB
    bytes, whatever ``space`` is: RGB is compared with the integer bounds
    that select the same bytes, and HSV and YCbCr are looked up in the
    filter's interval tables, which give every colour the float test's
    answer.  Either is several times faster than the float path.
    """
    if planes.dtype == np.uint8 and space != ColorSpaceId.RGB:
        return BinaryMask(_table_test(planes, space, filt))
    bits = np.ones(planes.shape[1:], dtype=bool)
    for (_, i), r in _ranges_for(space, filt):
        lo, hi = _byte_bounds(r) if planes.dtype == np.uint8 else (r.lo, r.hi)
        bits &= planes[i] >= lo
        bits &= planes[i] <= hi
    return BinaryMask(bits)


# interval tables ---------------------------------------------------------------
#
# Once a key of the RGB bytes is fixed, a space's skin set is one interval
# of the remaining byte x:
#   * YCbCr: the key is (r, g) and x is b.  Cb never falls and Cr never
#     rises as b grows.
#   * HSV: the key is (the order code of ``_hsv_code``, max, min) and x is
#     the middle byte.  Max and min fix S and V, and within a key the hue
#     is monotone in x.
# Three more facts let whole sets of keys go unprobed: S falls as min
# grows for a fixed max; the hues of one HSV code lie between those of its
# two end colours with max 255 and min 0; and Cb never rises and Cr never
# falls as r grows.
# A table holds each key's interval as lo | hi << 8 in one uint16, so a
# lookup is one ``take``.  It is built from ``to_space`` of synthetic colours
# and the float test's comparisons alone, so the converters stay the only
# definition of a colour's value; checks/interval_tables.py compares the
# tables with ``apply_filter(to_space(...))`` on all 2^24 colours.

# the entry of a key whose interval holds no byte: lo 255 > hi 0
_EMPTY = 0x00FF

# pixels per block of a table lookup: its int64 keys stay in cache
_TABLE_BLOCK = 1 << 16

# a colour of the table build, packed as r | g << 8 | b << 16 in a
# little-endian uint32, whose bytes then read r, g, b, 0
_PACKED = np.dtype("<u4")

# (max, min) channel of each order code; the middle channel is the third.
# Codes 1 and 6 need r >= g >= b > r or the reverse, so they never occur.
_HSV_ROLES = {0b111: (0, 2), 0b101: (0, 1), 0b011: (1, 2), 0b010: (1, 0), 0b100: (2, 1), 0b000: (2, 0)}


def _hsv_code(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(r >= g) << 2 | (g >= b) << 1 | (r >= b), in uint8 (sums: uint8
    shifts are slow)."""
    code = (r >= g).view(np.uint8) * np.uint8(4)
    code += (g >= b).view(np.uint8) * np.uint8(2)
    code += (r >= b).view(np.uint8)
    return code


def _table_test(planes: np.ndarray, space: ColorSpaceId, filt: SkinRangeFilter) -> np.ndarray:
    """``space``'s range test of uint8 RGB planes, by the filter's table."""
    table = filt._hsv_table if space == ColorSpaceId.HSV else filt._ycbcr_table
    flat = planes.reshape(3, -1)
    bits = np.empty(flat.shape[1], bool)
    for start in range(0, flat.shape[1], _TABLE_BLOCK):
        r, g, b = flat[:, start : start + _TABLE_BLOCK]
        if space == ColorSpaceId.HSV:
            mx = np.maximum(np.maximum(r, g), b)
            mn = np.minimum(np.minimum(r, g), b)
            key = _hsv_code(r, g, b).astype(np.intp)
            key <<= 8
            key |= mx
            key <<= 8
            key |= mn
            x = r + g + b - mx - mn  # the middle byte: the uint8 sum wraps, the difference unwraps
        else:
            key = r.astype(np.intp)
            key <<= 8
            key |= g
            x = b
        entry = table.take(key)
        out = bits[start : start + _TABLE_BLOCK]
        np.greater_equal(x, entry & 0xFF, out=out)
        out &= x <= entry >> 8
    return bits.reshape(planes.shape[1:])


def _packed_image(colours: np.ndarray) -> ImageBuffer:
    """The image of (rows, n) packed ``colours``: (rows, n) pixels."""
    packed = colours.astype(_PACKED, copy=False)  # a copy only where uint32 is big-endian
    return ImageBuffer(packed.view(np.uint8).reshape(*colours.shape, 4)[..., :3])


def _intervals(space, filt, base, step, x0, x1, offset, slope) -> np.ndarray:
    """For each key k, the bytes x in [x0[k], x1[k]] at which the colour
    ``base[k] + step * x`` (packed as in ``_packed_image``) passes ``filt``
    in ``space``, as table entries.

    ``offset + slope * x`` guesses each constrained channel of each key at
    x, and the sign of every key's slope is the channel's direction in x
    (0: constant).  So each comparison holds on a suffix of the bytes, on a
    prefix, or on all or none, and the interval is [L, H]: L is the first
    byte at which every suffix test holds (S), H the last at which every
    prefix test holds (P).  Both are interpolated from the guesses, checked
    with the converter at L - 1, L, H and H + 1, and walked until the checks
    hold: one ``to_space`` call per round, for the keys not yet settled.
    """
    ranges = list(_ranges_for(space, filt))
    # per channel: +1 rising in x, -1 falling, 0 constant.  So c >= lo holds
    # on a suffix (S) when c rises, on a prefix (P) when it falls, and a
    # constant comparison holds on all bytes or none: it joins S and P.
    way = np.sign(slope.sum(axis=1))
    first, last = np.full(len(x0), -np.inf), np.full(len(x0), np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for (_, r), w, a, b in zip(ranges, way, offset, slope):
            if w:
                at_lo, at_hi = (r.lo - a) / b, (r.hi - a) / b
                first = np.maximum(first, np.ceil(at_lo if w > 0 else at_hi))
                last = np.minimum(last, np.floor(at_hi if w > 0 else at_lo))
    # fmin and fmax drop a nan, so a nan bound, which fails every
    # comparison, guesses "never": L = x1 + 1, H = x0 - 1
    ls = np.maximum(np.fmin(first, x1 + 1), x0).astype(np.int16)
    hp = np.minimum(np.fmax(last, x0 - 1), x1).astype(np.int16)
    entry = np.full(len(x0), _EMPTY, np.uint16)
    keys = np.flatnonzero(x0 <= x1)
    ls, hp, lo, hi, base = ls[keys], hp[keys], x0[keys], x1[keys], base[keys]
    while keys.size:
        # S fails at L - 1 and holds at L; P holds at H and fails at H + 1.
        # A byte outside [x0, x1] is not asked, and probed at the nearer end.
        xs = np.stack([ls - 1, ls, hp, hp + 1])
        ask = np.stack([ls > lo, ls <= hi, hp >= lo, hp < hi])
        np.clip(xs, lo, hi, out=xs)
        planes = to_space(_packed_image(base + xs.astype(_PACKED) * step), space)
        s, p = ask.copy(), ask.copy()  # an unasked byte reads as failing both
        for ((_, i), r), w in zip(ranges, way):
            for held, rising in ((planes[i] >= r.lo, w), (planes[i] <= r.hi, -w)):
                if rising >= 0:
                    s &= held
                if rising <= 0:
                    p &= held
        down_s, up_s = s[0], ask[1] & ~s[1]
        down_p, up_p = ask[2] & ~p[2], p[3]
        ls += up_s.view(np.int8) - down_s.view(np.int8)
        hp += up_p.view(np.int8) - down_p.view(np.int8)
        # a byte at which S and P both fail lies between H and L
        empty = (ask & ~s & ~p).any(axis=0)
        done = empty | ~(down_s | up_s | down_p | up_p)
        full = done & ~empty & (ls <= hp)
        entry[keys[full]] = ls[full].astype(np.uint16) | hp[full].astype(np.uint16) << 8
        keys, ls, hp, lo, hi, base = (a[~done] for a in (keys, ls, hp, lo, hi, base))
    return entry


def _hsv_intervals(filt: SkinRangeFilter) -> np.ndarray:
    """The HSV table of ``filt``, keyed on code << 16 | max << 8 | min."""
    hsv = ColorSpaceId.HSV
    table = np.full(8 << 16, _EMPTY, np.uint16)
    # the (max, min) pairs whose S and V pass: the (max, x, x) colours give
    # each max its interval of min, as S falls with x at about 1 - x / max
    top = np.arange(256)
    any_hue = replace(filt, hsv=(ChannelRange(-math.inf, math.inf), *filt.hsv[1:]))
    zero = np.zeros(256)
    guess = np.stack([zero, 1 + zero, zero]), np.stack([zero, -1.0 / np.maximum(top, 1), zero])
    x0, x1 = np.zeros(256, np.int16), top.astype(np.int16)
    pairs = _intervals(hsv, any_hue, top.astype(_PACKED), 0x10100, x0, x1, *guess)
    mx, mn = _spans(pairs)
    # per code: its (max, min, middle) channel, and whether a middle byte
    # equal to min or max gives another code, seen with max 2 and min 0
    roles = []
    for code, (high, low) in _HSV_ROLES.items():
        mid = 3 - high - low
        tie = np.zeros((2, 3), np.uint8)
        tie[:, high], tie[:, mid] = 2, (0, 2)
        roles.append((code, high, low, mid, *(_hsv_code(*tie.T) != code)))
    # with max 255 and min 0: each code's two end bytes, whose hues bound
    # every hue of the code, and x = 85, 170, which fit its hue as about
    # alpha + beta * (x - min) / (max - min)
    wide = np.array([
        [255 << 8 * high | x << 8 * mid for x in (open_lo, 85, 170, 255 - open_hi)]
        for _, high, _, mid, open_lo, open_hi in roles
    ], _PACKED)
    hues = to_space(_packed_image(wide), hsv)[0]
    zero = np.zeros(mx.size)
    for (code, high, low, mid, open_lo, open_hi), hue in zip(roles, hues):
        if not (filt.hsv[0].lo <= hue[[0, 3]].max() and hue[[0, 3]].min() <= filt.hsv[0].hi):
            continue  # no hue of this code passes
        beta = 3 * (hue[2] - hue[1])
        hue_slope = beta / np.maximum(mx - mn, 1)  # max = min: one byte, any guess will do
        offset = np.stack([hue[1] - beta / 3 - hue_slope * mn, zero, zero])
        base = (mx << 8 * high | mn << 8 * low).astype(_PACKED)
        x0, x1 = (mn + open_lo).astype(np.int16), (mx - open_hi).astype(np.int16)
        guess = offset, np.stack([hue_slope, zero, zero])
        table[code << 16 | mx << 8 | mn] = _intervals(hsv, filt, base, 1 << 8 * mid, x0, x1, *guess)
    return table


def _ycbcr_intervals(filt: SkinRangeFilter) -> np.ndarray:
    """The YCbCr table of ``filt``, keyed on r << 8 | g."""
    ycc = ColorSpaceId.YCBCR
    table = np.full(1 << 16, _EMPTY, np.uint16)
    byte = np.arange(256)
    # Cb and Cr are affine in r, g and b inside their clamp: fit them there
    fit = np.array([[[64, 64, 64], [192, 64, 64], [64, 192, 64], [64, 64, 192]]], np.uint8)
    cbcr = to_space(ImageBuffer(fit), ycc)[1:, 0]
    dr, dg, db = ((cbcr[:, 1:] - cbcr[:, :1]) / 128).T[..., None]

    def at(r, g, b):  # the guessed Cb and Cr
        return cbcr[:, :1] + dr * (r - 64) + dg * (g - 64) + db * (b - 64)

    # Cb never rises and Cr never falls as r grows, too.  So, for each g,
    # the keys whose P (Cb <= hi, Cr >= lo) fails at b = 0 are a prefix of
    # r, and those whose S (Cb >= lo, Cr <= hi) fails at b = 255 a suffix:
    # neither holds a colour.  The rest is a band [r0(g), r1(g)].
    (cb_lo, cb_hi), (cr_lo, cr_hi) = ((r.lo, r.hi) for r in filt.ycbcr)
    inf = math.inf
    zero = np.zeros(256, np.int16)
    band = []
    for b, cb, cr in ((0, (-inf, cb_hi), (cr_lo, inf)), (255, (cb_lo, inf), (-inf, cr_hi))):
        half = replace(filt, ycbcr=(ChannelRange(*cb), ChannelRange(*cr)))
        rows = (byte << 8 | b << 16).astype(_PACKED)
        band.append(_intervals(ycc, half, rows, 1, zero, zero + 255, at(0, byte, b), dr))
    g, r = _spans(_intersect(*band))
    zero = np.zeros(r.size, np.int16)
    keys = (r | g << 8).astype(_PACKED)
    table[r << 8 | g] = _intervals(ycc, filt, keys, 1 << 16, zero, zero + 255, at(r, g, 0), db)
    return table


def _intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The entries of the intervals in both ``a`` and ``b``."""
    lo, hi = np.maximum(a & 0xFF, b & 0xFF), np.minimum(a >> 8, b >> 8)
    return np.where(lo <= hi, lo | hi << 8, np.uint16(_EMPTY))


def _spans(entries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(i, x) for every byte x in the interval of ``entries[i]``, by i."""
    lo, hi = (entries & 0xFF).astype(np.intp), (entries >> 8).astype(np.intp)
    count = np.maximum(hi - lo + 1, 0)
    i = np.repeat(np.arange(entries.size), count)
    return i, np.arange(i.size) - np.repeat(np.cumsum(count) - count - lo, count)


# configuration ---------------------------------------------------------------

def parse_filter_config(text: str) -> SkinRangeFilter:
    """Apply "space.channel.lo/hi = value" lines on top of the defaults.

    Blank lines and '#' comments are ignored; unknown keys are errors, and
    so are values outside the channel's domain: [0, 255] for RGB and
    YCbCr, [0, 1] for HSV.  So is a channel left with lo > hi by the last line.
    """
    layout = default_filter().to_dict()
    # "space.channel" -> the [lo, hi] list inside layout, updated in place
    bounds = {f"{s}.{c}": lo_hi for s, chans in layout.items() for c, lo_hi in chans.items()}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"filter config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        name, _, side = key.strip().lower().rpartition(".")
        if name not in bounds or side not in ("lo", "hi"):
            raise ValueError(f"filter config line {lineno}: bad key {key.strip()!r}")
        top = 1.0 if name.startswith("hsv.") else 255.0
        try:
            num = float(value.strip())
        except ValueError:
            num = np.nan
        if not 0.0 <= num <= top:  # also rejects nan and inf
            raise ValueError(
                f"filter config line {lineno}: bad value {value.strip()!r}"
                f" (not in [0, {top:g}])"
            )
        bounds[name][side == "hi"] = num
    for name, (lo, hi) in bounds.items():
        if lo > hi:
            raise ValueError(f"filter config: {name} has lo {lo:g} > hi {hi:g}")
    return SkinRangeFilter(**{
        s: tuple(ChannelRange(lo, hi) for lo, hi in chans.values()) for s, chans in layout.items()
    })
