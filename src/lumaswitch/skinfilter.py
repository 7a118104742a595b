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
HSV and YCbCr by exact interval tables, built from ``to_space`` and the
float test itself once per process for each value of a space's ranges,
and shared read-only.  So maxconnected and sigmaconnect classify all three
spaces from one RGB copy, and float planes serve ann (its features and its
chosen space), the features of ``train`` and ``eval``, and the table build.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
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
# Once a key of the RGB bytes is fixed, every constrained channel is
# monotone in the remaining byte x, so a space's skin set is one interval
# of x:
#   * YCbCr: the key is (r, g) and x is b.  Cb never falls and Cr never
#     rises as b grows.
#   * HSV: the key is (the order code of ``_hsv_code``, max, min) and x is
#     the middle byte.  Max and min fix S and V, and the hue is monotone in x.
# ``_intervals`` finds each key's interval by bisection from that fact
# alone.  A table holds it as lo | hi << 8 in one uint16, so a lookup is one
# ``take``.  It is built from ``to_space`` of synthetic colours and the
# float test's comparisons alone, so the converters stay the only
# definition of a colour's value; checks/interval_tables.py compares the
# tables with ``apply_filter(to_space(...))`` on all 2^24 colours.

# the entry of a key whose interval holds no byte: lo 255 > hi 0
_EMPTY = 0x00FF

# pixels per block of a table lookup: its int64 keys stay in cache
_TABLE_BLOCK = 1 << 16

# a colour of the table build, packed as r | g << 8 | b << 16 in a
# little-endian uint32, whose bytes then read r, g, b, 0
_PACKED = np.dtype("<u4")

# per order code: its max and min channel (the middle one is the third),
# the hue's direction in the middle byte, and whether a middle byte equal
# to min or to max gives another code.  Codes 1 and 6 need r >= g >= b > r
# or the reverse, so they never occur.
_HSV_ROLES = {
    0b111: (0, 2, 1, 0, 0),
    0b101: (0, 1, -1, 1, 0),
    0b011: (1, 2, -1, 0, 1),
    0b010: (1, 0, 1, 1, 0),
    0b100: (2, 1, 1, 0, 1),
    0b000: (2, 0, -1, 1, 1),
}


def _hsv_code(r: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(r >= g) << 2 | (g >= b) << 1 | (r >= b), in uint8 (sums: uint8
    shifts are slow)."""
    code = (r >= g).view(np.uint8) * np.uint8(4)
    code += (g >= b).view(np.uint8) * np.uint8(2)
    code += (r >= b).view(np.uint8)
    return code


def _table_test(planes: np.ndarray, space: ColorSpaceId, filt: SkinRangeFilter) -> np.ndarray:
    """``space``'s range test of uint8 RGB planes, by the filter's table."""
    table = _table(space, getattr(filt, space.name.lower()))
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


@functools.lru_cache(maxsize=8)  # at most 8 MB: an HSV table is 1 MB
def _table(space: ColorSpaceId, bounds: tuple[ChannelRange, ...]) -> np.ndarray:
    """The table of ``space`` under ``bounds``, a filter's ``hsv`` or ``ycbcr``
    ranges: built once per process for each value of them, and shared
    read-only by every filter whose ranges compare equal."""
    table = _hsv_intervals(bounds) if space == ColorSpaceId.HSV else _ycbcr_intervals(bounds)
    table.flags.writeable = False
    return table


def _packed_image(colours: np.ndarray) -> ImageBuffer:
    """The image of (rows, n) packed ``colours``: (rows, n) pixels."""
    packed = colours.astype(_PACKED, copy=False)  # a copy only where uint32 is big-endian
    return ImageBuffer(packed.view(np.uint8).reshape(*colours.shape, 4)[..., :3])


def _intervals(space, bounds, base, step, x0, x1, way) -> np.ndarray:
    """For each key k, the bytes x in [x0[k], x1[k]] at which the colour
    ``base[k] + step * x`` (packed as in ``_packed_image``) passes ``space``'s
    ranges ``bounds``, as table entries.

    ``way`` is each constrained channel's direction in x: 1 rising, -1
    falling, 0 constant.  So c >= lo holds on a suffix of the bytes when c
    rises and on a prefix when it falls, c <= hi the reverse, and a
    constant comparison holds on all bytes or none.  The interval is
    [L, H]: L is the first byte at which every suffix test holds (S), H
    the last at which every prefix test holds (P); a constant test is in
    both.  One probe drops the keys whose S fails at x1 or whose P fails
    at x0, and then both bounds of every other key are bisected in
    lockstep: one ``to_space`` call per round, 8 rounds for 256 bytes.
    """
    ranges = list(zip(_CHANNELS[space], bounds))

    def held(base, xs):
        """S at the bytes xs[0] and P at xs[1] of the keys of ``base``."""
        planes = to_space(_packed_image(base + xs.astype(_PACKED) * step), space)
        out = np.ones(xs.shape, bool)
        s, p = out
        for ((_, i), r), w in zip(ranges, way):
            at_s, at_p = planes[i]
            if w >= 0:
                s &= at_s >= r.lo
                p &= at_p <= r.hi
            if w <= 0:
                s &= at_s <= r.hi
                p &= at_p >= r.lo
        return out

    entry = np.full(len(base), _EMPTY, np.uint16)
    keys = np.flatnonzero(x0 <= x1)
    keys = keys[held(base[keys], np.stack([x1[keys], x0[keys]])).all(axis=0)]
    base, x0, x1 = base[keys], x0[keys], x1[keys]
    # row 0 searches x for L and row 1 searches -x for -H: each looks for
    # the first value at which its test holds, as it does at hi after the
    # probe.  A settled search probes its answer again and stays.
    lo, hi = np.stack([x0, -x1]), np.stack([x1, -x0])
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        ok = held(base, np.abs(mid))  # the bytes: mid[0] and -mid[1]
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid + 1)
    first, last = hi[0], -hi[1]
    entry[keys] = np.where(first <= last, first | last << 8, _EMPTY)
    return entry


def _hsv_intervals(bounds: tuple[ChannelRange, ...]) -> np.ndarray:
    """The HSV table of ``bounds``, keyed on code << 16 | max << 8 | min."""
    hsv = ColorSpaceId.HSV
    table = np.full(8 << 16, _EMPTY, np.uint16)
    mn, mx = np.triu_indices(256)  # every pair with max >= min
    # each code's two end colours, with max 255 and min 0, whose hues bound
    # every hue of the code: a code whose hues all miss the band is skipped
    ends = np.array([
        [255 << 8 * high | x << 8 * (3 - high - low) for x in (open_lo, 255 - open_hi)]
        for high, low, _, open_lo, open_hi in _HSV_ROLES.values()
    ], _PACKED)
    hues = to_space(_packed_image(ends), hsv)[0]
    band = bounds[0]
    for (code, (high, low, way, open_lo, open_hi)), hue in zip(_HSV_ROLES.items(), hues):
        if band.lo <= hue.max() and hue.min() <= band.hi:
            base = (mx << 8 * high | mn << 8 * low).astype(_PACKED)
            step = 1 << 8 * (3 - high - low)  # x is the middle channel
            entries = _intervals(hsv, bounds, base, step, mn + open_lo, mx - open_hi, (way, 0, 0))
            table[code << 16 | mx << 8 | mn] = entries
    return table


def _ycbcr_intervals(bounds: tuple[ChannelRange, ...]) -> np.ndarray:
    """The YCbCr table of ``bounds``, keyed on r << 8 | g."""
    key = np.arange(1 << 16)
    base = (key >> 8 | (key & 0xFF) << 8).astype(_PACKED)  # the colour r | g << 8
    x0 = np.zeros_like(key)
    return _intervals(ColorSpaceId.YCBCR, bounds, base, 1 << 16, x0, x0 + 255, (1, -1))


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
