"""Per-color-space planes (``to_space``) and their range test into skin / non-skin.

Default ranges (all bounds inclusive):

    RGB    R 95-255    G 40-255     B 20-255
    HSV    H 0.04-0.0882   S 0.11-0.68   V 0.38-1.0
    YCbCr  Cb 100-125  Cr 135-170   (Y unconstrained)

The published HSV value range is internally inconsistent (lower bound
above upper); the default reads it as [0.38, 1.0].  The literal [0.112, 0.38]
reading is the config ``hsv.v.lo = 0.112`` / ``hsv.v.hi = 0.38``.  A range
with lo > hi is an error: a hue band cannot wrap around 0.
"""

from __future__ import annotations

import enum
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
        try:
            return _SPACE_TOKENS[token.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown color space {token!r}") from None

    @property
    def label(self) -> str:
        return {0: "RGB", 1: "HSV", 2: "YCbCr"}[int(self)]


_SPACE_TOKENS = {
    "rgb": ColorSpaceId.RGB,
    "hsv": ColorSpaceId.HSV,
    "ycbcr": ColorSpaceId.YCBCR,
}


@dataclass(frozen=True)
class ChannelRange:
    """Inclusive [lo, hi] interval; lo > hi raises ValueError."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"range bounds out of order: lo {self.lo} > hi {self.hi}")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi


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
            "rgb": {c: [r.lo, r.hi] for c, r in zip("rgb", self.rgb)},
            "hsv": {c: [r.lo, r.hi] for c, r in zip("hsv", self.hsv)},
            "ycbcr": {c: [r.lo, r.hi] for c, r in zip(("cb", "cr"), self.ycbcr)},
        }


def default_filter() -> SkinRangeFilter:
    """The published default ranges."""
    return SkinRangeFilter(
        rgb=(ChannelRange(95, 255), ChannelRange(40, 255), ChannelRange(20, 255)),
        hsv=(ChannelRange(0.04, 0.0882), ChannelRange(0.11, 0.68), ChannelRange(0.38, 1.0)),
        ycbcr=(ChannelRange(100, 125), ChannelRange(135, 170)),
    )


def _ranges_for(space: ColorSpaceId, filt: SkinRangeFilter):
    """(channel index in the space's pixel tuple, range) pairs."""
    if space == ColorSpaceId.RGB:
        return list(enumerate(filt.rgb))
    if space == ColorSpaceId.HSV:
        return list(enumerate(filt.hsv))
    # YCbCr pixel is (y, cb, cr); y is unconstrained
    return [(1, filt.ycbcr[0]), (2, filt.ycbcr[1])]


def classify_pixel(space: ColorSpaceId, pixel: Sequence[float], filt: SkinRangeFilter) -> bool:
    """True iff every constrained channel lies inside its range."""
    return all(r.contains(float(pixel[i])) for i, r in _ranges_for(space, filt))


def to_space(image: ImageBuffer, space: ColorSpaceId) -> np.ndarray:
    """The image's (h, w, 3) planes in ``space`` (RGB: its uint8 pixels, not a
    copy; HSV, YCbCr: float64): the one space -> converter map."""
    if space == ColorSpaceId.RGB:
        return image.pixels
    if space == ColorSpaceId.HSV:
        return image_to_hsv(image)
    return image_to_ycbcr(image)


def apply_filter(planes: np.ndarray, space: ColorSpaceId, filt: SkinRangeFilter) -> BinaryMask:
    """Per-pixel range test over planes already in the given space."""
    bits = np.ones(planes.shape[:2], dtype=bool)
    for i, r in _ranges_for(space, filt):
        ch = planes[..., i]
        bits &= (ch >= r.lo) & (ch <= r.hi)
    return BinaryMask(bits)


# configuration ---------------------------------------------------------------

_CONFIG_SLOTS = {
    ("rgb", "r"): 0, ("rgb", "g"): 1, ("rgb", "b"): 2,
    ("hsv", "h"): 0, ("hsv", "s"): 1, ("hsv", "v"): 2,
    ("ycbcr", "cb"): 0, ("ycbcr", "cr"): 1,
}


def parse_filter_config(text: str) -> SkinRangeFilter:
    """Apply "space.channel.lo/hi = value" lines on top of the defaults.

    Blank lines and '#' comments are ignored; unknown keys are errors, and
    so are values outside the channel's domain: [0, 255] for RGB and
    YCbCr, [0, 1] for HSV.  So is a channel left with lo > hi by the last line.
    """
    base = default_filter()
    table = {
        "rgb": [[r.lo, r.hi] for r in base.rgb],
        "hsv": [[r.lo, r.hi] for r in base.hsv],
        "ycbcr": [[r.lo, r.hi] for r in base.ycbcr],
    }
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"filter config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        parts = key.strip().lower().split(".")
        if len(parts) != 3 or parts[2] not in ("lo", "hi"):
            raise ValueError(f"filter config line {lineno}: bad key {key.strip()!r}")
        space, channel, side = parts
        if (space, channel) not in _CONFIG_SLOTS:
            raise ValueError(f"filter config line {lineno}: bad key {key.strip()!r}")
        top = 1.0 if space == "hsv" else 255.0
        try:
            num = float(value.strip())
        except ValueError:
            num = np.nan
        if not 0.0 <= num <= top:  # also rejects nan and inf
            raise ValueError(
                f"filter config line {lineno}: bad value {value.strip()!r}"
                f" (not in [0, {top:g}])"
            )
        table[space][_CONFIG_SLOTS[(space, channel)]][side == "hi"] = num
    for (space, channel), slot in _CONFIG_SLOTS.items():
        lo, hi = table[space][slot]
        if lo > hi:
            raise ValueError(f"filter config: {space}.{channel} has lo {lo:g} > hi {hi:g}")
    return SkinRangeFilter(
        rgb=tuple(ChannelRange(lo, hi) for lo, hi in table["rgb"]),
        hsv=tuple(ChannelRange(lo, hi) for lo, hi in table["hsv"]),
        ycbcr=tuple(ChannelRange(lo, hi) for lo, hi in table["ycbcr"]),
    )
