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
    return all(r.contains(float(pixel[i])) for (_, i), r in _ranges_for(space, filt))


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
    for (_, i), r in _ranges_for(space, filt):
        ch = planes[..., i]
        bits &= (ch >= r.lo) & (ch <= r.hi)
    return BinaryMask(bits)


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
