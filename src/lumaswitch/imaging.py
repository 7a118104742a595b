"""Raster containers and PPM/PGM file I/O.

Images are 8-bit RGB rasters, masks are per-pixel booleans.  Images are
read from binary PPM (P6) with maxval 255, and no other format is read.
Images are written as P6 and masks as binary PGM (P5), both through
``_write_pnm``.  ``load_image`` parses the header with one pattern,
``_PNM_HEADER``; as in netpbm, whitespace (or a '#' comment) must follow
the magic.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImageBuffer",
    "BinaryMask",
    "PnmError",
    "load_image",
    "save_image",
    "save_mask",
    "overlay",
]


class PnmError(ValueError):
    """Raised for malformed or truncated PPM files."""


@dataclass(frozen=True)
class ImageBuffer:
    """A width x height 8-bit RGB raster.

    ``pixels`` has shape (height, width, 3), dtype uint8, row-major.  A
    uint8 array is kept as given, not copied; any other array must hold
    integers in [0, 255], which are cast, never wrapped.
    """

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels)
        if p.dtype != np.uint8:
            with np.errstate(invalid="ignore"):  # nan and inf fail the check below
                q = p.astype(np.uint8)
            if not np.array_equal(q, p):
                raise ValueError("pixel values must be integers in [0, 255]")
            p = q
        if p.ndim != 3 or p.shape[2] != 3 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError(f"expected (h, w, 3) pixel array, got shape {p.shape}")
        object.__setattr__(self, "pixels", p)

    def __eq__(self, other):
        if not isinstance(other, ImageBuffer):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))  # False on a shape mismatch


@dataclass(frozen=True)
class BinaryMask:
    """A width x height boolean raster (the logical image).

    ``bits`` has shape (height, width), dtype bool.
    """

    bits: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bits, dtype=bool)
        if b.ndim != 2:
            raise ValueError(f"expected (h, w) bit array, got shape {b.shape}")
        object.__setattr__(self, "bits", b)

    def count(self) -> int:
        """Number of set pixels."""
        return int(np.count_nonzero(self.bits))

    def __eq__(self, other):
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return bool(np.array_equal(self.bits, other.bits))  # False on a shape mismatch


# After the magic: three numbers (width, height, maxval) of 1 to 9 ASCII
# digits, each after a separator of whitespace that may hold '#' comments
# to the end of their line, then exactly one whitespace byte before the pixels.
_PNM_HEADER = re.compile(3 * rb"(?:\s|#[^\n]*\n)+(\d{1,9})" + rb"\s")


def load_image(path: str | os.PathLike) -> ImageBuffer:
    """Load a binary PPM (P6, maxval 255) image, pixel values as stored."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P6"):
        raise PnmError(f"{path}: not a P6 file")
    header = _PNM_HEADER.match(data, 2)
    if header is None:
        raise PnmError(f"{path}: malformed header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise PnmError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"{path}: unsupported maxval {maxval} (must be 255)")
    need = width * height * 3
    have = len(data) - header.end()
    if have < need:
        raise PnmError(f"{path}: truncated pixel data ({have} of {need} bytes)")
    pixels = np.frombuffer(data, np.uint8, count=need, offset=header.end())
    return ImageBuffer(pixels.reshape(height, width, 3).copy())


def _write_pnm(path: str | os.PathLike, magic: bytes, raster: np.ndarray) -> None:
    """Write an (height, width[, 3]) uint8 raster as binary PNM, maxval 255."""
    height, width = raster.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{width} {height}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def save_image(image: ImageBuffer, path: str | os.PathLike) -> None:
    """Write a binary PPM (P6, maxval 255)."""
    _write_pnm(path, b"P6", image.pixels)


def save_mask(mask: BinaryMask, path: str | os.PathLike) -> None:
    """Write a binary PGM (P5, maxval 255); true -> 255, false -> 0."""
    _write_pnm(path, b"P5", mask.bits.astype(np.uint8) * 255)


def overlay(image: ImageBuffer, mask: BinaryMask) -> ImageBuffer:
    """Keep image pixels where the mask is set; everything else goes black."""
    (h, w), (mh, mw) = image.pixels.shape[:2], mask.bits.shape
    if (h, w) != (mh, mw):
        raise ValueError(f"dimension mismatch: image {w}x{h}, mask {mw}x{mh}")
    # as (h, 3w) byte rows: a repeated mask multiplies several times faster
    # than one broadcast over the length-3 colour axis
    rows = image.pixels.reshape(h, 3 * w) * np.repeat(mask.bits.view(np.uint8), 3, axis=1)
    return ImageBuffer(rows.reshape(h, w, 3))
