"""Raster containers and PPM/PGM file I/O.

Images are 8-bit RGB rasters, masks are per-pixel booleans.  The on-disk
interchange formats are binary PPM (P6) for color images and binary PGM
(P5) for masks, both with maxval 255; no other format is read.  One codec
frames both: ``_read_pnm`` and ``_write_pnm`` take the magic number and
the raster, and the four public load/save functions only choose those.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ImageBuffer",
    "BinaryMask",
    "PnmError",
    "load_image",
    "save_image",
    "save_mask",
    "load_mask",
    "overlay",
]


class PnmError(ValueError):
    """Raised for malformed or truncated PPM/PGM files."""


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

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def __eq__(self, other):
        if not isinstance(other, ImageBuffer):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )


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

    @property
    def width(self) -> int:
        return self.bits.shape[1]

    @property
    def height(self) -> int:
        return self.bits.shape[0]

    def count(self) -> int:
        """Number of set pixels."""
        return int(self.bits.sum())

    def __eq__(self, other):
        if not isinstance(other, BinaryMask):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(
            np.array_equal(self.bits, other.bits)
        )


def _read_pnm_header(data: bytes, path: str, magic: bytes):
    """Parse a PNM header, returning (width, height, offset of pixel data).

    Accepts '#' comments anywhere whitespace is allowed.
    """
    if not data.startswith(magic):
        raise PnmError(f"{path}: not a {magic.decode()} file")
    pos = len(magic)
    fields = []
    while len(fields) < 3:
        if pos >= len(data):
            raise PnmError(f"{path}: truncated header")
        c = data[pos : pos + 1]
        if c == b"#":
            nl = data.find(b"\n", pos)
            if nl < 0:
                raise PnmError(f"{path}: truncated header")
            pos = nl + 1
        elif c.isspace():
            pos += 1
        elif c.isdigit():
            end = pos
            while end < len(data) and data[end : end + 1].isdigit():
                end += 1
            if end - pos > 9:
                raise PnmError(f"{path}: header number too long")
            fields.append(int(data[pos:end]))
            pos = end
        else:
            raise PnmError(f"{path}: malformed header")
    # exactly one whitespace byte separates maxval from pixel data
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PnmError(f"{path}: malformed header")
    pos += 1
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmError(f"{path}: invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PnmError(f"{path}: unsupported maxval {maxval} (must be 255)")
    return width, height, pos


def _read_pnm(path: str | os.PathLike, magic: bytes, depth: int) -> np.ndarray:
    """The (height, width, depth) uint8 raster of a binary PNM file."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, pos = _read_pnm_header(data, path, magic)
    need = width * height * depth
    body = data[pos : pos + need]
    if len(body) < need:
        raise PnmError(f"{path}: truncated pixel data ({len(body)} of {need} bytes)")
    return np.frombuffer(body, dtype=np.uint8).reshape(height, width, depth)


def _write_pnm(path: str | os.PathLike, magic: bytes, raster: np.ndarray) -> None:
    """Write an (height, width[, 3]) uint8 raster as binary PNM, maxval 255."""
    height, width = raster.shape[:2]
    with open(path, "wb") as fh:
        fh.write(magic + f"\n{width} {height}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())


def load_image(path: str | os.PathLike) -> ImageBuffer:
    """Load a binary PPM (P6, maxval 255) image, pixel values as stored."""
    return ImageBuffer(_read_pnm(path, b"P6", 3).copy())


def save_image(image: ImageBuffer, path: str | os.PathLike) -> None:
    """Write a binary PPM (P6, maxval 255)."""
    _write_pnm(path, b"P6", image.pixels)


def save_mask(mask: BinaryMask, path: str | os.PathLike) -> None:
    """Write a binary PGM (P5, maxval 255); true -> 255, false -> 0."""
    _write_pnm(path, b"P5", mask.bits.astype(np.uint8) * 255)


def load_mask(path: str | os.PathLike) -> BinaryMask:
    """Load a binary PGM (P5, maxval 255); nonzero bytes read as true."""
    return BinaryMask(_read_pnm(path, b"P5", 1)[..., 0] != 0)


def overlay(image: ImageBuffer, mask: BinaryMask) -> ImageBuffer:
    """Keep image pixels where the mask is set; everything else goes black."""
    if (image.height, image.width) != (mask.height, mask.width):
        raise ValueError(
            f"dimension mismatch: image {image.width}x{image.height}, "
            f"mask {mask.width}x{mask.height}"
        )
    out = np.where(mask.bits[:, :, None], image.pixels, np.uint8(0))
    return ImageBuffer(out)
