"""Raster containers and PPM/PGM file I/O.

Images are 8-bit RGB rasters, masks are per-pixel booleans.  The on-disk
interchange formats are binary PPM (P6) for color images and binary PGM
(P5) for masks, both with maxval 255; no other format is read.
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

    ``pixels`` has shape (height, width, 3), dtype uint8, row-major.
    """

    pixels: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=np.uint8)
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


def load_image(path: str | os.PathLike) -> ImageBuffer:
    """Load a binary PPM (P6, maxval 255) image.

    Pixel values are returned exactly as stored, no color management.
    """
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, pos = _read_pnm_header(data, path, b"P6")
    need = width * height * 3
    body = data[pos : pos + need]
    if len(body) < need:
        raise PnmError(
            f"{path}: truncated pixel data ({len(body)} of {need} bytes)"
        )
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(height, width, 3)
    return ImageBuffer(pixels.copy())


def save_image(image: ImageBuffer, path: str | os.PathLike) -> None:
    """Write a binary PPM (P6, maxval 255)."""
    path = os.fspath(path)
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(image.pixels.tobytes())


def save_mask(mask: BinaryMask, path: str | os.PathLike) -> None:
    """Write a binary PGM (P5, maxval 255); true -> 255, false -> 0."""
    path = os.fspath(path)
    header = f"P5\n{mask.width} {mask.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write((mask.bits.astype(np.uint8) * 255).tobytes())


def load_mask(path: str | os.PathLike) -> BinaryMask:
    """Load a binary PGM (P5, maxval 255); nonzero bytes read as true."""
    path = os.fspath(path)
    with open(path, "rb") as fh:
        data = fh.read()
    width, height, pos = _read_pnm_header(data, path, b"P5")
    need = width * height
    body = data[pos : pos + need]
    if len(body) < need:
        raise PnmError(f"{path}: truncated pixel data ({len(body)} of {need} bytes)")
    bits = np.frombuffer(body, dtype=np.uint8).reshape(height, width) != 0
    return BinaryMask(bits)


def overlay(image: ImageBuffer, mask: BinaryMask) -> ImageBuffer:
    """Keep image pixels where the mask is set; everything else goes black."""
    if (image.height, image.width) != (mask.height, mask.width):
        raise ValueError(
            f"dimension mismatch: image {image.width}x{image.height}, "
            f"mask {mask.width}x{mask.height}"
        )
    out = np.where(mask.bits[:, :, None], image.pixels, np.uint8(0))
    return ImageBuffer(out)
