"""Output checks on the report lines and artifacts of one CLI child.

Every report line is parsed strictly as it arrives.  Lines of the first pass
over the input pool keep their artifacts for the full check after the run;
a later line must repeat the first-pass line of the same pool image, and its
artifacts must be byte-identical to that image's first-pass artifacts, after
which they are deleted, so the disk holds one pass at most.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import ndimage

SPACES = ("RGB", "HSV", "YCbCr")
ARTIFACTS = ("mask.pgm", "raw.pgm", "overlay.ppm")
EIGHT = np.ones((3, 3), dtype=bool)


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report line")


def parse_line(text: str) -> dict:
    """Strict JSON: NaN and Infinity are rejected, the line must be an object."""
    rec = json.loads(text, parse_constant=_reject_constant)
    if not isinstance(rec, dict):
        raise ValueError("report line is not a JSON object")
    return rec


def _header(magic: str, w: int, h: int) -> bytes:
    return f"{magic}\n{w} {h}\n255\n".encode("ascii")


def read_pnm(path: Path, magic: str, w: int, h: int) -> np.ndarray:
    data = path.read_bytes()
    head = _header(magic, w, h)
    depth = 3 if magic == "P6" else 1
    if not data.startswith(head) or len(data) != len(head) + w * h * depth:
        raise ValueError(f"{path.name}: not a {w}x{h} {magic} file")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=len(head))
    return pixels.reshape(h, w, 3) if depth == 3 else pixels.reshape(h, w)


class RunChecker:
    """Checks the lines of one child against its input list.

    pool:      (h, w, 3) arrays, the distinct input images
    stem_of:   line index -> artifact stem
    file_of:   line index -> the input path the report must name
    """

    def __init__(self, strategy: str, pool, out_dir: Path, stem_of, file_of, stream: bool):
        self.strategy = strategy
        self.pool = pool
        self.out_dir = out_dir
        self.stem_of = stem_of
        self.file_of = file_of
        self.stream = stream
        self.records: dict[int, dict] = {}  # first pass, by pool index
        self.hashes: dict[int, list[bytes]] = {}
        self.failures: dict[int, str] = {}

    def _paths(self, i: int) -> list[Path]:
        return [self.out_dir / f"{self.stem_of(i)}.{a}" for a in ARTIFACTS]

    def on_line(self, i: int, text: str) -> None:
        try:
            self._line(i, text)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            self.failures.setdefault(i, f"line {i}: {exc}")

    def _line(self, i: int, text: str) -> None:
        rec = parse_line(text)
        if rec.get("file") != self.file_of(i):
            raise ValueError(f"report names {rec.get('file')!r}, expected {self.file_of(i)!r}")
        if self.stream and rec.get("frame") != i:
            raise ValueError(f"frame {rec.get('frame')!r}, expected {i}")
        j = i % len(self.pool)
        h, w = self.pool[j].shape[:2]
        sizes = (len(_header("P5", w, h)) + w * h,) * 2 + (len(_header("P6", w, h)) + 3 * w * h,)
        digests = []
        for path, size in zip(self._paths(i), sizes):
            data = path.read_bytes()
            if len(data) != size:
                raise ValueError(f"{path.name}: {len(data)} bytes, expected {size}")
            digests.append(hashlib.sha256(data).digest())
        if i < len(self.pool):
            self.records[i] = rec
            self.hashes[i] = digests
            return
        if j not in self.records:
            raise ValueError(f"no checked first pass over pool image {j}")
        if _strip(rec) != _strip(self.records[j]):
            raise ValueError(f"report differs from the first pass over pool image {j}")
        if digests != self.hashes[j]:
            raise ValueError(f"artifacts differ from the first pass over pool image {j}")
        for path in self._paths(i):
            path.unlink()

    def check_first_pass(self) -> None:
        """Full check of each first-pass image, after the child has ended."""
        for j, rec in self.records.items():
            try:
                self._full(j, rec)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                self.failures[j] = f"pool image {j}: {exc}"

    def _full(self, j: int, rec: dict) -> None:
        image = self.pool[j]
        h, w = image.shape[:2]
        mask_path, raw_path, overlay_path = self._paths(j)
        mask = read_pnm(mask_path, "P5", w, h)
        raw = read_pnm(raw_path, "P5", w, h)
        overlay = read_pnm(overlay_path, "P6", w, h)
        for name, m in (("mask", mask), ("raw mask", raw)):
            if not np.all((m == 0) | (m == 255)):
                raise ValueError(f"{name} has values other than 0 and 255")
        bits = mask == 255
        blob = rec["blob_size"]
        if not isinstance(blob, int) or int(bits.sum()) != blob:
            raise ValueError(f"blob_size {blob!r} != mask popcount {int(bits.sum())}")
        components = ndimage.label(bits, structure=EIGHT)[1]
        if components != (1 if blob else 0):
            raise ValueError(f"mask has {components} 8-connected components")
        if not np.array_equal(overlay, np.where(bits[:, :, None], image, 0)):
            raise ValueError("overlay is not the image under the mask")
        self._choice(rec)

    def _choice(self, rec: dict) -> None:
        if rec["strategy"] != self.strategy:
            raise ValueError(f"strategy {rec['strategy']!r}")
        sizes = rec["per_space_sizes"]
        chosen = rec["chosen"]
        if self.strategy == "ann":
            if chosen not in SPACES or sizes != {chosen: rec["blob_size"]}:
                raise ValueError(f"ann chose {chosen!r} with sizes {sizes}")
            return
        if list(sizes) != list(SPACES) or not all(isinstance(v, int) for v in sizes.values()):
            raise ValueError(f"per_space_sizes {sizes}")
        # maxconnected: largest blob, ties broken RGB < HSV < YCbCr
        best = max(SPACES, key=lambda s: (sizes[s], -SPACES.index(s)))
        if chosen != best or rec["blob_size"] != sizes[chosen]:
            raise ValueError(f"maxconnected chose {chosen!r}, expected {best!r} from {sizes}")

    def chosen_spaces(self) -> set[str]:
        return {rec.get("chosen") for rec in self.records.values()}

    def digest(self) -> str | None:
        """One digest over the first pass: report lines without paths, then
        the artifact bytes; None unless the whole pool was processed."""
        if len(self.records) < len(self.pool):
            return None
        h = hashlib.sha256()
        for j in range(len(self.pool)):
            rec = self.records[j]
            h.update(json.dumps({k: v for k, v in rec.items() if k != "file"}).encode())
            for path in self._paths(j):
                h.update(path.read_bytes())
        return h.hexdigest()


def _strip(rec: dict) -> dict:
    return {k: v for k, v in rec.items() if k not in ("file", "frame")}
