"""Exhaustive check: the HSV and YCbCr interval tables give every one of
the 2^24 RGB colours the float test's answer.

Run from the repository root, after the Tier-1 tests:

    PYTHONPATH=src python checks/interval_tables.py

For each filter below it walks the colours in chunks of sixteen red values
(2^20 pixels), and compares ``apply_filter`` on the chunk's uint8 RGB planes,
which looks each pixel up in the filter's table, with ``apply_filter`` on
its ``to_space`` float planes, in HSV and in YCbCr.  The filters are the
default, the benchmark's ``rgb.r.lo = 150``, one that admits every value,
and one with fractional bounds.  It prints one line per filter and space
with its mismatch count and the median seconds of five builds of its
table, each on a new filter object, and exits 1 if any count is not 0.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from lumaswitch.imaging import ImageBuffer
from lumaswitch.skinfilter import ColorSpaceId, apply_filter, parse_filter_config, to_space

REDS_PER_CHUNK = 16
BUILDS = 5  # table builds timed per filter and space

FILTERS = {
    "default": "",
    "rgb.r.lo = 150": "rgb.r.lo = 150\n",
    "full range": (
        "hsv.h.lo = 0\nhsv.h.hi = 1\nhsv.s.lo = 0\nhsv.s.hi = 1\nhsv.v.lo = 0\nhsv.v.hi = 1\n"
        "ycbcr.cb.lo = 0\nycbcr.cb.hi = 255\nycbcr.cr.lo = 0\nycbcr.cr.hi = 255\n"
    ),
    "fractional": (
        "hsv.h.lo = 0.3333\nhsv.h.hi = 0.9001\nhsv.s.lo = 0.05\nhsv.s.hi = 0.777\n"
        "hsv.v.lo = 0.2\nhsv.v.hi = 0.95\n"
        "ycbcr.cb.lo = 77.25\nycbcr.cb.hi = 180.5\nycbcr.cr.lo = 100.75\nycbcr.cr.hi = 150.125\n"
    ),
}
SPACES = (ColorSpaceId.HSV, ColorSpaceId.YCBCR)


def main() -> int:
    start = time.perf_counter()
    filters = {name: parse_filter_config(text) for name, text in FILTERS.items()}
    built = {}
    for name, text in FILTERS.items():
        for space in SPACES:
            # the first lookup of a new filter object builds its table
            seconds = []
            for _ in range(BUILDS):
                filt = parse_filter_config(text)
                tick = time.perf_counter()
                apply_filter(np.zeros((3, 1, 1), np.uint8), space, filt)
                seconds.append(time.perf_counter() - tick)
            built[name, space] = float(np.median(seconds))
    mismatches = dict.fromkeys(built, 0)
    axes = (np.arange(REDS_PER_CHUNK), np.arange(256), np.arange(256))
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 256, 3)
    for red in range(0, 256, REDS_PER_CHUNK):
        image = ImageBuffer((grid + [red, 0, 0]).astype(np.uint8))
        rgb = to_space(image, ColorSpaceId.RGB)
        for space in SPACES:
            planes = to_space(image, space)
            for name, filt in filters.items():
                by_table = apply_filter(rgb, space, filt).bits
                by_float = apply_filter(planes, space, filt).bits
                mismatches[name, space] += int(np.count_nonzero(by_table != by_float))
    for (name, space), count in mismatches.items():
        took = f"table built in {built[name, space]:.3f} s, median of {BUILDS}"
        print(f"{name}, {space.label}: {count} mismatches ({took})")
    seconds = time.perf_counter() - start
    if any(mismatches.values()):
        print(f"interval tables differ from the float test ({seconds:.1f} s)")
        return 1
    print(f"interval tables match the float test on all 2^24 colours ({seconds:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
