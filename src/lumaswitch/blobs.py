"""Connected-component analysis and salt-and-pepper denoising of masks.

Connectivity is 8-way (diagonals included).  Labeling is run-based and
two-scan, after He, Chao & Suzuki, "A run-based two-scan labeling
algorithm", IEEE TIP 17(5), 2008: the first scan finds each row's runs
of set pixels and merges touching runs of adjacent rows, the second
paints every run with its component's label.  The runs of all rows come
from one flat scan: each row is padded with a clear pixel at both ends,
so in the flattened mask every run starts and ends at a change between
neighbouring values, and no run reaches into the next row.  Both scans
are whole-array numpy operations, never recursive, and labels follow
row-major first-encounter order, so results are fully deterministic.
The 3x3 majority denoise counts each pixel's centre twice, so that one
threshold, 5, keeps a set pixel with 4 of its 9 cells set and turns on a
clear pixel with 5 of 9.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import BinaryMask

__all__ = ["ComponentLabeling", "label_components", "largest_component", "denoise"]


@dataclass(frozen=True)
class ComponentLabeling:
    """labels: (h, w) int32 array, 0 = background, components numbered from 1
    in row-major first-encounter order; sizes: int64 array, sizes[i] = pixel
    count of label i+1."""

    labels: np.ndarray
    sizes: np.ndarray

    @property
    def count(self) -> int:
        return len(self.sizes)


def label_components(mask: BinaryMask) -> ComponentLabeling:
    """8-connected component labeling of a binary mask, by runs.

    A run is a maximal horizontal stretch of set pixels, [start, end) in
    one row; runs are numbered in row-major order.  One scan of the rows,
    each padded with a clear pixel at both ends and laid end to end, finds
    the changes between neighbours: even ones are run starts, odd ones run
    ends, and their flat indices, row * (w + 2) + column, are sort keys
    that keep the rows apart.  Two runs in adjacent rows touch (diagonals
    included) when each starts no later than the other ends.  Touching
    runs are merged with the smaller run index as the root, so each
    component's root is its first run in scan order.
    """
    bits = mask.bits
    h, w = bits.shape
    stride = w + 2
    padded = np.zeros((h, stride), dtype=np.int8)
    padded[:, 1:-1] = bits
    flat = padded.ravel()
    change = np.flatnonzero(flat[1:] != flat[:-1])
    starts, ends = change[0::2], change[1::2]
    runs = len(starts)

    # run pairs (above, below) that touch: in the row above run i, the runs
    # lo[i]..hi[i]-1 are those ending at or after i's start and starting at
    # or before i's end; subtracting one row's stride searches that row only
    lo = np.searchsorted(ends, starts - stride, side="left")
    hi = np.searchsorted(starts, ends - stride, side="right")
    counts = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(runs), counts)
    first = np.repeat(lo - np.cumsum(counts) + counts, counts)
    above_run = first + np.arange(len(below))

    # hook each pair's larger root onto its smaller one, then flatten every
    # tree to its root; repeat until no pair spans two trees
    root = np.arange(runs)
    while len(below):
        a, b = root[above_run], root[below]
        spans = a != b
        above_run, below, a, b = above_run[spans], below[spans], a[spans], b[spans]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root[root], root):
            root = root[root]

    # roots in run order are components in first-encounter order
    run_label = np.cumsum(root == np.arange(runs))[root]
    lengths = ends - starts
    labels = np.zeros((h, w), dtype=np.int32)
    labels[bits] = np.repeat(run_label, lengths)
    return ComponentLabeling(labels, np.bincount(run_label, weights=lengths)[1:].astype(np.int64))


def largest_component(mask: BinaryMask) -> tuple[BinaryMask, int]:
    """Keep only a maximum-size component (lowest label wins ties)."""
    labeling = label_components(mask)
    if labeling.count == 0:
        return BinaryMask(np.zeros_like(mask.bits)), 0
    winner = int(np.argmax(labeling.sizes))  # argmax returns first maximum
    return BinaryMask(labeling.labels == winner + 1), int(labeling.sizes[winner])


def denoise(mask: BinaryMask) -> BinaryMask:
    """3x3 neighborhood-majority filter for salt-and-pepper noise.

    Out-of-image neighbors count as background.  A set pixel survives a
    4-of-9 tie region, which keeps the corners of solid regions; a clear
    pixel needs a strict 5-of-9 majority to turn on.  The count sums three
    rows, then three columns, of a zero-bordered uint8 copy; counting the
    centre twice makes both rules one test, count >= 5.
    """
    bits = mask.bits
    h, w = bits.shape
    padded = np.zeros((h + 2, w + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = bits
    rows = padded[:-2] + padded[1:-1] + padded[2:]
    count = rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]
    count += bits
    return BinaryMask(count >= 5)
