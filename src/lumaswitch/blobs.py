"""Connected-component analysis and salt-and-pepper denoising of masks.

Connectivity is 8-way (diagonals included).  Labeling is run-based and
two-scan, after He, Chao & Suzuki, "A run-based two-scan labeling
algorithm", IEEE TIP 17(5), 2008: the first scan finds each row's runs
of set pixels and merges touching runs of adjacent rows, the second
paints every run with its component's label.  Both scans are whole-array
numpy operations, never recursive, and labels follow row-major
first-encounter order, so results are fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import BinaryMask

__all__ = ["ComponentLabeling", "label_components", "largest_component", "denoise"]


@dataclass(frozen=True)
class ComponentLabeling:
    """labels: (h, w) int array, 0 = background, components numbered from 1
    in row-major first-encounter order; sizes[i] = pixel count of label i+1."""

    labels: np.ndarray
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)


def label_components(mask: BinaryMask) -> ComponentLabeling:
    """8-connected component labeling of a binary mask, by runs.

    A run is a maximal horizontal stretch of set pixels, [start, end) in
    one row; runs are numbered in row-major order.  Two runs in adjacent
    rows touch (diagonals included) when each starts no later than the
    other ends.  Touching runs are merged with the smaller run index as
    the root, so each component's root is its first run in scan order.
    """
    bits = mask.bits
    h, w = bits.shape
    edges = np.diff(np.pad(bits.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]

    # run pairs (above, below) that touch: in the row above run i, the runs
    # lo[i]..hi[i]-1 are those ending at or after i's start and starting at
    # or before i's end; the row offset keeps the search inside that row
    stride = w + 1
    row_above = (rows - 1) * stride
    lo = np.searchsorted(rows * stride + ends, row_above + starts, side="left")
    hi = np.searchsorted(rows * stride + starts, row_above + ends, side="right")
    counts = np.maximum(hi - lo, 0)
    below = np.repeat(np.arange(len(rows)), counts)
    first = np.repeat(lo - np.cumsum(counts) + counts, counts)
    above_run = first + np.arange(len(below))

    # hook each pair's larger root onto its smaller one, then flatten every
    # tree to its root; repeat until no pair spans two trees
    root = np.arange(len(rows))
    while len(below):
        a, b = root[above_run], root[below]
        spans = a != b
        above_run, below, a, b = above_run[spans], below[spans], a[spans], b[spans]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        while not np.array_equal(root[root], root):
            root = root[root]

    # roots in run order are components in first-encounter order
    run_label = np.cumsum(root == np.arange(len(rows)))[root]
    lengths = ends - starts
    labels = np.zeros((h, w), dtype=np.int32)
    labels[bits] = np.repeat(run_label, lengths)
    sizes = np.bincount(run_label, weights=lengths)[1:].astype(np.int64)
    return ComponentLabeling(labels=labels, sizes=tuple(sizes.tolist()))


def largest_component(mask: BinaryMask) -> tuple[BinaryMask, int]:
    """Keep only a maximum-size component (lowest label wins ties)."""
    labeling = label_components(mask)
    if labeling.count == 0:
        return BinaryMask(np.zeros_like(mask.bits)), 0
    sizes = np.array(labeling.sizes)
    winner = int(np.argmax(sizes)) + 1  # argmax returns first maximum
    return BinaryMask(labeling.labels == winner), int(sizes[winner - 1])


def denoise(mask: BinaryMask) -> BinaryMask:
    """3x3 neighborhood-majority filter for salt-and-pepper noise.

    Out-of-image neighbors count as background.  A set pixel survives a
    4-of-9 tie region; a clear pixel needs a strict 5-of-9 majority to
    turn on.  This keeps solid regions (including their corners) intact
    while still deleting isolated specks and filling isolated holes.
    """
    bits = mask.bits
    padded = np.pad(bits.astype(np.int8), 1)
    counts = sum(
        padded[1 + dy : padded.shape[0] - 1 + dy, 1 + dx : padded.shape[1] - 1 + dx]
        for dy in (-1, 0, 1)
        for dx in (-1, 0, 1)
    )
    out = np.where(bits, counts >= 4, counts >= 5)
    return BinaryMask(out)
