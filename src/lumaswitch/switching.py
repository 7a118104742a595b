"""The segmentation pipeline and the three color-space switching strategies.

Pipeline per space: range filter -> 3x3 majority denoise -> largest
8-connected blob, on the image's ``to_space`` planes, converted once per
image and space.  Each strategy returns the run it chose, its decision
and the overlay of its mask, rendered by one builder, ``_result``.

Strategies:
  * ann:          a trained network picks the space from the 9 channel
                  means of the image's three plane sets, then the
                  pipeline runs on the chosen space's planes only.
  * maxconnected: the pipeline runs in all three spaces and the space
                  with the biggest surviving blob wins.
  * sigmaconnect: the three per-space blobs are combined by pixel vote
                  (union by default) and the largest combined blob is
                  the result.

Ties between spaces always break in index order RGB < HSV < YCbCr.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blobs import denoise, largest_component
from .colorspace import feature_vector
from .imaging import BinaryMask, ImageBuffer, overlay
from .mlp import MlpModel, predict_space
from .skinfilter import ColorSpaceId, SkinRangeFilter, apply_filter, to_space

__all__ = [
    "COMBINED",
    "RoutineOutput",
    "SegmentationResult",
    "bayesian_routine",
    "algorithm1_ann_switch",
    "algorithm2_max_connected",
    "algorithm3_sigma_connect",
]

COMBINED = "Combined"


@dataclass(frozen=True)
class RoutineOutput:
    """Artifacts of one per-space pipeline run, or of sigmaconnect's
    combined vote over the three runs."""

    raw_mask: BinaryMask  # filter output (or its vote at vote_threshold), pre-denoise
    mask: BinaryMask  # largest blob only
    blob_size: int


@dataclass(frozen=True)
class SegmentationResult(RoutineOutput):
    """The run a strategy chose (sigmaconnect's combined one), with its decision."""

    chosen: str  # "RGB" | "HSV" | "YCbCr" | "Combined"
    per_space_sizes: dict[str, int]  # blob size of every space that ran
    overlay: ImageBuffer


def bayesian_routine(
    planes: np.ndarray, space: ColorSpaceId, filt: SkinRangeFilter
) -> RoutineOutput:
    """Full per-space pipeline on ``to_space`` planes; an empty blob is a valid result."""
    raw = apply_filter(planes, space, filt)
    cleaned = denoise(raw)
    blob, size = largest_component(cleaned)
    return RoutineOutput(raw_mask=raw, mask=blob, blob_size=size)


def _every_space(image: ImageBuffer, filt: SkinRangeFilter) -> tuple[dict, dict[str, int]]:
    """The pipeline run in each space, and each space's blob size by label."""
    runs = {s: bayesian_routine(to_space(image, s), s, filt) for s in ColorSpaceId}
    return runs, {s.label: runs[s].blob_size for s in ColorSpaceId}


def _vote(masks, threshold: int) -> BinaryMask:
    """The pixels set in at least ``threshold`` of ``masks``."""
    return BinaryMask(sum(m.bits.astype(np.int8) for m in masks) >= threshold)


def _result(
    chosen: str, image: ImageBuffer, run: RoutineOutput, sizes: dict[str, int]
) -> SegmentationResult:
    """The strategy's decision, with the overlay of its mask rendered."""
    return SegmentationResult(
        **vars(run), chosen=chosen, per_space_sizes=sizes, overlay=overlay(image, run.mask)
    )


def algorithm1_ann_switch(
    image: ImageBuffer, model: MlpModel, filt: SkinRangeFilter
) -> SegmentationResult:
    """Network-selected color space, then the pipeline in that space."""
    planes = [to_space(image, s) for s in ColorSpaceId]
    chosen = predict_space(model, feature_vector(planes))
    run = bayesian_routine(planes[chosen], chosen, filt)
    return _result(chosen.label, image, run, {chosen.label: run.blob_size})


def algorithm2_max_connected(
    image: ImageBuffer, filt: SkinRangeFilter
) -> SegmentationResult:
    """All three spaces; the one with the biggest blob wins."""
    runs, sizes = _every_space(image, filt)
    chosen = max(ColorSpaceId, key=lambda s: (runs[s].blob_size, -int(s)))
    return _result(chosen.label, image, runs[chosen], sizes)


def algorithm3_sigma_connect(
    image: ImageBuffer, filt: SkinRangeFilter, vote_threshold: int = 1
) -> SegmentationResult:
    """Pixel vote across the three per-space blobs, then the largest
    combined component.  vote_threshold 1 is a plain union; 2 or 3 ask
    for agreement between spaces."""
    if vote_threshold not in (1, 2, 3):
        raise ValueError(f"vote_threshold must be 1, 2 or 3, got {vote_threshold}")
    runs, sizes = _every_space(image, filt)
    blob, size = largest_component(_vote([r.mask for r in runs.values()], vote_threshold))
    raw = _vote([r.raw_mask for r in runs.values()], vote_threshold)
    return _result(COMBINED, image, RoutineOutput(raw, blob, size), sizes)
