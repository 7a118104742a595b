"""The segmentation pipeline and the three color-space switching strategies.

Pipeline per space: range filter -> 3x3 majority denoise -> largest
8-connected blob, on the image's ``to_space`` planes, converted once per
image and space.  Each strategy decides; one builder, ``_result``,
renders the overlay of the mask it returns onto the original image.

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

    raw_mask: BinaryMask  # filter output (or its vote), pre-denoise
    mask: BinaryMask  # largest blob only
    blob_size: int


@dataclass(frozen=True)
class SegmentationResult:
    strategy: str  # "ann" | "maxconnected" | "sigmaconnect"
    chosen: str  # "RGB" | "HSV" | "YCbCr" | "Combined"
    mask: BinaryMask
    blob_size: int
    overlay: ImageBuffer
    per_space_sizes: dict[str, int]
    # pre-denoise filter output of the chosen space; for sigmaconnect, the
    # same vote_threshold vote taken over the three spaces' filter outputs
    raw_mask: BinaryMask


def bayesian_routine(
    planes: np.ndarray, space: ColorSpaceId, filt: SkinRangeFilter
) -> RoutineOutput:
    """Full per-space pipeline on ``to_space`` planes; an empty blob is a valid result."""
    raw = apply_filter(planes, space, filt)
    cleaned = denoise(raw)
    blob, size = largest_component(cleaned)
    return RoutineOutput(raw_mask=raw, mask=blob, blob_size=size)


def _result(
    strategy: str, chosen: str, image: ImageBuffer, run: RoutineOutput, sizes: dict[str, int]
) -> SegmentationResult:
    """The strategy's decision, with the overlay of its mask rendered."""
    return SegmentationResult(
        strategy=strategy,
        chosen=chosen,
        mask=run.mask,
        blob_size=run.blob_size,
        overlay=overlay(image, run.mask),
        per_space_sizes=sizes,
        raw_mask=run.raw_mask,
    )


def algorithm1_ann_switch(
    image: ImageBuffer, model: MlpModel, filt: SkinRangeFilter
) -> SegmentationResult:
    """Network-selected color space, then the pipeline in that space."""
    planes = [to_space(image, s) for s in ColorSpaceId]
    chosen = predict_space(model, feature_vector(planes))
    run = bayesian_routine(planes[chosen], chosen, filt)
    return _result("ann", chosen.label, image, run, {chosen.label: run.blob_size})


def algorithm2_max_connected(
    image: ImageBuffer, filt: SkinRangeFilter
) -> SegmentationResult:
    """All three spaces; the one with the biggest blob wins."""
    runs = {s: bayesian_routine(to_space(image, s), s, filt) for s in ColorSpaceId}
    chosen = max(ColorSpaceId, key=lambda s: (runs[s].blob_size, -int(s)))
    sizes = {s.label: runs[s].blob_size for s in ColorSpaceId}
    return _result("maxconnected", chosen.label, image, runs[chosen], sizes)


def algorithm3_sigma_connect(
    image: ImageBuffer, filt: SkinRangeFilter, vote_threshold: int = 1
) -> SegmentationResult:
    """Pixel vote across the three per-space blobs, then the largest
    combined component.  vote_threshold 1 is a plain union; 2 or 3 ask
    for agreement between spaces."""
    if vote_threshold not in (1, 2, 3):
        raise ValueError(f"vote_threshold must be 1, 2 or 3, got {vote_threshold}")
    runs = {s: bayesian_routine(to_space(image, s), s, filt) for s in ColorSpaceId}
    votes = sum(runs[s].mask.bits.astype(np.int8) for s in ColorSpaceId)
    combined = BinaryMask(votes >= vote_threshold)
    blob, size = largest_component(combined)
    raw_votes = sum(runs[s].raw_mask.bits.astype(np.int8) for s in ColorSpaceId)
    run = RoutineOutput(BinaryMask(raw_votes >= vote_threshold), blob, size)
    sizes = {s.label: runs[s].blob_size for s in ColorSpaceId}
    return _result("sigmaconnect", COMBINED, image, run, sizes)
