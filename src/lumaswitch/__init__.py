"""Skin pixel segmentation with automatic RGB/HSV/YCbCr color-space switching."""

from .blobs import ComponentLabeling, denoise, label_components, largest_component
from .colorspace import feature_vector, rgb_to_hsv, rgb_to_ycbcr
from .imaging import BinaryMask, ImageBuffer, load_image, overlay, save_image, save_mask
from .mlp import MlpModel, TrainConfig, load_model, predict_space, save_model, train
from .skinfilter import (
    ColorSpaceId,
    SkinRangeFilter,
    apply_filter,
    classify_pixel,
    default_filter,
    to_space,
)
from .switching import (
    SegmentationResult,
    algorithm1_ann_switch,
    algorithm2_max_connected,
    algorithm3_sigma_connect,
    bayesian_routine,
)

__version__ = "0.1.0"
