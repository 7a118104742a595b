import numpy as np
import pytest

from lumaswitch import colorspace, skinfilter
from lumaswitch.blobs import largest_component
from lumaswitch.imaging import BinaryMask, ImageBuffer, overlay
from lumaswitch.mlp import MlpModel, Normalization
from lumaswitch.skinfilter import ColorSpaceId, apply_filter, default_filter, to_space
from lumaswitch.switching import (
    COMBINED,
    algorithm1_ann_switch,
    algorithm2_max_connected,
    algorithm3_sigma_connect,
    bayesian_routine,
)

from conftest import SKIN, make_image, make_patch_image, patch_mask

# passes only the YCbCr filter (too dark for RGB and HSV)
YCBCR_ONLY = (60, 20, 10)
# passes only the RGB filter (saturation 0 fails HSV, cb=128 fails YCbCr)
RGB_ONLY = (255, 255, 255)


def forcing_model(space):
    """Bias-only network that always predicts the given space."""
    b2 = np.zeros(3)
    b2[int(space)] = 5.0
    model = MlpModel(w1=np.zeros((4, 9)), b1=np.zeros(4), w2=np.zeros((3, 4)), b2=b2)
    return model, Normalization.identity()


def two_region_image():
    """64x64 black canvas: 20x20 YCbCr-only region (400 px) and a
    disjoint 10x10 RGB-only region (100 px)."""
    pixels = np.zeros((64, 64, 3), dtype=np.uint8)
    pixels[4:24, 4:24] = YCBCR_ONLY
    pixels[40:50, 40:50] = RGB_ONLY
    return ImageBuffer(pixels)


@pytest.mark.parametrize("space", list(ColorSpaceId))
def test_routine_patch_fixture_all_spaces(space, patch_image):
    run = bayesian_routine(to_space(patch_image, space), space, default_filter())
    assert run.mask == patch_mask()
    assert run.blob_size == 256
    result = algorithm1_ann_switch(patch_image, *forcing_model(space), default_filter())
    assert result.overlay == overlay(patch_image, run.mask)
    assert np.array_equal(result.overlay.pixels, patch_image.pixels)


@pytest.mark.parametrize("space", list(ColorSpaceId))
def test_routine_black_image(space):
    image = make_image(16, 16)
    run = bayesian_routine(to_space(image, space), space, default_filter())
    assert run.blob_size == 0
    assert not run.mask.bits.any()
    result = algorithm1_ann_switch(image, *forcing_model(space), default_filter())
    assert result.overlay == overlay(image, run.mask)
    assert not result.overlay.pixels.any()


@pytest.mark.parametrize("space", list(ColorSpaceId))
def test_routine_salt_pixels_removed(space, salted_patch_image):
    run = bayesian_routine(to_space(salted_patch_image, space), space, default_filter())
    assert run.mask == patch_mask()
    assert run.blob_size == 256
    # pre-denoise mask still carries the salt
    assert run.raw_mask.count() == 256 + 5


def test_algorithm1_forced_space(patch_image):
    for space in ColorSpaceId:
        model, norm = forcing_model(space)
        result = algorithm1_ann_switch(patch_image, model, norm, default_filter())
        assert result.chosen == space.label
        assert result.blob_size == 256
        assert result.mask == patch_mask()
        assert result.per_space_sizes == {space.label: 256}


def test_algorithm1_equals_direct_routine():
    rng = np.random.default_rng(61)
    filt = default_filter()
    for seed in range(5):
        image = ImageBuffer(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8))
        for space in ColorSpaceId:
            model, norm = forcing_model(space)
            result = algorithm1_ann_switch(image, model, norm, filt)
            direct = bayesian_routine(to_space(image, space), space, filt)
            assert result.mask == direct.mask
            assert result.blob_size == direct.blob_size
            assert result.overlay == overlay(image, direct.mask)
            assert result.raw_mask == direct.raw_mask


def test_algorithm1_tie_breaks_to_rgb(patch_image):
    model = MlpModel(w1=np.zeros((2, 9)), b1=np.zeros(2), w2=np.zeros((3, 2)), b2=np.zeros(3))
    result = algorithm1_ann_switch(patch_image, model, Normalization.identity(), default_filter())
    assert result.chosen == "RGB"


def test_algorithm2_picks_biggest_blob():
    result = algorithm2_max_connected(two_region_image(), default_filter())
    assert result.chosen == "YCbCr"
    assert result.blob_size == 400
    assert result.per_space_sizes == {"RGB": 100, "HSV": 0, "YCbCr": 400}


def test_algorithm2_tie_breaks_to_rgb(patch_image):
    result = algorithm2_max_connected(patch_image, default_filter())
    assert result.per_space_sizes == {"RGB": 256, "HSV": 256, "YCbCr": 256}
    assert result.chosen == "RGB"
    assert result.blob_size == 256


def test_algorithm2_all_black():
    result = algorithm2_max_connected(make_image(8, 8), default_filter())
    assert result.chosen == "RGB"
    assert result.blob_size == 0


def test_algorithm2_matches_independent_recomputation():
    rng = np.random.default_rng(62)
    filt = default_filter()
    for _ in range(10):
        image = ImageBuffer(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8))
        result = algorithm2_max_connected(image, filt)
        runs = {s.label: bayesian_routine(to_space(image, s), s, filt) for s in ColorSpaceId}
        sizes = {label: run.blob_size for label, run in runs.items()}
        assert result.per_space_sizes == sizes
        assert result.blob_size == max(sizes.values())
        assert sizes[result.chosen] == max(sizes.values())
        assert result.overlay == overlay(image, runs[result.chosen].mask)


def test_algorithm3_patch_fixture(patch_image):
    result = algorithm3_sigma_connect(patch_image, default_filter())
    assert result.chosen == COMBINED
    assert result.mask == patch_mask()
    assert result.blob_size == 256


def test_algorithm3_union_keeps_largest_combined_region():
    result = algorithm3_sigma_connect(two_region_image(), default_filter())
    assert result.chosen == COMBINED
    assert result.blob_size == 400
    assert result.mask.bits[10, 10]
    assert not result.mask.bits[45, 45]  # the 100 px region lost


def test_algorithm3_equals_or_of_blobs_plus_largest():
    rng = np.random.default_rng(63)
    filt = default_filter()
    for _ in range(10):
        image = ImageBuffer(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8))
        result = algorithm3_sigma_connect(image, filt, vote_threshold=1)
        union = np.zeros((24, 24), dtype=bool)
        for space in ColorSpaceId:
            union |= bayesian_routine(to_space(image, space), space, filt).mask.bits
        expected, size = largest_component(BinaryMask(union))
        assert result.mask == expected
        assert result.blob_size == size
        assert result.overlay == overlay(image, expected)


def test_algorithm3_vote_threshold_three(patch_image):
    # all three spaces agree on the patch, so full agreement keeps it
    result = algorithm3_sigma_connect(patch_image, default_filter(), vote_threshold=3)
    assert result.mask == patch_mask()
    # the YCbCr-only region never reaches 3 votes
    result = algorithm3_sigma_connect(two_region_image(), default_filter(), vote_threshold=3)
    assert result.blob_size == 0


@pytest.mark.parametrize("threshold", [1, 2, 3])
def test_algorithm3_raw_mask_is_vote_over_filter_masks(threshold, salted_patch_image):
    rng = np.random.default_rng(64)
    filt = default_filter()
    images = [salted_patch_image, two_region_image()]
    images += [ImageBuffer(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8)) for _ in range(5)]
    for image in images:
        result = algorithm3_sigma_connect(image, filt, vote_threshold=threshold)
        votes = sum(
            apply_filter(to_space(image, s), s, filt).bits.astype(int) for s in ColorSpaceId
        )
        assert result.raw_mask == BinaryMask(votes >= threshold)


def test_algorithm3_rejects_bad_threshold(patch_image):
    with pytest.raises(ValueError, match="vote_threshold"):
        algorithm3_sigma_connect(patch_image, default_filter(), vote_threshold=4)


def test_blob_size_equals_popcount_for_all_strategies(salted_patch_image):
    filt = default_filter()
    model, norm = forcing_model(ColorSpaceId.HSV)
    results = [
        algorithm1_ann_switch(salted_patch_image, model, norm, filt),
        algorithm2_max_connected(salted_patch_image, filt),
        algorithm3_sigma_connect(salted_patch_image, filt),
    ]
    for result in results:
        assert result.blob_size == result.mask.count()


def test_each_strategy_overlays_once(monkeypatch, salted_patch_image):
    import lumaswitch.switching as switching

    calls = []

    def counting_overlay(image, mask):
        calls.append(mask)
        return overlay(image, mask)

    monkeypatch.setattr(switching, "overlay", counting_overlay)
    filt = default_filter()
    results = [
        algorithm1_ann_switch(salted_patch_image, *forcing_model(ColorSpaceId.HSV), filt),
        algorithm2_max_connected(salted_patch_image, filt),
        algorithm3_sigma_connect(salted_patch_image, filt),
    ]
    assert calls == [result.mask for result in results]


def test_strategies_deterministic(patch_image):
    filt = default_filter()
    a = algorithm2_max_connected(patch_image, filt)
    b = algorithm2_max_connected(patch_image, filt)
    assert a.mask == b.mask and a.per_space_sizes == b.per_space_sizes and a.chosen == b.chosen


@pytest.mark.parametrize(
    "strategy", ["ann-rgb", "ann-hsv", "ann-ycbcr", "maxconnected", "sigmaconnect"]
)
def test_one_conversion_per_image(strategy, monkeypatch, patch_image):
    calls = {}
    for name in ("image_to_hsv", "image_to_ycbcr"):
        convert = getattr(colorspace, name)

        def counted(image, name=name, convert=convert):
            calls[name] += 1
            return convert(image)

        for module in (colorspace, skinfilter):
            monkeypatch.setattr(module, name, counted)
    filt = default_filter()
    for image in (patch_image, two_region_image()):
        calls.update(image_to_hsv=0, image_to_ycbcr=0)
        if strategy == "maxconnected":
            algorithm2_max_connected(image, filt)
        elif strategy == "sigmaconnect":
            algorithm3_sigma_connect(image, filt)
        else:
            model, norm = forcing_model(ColorSpaceId.parse(strategy[4:]))
            assert algorithm1_ann_switch(image, model, norm, filt).chosen.lower() == strategy[4:]
        assert calls == {"image_to_hsv": 1, "image_to_ycbcr": 1}
