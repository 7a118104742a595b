import itertools

import numpy as np
import pytest

from lumaswitch.colorspace import rgb_to_hsv, rgb_to_ycbcr
from lumaswitch.imaging import ImageBuffer
from lumaswitch.skinfilter import (
    ChannelRange,
    ColorSpaceId,
    SkinRangeFilter,
    apply_filter,
    calibrate_ranges,
    classify_pixel,
    default_filter,
    parse_filter_config,
    to_space,
)

from conftest import SKIN, make_image


def test_default_ranges():
    f = default_filter()
    assert [(r.lo, r.hi) for r in f.rgb] == [(95, 255), (40, 255), (20, 255)]
    assert (f.hsv[0].lo, f.hsv[0].hi) == (0.04, 0.0882)
    assert (f.hsv[1].lo, f.hsv[1].hi) == (0.11, 0.68)
    assert (f.hsv[2].lo, f.hsv[2].hi) == (0.38, 1.0)
    assert [(r.lo, r.hi) for r in f.ycbcr] == [(100, 125), (135, 170)]


def test_alternative_value_range():
    f = default_filter(narrow_value=True)
    assert (f.hsv[2].lo, f.hsv[2].hi) == (0.112, 0.38)


def test_channel_range_swaps_out_of_order_bounds():
    r = ChannelRange(200, 100)
    assert (r.lo, r.hi) == (100, 200)


def test_classify_rgb_examples():
    f = default_filter()
    assert classify_pixel(ColorSpaceId.RGB, (150, 80, 40), f)
    assert not classify_pixel(ColorSpaceId.RGB, (10, 10, 10), f)


def test_classify_bounds_inclusive():
    f = default_filter()
    assert classify_pixel(ColorSpaceId.RGB, (95, 40, 20), f)
    assert classify_pixel(ColorSpaceId.RGB, (255, 255, 255), f)


def test_classify_ycbcr_ignores_luma():
    f = default_filter()
    assert classify_pixel(ColorSpaceId.YCBCR, (135.66, 107.87584, 159.62624), f)
    # same chroma, extreme luma values still pass
    assert classify_pixel(ColorSpaceId.YCBCR, (0.0, 110, 150), f)
    assert classify_pixel(ColorSpaceId.YCBCR, (255.0, 110, 150), f)
    assert not classify_pixel(ColorSpaceId.YCBCR, (128, 130, 150), f)


def test_classify_hsv_worked_pixel():
    f = default_filter()
    assert classify_pixel(ColorSpaceId.HSV, (0.0417, 0.444, 0.706), f)
    assert not classify_pixel(ColorSpaceId.HSV, (0.0417, 0.444, 0.706), default_filter(narrow_value=True))


def test_skin_pixel_passes_all_three_spaces():
    f = default_filter()
    assert classify_pixel(ColorSpaceId.RGB, SKIN, f)
    assert classify_pixel(ColorSpaceId.HSV, rgb_to_hsv(SKIN), f)
    assert classify_pixel(ColorSpaceId.YCBCR, rgb_to_ycbcr(SKIN), f)


def test_widening_is_monotone():
    rng = np.random.default_rng(12)
    f = default_filter()
    for _ in range(500):
        px = tuple(int(v) for v in rng.integers(0, 256, 3))
        if not classify_pixel(ColorSpaceId.RGB, px, f):
            continue
        wider = SkinRangeFilter(
            rgb=tuple(ChannelRange(r.lo - 5, r.hi) for r in f.rgb),
            hsv=f.hsv,
            ycbcr=f.ycbcr,
        )
        assert classify_pixel(ColorSpaceId.RGB, px, wider)


@pytest.mark.parametrize("space", list(ColorSpaceId))
def test_apply_filter_black_image(space):
    mask = apply_filter(to_space(make_image(4, 4), space), space, default_filter())
    assert not mask.bits.any()


def test_apply_filter_constant_skin_image():
    rgb = ColorSpaceId.RGB
    mask = apply_filter(to_space(make_image(3, 5, SKIN), rgb), rgb, default_filter())
    assert mask.bits.all()


def test_apply_filter_mixed():
    img = ImageBuffer(np.array([[[150, 80, 40], [10, 10, 10]]], dtype=np.uint8))
    mask = apply_filter(to_space(img, ColorSpaceId.RGB), ColorSpaceId.RGB, default_filter())
    assert mask.bits.tolist() == [[True, False]]


def test_apply_filter_is_pixelwise():
    rng = np.random.default_rng(13)
    pixels = rng.integers(0, 256, (6, 6, 3), dtype=np.uint8)
    hsv = ColorSpaceId.HSV
    mask = apply_filter(to_space(ImageBuffer(pixels), hsv), hsv, default_filter())
    f = default_filter()
    for y in range(6):
        for x in range(6):
            px = rgb_to_hsv(tuple(int(v) for v in pixels[y, x]))
            assert mask.bits[y, x] == classify_pixel(ColorSpaceId.HSV, px, f)


# calibration ----------------------------------------------------------------


def _rgb_samples_one_channel(values, labels):
    return [((v, 128, 128), lab) for v, lab in zip(values, labels)]


def _sample_f1(samples, space, filt):
    tp = fp = fn = 0
    for px, lab in samples:
        pred = classify_pixel(space, px, filt)
        tp += pred and lab
        fp += pred and not lab
        fn += (not pred) and lab
    return 0.0 if tp == 0 else 2 * tp / (2 * tp + fp + fn)


def test_calibrate_separable_one_channel():
    samples = _rgb_samples_one_channel([100] * 10 + [200] * 10, [True] * 10 + [False] * 10)
    out = calibrate_ranges(samples, ColorSpaceId.RGB, default_filter())
    r = out.rgb[0]
    assert r.lo <= 100 <= r.hi
    assert not (r.lo <= 200 <= r.hi)
    assert _sample_f1(samples, ColorSpaceId.RGB, out) == 1.0


def test_calibrate_fixed_point():
    # already perfectly separated by the initial filter: nothing to improve
    samples = _rgb_samples_one_channel([120, 130, 50, 60], [True, True, False, False])
    out = calibrate_ranges(samples, ColorSpaceId.RGB, default_filter())
    assert _sample_f1(samples, ColorSpaceId.RGB, out) == 1.0


def test_calibrate_never_worse_and_beats_coarse_oracle():
    rng = np.random.default_rng(21)
    values = rng.integers(0, 256, 200)
    labels = [bool(80 <= v <= 160) != (rng.random() < 0.1) for v in values]
    samples = _rgb_samples_one_channel([int(v) for v in values], labels)
    initial = default_filter()
    out = calibrate_ranges(samples, ColorSpaceId.RGB, initial)
    f1_out = _sample_f1(samples, ColorSpaceId.RGB, out)
    assert f1_out >= _sample_f1(samples, ColorSpaceId.RGB, initial)

    # exhaustive search over (lo, hi) pairs for the red channel, step 8
    best = 0.0
    grid = list(range(0, 256, 8))
    for lo, hi in itertools.product(grid, grid):
        if lo > hi:
            continue
        trial = SkinRangeFilter(
            rgb=(ChannelRange(lo, hi), initial.rgb[1], initial.rgb[2]),
            hsv=initial.hsv,
            ycbcr=initial.ycbcr,
        )
        best = max(best, _sample_f1(samples, ColorSpaceId.RGB, trial))
    assert f1_out >= best - 1e-12


def test_calibrate_rejects_single_class():
    samples = _rgb_samples_one_channel([10, 20, 30], [True, True, True])
    with pytest.raises(ValueError, match="both skin and non-skin"):
        calibrate_ranges(samples, ColorSpaceId.RGB, default_filter())


def test_calibrate_is_deterministic():
    rng = np.random.default_rng(22)
    samples = _rgb_samples_one_channel(
        [int(v) for v in rng.integers(0, 256, 60)],
        [bool(b) for b in rng.random(60) < 0.5],
    )
    a = calibrate_ranges(samples, ColorSpaceId.RGB, default_filter())
    b = calibrate_ranges(samples, ColorSpaceId.RGB, default_filter())
    assert a.to_dict() == b.to_dict()


# configuration --------------------------------------------------------------


def test_parse_filter_config_overrides():
    f = parse_filter_config("rgb.r.lo = 80\nhsv.v.hi = 0.9\n# comment\n\nycbcr.cb.hi=120\n")
    assert f.rgb[0].lo == 80
    assert f.hsv[2].hi == 0.9
    assert f.ycbcr[0].hi == 120
    # untouched keys keep defaults
    assert f.rgb[1].lo == 40


def test_parse_filter_config_bad_key():
    with pytest.raises(ValueError, match="bad key"):
        parse_filter_config("cmy.c.lo = 1\n")
    with pytest.raises(ValueError, match="bad key"):
        parse_filter_config("rgb.r.mid = 1\n")


def test_parse_filter_config_bad_value():
    with pytest.raises(ValueError, match="bad value"):
        parse_filter_config("rgb.r.lo = many\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "+Infinity"])
def test_parse_filter_config_rejects_non_finite_bound(value):
    with pytest.raises(ValueError, match="line 2: bad value"):
        parse_filter_config(f"rgb.g.lo = 10\nrgb.r.lo = {value}\n")


@pytest.mark.parametrize(
    "line",
    ["rgb.r.lo = 300", "rgb.b.hi = -1", "ycbcr.cr.hi = 255.5", "hsv.h.lo = -0.01", "hsv.v.hi = 1.2"],
)
def test_parse_filter_config_rejects_out_of_domain_bound(line):
    with pytest.raises(ValueError, match=r"line 2: bad value .*\(not in \[0, "):
        parse_filter_config(f"rgb.g.lo = 10\n{line}\n")


def test_parse_filter_config_accepts_domain_edges():
    f = parse_filter_config("rgb.r.lo = 0\nycbcr.cr.hi = 255\nhsv.h.lo = 0\nhsv.v.hi = 1\n")
    assert (f.rgb[0].lo, f.ycbcr[1].hi, f.hsv[0].lo, f.hsv[2].hi) == (0, 255, 0, 1)


def test_color_space_parse():
    assert ColorSpaceId.parse("rgb") == ColorSpaceId.RGB
    assert ColorSpaceId.parse("YCbCr") == ColorSpaceId.YCBCR
    with pytest.raises(ValueError):
        ColorSpaceId.parse("cmy")
    assert [s.label for s in ColorSpaceId] == ["RGB", "HSV", "YCbCr"]
