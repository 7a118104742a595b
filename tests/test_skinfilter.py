from dataclasses import replace

import numpy as np
import pytest

from lumaswitch.colorspace import feature_vector, rgb_to_hsv, rgb_to_ycbcr
from lumaswitch.imaging import ImageBuffer
from lumaswitch.skinfilter import (
    ChannelRange,
    ColorSpaceId,
    SkinRangeFilter,
    apply_filter,
    classify_pixel,
    default_filter,
    parse_filter_config,
    to_space,
)

from conftest import NARROW_V, SKIN, make_image


def test_default_ranges():
    f = default_filter()
    assert [(r.lo, r.hi) for r in f.rgb] == [(95, 255), (40, 255), (20, 255)]
    assert (f.hsv[0].lo, f.hsv[0].hi) == (0.04, 0.0882)
    assert (f.hsv[1].lo, f.hsv[1].hi) == (0.11, 0.68)
    assert (f.hsv[2].lo, f.hsv[2].hi) == (0.38, 1.0)
    assert [(r.lo, r.hi) for r in f.ycbcr] == [(100, 125), (135, 170)]


def test_alternative_value_range():
    f = parse_filter_config(NARROW_V)
    assert (f.hsv[2].lo, f.hsv[2].hi) == (0.112, 0.38)


def test_channel_range_swaps_out_of_order_bounds():
    # out-of-order bounds raise: a reversed hue pair may be a band meant to wrap around 0
    with pytest.raises(ValueError, match="out of order"):
        ChannelRange(200, 100)


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
    assert not classify_pixel(ColorSpaceId.HSV, (0.0417, 0.444, 0.706), parse_filter_config(NARROW_V))


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


@pytest.mark.parametrize("shape", [(1, 256), (7, 13), (480, 640), (1080, 1920)])
def test_uint8_rgb_planes_equal_float64_copy(shape):
    rng = np.random.default_rng(shape[1])
    pixels = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    if shape == (1, 256):  # every value in every channel
        pixels[0] = np.stack([rng.permutation(256) for _ in range(3)], axis=-1)
    image = ImageBuffer(pixels)
    planes = [to_space(image, s) for s in ColorSpaceId]
    assert planes[0].dtype == np.uint8
    copies = [pixels.astype(np.float64), *planes[1:]]
    assert feature_vector(planes) == feature_vector(copies)

    bounds = [(95, 255), (0, 255), (94, 94), (94.5, 94.5)]
    bounds += [sorted(rng.uniform(0, 255, 2)) for _ in range(4)]
    filters = [default_filter()]
    filters += [replace(default_filter(), rgb=(ChannelRange(lo, hi),) * 3) for lo, hi in bounds]
    rgb = ColorSpaceId.RGB
    for f in filters:
        assert apply_filter(planes[0], rgb, f) == apply_filter(copies[0], rgb, f)


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


@pytest.mark.parametrize(
    "text, channel",
    [
        ("rgb.r.lo = 200\nrgb.r.hi = 100\n", "rgb.r"),
        ("hsv.h.lo = 0.95\nhsv.h.hi = 0.05\n", "hsv.h"),
        ("ycbcr.cr.lo = 171\n", "ycbcr.cr"),
    ],
)
def test_parse_filter_config_rejects_lo_above_hi(text, channel):
    with pytest.raises(ValueError, match=rf"filter config: {channel} has lo .* > hi "):
        parse_filter_config(text)


def test_parse_filter_config_checks_order_after_the_last_line():
    f = parse_filter_config("rgb.r.hi = 50\nrgb.r.lo = 10\n")
    assert (f.rgb[0].lo, f.rgb[0].hi) == (10, 50)


def test_parse_filter_config_raises_only_value_error():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    keys = st.sampled_from("rgb.r rgb.g rgb.b hsv.h hsv.s hsv.v ycbcr.cb ycbcr.cr".split())
    bound_lines = st.builds(
        "{}.{} = {}".format, keys, st.sampled_from(["lo", "hi"]), st.floats(-1, 300)
    )
    lines = st.one_of(bound_lines, st.text(max_size=30))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(lines, max_size=8))
    def check(lines):
        try:
            f = parse_filter_config("\n".join(lines))
        except ValueError:
            return
        for r in (*f.rgb, *f.hsv, *f.ycbcr):
            assert r.lo <= r.hi

    check()


def test_color_space_parse():
    assert ColorSpaceId.parse("rgb") == ColorSpaceId.RGB
    assert ColorSpaceId.parse("YCbCr") == ColorSpaceId.YCBCR
    with pytest.raises(ValueError):
        ColorSpaceId.parse("cmy")
    assert [s.label for s in ColorSpaceId] == ["RGB", "HSV", "YCbCr"]
