import hashlib
import json
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
    # every space through its contiguous-channel test, against the scalar
    # converters and classify_pixel: the default filter, and random filters
    # whose bounds are pixel values, so that inclusive ends are hit exactly,
    # with RGB bounds moved off the integers by a little and by a half step
    rng = np.random.default_rng(13)
    pixels = rng.integers(0, 256, (12, 12, 3), dtype=np.uint8)
    image = ImageBuffer(pixels)
    rgb = [tuple(int(v) for v in px) for px in pixels.reshape(-1, 3)]
    scalar = {
        ColorSpaceId.RGB: rgb,
        ColorSpaceId.HSV: [rgb_to_hsv(px) for px in rgb],
        ColorSpaceId.YCBCR: [rgb_to_ycbcr(px) for px in rgb],
    }

    def random_range(values, nudge):
        ordered = sorted(values)
        assert len(ordered) == len(rgb)  # one channel's value at every pixel
        n = len(ordered)
        lo = ordered[rng.integers(0, n // 3)] + rng.choice(nudge)
        hi = ordered[rng.integers(2 * n // 3, n)] + rng.choice(nudge)
        return ChannelRange(min(lo, hi), max(lo, hi))

    filters = [default_filter()]
    for _ in range(6):
        ranges = {}
        for space in ColorSpaceId:
            nudge = [0, 0, 1e-4, -1e-4, 0.5, -0.5] if space == ColorSpaceId.RGB else [0]
            planes = to_space(image, space)
            field = getattr(default_filter(), space.name.lower())
            channels = [0, 1, 2][-len(field):]  # YCbCr constrains Cb and Cr only
            ranges[space.name.lower()] = tuple(
                random_range(planes[i].ravel().tolist(), nudge) for i in channels
            )
        filters.append(SkinRangeFilter(**ranges))

    rgb_planes = to_space(image, ColorSpaceId.RGB)
    for space in ColorSpaceId:
        planes = to_space(image, space)
        for f in filters:
            mask = apply_filter(planes, space, f)
            expected = [classify_pixel(space, px, f) for px in scalar[space]]
            assert mask.bits.ravel().tolist() == expected
            assert 0 < mask.count() or f is filters[0]
            # the same test from the RGB bytes, through the filter's tables
            assert apply_filter(rgb_planes, space, f).bits.ravel().tolist() == expected


inf, nan = float("inf"), float("nan")
BOUNDS = [(95, 255), (0, 255), (94, 94), (94.5, 94.5)]
# bounds just off an integer, out of [0, 255], infinite, nan, and empty ranges
BOUNDS += [(151.0001, 255), (0, 151.0001), (150.9999, 151.0001), (-3, 300), (-3, -3)]
BOUNDS += [(300, 300), (254.5, 255), (0, 254.5), (-inf, inf), (-inf, -inf), (inf, inf)]
BOUNDS += [(-inf, 94.5), (94.5, inf), (255.5, 255.5), (-0.5, -0.5), (nan, 200), (0, nan)]


@pytest.fixture(scope="module")
def bound_filters():
    """The default filter, then one filter per BOUNDS entry and space that
    puts it on every channel the space constrains; HSV also takes it
    divided by 255, into its [0, 1] domain.  Built once, so each builds its
    tables once."""
    filters = [(space, default_filter()) for space in (ColorSpaceId.HSV, ColorSpaceId.YCBCR)]
    for lo, hi in BOUNDS:
        for space, scale in ((ColorSpaceId.HSV, 1), (ColorSpaceId.HSV, 255), (ColorSpaceId.YCBCR, 1)):
            field = space.name.lower()
            n = len(getattr(default_filter(), field))
            ranges = (ChannelRange(lo / scale, hi / scale),) * n
            filters.append((space, replace(default_filter(), **{field: ranges})))
    return filters


@pytest.mark.parametrize("shape", [(1, 256), (7, 13), (480, 640)])
def test_uint8_rgb_planes_equal_float_planes_in_hsv_and_ycbcr(shape, bound_filters):
    # the interval tables give every pixel the float test's answer, at the
    # bounds of BOUNDS; 480x640 spans several lookup blocks and a partial one
    rng = np.random.default_rng(shape[1])
    image = ImageBuffer(rng.integers(0, 256, (*shape, 3), dtype=np.uint8))
    rgb = to_space(image, ColorSpaceId.RGB)
    floats = {space: to_space(image, space) for space in (ColorSpaceId.HSV, ColorSpaceId.YCBCR)}
    for space, f in bound_filters:
        assert apply_filter(rgb, space, f) == apply_filter(floats[space], space, f)


def test_tables_match_the_float_test_on_random_filters():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    # bounds are channel values of the sampled colours, so inclusive ends
    # are hit exactly, nudged by an ulp-sized step or replaced by a special
    rng = np.random.default_rng(31)
    image = ImageBuffer(rng.integers(0, 256, (1, 4096, 3), dtype=np.uint8))
    rgb = to_space(image, ColorSpaceId.RGB)
    floats = {space: to_space(image, space) for space in (ColorSpaceId.HSV, ColorSpaceId.YCBCR)}
    pick = st.tuples(st.integers(0, 4095), st.sampled_from([0.0, 1e-12, -1e-12, 0.5, -0.5]))
    special = st.sampled_from([None, -inf, inf, nan, -1.0, 300.0])

    def bound(space, channel, draw):
        (index, nudge), other = draw
        if other is not None:
            return other
        return float(floats[space][channel, 0, index]) + nudge * (255 if space == ColorSpaceId.YCBCR else 1)

    channel_bounds = st.tuples(st.tuples(pick, special), st.tuples(pick, special))

    @settings(max_examples=40, deadline=None)
    @given(st.tuples(*[channel_bounds] * 3), st.tuples(*[channel_bounds] * 2))
    def check(hsv, ycc):
        ranges = {}
        for space, draws, channels in ((ColorSpaceId.HSV, hsv, (0, 1, 2)), (ColorSpaceId.YCBCR, ycc, (1, 2))):
            pairs = [sorted([bound(space, c, a), bound(space, c, b)], key=lambda v: (v != v, v))
                     for c, (a, b) in zip(channels, draws)]
            # a nan sorts last and makes no out-of-order pair
            ranges[space.name.lower()] = tuple(ChannelRange(*pair) for pair in pairs)
        f = SkinRangeFilter(rgb=default_filter().rgb, **ranges)
        for space, planes in floats.items():
            assert apply_filter(rgb, space, f) == apply_filter(planes, space, f)

    check()


# sha256 of the HSV and YCbCr tables' little-endian bytes: every key, also
# those no sampled colour reaches.  The configs are checks/interval_tables.py's.
TABLE_DIGESTS = {
    "": (
        "863864fb9a3410d923047b042d0e234fe319280a9e8028cb7ff776d19c514b97",
        "f07fbd2ce5ccc274241d4851bc3e928baaf3eaefd79a611a7b9fd419a7b2c5bd",
    ),
    (
        "hsv.h.lo = 0.3333\nhsv.h.hi = 0.9001\nhsv.s.lo = 0.05\nhsv.s.hi = 0.777\n"
        "hsv.v.lo = 0.2\nhsv.v.hi = 0.95\n"
        "ycbcr.cb.lo = 77.25\nycbcr.cb.hi = 180.5\nycbcr.cr.lo = 100.75\nycbcr.cr.hi = 150.125\n"
    ): (
        "e2e0607c56b309c29ed1affbdeb60538a1ca83543f25166b35882792296b09b2",
        "e0945ba43bf030d2b0da266e36f9a50101fcf9caa1ae999ab63c98e6a5f26e87",
    ),
    (
        "hsv.h.lo = 0\nhsv.h.hi = 1\nhsv.s.lo = 0\nhsv.s.hi = 1\nhsv.v.lo = 0\nhsv.v.hi = 1\n"
        "ycbcr.cb.lo = 0\nycbcr.cb.hi = 255\nycbcr.cr.lo = 0\nycbcr.cr.hi = 255\n"
    ): (
        "6e94d829666eff5ede7b253ce2c0184504018a439403e5803c92bfaa43b29ccd",
        "36c9c5cb50315284782606f7eeb5214ac6dd3ef3bb861847a9e97a90fe6dc8c5",
    ),
}


@pytest.mark.parametrize("text", TABLE_DIGESTS, ids=["default", "fractional", "full range"])
def test_interval_tables_are_pinned(text):
    filt = parse_filter_config(text)
    tables = filt._hsv_table, filt._ycbcr_table
    digests = tuple(hashlib.sha256(t.astype("<u2").tobytes()).hexdigest() for t in tables)
    assert digests == TABLE_DIGESTS[text]


@pytest.mark.parametrize("shape", [(1, 256), (7, 13), (480, 640), (1080, 1920)])
def test_uint8_rgb_planes_equal_float64_copy(shape):
    rng = np.random.default_rng(shape[1])
    pixels = rng.integers(0, 256, (*shape, 3), dtype=np.uint8)
    if shape == (1, 256):  # every value in every channel
        pixels[0] = np.stack([rng.permutation(256) for _ in range(3)], axis=-1)
    image = ImageBuffer(pixels)
    planes = [to_space(image, s) for s in ColorSpaceId]
    assert planes[0].dtype == np.uint8
    copies = [planes[0].astype(np.float64), *planes[1:]]
    assert feature_vector(planes).tobytes() == feature_vector(copies).tobytes()
    # the same bits as strided channel means of interleaved (h, w, 3) copies,
    # from which existing model files, loss CSVs and eval reports were made
    interleaved = [np.moveaxis(p, 0, -1).copy() for p in (planes[1], planes[2], planes[0])]
    assert np.array_equal(interleaved[2], pixels)
    strided = [p[..., i].mean() for p in interleaved for i in range(3)]
    assert feature_vector(planes).tobytes() == np.array(strided).tobytes()

    bounds = BOUNDS + [sorted(rng.uniform(0, 255, 2)) for _ in range(4)]
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


DEFAULT_FILTER_JSON = (
    '{"rgb": {"r": [95, 255], "g": [40, 255], "b": [20, 255]}, '
    '"hsv": {"h": [0.04, 0.0882], "s": [0.11, 0.68], "v": [0.38, 1.0]}, '
    '"ycbcr": {"cb": [100, 125], "cr": [135, 170]}}'
)


@pytest.mark.parametrize(
    "make, expected",
    [
        (default_filter, DEFAULT_FILTER_JSON),
        (
            lambda: parse_filter_config("rgb.r.lo = 150\n"),
            DEFAULT_FILTER_JSON.replace('"r": [95, 255]', '"r": [150.0, 255]'),
        ),
    ],
)
def test_filter_to_dict_layout(make, expected):
    # the report's "filter" object, byte for byte, int/float mix included
    assert json.dumps(make().to_dict()) == expected


@pytest.mark.parametrize(
    "text",
    ["", "rgb.r.lo = 150\n", NARROW_V, "hsv.h.lo = 0.9\nhsv.h.hi = 1\nycbcr.cb.lo = 0\n"],
)
def test_to_dict_round_trips_through_config(text):
    f = parse_filter_config(text)
    lines = [
        f"{space}.{channel}.{side} = {value!r}"
        for space, channels in f.to_dict().items()
        for channel, bounds in channels.items()
        for side, value in zip(("lo", "hi"), bounds)
    ]
    assert len(lines) == 16
    assert parse_filter_config("\n".join(lines)) == f


def test_color_space_parse():
    assert ColorSpaceId.parse("rgb") == ColorSpaceId.RGB
    assert ColorSpaceId.parse("YCbCr") == ColorSpaceId.YCBCR
    with pytest.raises(ValueError):
        ColorSpaceId.parse("cmy")
    assert [s.label for s in ColorSpaceId] == ["RGB", "HSV", "YCbCr"]
