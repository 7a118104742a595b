import colorsys
import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from lumaswitch.colorspace import (
    FEATURE_KEYS,
    feature_vector,
    image_to_hsv,
    image_to_ycbcr,
    rgb_to_hsv,
    rgb_to_ycbcr,
)
from lumaswitch.imaging import ImageBuffer
from lumaswitch.skinfilter import ColorSpaceId, to_space

from conftest import make_image


def features(image):
    return feature_vector([to_space(image, s) for s in ColorSpaceId])


# Table 5, row 1, in FEATURE_KEYS order
TABLE5_ROW1 = np.array(
    [0.162068, 0.340032, 0.372549, 110.34945, 117.01452, 139.58895, 128.38988, 104.7, 87.5811],
    dtype=np.float64,
)


def as_report(row):
    """A feature array as the eval report's ``features`` JSON text."""
    return json.dumps(dict(zip(FEATURE_KEYS, row.tolist())))


def test_hsv_pure_red():
    assert rgb_to_hsv((255, 0, 0)) == (0.0, 1.0, 1.0)


def test_hsv_black():
    assert rgb_to_hsv((0, 0, 0)) == (0.0, 0.0, 0.0)


def test_hsv_worked_pixel():
    h, s, v = rgb_to_hsv((180, 120, 100))
    assert h == pytest.approx(((120 - 100) / 80) / 6, abs=1e-12)
    assert s == pytest.approx(80 / 180, abs=1e-12)
    assert v == pytest.approx(180 / 255, abs=1e-12)


def test_hsv_matches_colorsys():
    rng = np.random.default_rng(3)
    for _ in range(2000):
        r, g, b = (int(v) for v in rng.integers(0, 256, 3))
        h, s, v = rgb_to_hsv((r, g, b))
        eh, es, ev = colorsys.rgb_to_hsv(r / 255, g / 255, b / 255)
        assert h == pytest.approx(eh, abs=1e-12)
        assert s == pytest.approx(es, abs=1e-12)
        assert v == pytest.approx(ev, abs=1e-12)


def test_hsv_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        rgb = tuple(int(v) for v in rng.integers(0, 256, 3))
        h, s, v = rgb_to_hsv(rgb)
        back = colorsys.hsv_to_rgb(h, s, v)
        for orig, rec in zip(rgb, back):
            assert abs(orig / 255 - rec) <= 1 / 255


def test_ycbcr_white_and_black():
    assert rgb_to_ycbcr((255, 255, 255)) == pytest.approx((255.0, 128.0, 128.0), abs=1e-9)
    assert rgb_to_ycbcr((0, 0, 0)) == pytest.approx((0.0, 128.0, 128.0), abs=1e-9)


def test_ycbcr_worked_pixel():
    y, cb, cr = rgb_to_ycbcr((180, 120, 100))
    assert y == pytest.approx(135.66, abs=1e-9)
    assert cb == pytest.approx(107.87584, abs=1e-9)
    assert cr == pytest.approx(159.62624, abs=1e-9)


def test_ycbcr_gray_neutral_chroma():
    for g in range(0, 256, 5):
        _, cb, cr = rgb_to_ycbcr((g, g, g))
        assert cb == pytest.approx(128.0, abs=1e-9)
        assert cr == pytest.approx(128.0, abs=1e-9)


def test_vectorized_conversions_match_scalar():
    # a 17-step grid per channel holds every tie of the max channel
    # (r = g, g = b, r = b, all equal) next to random colours
    steps = list(range(0, 256, 16)) + [255]
    grid = np.array(list(itertools.product(steps, repeat=3)), dtype=np.uint8)
    rng = np.random.default_rng(5)
    colors = np.concatenate([grid, rng.integers(0, 256, (91, 3), dtype=np.uint8)])
    img = ImageBuffer(colors[:, None, :])
    hsv = image_to_hsv(img)
    ycc = image_to_ycbcr(img)
    for i, px in enumerate(colors.tolist()):
        assert tuple(hsv[:, i, 0]) == rgb_to_hsv(px)
        assert tuple(ycc[:, i, 0]) == rgb_to_ycbcr(px)


def _load_converters_check():
    """``checks/converters.py``, whose vectorised float formulas are the
    oracle of the converters here too."""
    path = Path(__file__).resolve().parents[1] / "checks" / "converters.py"
    spec = importlib.util.spec_from_file_location("checks_converters", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


converters_check = _load_converters_check()


def assert_bitwise_float_formulas(image):
    """Both converters give the float formulas' bits (+0.0 and -0.0 differ)
    in a C-order (3, h, w) float64 array."""
    oracles = (converters_check.float_hsv, converters_check.float_ycbcr)
    for convert, oracle in zip((image_to_hsv, image_to_ycbcr), oracles):
        got = convert(image)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == (3, *image.pixels.shape[:2])
        np.testing.assert_array_equal(got.view(np.uint64), oracle(image.pixels).view(np.uint64))


@pytest.mark.parametrize("channel", [0, 1, 2])
def test_converters_are_the_float_formulas_on_byte_planes(channel):
    # one channel at each edge and mid byte, every pair of the other two
    pairs = np.stack(np.meshgrid(np.arange(256), np.arange(256), indexing="ij"), axis=-1)
    planes = [np.insert(pairs, channel, v, axis=-1) for v in (0, 1, 2, 127, 128, 253, 254, 255)]
    assert_bitwise_float_formulas(ImageBuffer(np.concatenate(planes).astype(np.uint8)))


@pytest.mark.parametrize(
    "make",
    [
        lambda p: p[:, ::2],  # a strided view, which ImageBuffer keeps uncopied
        lambda p: p[:1, :1],
        lambda p: p[:1],
        lambda p: p.reshape(1, -1, 3)[:, :40_001],  # ends inside a block of pixels
    ],
    ids=["strided", "1x1", "1xN", "1xN-long"],
)
def test_converters_on_any_image_layout(make):
    pixels = np.random.default_rng(7).integers(0, 256, (200, 240, 3), dtype=np.uint8)
    image = ImageBuffer(make(pixels))
    assert np.shares_memory(image.pixels, pixels)
    assert_bitwise_float_formulas(image)


def test_feature_vector_constant_image():
    mean_h, mean_s, mean_v, mean_y, mean_cb, mean_cr, mean_r, mean_g, mean_b = features(
        make_image(6, 9, (100, 150, 200))
    )
    h, s, v = rgb_to_hsv((100, 150, 200))
    y, cb, cr = rgb_to_ycbcr((100, 150, 200))
    assert (mean_r, mean_g, mean_b) == (100.0, 150.0, 200.0)
    assert mean_h == pytest.approx(h, abs=1e-9)
    assert mean_s == pytest.approx(s, abs=1e-9)
    assert mean_v == pytest.approx(v, abs=1e-9)
    assert mean_y == pytest.approx(y, abs=1e-9)
    assert mean_cb == pytest.approx(cb, abs=1e-9)
    assert mean_cr == pytest.approx(cr, abs=1e-9)


def test_feature_vector_two_pixel_average():
    img = ImageBuffer(np.array([[[255, 0, 0], [0, 0, 0]]], dtype=np.uint8))
    mean_h, mean_s, mean_v, _, _, _, mean_r, mean_g, mean_b = features(img)
    assert mean_r == 127.5
    assert mean_g == 0.0
    assert mean_b == 0.0
    assert mean_h == 0.0
    assert mean_s == 0.5
    assert mean_v == 0.5


def test_feature_vector_order_independent():
    rng = np.random.default_rng(6)
    pixels = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    fv1 = features(ImageBuffer(pixels))
    flat = pixels.reshape(-1, 3)
    shuffled = flat[rng.permutation(len(flat))].reshape(8, 8, 3)
    fv2 = features(ImageBuffer(shuffled))
    assert fv1 == pytest.approx(fv2, abs=1e-9)


def test_feature_vector_json_key_order():
    obj = json.loads(as_report(TABLE5_ROW1))
    assert tuple(obj.keys()) == FEATURE_KEYS


def test_feature_keys_are_the_field_order():
    names = ("mean_h", "mean_s", "mean_v", "mean_y", "mean_cb", "mean_cr", "mean_r", "mean_g", "mean_b")
    assert FEATURE_KEYS == names
    rgb = (100, 150, 200)
    fv = features(make_image(3, 4, rgb))
    assert fv.shape == (9,) and fv.dtype == np.float64
    expected = dict(zip(names, (*rgb_to_hsv(rgb), *rgb_to_ycbcr(rgb), *rgb)))
    for i, name in enumerate(names):
        assert fv[i] == pytest.approx(expected[name], abs=1e-9)


def test_feature_vector_table_fixture_lossless():
    obj = json.loads(as_report(TABLE5_ROW1))
    back = np.array([obj[k] for k in FEATURE_KEYS], dtype=np.float64)
    assert back.tobytes() == TABLE5_ROW1.tobytes()
    assert as_report(back) == as_report(TABLE5_ROW1)
