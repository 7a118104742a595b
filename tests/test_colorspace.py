import colorsys
import itertools
import json

import numpy as np
import pytest

from lumaswitch.colorspace import (
    FEATURE_KEYS,
    FeatureVector,
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


TABLE5_ROW1 = FeatureVector(
    mean_h=0.162068,
    mean_s=0.340032,
    mean_v=0.372549,
    mean_y=110.34945,
    mean_cb=117.01452,
    mean_cr=139.58895,
    mean_r=128.38988,
    mean_g=104.7,
    mean_b=87.5811,
)


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
        assert tuple(hsv[i, 0]) == rgb_to_hsv(px)
        assert tuple(ycc[i, 0]) == rgb_to_ycbcr(px)


def test_feature_vector_constant_image():
    fv = features(make_image(6, 9, (100, 150, 200)))
    h, s, v = rgb_to_hsv((100, 150, 200))
    y, cb, cr = rgb_to_ycbcr((100, 150, 200))
    assert (fv.mean_r, fv.mean_g, fv.mean_b) == (100.0, 150.0, 200.0)
    assert fv.mean_h == pytest.approx(h, abs=1e-9)
    assert fv.mean_s == pytest.approx(s, abs=1e-9)
    assert fv.mean_v == pytest.approx(v, abs=1e-9)
    assert fv.mean_y == pytest.approx(y, abs=1e-9)
    assert fv.mean_cb == pytest.approx(cb, abs=1e-9)
    assert fv.mean_cr == pytest.approx(cr, abs=1e-9)


def test_feature_vector_two_pixel_average():
    img = ImageBuffer(np.array([[[255, 0, 0], [0, 0, 0]]], dtype=np.uint8))
    fv = features(img)
    assert fv.mean_r == 127.5
    assert fv.mean_g == 0.0
    assert fv.mean_b == 0.0
    assert fv.mean_h == 0.0
    assert fv.mean_s == 0.5
    assert fv.mean_v == 0.5


def test_feature_vector_order_independent():
    rng = np.random.default_rng(6)
    pixels = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
    fv1 = features(ImageBuffer(pixels))
    flat = pixels.reshape(-1, 3)
    shuffled = flat[rng.permutation(len(flat))].reshape(8, 8, 3)
    fv2 = features(ImageBuffer(shuffled))
    assert fv1.as_array() == pytest.approx(fv2.as_array(), abs=1e-9)


def test_feature_vector_json_key_order():
    obj = json.loads(TABLE5_ROW1.to_json())
    assert tuple(obj.keys()) == FEATURE_KEYS


def test_feature_keys_are_the_field_order():
    names = ("mean_h", "mean_s", "mean_v", "mean_y", "mean_cb", "mean_cr", "mean_r", "mean_g", "mean_b")
    assert FEATURE_KEYS == names
    expected = np.array([getattr(TABLE5_ROW1, k) for k in names], dtype=np.float64)
    assert TABLE5_ROW1.as_array().tobytes() == expected.tobytes()
    assert TABLE5_ROW1.to_json() == json.dumps({k: getattr(TABLE5_ROW1, k) for k in names})


def test_feature_vector_table_fixture_lossless():
    assert FeatureVector.from_json(TABLE5_ROW1.to_json()) == TABLE5_ROW1
    assert TABLE5_ROW1.to_json() == FeatureVector.from_json(TABLE5_ROW1.to_json()).to_json()
