import numpy as np
import pytest

from lumaswitch.imaging import (
    BinaryMask,
    ImageBuffer,
    PnmError,
    load_image,
    load_mask,
    overlay,
    save_image,
    save_mask,
)


def test_load_p6_two_pixels(tmp_path):
    path = tmp_path / "two.ppm"
    path.write_bytes(b"P6\n2 1\n255\n" + bytes([255, 0, 0, 0, 0, 0]))
    img = load_image(path)
    assert (img.width, img.height) == (2, 1)
    assert tuple(img.pixels[0, 0]) == (255, 0, 0)
    assert tuple(img.pixels[0, 1]) == (0, 0, 0)


def test_load_p6_single_pixel(tmp_path):
    path = tmp_path / "one.ppm"
    path.write_bytes(b"P6\n1 1\n255\n" + bytes([100, 150, 200]))
    img = load_image(path)
    assert (img.width, img.height) == (1, 1)
    assert tuple(img.pixels[0, 0]) == (100, 150, 200)


def test_load_truncated_data(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n4 4\n255\n" + bytes(9))  # 3 pixels instead of 16
    with pytest.raises(PnmError, match="truncated"):
        load_image(path)
    with pytest.raises(PnmError, match=str(path).replace("\\", ".")):
        load_image(path)


def test_load_header_comments(tmp_path):
    path = tmp_path / "comment.ppm"
    path.write_bytes(b"P6\n# a comment\n1 # another\n1\n255\n" + bytes([1, 2, 3]))
    img = load_image(path)
    assert tuple(img.pixels[0, 0]) == (1, 2, 3)


def test_load_bad_maxval(tmp_path):
    path = tmp_path / "max.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + bytes(6))
    with pytest.raises(PnmError, match="maxval"):
        load_image(path)


def test_load_bad_magic(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P3\n1 1\n255\n1 2 3\n")
    with pytest.raises(PnmError):
        load_image(path)


def test_load_png_path_is_not_a_p6_file(tmp_path):
    path = tmp_path / "photo.png"
    path.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(16))
    with pytest.raises(PnmError, match="not a P6 file"):
        load_image(path)


def test_pnm_loaders_raise_only_pnm_error(tmp_path):
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    path = tmp_path / "fuzz.pnm"
    headers = st.sampled_from([b"", b"P6", b"P5", b"P6\n2 1\n255\n", b"P5\n2 1\n255\n"])

    @settings(max_examples=300, deadline=None)
    @given(headers, st.binary(max_size=64))
    @example(b"P6 ", b"9" * 5000 + b" 1 255 ")  # past int()'s digit limit
    def check(header, body):
        path.write_bytes(header + body)
        for load in (load_image, load_mask):
            try:
                load(path)
            except PnmError:
                pass

    check()


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_image(tmp_path / "nope.ppm")


def test_save_mask_bytes(tmp_path):
    path = tmp_path / "m.pgm"
    save_mask(BinaryMask(np.array([[True, False]])), path)
    assert path.read_bytes() == b"P5\n2 1\n255\n" + bytes([255, 0])


def test_save_mask_all_false(tmp_path):
    path = tmp_path / "z.pgm"
    save_mask(BinaryMask(np.zeros((3, 3), dtype=bool)), path)
    assert path.read_bytes() == b"P5\n3 3\n255\n" + bytes(9)


def test_mask_round_trip_byte_stable(tmp_path):
    rng = np.random.default_rng(7)
    mask = BinaryMask(rng.random((11, 5)) < 0.4)
    p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
    save_mask(mask, p1)
    save_mask(load_mask(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_image_round_trip_random():
    # load(save(x)) == x for generated images up to 64x64
    import tempfile, os

    rng = np.random.default_rng(11)
    with tempfile.TemporaryDirectory() as d:
        for i in range(100):
            h = int(rng.integers(1, 65))
            w = int(rng.integers(1, 65))
            img = ImageBuffer(rng.integers(0, 256, (h, w, 3), dtype=np.uint8))
            path = os.path.join(d, f"{i}.ppm")
            save_image(img, path)
            assert load_image(path) == img


def test_overlay_identity_and_black(patch_image):
    all_true = BinaryMask(np.ones((64, 64), dtype=bool))
    all_false = BinaryMask(np.zeros((64, 64), dtype=bool))
    assert overlay(patch_image, all_true) == patch_image
    assert not overlay(patch_image, all_false).pixels.any()


def test_overlay_mixed():
    img = ImageBuffer(np.array([[[10, 20, 30], [40, 50, 60]]], dtype=np.uint8))
    mask = BinaryMask(np.array([[True, False]]))
    out = overlay(img, mask)
    assert tuple(out.pixels[0, 0]) == (10, 20, 30)
    assert tuple(out.pixels[0, 1]) == (0, 0, 0)


def test_overlay_dimension_mismatch():
    img = ImageBuffer(np.zeros((2, 2, 3), dtype=np.uint8))
    with pytest.raises(ValueError, match="mismatch"):
        overlay(img, BinaryMask(np.zeros((2, 3), dtype=bool)))
    with pytest.raises(ValueError, match="mismatch"):
        overlay(img, BinaryMask(np.zeros((3, 2), dtype=bool)))


def test_invalid_buffers_rejected():
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((0, 4, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        ImageBuffer(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        BinaryMask(np.zeros((4, 4, 3), dtype=bool))
