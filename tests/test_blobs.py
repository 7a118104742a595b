import numpy as np
import pytest

from lumaswitch.blobs import denoise, label_components, largest_component
from lumaswitch.imaging import BinaryMask

from conftest import flood_fill_components, random_mask


def mask_from_rows(rows):
    return BinaryMask(np.array(rows, dtype=bool))


def two_blob_fixture():
    """8x8 mask: a 5-pixel cross near (1,1) and a 3-pixel bar at the top
    right, separated by empty space."""
    bits = np.zeros((8, 8), dtype=bool)
    bits[1, 1] = bits[0, 1] = bits[2, 1] = bits[1, 0] = bits[1, 2] = True  # cross, 5 px
    bits[0, 5:8] = True  # bar, 3 px
    return BinaryMask(bits)


def test_diagonal_pixels_connect():
    lab = label_components(mask_from_rows([[1, 0], [0, 1]]))
    assert lab.count == 1
    assert lab.sizes == (2,)


def test_all_false_mask():
    lab = label_components(BinaryMask(np.zeros((4, 4), dtype=bool)))
    assert lab.count == 0
    assert lab.sizes == ()


def test_two_blob_fixture_sizes():
    lab = label_components(two_blob_fixture())
    assert lab.count == 2
    assert sorted(lab.sizes) == [3, 5]


def test_labels_are_first_encounter_order():
    # the cross's top arm sits at (0, 1), before the bar at (0, 5)
    lab = label_components(two_blob_fixture())
    assert lab.labels[0, 1] == 1
    assert lab.labels[0, 5] == 2
    assert lab.sizes == (5, 3)


def test_sizes_sum_to_popcount():
    rng = np.random.default_rng(31)
    for _ in range(50):
        mask = random_mask(rng)
        lab = label_components(mask)
        assert sum(lab.sizes) == mask.count()


def test_labeling_matches_flood_fill_oracle():
    # the oracle's parts, numbered by their first pixel in scan order, must
    # be exactly the labels 1, 2, ... with matching sizes
    rng = np.random.default_rng(32)
    for _ in range(300):
        mask = random_mask(rng)
        lab = label_components(mask)
        parts = sorted(flood_fill_components(mask), key=min)
        expected = np.zeros(mask.bits.shape, dtype=np.int32)
        for label, part in enumerate(parts, 1):
            ys, xs = zip(*part)
            expected[list(ys), list(xs)] = label
        assert np.array_equal(lab.labels, expected)
        assert lab.sizes == tuple(len(part) for part in parts)


def _assert_matches_scipy(bits):
    ndimage = pytest.importorskip("scipy.ndimage")
    expected, count = ndimage.label(bits, structure=np.ones((3, 3)))
    lab = label_components(BinaryMask(bits))
    assert np.array_equal(lab.labels, expected)
    assert lab.sizes == tuple(np.bincount(expected.ravel(), minlength=count + 1)[1:].tolist())


def test_labeling_matches_scipy_label():
    pytest.importorskip("scipy.ndimage")
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    shapes = st.tuples(st.integers(1, 40), st.integers(1, 40))

    @settings(max_examples=300, deadline=None)
    @given(arrays(bool, shapes))
    def check(bits):
        _assert_matches_scipy(bits)

    check()


@pytest.mark.parametrize("shape", [(1, 1), (1, 23), (23, 1)])
def test_single_row_and_column_masks(shape):
    bits = (np.arange(shape[0] * shape[1]) % 5 < 3).reshape(shape)
    lab = label_components(BinaryMask(bits))
    assert lab.sizes == ((1,) if bits.size == 1 else (3,) * 5)
    assert lab.labels.ravel().tolist() == [
        (i // 5 + 1) if i % 5 < 3 else 0 for i in range(bits.size)
    ]


def test_runs_touching_both_borders():
    # a full-width row with a one-pixel run under each end, then, after a
    # blank row, a run at each border and a pixel diagonal to the left one
    bits = np.zeros((5, 7), dtype=bool)
    bits[0, :] = True
    bits[1, 0] = bits[1, 6] = True
    bits[3, 0:2] = bits[3, 5:7] = True
    bits[4, 2] = True
    lab = label_components(BinaryMask(bits))
    assert lab.sizes == (9, 3, 2)
    assert lab.labels[3, 0] == 2 and lab.labels[4, 2] == 2 and lab.labels[3, 6] == 3


def test_diagonal_staircase_is_one_component():
    # a one-pixel V whose arms step down-right and down-left; every link in
    # the chain is diagonal, and the arms meet only at the bottom pixel
    bits = np.zeros((6, 11), dtype=bool)
    k = np.arange(6)
    bits[k, k] = bits[k, 10 - k] = True
    lab = label_components(BinaryMask(bits))
    assert lab.sizes == (11,)
    assert np.array_equal(lab.labels, bits.astype(np.int32))
    bits[5, 5] = False
    lab = label_components(BinaryMask(bits))
    assert lab.sizes == (5, 5)
    assert lab.labels[4, 4] == 1 and lab.labels[4, 6] == 2


def test_full_hd_two_ellipses_match_scipy():
    yy, xx = np.mgrid[:1080, :1920]
    bits = ((yy - 300) / 200) ** 2 + ((xx - 500) / 350) ** 2 < 1
    bits |= ((yy - 700) / 300) ** 2 + ((xx - 1400) / 400) ** 2 < 1
    _assert_matches_scipy(bits)


def test_largest_component_fixture():
    blob, size = largest_component(two_blob_fixture())
    assert size == 5
    assert blob.bits[1, 1] and not blob.bits[0, 5]
    assert blob.count() == 5


def test_largest_component_trivial_cases():
    full = BinaryMask(np.ones((4, 4), dtype=bool))
    blob, size = largest_component(full)
    assert size == 16 and blob == full

    empty = BinaryMask(np.zeros((3, 5), dtype=bool))
    blob, size = largest_component(empty)
    assert size == 0 and blob == empty


def test_largest_component_tie_keeps_first_encounter():
    bits = np.zeros((5, 9), dtype=bool)
    bits[0, 0:2] = True  # encountered first
    bits[4, 7:9] = True  # same size, later
    blob, size = largest_component(BinaryMask(bits))
    assert size == 2
    assert blob.bits[0, 0] and blob.bits[0, 1]
    assert not blob.bits[4, 7]


def test_largest_component_is_subset_and_connected():
    rng = np.random.default_rng(33)
    for _ in range(100):
        mask = random_mask(rng)
        blob, size = largest_component(mask)
        assert not (blob.bits & ~mask.bits).any()
        assert blob.count() == size
        if size:
            assert label_components(blob).count == 1


def _denoise_oracle(mask):
    """Direct per-cell 9-cell count: a set pixel needs >= 4 of 9, a clear
    pixel needs >= 5, out-of-image neighbors count as clear."""
    bits = mask.bits
    h, w = bits.shape
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            n = 0
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    ny, nx = y + dy, x + dx
                    if 0 <= ny < h and 0 <= nx < w and bits[ny, nx]:
                        n += 1
            out[y, x] = n >= 4 if bits[y, x] else n >= 5
    return BinaryMask(out)


def test_denoise_removes_isolated_salt():
    bits = np.zeros((5, 5), dtype=bool)
    bits[2, 2] = True
    assert not denoise(BinaryMask(bits)).bits.any()


def test_denoise_fills_isolated_pepper():
    bits = np.ones((5, 5), dtype=bool)
    bits[2, 2] = False
    assert denoise(BinaryMask(bits)).bits[2, 2]


def test_denoise_keeps_solid_rectangle_intact():
    bits = np.zeros((10, 10), dtype=bool)
    bits[3:7, 2:8] = True
    assert denoise(BinaryMask(bits)) == BinaryMask(bits)


def test_denoise_checkerboard_matches_cell_count_oracle():
    bits = np.indices((5, 5)).sum(axis=0) % 2 == 0
    mask = BinaryMask(bits)
    assert denoise(mask) == _denoise_oracle(mask)


def test_denoise_matches_oracle_on_random_masks():
    rng = np.random.default_rng(34)
    for _ in range(100):
        mask = random_mask(rng, max_side=16)
        assert denoise(mask) == _denoise_oracle(mask)


def test_denoise_translation_invariant_away_from_borders():
    rng = np.random.default_rng(35)
    core = rng.random((6, 6)) < 0.5
    a = np.zeros((14, 14), dtype=bool)
    b = np.zeros((14, 14), dtype=bool)
    a[2:8, 2:8] = core
    b[5:11, 6:12] = core
    da = denoise(BinaryMask(a)).bits[2:8, 2:8]
    db = denoise(BinaryMask(b)).bits[5:11, 6:12]
    assert np.array_equal(da, db)


def test_operations_preserve_dimensions():
    rng = np.random.default_rng(36)
    for _ in range(20):
        mask = random_mask(rng)
        shape = mask.bits.shape
        assert label_components(mask).labels.shape == shape
        assert largest_component(mask)[0].bits.shape == shape
        assert denoise(mask).bits.shape == shape
