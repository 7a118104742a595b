"""Every strategy against a scalar reference pipeline that shares none of
the fast paths: per-pixel ``classify_pixel`` over the scalar converters,
a loop 3x3 majority, the flood-fill oracle and the strategies' rules
written out again."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lumaswitch.colorspace import feature_vector, rgb_to_hsv, rgb_to_ycbcr
from lumaswitch.imaging import BinaryMask, ImageBuffer, overlay
from lumaswitch.mlp import forward, init_model
from lumaswitch.skinfilter import ColorSpaceId, classify_pixel, parse_filter_config, to_space
from lumaswitch.switching import (
    algorithm1_ann_switch,
    algorithm2_max_connected,
    algorithm3_sigma_connect,
)

from conftest import flood_fill_components

CONVERT = {ColorSpaceId.RGB: tuple, ColorSpaceId.HSV: rgb_to_hsv, ColorSpaceId.YCBCR: rgb_to_ycbcr}
CHANNELS = {"rgb": ("r", "g", "b"), "hsv": ("h", "s", "v"), "ycbcr": (None, "cb", "cr")}


def ref_classify(pixels, space, filt):
    return np.array(
        [[classify_pixel(space, CONVERT[space](px), filt) for px in row] for row in pixels.tolist()]
    )


def ref_denoise(bits):
    """A set pixel stays at 4 of its 9-cell neighbourhood, a clear one turns
    on at 5; cells outside the image count as clear."""
    h, w = bits.shape
    out = np.zeros_like(bits)
    for y in range(h):
        for x in range(w):
            n = sum(
                bool(bits[j, i])
                for j in range(y - 1, y + 2)
                for i in range(x - 1, x + 2)
                if 0 <= j < h and 0 <= i < w
            )
            out[y, x] = n >= (4 if bits[y, x] else 5)
    return out


def ref_largest(bits):
    """The biggest 8-connected part; a tie goes to the part met first in
    row-major order, the one with the smallest (y, x)."""
    out = np.zeros_like(bits)
    parts = flood_fill_components(BinaryMask(bits))
    if not parts:
        return out, 0
    best = min(parts, key=lambda part: (-len(part), min(part)))
    for y, x in best:
        out[y, x] = True
    return out, len(best)


def ref_routine(pixels, space, filt):
    raw = ref_classify(pixels, space, filt)
    blob, size = ref_largest(ref_denoise(raw))
    return raw, blob, size


def ref_features(pixels):
    """The nine channel means in FEATURE_KEYS order, each an exact sum."""
    colours = [tuple(px) for row in pixels.tolist() for px in row]
    columns = zip(*(rgb_to_hsv(c) + rgb_to_ycbcr(c) + c for c in colours))
    return np.array([math.fsum(col) / len(colours) for col in columns])


def ref_results(pixels, filt, model):
    """(strategy, vote threshold) -> (chosen label, raw, blob, size, per-space sizes)."""
    runs = {s: ref_routine(pixels, s, filt) for s in ColorSpaceId}
    sizes = {s.label: runs[s][2] for s in ColorSpaceId}
    biggest = next(s for s in ColorSpaceId if runs[s][2] == max(sizes.values()))
    expected = {("maxconnected", 1): (biggest.label, *runs[biggest], sizes)}
    p = forward(model, ref_features(pixels))
    picked = ColorSpaceId(int(np.argmax(p)))
    expected["ann", 1] = (picked.label, *runs[picked], {picked.label: runs[picked][2]})
    for t in (1, 2, 3):
        raw = sum(runs[s][0].astype(int) for s in ColorSpaceId) >= t
        blob, size = ref_largest(sum(runs[s][1].astype(int) for s in ColorSpaceId) >= t)
        expected["sigmaconnect", t] = ("Combined", raw, blob, size, sizes)
    return expected, np.sort(p)


def test_every_strategy_matches_the_scalar_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import assume, given, settings, strategies as st
    from hypothesis.extra.numpy import arrays

    @st.composite
    def cases(draw):
        """A palette of a few colours and their one-step neighbours, a
        filter whose bounds are channel values of those colours, and an
        image drawn from the palette."""
        base = draw(st.lists(st.tuples(*[st.integers(0, 255)] * 3), min_size=1, max_size=3))
        palette = [(0, 0, 0), *base]
        for c in base:
            for i in range(3):
                for d in (-1, 1):
                    if 0 <= c[i] + d <= 255:
                        palette.append(c[:i] + (c[i] + d,) + c[i + 1 :])
        lines = []
        for space in ColorSpaceId:
            for i, channel in enumerate(CHANNELS[space.name.lower()]):
                if channel is None or draw(st.booleans()):
                    continue  # this channel keeps its default range
                top = 1.0 if space == ColorSpaceId.HSV else 255.0
                values = sorted({float(CONVERT[space](c)[i]) for c in base} | {0.0, top})
                lo, hi = sorted(draw(st.lists(st.sampled_from(values), min_size=2, max_size=2)))
                lines += [f"{space.name.lower()}.{channel}.lo = {lo!r}"]
                lines += [f"{space.name.lower()}.{channel}.hi = {hi!r}"]
        filt = parse_filter_config("\n".join(lines))
        shape = st.tuples(st.integers(1, 16), st.integers(1, 16))
        index = draw(arrays(np.intp, shape, elements=st.integers(0, len(palette) - 1)))
        model = replace(
            init_model(draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**16))),
            shift=np.array([0.5] * 3 + [128.0] * 6),
            scale=np.array([0.25] * 3 + [64.0] * 6),
        )
        return np.array(palette, dtype=np.uint8)[index], filt, model

    @settings(max_examples=60, deadline=None)
    @given(cases())
    def check(case):
        pixels, filt, model = case
        image = ImageBuffer(pixels)
        features = feature_vector([to_space(image, s) for s in ColorSpaceId])
        assert features == pytest.approx(ref_features(pixels), rel=0, abs=1e-9)
        expected, p = ref_results(pixels, filt, model)
        assume(p[-1] - p[-2] > 1e-9)
        for (strategy, t), (chosen, raw, blob, size, sizes) in expected.items():
            if strategy == "ann":
                result = algorithm1_ann_switch(image, model, filt)
            elif strategy == "maxconnected":
                result = algorithm2_max_connected(image, filt)
            else:
                result = algorithm3_sigma_connect(image, filt, vote_threshold=t)
            assert result.chosen == chosen
            assert result.raw_mask == BinaryMask(raw)
            assert result.mask == BinaryMask(blob)
            assert result.blob_size == size
            assert result.per_space_sizes == sizes
            assert result.overlay == overlay(image, result.mask)

    check()
