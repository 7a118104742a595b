"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its runtime.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import time

import numpy as np

from lumaswitch.blobs import label_components, largest_component
from lumaswitch.cli import main
from lumaswitch.colorspace import FeatureVector, rgb_to_hsv, rgb_to_ycbcr
from lumaswitch.imaging import BinaryMask, ImageBuffer, load_image, load_mask, overlay, save_image
from lumaswitch.mlp import (
    MlpModel,
    _forward,
    _gradients,
    init_model,
    load_model,
    mean_cross_entropy,
    save_model,
    softmax,
)
from lumaswitch.skinfilter import ColorSpaceId, default_filter, parse_filter_config, to_space
from lumaswitch.switching import (
    algorithm1_ann_switch,
    algorithm2_max_connected,
    algorithm3_sigma_connect,
    bayesian_routine,
)

from conftest import NARROW_V, flood_fill_components, make_patch_image, patch_mask, random_mask


class criterion:
    """Times the enclosed block and prints one pass/fail line."""

    def __init__(self, number, title, budget_s):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None and elapsed < self.budget_s else "FAIL"
        print(f"[{verdict}] criterion {self.number}: {self.title} ({elapsed:.2f}s / <{self.budget_s}s)")
        if exc_type is None:
            assert elapsed < self.budget_s, f"criterion {self.number} exceeded {self.budget_s}s"
        return False


def test_criterion_1_default_range_fidelity():
    with criterion(1, "default filter ranges", 1):
        f = default_filter()
        assert (f.rgb[0].lo, f.rgb[0].hi) == (95, 255)
        assert (f.rgb[1].lo, f.rgb[1].hi) == (40, 255)
        assert (f.rgb[2].lo, f.rgb[2].hi) == (20, 255)
        assert (f.hsv[0].lo, f.hsv[0].hi) == (0.04, 0.0882)
        assert (f.hsv[1].lo, f.hsv[1].hi) == (0.11, 0.68)
        assert (f.hsv[2].lo, f.hsv[2].hi) == (0.38, 1.0)
        assert (f.ycbcr[0].lo, f.ycbcr[0].hi) == (100, 125)
        assert (f.ycbcr[1].lo, f.ycbcr[1].hi) == (135, 170)
        # the alternative reading of the inconsistent published V range
        alt = parse_filter_config(NARROW_V)
        assert (alt.hsv[2].lo, alt.hsv[2].hi) == (0.112, 0.38)


def test_criterion_2_conversion_suite():
    import colorsys

    with criterion(2, "color conversions on 10,000 random pixels", 5):
        rng = np.random.default_rng(2024)
        pixels = rng.integers(0, 256, (10_000, 3))
        for r, g, b in pixels:
            h, s, v = rgb_to_hsv((int(r), int(g), int(b)))
            back = colorsys.hsv_to_rgb(h, s, v)
            assert abs(r / 255 - back[0]) <= 1 / 255
            assert abs(g / 255 - back[1]) <= 1 / 255
            assert abs(b / 255 - back[2]) <= 1 / 255
        for g in range(256):
            _, cb, cr = rgb_to_ycbcr((g, g, g))
            assert abs(cb - 128.0) <= 1e-9
            assert abs(cr - 128.0) <= 1e-9
        h, s, v = rgb_to_hsv((180, 120, 100))
        assert abs(h - ((120 - 100) / 80) / 6) < 1e-6
        assert abs(s - 80 / 180) < 1e-6
        assert abs(v - 180 / 255) < 1e-6
        y, cb, cr = rgb_to_ycbcr((180, 120, 100))
        assert abs(y - 135.66) < 1e-6
        assert abs(cb - 107.87584) < 1e-6
        assert abs(cr - 159.62624) < 1e-6


def test_criterion_3_connectivity_oracle():
    with criterion(3, "labeling vs flood-fill oracle on 1,000 masks", 30):
        rng = np.random.default_rng(3033)
        for _ in range(1000):
            mask = random_mask(rng, max_side=32)
            lab = label_components(mask)
            got = set()
            for label in range(1, lab.count + 1):
                ys, xs = np.nonzero(lab.labels == label)
                got.add(frozenset(zip(ys.tolist(), xs.tolist())))
            expected = flood_fill_components(mask)
            assert got == expected

            blob, size = largest_component(mask)
            if expected:
                best = max(len(p) for p in expected)
                assert size == best
                # tie rule: earliest row-major first encounter wins
                candidates = [p for p in expected if len(p) == best]
                winner = min(candidates, key=lambda p: min(y * mask.width + x for y, x in p))
                assert frozenset(zip(*(a.tolist() for a in np.nonzero(blob.bits)))) == winner
            else:
                assert size == 0


def test_criterion_4_mlp_numerics():
    with criterion(4, "softmax stability and analytic gradients", 30):
        rng = np.random.default_rng(4044)
        for _ in range(1000):
            p = softmax(rng.normal(0, 5, 3))
            assert abs(p.sum() - 1.0) <= 1e-12
        p = softmax(np.array([1000.0, 0.0, 0.0]))
        assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) <= 1e-12

        model = init_model(15, seed=4)
        xh = rng.normal(0, 1, (10, 9))
        targets = rng.integers(0, 3, 10)
        grads = _gradients(model, xh, targets, *_forward(model, xh))
        eps = 1e-5
        arrays = ("w1", "b1", "w2", "b2")
        for name, grad in zip(arrays, grads):
            base = getattr(model, name)
            it = np.nditer(base, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                vals = []
                for sign in (1, -1):
                    p = {a: getattr(model, a).copy() for a in arrays}
                    p[name][idx] += sign * eps
                    vals.append(mean_cross_entropy(_forward(MlpModel(**p), xh)[1], targets))
                numeric = (vals[0] - vals[1]) / (2 * eps)
                denom = max(abs(numeric), abs(grad[idx]), 1e-10)
                assert abs(numeric - grad[idx]) / denom < 1e-4


def _write_manifest(tmp_path):
    from conftest import make_image

    lines = []
    colors = {
        "RGB": lambda i: (200 + i, 40, 40),
        "HSV": lambda i: (40, 200 + i, 40),
        "YCbCr": lambda i: (40, 40, 200 + i),
    }
    for label, color in colors.items():
        for i in range(10):
            p = tmp_path / f"{label.lower()}_{i}.ppm"
            save_image(make_image(8, 8, color(i)), p)
            lines.append(f"{p} {label}")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def test_criterion_5_training_sanity(tmp_path, capsys):
    with criterion(5, "separable training set reaches 100% accuracy", 60):
        manifest = _write_manifest(tmp_path)
        model_path = tmp_path / "model.json"
        rc = main(
            [
                "train",
                str(manifest),
                "--model",
                str(model_path),
                "--epochs",
                "2000",
                "--learning-rate",
                "0.01",
            ]
        )
        assert rc == 0
        assert "training accuracy 100.00%" in capsys.readouterr().out

        report_path = tmp_path / "eval.json"
        rc = main(["eval", str(manifest), "--model", str(model_path), "--report", str(report_path)])
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["per_class_percent"] == [100.0, 100.0, 100.0]
        assert np.array_equal(np.array(report["confusion"]), np.diag([10, 10, 10]))


def test_criterion_6_strategy_equivalences():
    with criterion(6, "strategy equivalences on 50 random images", 60):
        filt = default_filter()
        rng = np.random.default_rng(6066)

        # (a) forced-space ann == direct single-space routine
        image = ImageBuffer(rng.integers(0, 256, (32, 32, 3), dtype=np.uint8))
        for space in ColorSpaceId:
            b2 = np.zeros(3)
            b2[int(space)] = 5.0
            model = MlpModel(np.zeros((4, 9)), np.zeros(4), np.zeros((3, 4)), b2)
            result = algorithm1_ann_switch(image, model, filt)
            direct = bayesian_routine(to_space(image, space), space, filt)
            assert result.chosen == space.label
            assert np.array_equal(result.mask.bits, direct.mask.bits)
            assert np.array_equal(result.raw_mask.bits, direct.raw_mask.bits)
            assert np.array_equal(result.overlay.pixels, overlay(image, direct.mask).pixels)
            assert result.blob_size == direct.blob_size

        for _ in range(50):
            image = ImageBuffer(rng.integers(0, 256, (24, 24, 3), dtype=np.uint8))

            # (b) maxconnected chooses the argmax of independent recomputations
            result = algorithm2_max_connected(image, filt)
            sizes = {
                s: bayesian_routine(to_space(image, s), s, filt).blob_size for s in ColorSpaceId
            }
            best = max(sizes.values())
            assert result.blob_size == best
            expected_choice = min(s for s in ColorSpaceId if sizes[s] == best)
            assert result.chosen == expected_choice.label
            assert result.per_space_sizes == {s.label: sizes[s] for s in ColorSpaceId}

            # (c) sigmaconnect(threshold 1) == OR of blobs then largest component
            result3 = algorithm3_sigma_connect(image, filt, vote_threshold=1)
            union = np.zeros((24, 24), dtype=bool)
            for s in ColorSpaceId:
                union |= bayesian_routine(to_space(image, s), s, filt).mask.bits
            expected_mask, expected_size = largest_component(BinaryMask(union))
            assert np.array_equal(result3.mask.bits, expected_mask.bits)
            assert result3.blob_size == expected_size


def test_criterion_7_end_to_end_fixture(tmp_path):
    with criterion(7, "salted patch fixture through every strategy", 10):
        image = make_patch_image(with_salt=True)
        expected = patch_mask()
        filt = default_filter()

        model = MlpModel(np.zeros((4, 9)), np.zeros(4), np.zeros((3, 4)), np.array([0.0, 5.0, 0.0]))
        results = [
            algorithm1_ann_switch(image, model, filt),
            algorithm2_max_connected(image, filt),
            algorithm3_sigma_connect(image, filt),
        ]
        for result in results:
            assert result.mask == expected
            assert result.blob_size == 256

        img_path = tmp_path / "patch.ppm"
        save_image(image, img_path)
        out = tmp_path / "out"
        report = tmp_path / "report.jsonl"
        rc = main(["segment", "--out-dir", str(out), "--report", str(report), str(img_path)])
        assert rc == 0
        rec = json.loads(report.read_text().splitlines()[0])
        assert rec["blob_size"] == 256
        mask = load_mask(out / "patch.mask.pgm")
        assert (mask.width, mask.height) == (64, 64)
        assert mask == expected
        raw = load_mask(out / "patch.raw.pgm")
        assert (raw.width, raw.height) == (64, 64)
        overlay = load_image(out / "patch.overlay.ppm")
        assert (overlay.width, overlay.height) == (64, 64)


def test_criterion_8_serialization_fixtures(tmp_path):
    with criterion(8, "published weight/bias and feature fixtures", 1):
        table2_rows = [
            (0.539833, -0.41466, 0.128368),
            (-0.33529, -0.26512, 0.292686),
            (-0.32967, -0.55298, 0.229643),
        ]
        table4_biases = [2.0715, -1.9243, 1.8362]
        doc = {
            "format_version": 1,
            "hidden_count": 3,
            "w1": [[0.1] * 9, [0.2] * 9, [0.3] * 9],
            "b1": table4_biases,
            "w2": [list(r) for r in table2_rows],
            "b2": [0.0, 0.0, 0.0],
            "normalization": {"shift": [0.0] * 9, "scale": [1.0] * 9},
        }
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        model = load_model(path)
        assert [tuple(col) for col in model.w2.T] == table2_rows
        assert list(model.b1) == table4_biases

        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        save_model(model, p1)
        save_model(load_model(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

        fv = FeatureVector(
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
        assert FeatureVector.from_json(fv.to_json()) == fv
        assert FeatureVector.from_json(fv.to_json()).to_json() == fv.to_json()
