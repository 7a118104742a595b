import hashlib
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from lumaswitch.mlp import (
    MlpModel,
    TrainConfig,
    forward,
    init_model,
    load_model,
    mean_cross_entropy,
    predict_space,
    save_model,
    softmax,
    train,
)
from lumaswitch.skinfilter import ColorSpaceId

# published fixture values: hidden->output weight triples and hidden biases
TABLE2_ROWS = [
    (0.539833, -0.41466, 0.128368),
    (-0.33529, -0.26512, 0.292686),
    (-0.32967, -0.55298, 0.229643),
]
TABLE4_BIASES = [2.0715, -1.9243, 1.8362]


def zero_model(hidden=4):
    return MlpModel(
        w1=np.zeros((hidden, 9)),
        b1=np.zeros(hidden),
        w2=np.zeros((3, hidden)),
        b2=np.zeros(3),
    )


def bias_model(b2):
    m = zero_model()
    return MlpModel(w1=m.w1, b1=m.b1, w2=m.w2, b2=np.array(b2, dtype=float))


def random_features(rng, n):
    return rng.uniform(-2, 2, (n, 9))


def separable_training_set(rng=None):
    """30 examples, 10 per class, in well-separated feature clusters."""
    rng = rng or np.random.default_rng(42)
    examples = []
    centers = {
        ColorSpaceId.RGB: np.full(9, -3.0),
        ColorSpaceId.HSV: np.zeros(9),
        ColorSpaceId.YCBCR: np.full(9, 3.0),
    }
    for space, center in centers.items():
        for _ in range(10):
            examples.append((center + rng.normal(0, 0.2, 9), space))
    return examples


def test_softmax_symmetry():
    assert softmax(np.zeros(3)) == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_softmax_large_input_no_overflow():
    p = softmax(np.array([1000.0, 0.0, 0.0]))
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_worked_values():
    p = softmax(np.array([1.0, 2.0, 3.0]))
    assert p == pytest.approx([0.09003057, 0.24472847, 0.66524096], abs=1e-8)


def test_softmax_sums_to_one_and_shift_invariant():
    rng = np.random.default_rng(50)
    for _ in range(200):
        q = rng.normal(0, 10, 3)
        p = softmax(q)
        assert np.all((p > 0) & (p < 1))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.argmax(p) == np.argmax(softmax(q + 123.456))


def test_forward_zero_network():
    p = forward(zero_model(), np.ones(9))
    assert p == pytest.approx([1 / 3] * 3, abs=1e-15)


def test_forward_bias_only_routing():
    p = forward(bias_model([5.0, 0.0, 0.0]), np.ones(9))
    assert p == pytest.approx(softmax(np.array([5.0, 0.0, 0.0])), abs=1e-15)


def _forward_oracle(model, x):
    """Straight-loop reimplementation of the two layers."""
    xh = [(x[i] - model.shift[i]) / model.scale[i] for i in range(9)]
    hidden = []
    for j in range(model.hidden_count):
        a = model.b1[j] + sum(model.w1[j, i] * xh[i] for i in range(9))
        hidden.append(math.tanh(a))
    q = []
    for k in range(3):
        q.append(model.b2[k] + sum(model.w2[k, j] * hidden[j] for j in range(model.hidden_count)))
    mx = max(q)
    e = [math.exp(v - mx) for v in q]
    z = sum(e)
    return [v / z for v in e]


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(51)
    model = replace(init_model(15, seed=7), shift=rng.normal(0, 1, 9), scale=rng.uniform(0.5, 2.0, 9))
    for _ in range(20):
        x = rng.uniform(-3, 3, 9)
        assert forward(model, x) == pytest.approx(_forward_oracle(model, x), abs=1e-12)


def test_predict_space_bias_models_and_tie():
    x = np.ones(9)
    assert predict_space(bias_model([5, 0, 0]), x) == ColorSpaceId.RGB
    assert predict_space(bias_model([0, 0, 7]), x) == ColorSpaceId.YCBCR
    assert predict_space(zero_model(), x) == ColorSpaceId.RGB  # exact tie


def test_init_model_range_and_determinism():
    m1 = init_model(15, seed=3)
    m2 = init_model(15, seed=3)
    for a, b in zip((m1.w1, m1.b1, m1.w2, m1.b2), (m2.w1, m2.b1, m2.w2, m2.b2)):
        assert np.array_equal(a, b)
        assert np.all((a >= -0.5) & (a <= 0.5))


def test_train_memorizes_single_example():
    example = (np.linspace(-1, 1, 9), ColorSpaceId.HSV)
    result = train([example], TrainConfig(epochs=2000, learning_rate=0.1, seed=1))
    p = forward(result.model, example[0])
    assert p[int(ColorSpaceId.HSV)] > 0.9


def test_train_separable_set_reaches_full_accuracy():
    examples = separable_training_set()
    result = train(examples, TrainConfig(epochs=2000, learning_rate=0.01, seed=0))
    for x, target in examples:
        assert predict_space(result.model, x) == target
    assert result.losses[-1] < result.losses[0]


def test_train_loss_decreases():
    rng = np.random.default_rng(52)
    examples = [(x, ColorSpaceId(int(i % 3))) for i, x in enumerate(random_features(rng, 12))]
    result = train(examples, TrainConfig(epochs=200, seed=4))
    assert result.losses[-1] <= result.losses[0]
    assert len(result.losses) == 201


def _reference_train(examples, cfg):
    """The training loop written out with one forward pass per loss and per
    gradient, as two independent evaluations of the same weights."""
    x = np.stack([np.asarray(f, dtype=np.float64) for f, _ in examples])
    targets = np.array([int(t) for _, t in examples])
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    xh = (x - x.mean(axis=0)) / scale
    n = len(targets)

    def probabilities(m):
        hidden = np.tanh(xh @ m.w1.T + m.b1)
        return hidden, softmax(hidden @ m.w2.T + m.b2)

    def loss(m):
        p = probabilities(m)[1]
        return float(-np.mean(np.log(p[np.arange(n), targets])))

    model = init_model(cfg.hidden_count, cfg.seed)
    losses = [loss(model)]
    for epoch in range(1, cfg.epochs + 1):
        hidden, p = probabilities(model)
        delta2 = p.copy()
        delta2[np.arange(n), targets] -= 1.0
        delta2 /= n
        delta1 = (delta2 @ model.w2) * (1.0 - hidden**2)
        lr = cfg.learning_rate
        model = MlpModel(
            model.w1 - lr * (delta1.T @ xh),
            model.b1 - lr * delta1.sum(axis=0),
            model.w2 - lr * (delta2.T @ hidden),
            model.b2 - lr * delta2.sum(axis=0),
        )
        losses.append(loss(model))
        if not np.isfinite(losses[-1]):
            raise ArithmeticError(f"non-finite training loss at epoch {epoch}")
    return model, tuple(losses)


def test_train_equals_two_pass_reference_bitwise():
    rng = np.random.default_rng(54)
    examples = [(x, ColorSpaceId(int(i % 3))) for i, x in enumerate(random_features(rng, 20))]
    cfg = TrainConfig(epochs=150, learning_rate=0.05, hidden_count=7, seed=3)
    model, losses = _reference_train(examples, cfg)
    result = train(examples, cfg)
    assert len(result.losses) == cfg.epochs + 1
    assert result.losses == losses
    for name in ("w1", "b1", "w2", "b2"):
        assert np.array_equal(getattr(result.model, name), getattr(model, name))


def test_train_non_finite_loss_names_the_reference_epoch():
    rng = np.random.default_rng(0)
    x, t = rng.normal(0, 1, (20, 9)), rng.integers(0, 3, 20)
    examples = [(x[i], ColorSpaceId(int(t[i]))) for i in range(20)]
    cfg = TrainConfig(learning_rate=300.0, epochs=50)
    with np.errstate(all="ignore"):
        with pytest.raises(ArithmeticError) as expected:
            _reference_train(examples, cfg)
        assert "epoch 2" in str(expected.value)
        with pytest.raises(ArithmeticError, match=f"^{expected.value}$"):
            train(examples, cfg)


def test_train_rejects_empty_set():
    with pytest.raises(ValueError, match="empty"):
        train([], TrainConfig())


def test_gradients_match_finite_differences():
    from lumaswitch.mlp import _forward, _gradients

    rng = np.random.default_rng(53)
    model = init_model(15, seed=9)
    xh = rng.normal(0, 1, (8, 9))
    targets = rng.integers(0, 3, 8)
    grads = _gradients(model, xh, targets, *_forward(model, xh))
    arrays = ("w1", "b1", "w2", "b2")
    eps = 1e-5
    for name, grad in zip(arrays, grads):
        base = getattr(model, name)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            lo_hi = []
            for sign in (1, -1):
                p = {a: getattr(model, a).copy() for a in arrays}
                p[name][idx] += sign * eps
                lo_hi.append(mean_cross_entropy(_forward(MlpModel(**p), xh)[1], targets))
            numeric = (lo_hi[0] - lo_hi[1]) / (2 * eps)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            assert abs(numeric - grad[idx]) / denom < 1e-4


def test_train_config_validation():
    for rate in (0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=rate)
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        replace(zero_model(), scale=np.zeros(9))


# serialization --------------------------------------------------------------


def test_save_load_round_trip_exact(tmp_path):
    rng = np.random.default_rng(54)
    for hidden in (1, 10, 15, 32):
        model = replace(
            init_model(hidden, seed=hidden), shift=rng.normal(0, 100, 9), scale=rng.uniform(0.1, 50, 9)
        )
        path = tmp_path / f"m{hidden}.json"
        save_model(model, path)
        loaded = load_model(path)
        for a, b in ((model.w1, loaded.w1), (model.b1, loaded.b1), (model.w2, loaded.w2), (model.b2, loaded.b2)):
            assert np.array_equal(a, b)
        assert np.array_equal(model.shift, loaded.shift)
        assert np.array_equal(model.scale, loaded.scale)


def test_save_load_save_identical_bytes(tmp_path):
    model = init_model(15, seed=2)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def _published_fixture_doc(hidden=3):
    rng = np.random.default_rng(55)
    return {
        "format_version": 1,
        "hidden_count": hidden,
        "w1": [[round(float(v), 4) for v in row] for row in rng.normal(0, 1, (hidden, 9))],
        "b1": TABLE4_BIASES,
        "w2": [list(row) for row in TABLE2_ROWS],
        "b2": [0.1, -0.2, 0.3],
        "normalization": {"shift": [0.0] * 9, "scale": [1.0] * 9},
    }


def test_published_weight_fixture_loads_exactly(tmp_path):
    path = tmp_path / "fixture.json"
    path.write_text(json.dumps(_published_fixture_doc()))
    model = load_model(path)
    # w2 is stored as per-hidden-neuron output triples, i.e. the transpose
    assert [tuple(col) for col in model.w2.T] == TABLE2_ROWS
    assert list(model.b1) == TABLE4_BIASES
    save_model(model, tmp_path / "again.json")
    reloaded = load_model(tmp_path / "again.json")
    assert np.array_equal(model.w2, reloaded.w2)


def test_load_model_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="malformed"):
        load_model(path)


def test_load_model_dimension_mismatch(tmp_path):
    doc = _published_fixture_doc()
    doc["hidden_count"] = 7
    path = tmp_path / "dim.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="hidden_count"):
        load_model(path)


@pytest.mark.parametrize("version", [99, None, "1", "missing"])
def test_load_model_rejects_other_format_versions(tmp_path, version):
    doc = _published_fixture_doc()
    if version == "missing":
        del doc["format_version"]
    else:
        doc["format_version"] = version
    path = tmp_path / "version.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="format_version"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("w1", 5.0),
        ("b1", [0.1, 0.2]),
        ("shift", math.nan),
        ("shift", math.inf),
        ("shift", -math.inf),
        ("scale", 0.0),
        ("normalization", {"shift": [0.0] * 9}),  # a missing key
    ],
)
def test_load_model_invalid_values_name_the_file(tmp_path, field, value):
    doc = _published_fixture_doc()
    if field in ("shift", "scale"):
        doc["normalization"][field][4] = value
    else:
        doc[field] = value
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: malformed model file: "):
        load_model(path)


def test_model_file_bytes_are_pinned(tmp_path):
    """The bytes of a format_version 1 file are fixed: models saved by
    earlier releases must stay loadable and re-save identically."""
    model = replace(
        init_model(3, seed=5),
        shift=[0.5, -1.25, 3.0, 120.0, 0.1, 7.75, -0.3, 64.0, 0.2],
        scale=[1.5, 0.25, 2.0, 30.0, 0.05, 4.0, 0.7, 16.0, 0.9],
    )
    path = tmp_path / "pinned.json"
    save_model(model, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "9ff7d93c2adc8a0622f7496f775c5dcb4c9db2b9dcbddde0034c5466bc9366dd"
