"""The color-space selector network: 9 inputs, one tanh hidden layer,
3-way softmax output, trained by full-batch gradient descent on mean
cross-entropy.

Features mix [0,1] and [0,255] scales, so inputs are standardized with a
per-feature (shift, scale) pair that is persisted alongside the weights;
a loaded model file is self-contained for inference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .colorspace import FeatureVector
from .skinfilter import ColorSpaceId

__all__ = [
    "MlpModel",
    "Normalization",
    "TrainConfig",
    "TrainResult",
    "softmax",
    "forward",
    "predict_space",
    "init_model",
    "train",
    "save_model",
    "load_model",
]

N_FEATURES = 9
N_CLASSES = 3
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Normalization:
    """Per-feature standardization: x_hat = (x - shift) / scale."""

    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        shift = np.asarray(self.shift, dtype=np.float64)
        scale = np.asarray(self.scale, dtype=np.float64)
        if shift.shape != (N_FEATURES,) or scale.shape != (N_FEATURES,):
            raise ValueError("normalization needs 9 shift and 9 scale entries")
        if not np.all(scale > 0):
            raise ValueError("every normalization scale must be positive")
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def identity(cls) -> "Normalization":
        return cls(np.zeros(N_FEATURES), np.ones(N_FEATURES))

    @classmethod
    def fit(cls, features: np.ndarray) -> "Normalization":
        """Z-score parameters from an (n, 9) feature matrix.

        Degenerate (constant) features get scale 1 so standardization
        stays well-defined.
        """
        x = np.asarray(features, dtype=np.float64)
        shift = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        return cls(shift, scale)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.shift) / self.scale


@dataclass(frozen=True)
class MlpModel:
    """w1: (hidden, 9) input->hidden weights; w2: (3, hidden) hidden->output."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        b1 = np.asarray(self.b1, dtype=np.float64)
        w2 = np.asarray(self.w2, dtype=np.float64)
        b2 = np.asarray(self.b2, dtype=np.float64)
        hidden = w1.shape[0]
        if w1.shape != (hidden, N_FEATURES):
            raise ValueError(f"w1 must be (hidden, 9), got {w1.shape}")
        if b1.shape != (hidden,):
            raise ValueError(f"b1 must be (hidden,), got {b1.shape}")
        if w2.shape != (N_CLASSES, hidden):
            raise ValueError(f"w2 must be (3, hidden), got {w2.shape}")
        if b2.shape != (N_CLASSES,):
            raise ValueError(f"b2 must be (3,), got {b2.shape}")
        for name, arr in (("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def hidden_count(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 500
    hidden_count: int = 15
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.learning_rate < float("inf"):  # also rejects nan
            raise ValueError(f"learning_rate must be finite and positive: {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.hidden_count < 1:
            raise ValueError("hidden_count must be >= 1")


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    normalization: Normalization
    losses: tuple[float, ...]  # mean cross-entropy per epoch, pre-update


def softmax(q: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    q = np.asarray(q, dtype=np.float64)
    e = np.exp(q - q.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _as_feature_array(x) -> np.ndarray:
    if isinstance(x, FeatureVector):
        return x.as_array()
    return np.asarray(x, dtype=np.float64)


def _forward(model: MlpModel, xh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tanh hidden activations, class probabilities) of normalized inputs."""
    hidden = np.tanh(xh @ model.w1.T + model.b1)
    return hidden, softmax(hidden @ model.w2.T + model.b2)


def forward(model: MlpModel, x, normalization: Normalization) -> np.ndarray:
    """Class probabilities for one feature vector (or an (n, 9) batch)."""
    return _forward(model, normalization.apply(_as_feature_array(x)))[1]


def predict_space(model: MlpModel, x, normalization: Normalization) -> ColorSpaceId:
    """Argmax class; exact ties break toward RGB < HSV < YCbCr."""
    p = forward(model, x, normalization)
    return ColorSpaceId(int(np.argmax(p)))


def init_model(hidden_count: int, seed: int) -> MlpModel:
    """Weights and biases drawn uniformly from [-0.5, 0.5]."""
    rng = np.random.default_rng(seed)
    return MlpModel(
        w1=rng.uniform(-0.5, 0.5, (hidden_count, N_FEATURES)),
        b1=rng.uniform(-0.5, 0.5, hidden_count),
        w2=rng.uniform(-0.5, 0.5, (N_CLASSES, hidden_count)),
        b2=rng.uniform(-0.5, 0.5, N_CLASSES),
    )


def mean_cross_entropy(p: np.ndarray, targets: np.ndarray) -> float:
    """Mean negative log-probability of the target classes under the
    ``_forward`` class probabilities p."""
    return float(-np.mean(np.log(p[np.arange(len(targets)), targets])))


def _gradients(model: MlpModel, xh: np.ndarray, targets: np.ndarray, hidden, p):
    """Mean cross-entropy gradients from the ``_forward(model, xh)`` pass."""
    n = len(targets)
    delta2 = p.copy()
    delta2[np.arange(n), targets] -= 1.0
    delta2 /= n
    gw2 = delta2.T @ hidden
    gb2 = delta2.sum(axis=0)
    delta1 = (delta2 @ model.w2) * (1.0 - hidden**2)
    gw1 = delta1.T @ xh
    gb1 = delta1.sum(axis=0)
    return gw1, gb1, gw2, gb2


def train(examples, cfg: TrainConfig) -> TrainResult:
    """Full-batch gradient descent on the labeled feature vectors.

    examples: iterable of (FeatureVector | 9-array, ColorSpaceId).
    """
    examples = list(examples)
    if not examples:
        raise ValueError("training set is empty")
    x = np.stack([_as_feature_array(f) for f, _ in examples])
    targets = np.array([int(t) for _, t in examples])
    norm = Normalization.fit(x)
    xh = norm.apply(x)

    model = init_model(cfg.hidden_count, cfg.seed)
    hidden, p = _forward(model, xh)
    losses = [mean_cross_entropy(p, targets)]
    for epoch in range(1, cfg.epochs + 1):
        gw1, gb1, gw2, gb2 = _gradients(model, xh, targets, hidden, p)
        lr = cfg.learning_rate
        model = MlpModel(
            model.w1 - lr * gw1,
            model.b1 - lr * gb1,
            model.w2 - lr * gw2,
            model.b2 - lr * gb2,
        )
        hidden, p = _forward(model, xh)
        loss = mean_cross_entropy(p, targets)
        if not np.isfinite(loss):
            raise ArithmeticError(f"non-finite training loss at epoch {epoch}")
        losses.append(loss)
    return TrainResult(model=model, normalization=norm, losses=tuple(losses))


# serialization ---------------------------------------------------------------
#
# JSON layout: w1 is hidden_count rows of 9; w2 is stored as hidden_count
# rows of 3, one row per hidden neuron's outgoing weights (the transpose
# of the in-memory (3, hidden) matrix).


def _serialize(model: MlpModel, normalization: Normalization) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "hidden_count": model.hidden_count,
        "w1": [[float(v) for v in row] for row in model.w1],
        "b1": [float(v) for v in model.b1],
        "w2": [[float(v) for v in row] for row in model.w2.T],
        "b2": [float(v) for v in model.b2],
        "normalization": {
            "shift": [float(v) for v in normalization.shift],
            "scale": [float(v) for v in normalization.scale],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def save_model(model: MlpModel, normalization: Normalization, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_serialize(model, normalization))


def load_model(path: str | os.PathLike) -> tuple[MlpModel, Normalization]:
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{os.fspath(path)}: malformed model file: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{os.fspath(path)}: unsupported model format_version {version!r}")
    try:
        hidden = int(doc["hidden_count"])
        w1 = np.array(doc["w1"], dtype=np.float64)
        b1 = np.array(doc["b1"], dtype=np.float64)
        w2 = np.array(doc["w2"], dtype=np.float64).T
        b2 = np.array(doc["b2"], dtype=np.float64)
        norm = Normalization(
            np.array(doc["normalization"]["shift"], dtype=np.float64),
            np.array(doc["normalization"]["scale"], dtype=np.float64),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{os.fspath(path)}: malformed model file: {exc}") from exc
    if w1.shape != (hidden, N_FEATURES) or b1.shape != (hidden,) or w2.shape != (N_CLASSES, hidden):
        raise ValueError(
            f"{os.fspath(path)}: declared hidden_count {hidden} does not match array shapes"
        )
    return MlpModel(w1, b1, w2, b2), norm
