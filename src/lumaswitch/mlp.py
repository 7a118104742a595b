"""The color-space selector network: 9 inputs, one tanh hidden layer,
3-way softmax output, trained by full-batch gradient descent on mean
cross-entropy.

Inputs are ``colorspace.feature_vector`` arrays: nine float64 channel
means in ``FEATURE_KEYS`` order, one per image or stacked (n, 9).
Features mix [0,1] and [0,255] scales, so the model carries its own
per-feature input standardization (shift, scale), fitted by ``train`` and
persisted with the weights; a loaded model is self-contained for inference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .skinfilter import ColorSpaceId

__all__ = [
    "MlpModel",
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
class MlpModel:
    """w1: (hidden, 9) input->hidden weights; w2: (3, hidden) hidden->output.
    Inputs are standardized as (x - shift) / scale before the first layer;
    the default shift and scale are the identity."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    shift: np.ndarray = field(default_factory=lambda: np.zeros(N_FEATURES))
    scale: np.ndarray = field(default_factory=lambda: np.ones(N_FEATURES))

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=np.float64)
        hidden = w1.shape[0] if w1.ndim else 0
        shapes = {
            "w1": (hidden, N_FEATURES),
            "b1": (hidden,),
            "w2": (N_CLASSES, hidden),
            "b2": (N_CLASSES,),
            "shift": (N_FEATURES,),
            "scale": (N_FEATURES,),
        }
        for name, shape in shapes.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            object.__setattr__(self, name, arr)
        if not np.all(self.scale > 0):
            raise ValueError("every scale entry must be positive")

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class TrainResult:
    model: MlpModel
    losses: tuple[float, ...]  # mean cross-entropy per epoch, pre-update


def softmax(q: np.ndarray) -> np.ndarray:
    """Stable softmax along the last axis."""
    q = np.asarray(q, dtype=np.float64)
    e = np.exp(q - q.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _forward(model: MlpModel, xh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(tanh hidden activations, class probabilities) of normalized inputs."""
    hidden = np.tanh(xh @ model.w1.T + model.b1)
    return hidden, softmax(hidden @ model.w2.T + model.b2)


def forward(model: MlpModel, x) -> np.ndarray:
    """Class probabilities for one feature vector (or an (n, 9) batch)."""
    return _forward(model, (np.asarray(x, dtype=np.float64) - model.shift) / model.scale)[1]


def predict_space(model: MlpModel, x) -> ColorSpaceId:
    """Argmax class; exact ties break toward RGB < HSV < YCbCr."""
    p = forward(model, x)
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

    examples: iterable of (9-array, ColorSpaceId).
    """
    examples = list(examples)
    if not examples:
        raise ValueError("training set is empty")
    x = np.array([f for f, _ in examples], dtype=np.float64)
    targets = np.array([int(t) for _, t in examples])
    # z-score; a constant feature gets scale 1 so standardization stays defined
    shift = x.mean(axis=0)
    scale = x.std(axis=0)
    scale[scale == 0.0] = 1.0
    xh = (x - shift) / scale

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
    return TrainResult(model=replace(model, shift=shift, scale=scale), losses=tuple(losses))


# serialization ---------------------------------------------------------------
#
# JSON layout: w1 is hidden_count rows of 9; w2 is stored as hidden_count
# rows of 3, one row per hidden neuron's outgoing weights (the transpose
# of the in-memory (3, hidden) matrix).


def _serialize(model: MlpModel) -> str:
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "hidden_count": model.hidden_count,
        "w1": [[float(v) for v in row] for row in model.w1],
        "b1": [float(v) for v in model.b1],
        "w2": [[float(v) for v in row] for row in model.w2.T],
        "b2": [float(v) for v in model.b2],
        "normalization": {
            "shift": [float(v) for v in model.shift],
            "scale": [float(v) for v in model.scale],
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def save_model(model: MlpModel, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(_serialize(model))


def load_model(path: str | os.PathLike) -> MlpModel:
    with open(path, "r", encoding="ascii") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # invalid JSON, or bytes that are not ASCII
            raise ValueError(f"{os.fspath(path)}: malformed model file: {exc}") from exc
    version = doc.get("format_version") if isinstance(doc, dict) else None
    if version is not None and type(version) is not int:  # true, 1.0 or "1"
        raise ValueError(
            f"{os.fspath(path)}: malformed model file: format_version {version!r} is not an integer"
        )
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"{os.fspath(path)}: unsupported model format_version {version!r}")
    try:
        hidden = doc["hidden_count"]
        if type(hidden) is not int:  # 3.9 or "3", which int() would take as 3
            raise TypeError(f"hidden_count {hidden!r} is not an integer")
        model = MlpModel(
            w1=doc["w1"],
            b1=doc["b1"],
            w2=np.array(doc["w2"], dtype=np.float64).T,
            b2=doc["b2"],
            shift=doc["normalization"]["shift"],
            scale=doc["normalization"]["scale"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{os.fspath(path)}: malformed model file: {exc}") from exc
    if model.hidden_count != hidden:
        raise ValueError(
            f"{os.fspath(path)}: declared hidden_count {hidden} does not match array shapes"
        )
    return model
