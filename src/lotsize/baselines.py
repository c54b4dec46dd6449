"""Logistic-regression baseline: per-period classification without recurrence.

Each period is scored independently from its own standardized costs plus a
few instance-level aggregates, so the baseline sees the same information as
the sequence model but no sequential state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .core import Instance, Solution
from .errors import DivergenceError, ValidationError
from .nn.standardize import Standardizer, instance_features, standardize_fit

FEATURE_RECIPE = "period-v1"


@dataclass(frozen=True)
class LogisticConfig:
    learning_rate: float = 0.5
    epochs: int = 1500
    l2: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.epochs < 1 or self.l2 < 0:
            raise ValidationError("invalid logistic regression config")


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    standardizer: Standardizer
    feature_recipe: str = FEATURE_RECIPE


def period_features(inst: Instance, standardizer: Standardizer) -> np.ndarray:
    """T x 8 design matrix for one instance."""
    z = standardizer.transform(instance_features(inst))
    T = inst.T
    position = (np.arange(1, T + 1) / T)[:, None]
    mean_d = np.full((T, 1), z[:, 3].mean())
    mean_cap = np.full((T, 1), z[:, 2].mean())
    total_d = float(inst.d.sum())
    cum_ratio = (np.cumsum(inst.d) / total_d if total_d > 0 else np.ones(T))[:, None]
    return np.hstack([z, position, mean_d, mean_cap, cum_ratio])


def logistic_fit(
    train_pairs: list[tuple[Instance, Solution]],
    config: LogisticConfig | None = None,
    standardizer: Standardizer | None = None,
    init_weights: np.ndarray | None = None,
) -> LogisticModel:
    """Full-batch gradient descent on mean binary cross-entropy plus L2."""
    if not train_pairs:
        raise ValidationError("empty training set")
    config = config or LogisticConfig()
    if standardizer is None:
        standardizer = standardize_fit([instance_features(inst) for inst, _ in train_pairs])
    X = np.vstack([period_features(inst, standardizer) for inst, _ in train_pairs])
    y = np.concatenate([sol.y for _, sol in train_pairs]).astype(np.float64)
    n = len(y)
    rng = np.random.default_rng(config.seed)
    w = (
        np.asarray(init_weights, dtype=np.float64).copy()
        if init_weights is not None
        else rng.normal(0.0, 0.01, size=X.shape[1])
    )
    b = 0.0
    for epoch in range(config.epochs):
        scores = X @ w + b
        probs = expit(scores)
        err = probs - y
        grad_w = X.T @ err / n + config.l2 * w
        grad_b = float(err.mean())
        w -= config.learning_rate * grad_w
        b -= config.learning_rate * grad_b
        if not np.all(np.isfinite(w)) or not np.isfinite(b):
            raise DivergenceError(f"logistic fit diverged at epoch {epoch}")
    return LogisticModel(weights=w, bias=b, standardizer=standardizer)


def logistic_predict(model: LogisticModel, inst: Instance) -> np.ndarray:
    """Setup probabilities per period; drop-in for the sequence model output."""
    if model.feature_recipe != FEATURE_RECIPE:
        raise ValidationError(
            f"model built with recipe {model.feature_recipe!r}, code expects {FEATURE_RECIPE!r}"
        )
    X = period_features(inst, model.standardizer)
    return expit(X @ model.weights + model.bias)
