"""Loss, optimizer and the minibatch training loop.

Training minimizes mean binary cross-entropy with Adam, which updates the
model's flat parameter vector and its moment estimates in place. Per epoch the loop
records the training loss and validation accuracy, keeps the parameters of
the best validation epoch, and stops early after a patience window without
improvement. Dropout applies only to the training batches, because only
they are run with an ``rng``; validation and inference pass none.
Everything is deterministic given the config seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core import Instance, Solution
from ..errors import DimensionError, DivergenceError, ValidationError
from .lstm import BiLstmModel, backward_batch, forward_batch
from .standardize import Standardizer, instance_features

PROB_CLIP = 1e-12
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Validation batches are cut to this many instances to bound the forward caches.
EVAL_CHUNK = 256


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.01
    batch_size: int = 64
    max_epochs: int = 100
    early_stop_patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError("learning rate must be finite and positive")
        if self.max_epochs < 1:
            raise ValidationError("max epochs must be at least 1")
        if self.batch_size < 1:
            raise ValidationError("batch size must be at least 1")


def bce_loss(y_star: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean binary cross-entropy over the horizon, probabilities clipped."""
    y_star = np.asarray(y_star, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y_star.shape != y_hat.shape:
        raise DimensionError(f"label shape {y_star.shape} != prediction shape {y_hat.shape}")
    q = np.clip(y_hat, PROB_CLIP, 1.0 - PROB_CLIP)
    per_period = -(y_star * np.log(q) + (1.0 - y_star) * np.log(1.0 - q))
    return float(per_period.mean())


def batch_loss_and_grads(
    model: BiLstmModel,
    X: np.ndarray,
    Y: np.ndarray,
    rng: np.random.Generator | None = None,
) -> tuple[float, np.ndarray]:
    """Mean loss over a (B, T, F) batch and its exact gradient vector.

    Dropout masks, sampled from ``rng`` when one is passed, are held fixed
    for the backward pass, so the gradients are exact for the masked loss.
    """
    Y = np.asarray(Y, dtype=np.float64)
    cache = forward_batch(model, X, rng)
    loss = bce_loss(Y, cache.probs)
    dlogits = (np.clip(cache.probs, PROB_CLIP, 1.0 - PROB_CLIP) - Y) / Y.size
    return loss, backward_batch(model, cache, dlogits)


class AdamState:
    """Adam's moment estimates for a flat parameter vector, its step count,
    and two work buffers so that a step allocates nothing."""

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.step = 0
        self.work = np.empty((2, size))


def adam_step(
    theta: np.ndarray, grad: np.ndarray, state: AdamState, learning_rate: float
) -> None:
    """One bias-corrected Adam update of ``theta``, ``state.m`` and ``state.v``, in place.

    Computes ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
    ``theta -= lr * m_hat / (sqrt(v_hat) + eps)`` one operation at a time,
    in that order, through the state's work buffers.
    """
    state.step += 1
    m, v = state.m, state.v
    step, denom = state.work
    m *= ADAM_BETA1
    np.multiply(grad, 1 - ADAM_BETA1, out=step)
    m += step
    v *= ADAM_BETA2
    np.multiply(grad, 1 - ADAM_BETA2, out=step)
    step *= grad
    v += step
    np.divide(v, 1 - ADAM_BETA2**state.step, out=denom)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    np.divide(m, 1 - ADAM_BETA1**state.step, out=step)
    step *= learning_rate
    step /= denom
    theta -= step


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float
    seconds: float


@dataclass
class TrainResult:
    model: BiLstmModel
    history: list[EpochStats]
    best_epoch: int
    total_seconds: float


def predictions_to_labels(probs: np.ndarray) -> np.ndarray:
    """Threshold at 0.5; ties label 1."""
    return (np.asarray(probs) >= 0.5).astype(np.int64)


def accuracy_on_arrays(model: BiLstmModel, X: np.ndarray, Y: np.ndarray) -> float:
    """Fraction of correctly predicted (instance, period) pairs."""
    if len(X) == 0:
        raise ValidationError("accuracy requires a non-empty split")
    hits = 0
    for start in range(0, len(X), EVAL_CHUNK):
        cache = forward_batch(model, X[start : start + EVAL_CHUNK])
        hits += int((predictions_to_labels(cache.probs) == Y[start : start + EVAL_CHUNK]).sum())
    return hits / Y.size


def pairs_to_arrays(
    pairs: list[tuple[Instance, Solution]], standardizer: Standardizer | None
) -> tuple[np.ndarray, np.ndarray]:
    """Stack (Instance, Solution) pairs into (N, T, 4) features and (N, T) labels."""
    if not pairs:
        raise ValidationError("empty split")
    horizons = {inst.T for inst, _ in pairs}
    if len(horizons) != 1:
        raise ValidationError("all instances in a split must share one horizon")
    feats = np.stack([instance_features(inst) for inst, _ in pairs])
    if standardizer is not None:
        feats = standardizer.transform(feats)
    labels = np.stack([sol.y for _, sol in pairs]).astype(np.int64)
    return feats, labels


def train(
    model: BiLstmModel,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray],
    config: TrainConfig,
) -> TrainResult:
    """Minibatch Adam on standardized arrays; retains the best-validation epoch."""
    X_train, Y_train = train_data
    n = len(X_train)
    if n == 0:
        raise ValidationError("training split is empty")
    rng = np.random.default_rng(config.seed)
    state = AdamState(model.theta.size)
    history: list[EpochStats] = []
    best_acc = -1.0
    best_epoch = -1
    best_theta = model.theta.copy()
    t_start = time.perf_counter()
    for epoch in range(config.max_epochs):
        t_epoch = time.perf_counter()
        order = rng.permutation(n)
        total_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            loss, grad = batch_loss_and_grads(model, X_train[idx], Y_train[idx], rng)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite training loss at epoch {epoch}")
            adam_step(model.theta, grad, state, config.learning_rate)
            total_loss += loss * len(idx)
        train_loss = total_loss / n
        val_acc = accuracy_on_arrays(model, *val_data)
        history.append(
            EpochStats(
                epoch=epoch,
                train_loss=train_loss,
                val_accuracy=val_acc,
                seconds=time.perf_counter() - t_epoch,
            )
        )
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_theta = model.theta.copy()
        elif epoch - best_epoch >= config.early_stop_patience:
            break
    model.theta[:] = best_theta
    return TrainResult(
        model=model,
        history=history,
        best_epoch=best_epoch,
        total_seconds=time.perf_counter() - t_start,
    )
