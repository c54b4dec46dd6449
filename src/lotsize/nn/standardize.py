"""Per-feature standardization fitted on the training split only."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..core import Instance
from ..errors import ValidationError

STD_FLOOR = 1e-8


def instance_features(inst: Instance) -> np.ndarray:
    """T x 4 feature matrix: production cost, setup cost, capacity, demand.

    Holding cost is omitted because the generator keeps it constant.
    """
    return np.column_stack(
        [inst.p, inst.f, inst.cap.astype(np.float64), inst.d.astype(np.float64)]
    )


@dataclass(frozen=True)
class Standardizer:
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        if mean.shape != std.shape or mean.ndim != 1:
            raise ValidationError("mean and std must be vectors of equal length")
        if np.any(std <= 0):
            raise ValidationError("std entries must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype=np.float64) - self.mean) / self.std


def standardize_fit(feature_arrays: Iterable[np.ndarray]) -> Standardizer:
    """Pool all (instance, period) rows and fit population mean and std."""
    arrays = [np.asarray(a, dtype=np.float64) for a in feature_arrays]
    if not arrays:
        raise ValidationError("cannot fit a standardizer on an empty training set")
    pooled = np.vstack(arrays)
    mean = pooled.mean(axis=0)
    std = pooled.std(axis=0)
    return Standardizer(mean=mean, std=np.maximum(std, STD_FLOOR))
