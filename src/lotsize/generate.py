"""Random instance generation and dataset assembly.

Instances are drawn from integer uniform distributions controlled by a
capacity-to-demand ratio ``c`` and a setup-to-holding cost ratio ``f``.
Draws that fail the flow feasibility test are discarded and redrawn whole.
Every draw is keyed by ``(seed, draw_index, attempt)`` so generation is
reproducible and order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    STATUS_OPTIMAL,
    FixPlan,
    Instance,
    Solution,
    as_integer,
    flow_feasible,
    _round_half_up,
)
from .errors import DatasetError, GenerationError, ValidationError

SPLIT_FRACTIONS = (0.64, 0.16, 0.20)
REDRAW_BUDGET = 1000


@dataclass(frozen=True)
class GenParams:
    """Distribution parameters for one dataset.

    A fractional ``c_ratio``, ``T``, ``seed`` or range bound raises
    ``ValidationError`` rather than being truncated.
    """

    c_ratio: int
    f_ratio: float
    T: int
    demand_range: tuple[int, int] = (1, 600)
    prod_cost_range: tuple[int, int] = (1, 5)
    seed: int = 0

    def __post_init__(self):
        for name in ("c_ratio", "T", "seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.c_ratio < 1:
            raise ValidationError("capacity-to-demand ratio must be a positive integer")
        if self.f_ratio <= 0:
            raise ValidationError("setup-to-holding ratio must be positive")
        if self.T < 1:
            raise ValidationError("horizon must be at least 1")
        for name in ("demand_range", "prod_cost_range"):
            lo, hi = (as_integer(name, v) for v in getattr(self, name))
            if lo < 0 or hi < lo:
                raise ValidationError(f"{name} must be a non-empty interval with lower bound >= 0")
            object.__setattr__(self, name, (lo, hi))
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")

    def to_dict(self) -> dict:
        return {
            "c_ratio": self.c_ratio,
            "f_ratio": self.f_ratio,
            "T": self.T,
            "demand_range": list(self.demand_range),
            "prod_cost_range": list(self.prod_cost_range),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenParams":
        return cls(
            c_ratio=data["c_ratio"],
            f_ratio=float(data["f_ratio"]),
            T=data["T"],
            demand_range=tuple(data.get("demand_range", (1, 600))),
            prod_cost_range=tuple(data.get("prod_cost_range", (1, 5))),
            seed=data.get("seed", 0),
        )


def desk_params(c_ratio: int, f_ratio: float, T: int = 20, seed: int = 0) -> GenParams:
    """Workstation-scale preset: short horizons and small demands."""
    if T not in (10, 15, 20, 30):
        raise ValidationError("desk presets cover T in {10, 15, 20, 30}")
    return GenParams(c_ratio=c_ratio, f_ratio=f_ratio, T=T, demand_range=(1, 60), seed=seed)


def generate_instance(params: GenParams, draw_index: int) -> Instance:
    """Draw one feasible instance, deterministically from (seed, draw_index).

    Holding cost is fixed at one per unit per period; capacities scale with
    the realized mean demand and setup costs with the mean holding cost.
    Infeasible draws are replaced by redrawing the whole instance, at most
    ``REDRAW_BUDGET`` times in all.
    """
    d_lo, d_hi = params.demand_range
    p_lo, p_hi = params.prod_cost_range
    for attempt in range(REDRAW_BUDGET):
        seq = np.random.SeedSequence(params.seed, spawn_key=(int(draw_index), attempt))
        rng = np.random.default_rng(seq)
        d = rng.integers(d_lo, d_hi + 1, params.T)
        p = rng.integers(p_lo, p_hi + 1, params.T)
        d_bar = float(d.mean())
        h_bar = 1.0
        cap_lo = _round_half_up(0.7 * params.c_ratio * d_bar)
        cap_hi = _round_half_up(1.1 * params.c_ratio * d_bar)
        f_lo = _round_half_up(0.9 * params.f_ratio * h_bar)
        f_hi = _round_half_up(1.1 * params.f_ratio * h_bar)
        cap = rng.integers(cap_lo, cap_hi + 1, params.T)
        f = rng.integers(f_lo, f_hi + 1, params.T)
        inst = Instance(
            T=params.T,
            d=d,
            p=p,
            f=f,
            h=np.ones(params.T),
            cap=cap,
            s0=0,
            meta={
                "c_ratio": params.c_ratio,
                "f_ratio": params.f_ratio,
                "seed": params.seed,
                "draw_index": int(draw_index),
            },
        )
        if flow_feasible(inst, FixPlan.empty()):
            return inst
    raise GenerationError(
        f"no feasible draw within {REDRAW_BUDGET} attempts for draw_index={draw_index}; "
        "the parameters are pathological"
    )


@dataclass
class Dataset:
    """Solved instances split into train/validation/test by draw order."""

    train: list[tuple[Instance, Solution]]
    validation: list[tuple[Instance, Solution]]
    test: list[tuple[Instance, Solution]]
    gen_params: GenParams
    provenance: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return len(self.train) + len(self.validation) + len(self.test)

    def splits(self):
        return (("train", self.train), ("val", self.validation), ("test", self.test))


def split_counts(n: int) -> tuple[int, int, int]:
    n_train = int(n * SPLIT_FRACTIONS[0])
    n_val = int(n * SPLIT_FRACTIONS[1])
    return n_train, n_val, n - n_train - n_val


def generate_dataset(
    params: GenParams,
    n: int,
    oracle: Callable[[Instance], Solution],
    oracle_name: str = "oracle",
    map_fn: Callable | None = None,
) -> Dataset:
    """Generate ``n`` feasible instances, solve each with ``oracle`` and split.

    The split is ``split_counts(n)``: train, validation and test take the
    ``SPLIT_FRACTIONS`` 64/16/20 of the draws, in draw order. ``map_fn``
    replaces the builtin map for parallel solving; it must preserve order.
    """
    if n < 10:
        raise ValidationError("dataset generation requires n >= 10")
    instances = [generate_instance(params, i) for i in range(n)]
    mapper = map_fn or map
    solutions = list(mapper(oracle, instances))
    pairs: list[tuple[Instance, Solution]] = []
    for i, (inst, sol) in enumerate(zip(instances, solutions)):
        if sol.status != STATUS_OPTIMAL:
            raise DatasetError(f"oracle returned status {sol.status} on instance {i}")
        pairs.append((inst, sol))
    n_train, n_val, _ = split_counts(n)
    return Dataset(
        train=pairs[:n_train],
        validation=pairs[n_train : n_train + n_val],
        test=pairs[n_train + n_val :],
        gen_params=params,
        provenance={"seed": params.seed, "oracle": oracle_name, "n": n},
    )
