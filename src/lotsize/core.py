"""Data model for the single-item capacitated lot-sizing problem.

An instance covers ``T`` periods (1-based in every interface). Per period there
is a demand, a unit production cost, a fixed setup cost, a unit holding cost
and a production capacity. A solution chooses production ``x``, ending
inventory ``s`` and the binary setup indicator ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np

from .errors import DimensionError, ValidationError

STATUS_OPTIMAL = "Optimal"
STATUS_INFEASIBLE = "Infeasible"
STATUS_TIME_LIMIT = "TimeLimit"

# Absolute tolerance for flow/capacity feasibility checks, matching the LP
# solver tolerance used downstream.
FEAS_TOL = 1e-6


def _round_half_up(x: float) -> int:
    """Nearest int, halves up (``round`` goes to even). Kept private so the
    benchmark tracer, which wraps public names, skips this small helper."""
    return int(math.floor(x + 0.5))


def as_integer(name: str, value) -> int:
    """``value`` as an int; a fractional or non-finite value raises, never truncates."""
    if isinstance(value, (int, np.integer)):
        return int(value)
    real = float(value)
    if not real.is_integer():
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(real)


def _frozen_1d(name: str, values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a one-dimensional vector")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def _frozen_int_1d(name: str, values) -> np.ndarray:
    """``_frozen_1d`` for integer data; a fractional entry is an error, not truncated."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iub":
        real = raw.astype(np.float64)
        if not np.all(np.isfinite(real) & (real == np.floor(real))):
            raise ValidationError(f"{name} must hold integers")
    return _frozen_1d(name, raw, np.int64)


@dataclass(frozen=True)
class Instance:
    """One lot-sizing problem.

    ``d`` and ``cap`` are non-negative integer vectors, the cost vectors are
    non-negative reals, and ``s0`` is the integer initial inventory (zero for
    all generated instances). A fractional ``T``, ``d``, ``cap`` or ``s0``
    raises ``ValidationError`` rather than being truncated.
    """

    T: int
    d: np.ndarray
    p: np.ndarray
    f: np.ndarray
    h: np.ndarray
    cap: np.ndarray
    s0: int = 0
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "T", as_integer("horizon", self.T))
        if self.T < 1:
            raise ValidationError("horizon must be at least 1")
        object.__setattr__(self, "d", _frozen_int_1d("d", self.d))
        object.__setattr__(self, "p", _frozen_1d("p", self.p, np.float64))
        object.__setattr__(self, "f", _frozen_1d("f", self.f, np.float64))
        object.__setattr__(self, "h", _frozen_1d("h", self.h, np.float64))
        object.__setattr__(self, "cap", _frozen_int_1d("cap", self.cap))
        for name in ("d", "p", "f", "h", "cap"):
            vec = getattr(self, name)
            if len(vec) != self.T:
                raise DimensionError(f"{name} has length {len(vec)}, expected T={self.T}")
            if np.any(vec < 0):
                raise ValidationError(f"{name} must be non-negative")
        object.__setattr__(self, "s0", as_integer("initial inventory", self.s0))
        if self.s0 < 0:
            raise ValidationError("initial inventory must be non-negative")

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.T == other.T
            and self.s0 == other.s0
            and all(
                np.array_equal(getattr(self, n), getattr(other, n))
                for n in ("d", "p", "f", "h", "cap")
            )
        )

    def to_dict(self) -> dict:
        """Instance as a JSON-ready dict (one instance per line in datasets)."""
        out = {
            "T": int(self.T),
            "d": [int(v) for v in self.d],
            "p": [float(v) for v in self.p],
            "f": [float(v) for v in self.f],
            "h": [float(v) for v in self.h],
            "cap": [int(v) for v in self.cap],
            "s0": int(self.s0),
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        return out

    @classmethod
    def from_dict(cls, data: Mapping) -> "Instance":
        return cls(
            T=data["T"],
            d=data["d"],
            p=data["p"],
            f=data["f"],
            h=data["h"],
            cap=data["cap"],
            s0=data.get("s0", 0),
            meta=dict(data.get("meta", {})),
        )


@dataclass(frozen=True)
class SolveStats:
    """Work counters of one solve.

    ``lp_solves`` counts relaxations actually solved, in closed form or by
    the LP solver: one per root cut round and one per node, the last round's
    LP being the root node. A flow-infeasible or fully fixed plan solves none.
    """

    wall_time_seconds: float = 0.0
    nodes_explored: int = 0
    lp_solves: int = 0
    mip_gap: float | None = None
    cuts_added: int = 0


@dataclass(frozen=True)
class Solution:
    """Production plan with its objective value and solver status."""

    x: np.ndarray
    s: np.ndarray
    y: np.ndarray
    objective: float
    status: str
    stats: SolveStats = field(default_factory=SolveStats, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "x", _frozen_1d("x", self.x, np.float64))
        object.__setattr__(self, "s", _frozen_1d("s", self.s, np.float64))
        object.__setattr__(self, "y", _frozen_1d("y", self.y, np.int64))

    def with_stats(self, stats: SolveStats) -> "Solution":
        return replace(self, stats=stats)

    def to_dict(self) -> dict:
        return {
            "x": [float(v) for v in self.x],
            "y": [int(v) for v in self.y],
            "s": [float(v) for v in self.s],
            "objective": float(self.objective),
            "time": float(self.stats.wall_time_seconds),
        }

    @classmethod
    def from_dict(cls, data: Mapping, status: str = STATUS_OPTIMAL) -> "Solution":
        return cls(
            x=data["x"],
            s=data["s"],
            y=data["y"],
            objective=float(data["objective"]),
            status=status,
            stats=SolveStats(wall_time_seconds=float(data.get("time", 0.0))),
        )


def infeasible_solution(T: int, stats: SolveStats | None = None) -> Solution:
    return Solution(
        x=np.zeros(T),
        s=np.zeros(T),
        y=np.zeros(T, dtype=np.int64),
        objective=float("inf"),
        status=STATUS_INFEASIBLE,
        stats=stats or SolveStats(),
    )


@dataclass(frozen=True)
class FixPlan:
    """Setup variables fixed ahead of a solve: period index (1-based) to 0/1."""

    entries: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for t, v in dict(self.entries).items():
            t = int(t)
            v = int(v)
            if t < 1:
                raise ValidationError(f"fix plan index {t} is not 1-based")
            if v not in (0, 1):
                raise ValidationError(f"fix plan value for period {t} must be 0 or 1")
            clean[t] = v
        object.__setattr__(self, "entries", clean)

    @classmethod
    def empty(cls) -> "FixPlan":
        return cls({})

    def __len__(self) -> int:
        return len(self.entries)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def validate_for(self, T: int) -> None:
        for t in self.entries:
            if t > T:
                raise ValidationError(f"fix plan index {t} exceeds horizon {T}")


@dataclass(frozen=True)
class Violation:
    kind: str
    t: int | None
    detail: str


def objective_value(inst: Instance, x, y, s) -> float:
    """Total cost sum of p_t*x_t + f_t*y_t + h_t*s_t over all periods."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    if len(x) != inst.T or len(y) != inst.T or len(s) != inst.T:
        raise DimensionError(
            f"expected vectors of length {inst.T}, got {len(x)}/{len(y)}/{len(s)}"
        )
    return float(inst.p @ x + inst.f @ y + inst.h @ s)


def check_solution(inst: Instance, sol: Solution, tol: float = FEAS_TOL) -> list[Violation]:
    """Verify a solution against the model constraints.

    Returns an empty list iff flow balance, capacity linking, non-negativity,
    binariness and the reported objective all hold within ``tol``. The
    objective is compared as ``|diff| <= tol * max(1, |objective|)`` so the
    check behaves relatively for large costs.
    """
    if tol <= 0:
        raise ValidationError("tolerance must be positive")
    violations: list[Violation] = []
    x, s, y = sol.x, sol.s, sol.y
    if len(x) != inst.T or len(s) != inst.T or len(y) != inst.T:
        raise DimensionError("solution vectors do not match the instance horizon")
    # Inventory implied by cumulative production; each period whose reported
    # inventory disagrees is one flow violation.
    implied = inst.s0 + np.cumsum(x) - np.cumsum(inst.d)
    for t in range(inst.T):
        if abs(implied[t] - s[t]) > tol:
            violations.append(
                Violation("flow", t + 1, f"reported s={s[t]:.6g}, implied {implied[t]:.6g}")
            )
        if x[t] > y[t] * inst.cap[t] + tol:
            violations.append(
                Violation("capacity", t + 1, f"x={x[t]:.6g} > y*cap={y[t] * inst.cap[t]:.6g}")
            )
        if x[t] < -tol:
            violations.append(Violation("nonneg_x", t + 1, f"x={x[t]:.6g}"))
        if s[t] < -tol:
            violations.append(Violation("nonneg_s", t + 1, f"s={s[t]:.6g}"))
        if min(abs(y[t]), abs(y[t] - 1)) > tol:
            violations.append(Violation("binary", t + 1, f"y={y[t]!r}"))
    recomputed = objective_value(inst, x, y, s)
    if abs(recomputed - sol.objective) > tol * max(1.0, abs(recomputed)):
        violations.append(
            Violation("objective", None, f"reported {sol.objective:.9g} vs {recomputed:.9g}")
        )
    return violations


def flow_feasible(inst: Instance, plan: FixPlan) -> bool:
    """Exact feasibility test for a partially fixed setup pattern.

    Feasible iff every cumulative demand prefix can be covered by the
    cumulative capacity of periods not fixed closed (inventory is unbounded,
    so fixing a setup open never removes capacity).
    """
    plan.validate_for(inst.T)
    avail = inst.cap.astype(np.float64).copy()
    for t, v in plan.entries.items():
        if v == 0:
            avail[t - 1] = 0.0
    supply = inst.s0 + np.cumsum(avail)
    need = np.cumsum(inst.d)
    return bool(np.all(supply + FEAS_TOL >= need))
