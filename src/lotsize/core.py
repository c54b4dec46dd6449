"""Data model for the single-item capacitated lot-sizing problem.

An instance covers ``T`` periods (1-based in every interface). Per period there
is a demand, a unit production cost, a fixed setup cost, a unit holding cost
and a production capacity. A solution chooses production ``x``, ending
inventory ``s`` and the binary setup indicator ``y``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


def _instance_vector(name: str, values, T: int, integer: bool) -> np.ndarray:
    """``values`` as a read-only vector of ``T`` non-negative entries, in one pass.

    Integer data (``d``, ``cap``) become int64 and a fractional or non-finite
    entry is an error, not truncated; the costs become float64. A list or
    tuple is converted once and its array kept; any other input is copied,
    so the instance never shares memory with the caller.
    """
    raw = np.asarray(values)
    if integer and raw.dtype.kind not in "iub":
        real = raw.astype(np.float64)
        if not (np.isfinite(real) & (real == np.floor(real))).all():
            raise ValidationError(f"{name} must hold integers")
    arr = raw.astype(np.int64 if integer else np.float64, copy=False)
    if arr.ndim != 1:
        raise DimensionError(f"{name} must be a one-dimensional vector")
    if len(arr) != T:
        raise DimensionError(f"{name} has length {len(arr)}, expected T={T}")
    # fmin skips NaN, so a NaN entry neither hides a negative one nor counts as one.
    if np.fmin.reduce(arr) < 0:
        raise ValidationError(f"{name} must be non-negative")
    if not isinstance(values, (list, tuple)):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


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
        T = as_integer("horizon", self.T)
        if T < 1:
            raise ValidationError("horizon must be at least 1")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "d", _instance_vector("d", self.d, T, True))
        object.__setattr__(self, "p", _instance_vector("p", self.p, T, False))
        object.__setattr__(self, "f", _instance_vector("f", self.f, T, False))
        object.__setattr__(self, "h", _instance_vector("h", self.h, T, False))
        object.__setattr__(self, "cap", _instance_vector("cap", self.cap, T, True))
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
            "d": self.d.tolist(),
            "p": self.p.tolist(),
            "f": self.f.tolist(),
            "h": self.h.tolist(),
            "cap": self.cap.tolist(),
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
    the LP solver: one per node, plus one per further root cut round. The
    closed-form cut-free root that the root-gap screen reads counts once; it
    is also the cut loop's first point, so a loop that finds no cut solves
    nothing more and a loop that adds cuts solves one LP per round after
    its first. The last point is the root node. A flow-infeasible or fully
    fixed plan solves none.

    ``cut_stop`` says why the root cut loop stopped: ``"off"`` when no loop
    was asked for (``ls_rounds=0``, or a backend without one) or no
    relaxation was solved; ``"root-gap"`` when the screen skipped it;
    ``"no-cut"`` when a round separated no fresh cut; ``"rounds"`` when
    every round ran.

    ``root_bound`` is the objective of the root relaxation that branch and
    bound searches from: the cut-free root, or the cut loop's last point
    when the loop ran. It is None when no relaxation was solved or the
    root is infeasible, and for a backend without one (dp, brute).
    """

    wall_time_seconds: float = 0.0
    nodes_explored: int = 0
    lp_solves: int = 0
    mip_gap: float | None = None
    cuts_added: int = 0
    cut_stop: str = "off"
    root_bound: float | None = None


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

    @classmethod
    def adopt(
        cls, x: np.ndarray, s: np.ndarray, y: np.ndarray, objective: float, status: str,
        stats: SolveStats | None = None,
    ) -> "Solution":
        """A solution over arrays that a solver has just made and hands over.

        ``x`` and ``s`` must be float64 and ``y`` int64 vectors that nothing
        else writes to; they are frozen in place, neither copied nor checked.
        """
        sol = cls.__new__(cls)
        for name, arr in (("x", x), ("s", s), ("y", y)):
            arr.setflags(write=False)
            object.__setattr__(sol, name, arr)
        object.__setattr__(sol, "objective", objective)
        object.__setattr__(sol, "status", status)
        object.__setattr__(sol, "stats", stats or SolveStats())
        return sol

    def with_stats(self, stats: SolveStats, status: str | None = None) -> "Solution":
        """The same plan under new stats (and ``status``); the read-only arrays are shared."""
        return Solution.adopt(self.x, self.s, self.y, self.objective, status or self.status, stats)

    def to_dict(self) -> dict:
        return {
            "x": self.x.tolist(),
            "y": self.y.tolist(),
            "s": self.s.tolist(),
            "objective": float(self.objective),
            "time": float(self.stats.wall_time_seconds),
        }

    @classmethod
    def from_dict(cls, data: Mapping, status: str = STATUS_OPTIMAL) -> "Solution":
        """Solution from its ``to_dict`` form; a ``y`` entry other than 0 or 1 raises."""
        y = data["y"]
        if not set(y) <= {0, 1}:
            t, v = next((t, v) for t, v in enumerate(y, 1) if v not in (0, 1))
            raise ValidationError(f"y must hold 0 or 1, got {v!r} in period {t}")
        return cls(
            x=data["x"],
            s=data["s"],
            y=y,
            objective=float(data["objective"]),
            status=status,
            stats=SolveStats(wall_time_seconds=float(data.get("time", 0.0))),
        )


def infeasible_solution(T: int, stats: SolveStats | None = None) -> Solution:
    return Solution.adopt(
        np.zeros(T), np.zeros(T), np.zeros(T, dtype=np.int64),
        float("inf"), STATUS_INFEASIBLE, stats,
    )


@dataclass(frozen=True)
class FixPlan:
    """Setup variables fixed ahead of a solve: period index (1-based) to 0/1."""

    entries: Mapping[int, int] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for t, v in dict(self.entries).items():
            # Plain ints, as the evaluation grid builds them, skip the conversion.
            if type(t) is not int or type(v) is not int:
                t = as_integer("fix plan index", t)
                v = as_integer(f"fix plan value for period {t}", v)
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
    # inventory disagrees is one flow violation. Every test runs on whole
    # vectors; only periods that fail one are visited to word the messages.
    implied = inst.s0 + np.cumsum(x) - np.cumsum(inst.d)
    ycap = y * inst.cap
    checks = (
        ("flow", np.abs(implied - s) > tol,
         lambda t: f"reported s={s[t]:.6g}, implied {implied[t]:.6g}"),
        ("capacity", x > ycap + tol, lambda t: f"x={x[t]:.6g} > y*cap={ycap[t]:.6g}"),
        ("nonneg_x", x < -tol, lambda t: f"x={x[t]:.6g}"),
        ("nonneg_s", s < -tol, lambda t: f"s={s[t]:.6g}"),
        ("binary", np.minimum(np.abs(y), np.abs(y - 1)) > tol, lambda t: f"y={y[t]!r}"),
    )
    failed = np.logical_or.reduce([mask for _, mask, _ in checks])
    for t in np.flatnonzero(failed).tolist():
        for kind, mask, detail in checks:
            if mask[t]:
                violations.append(Violation(kind, t + 1, detail(t)))
    recomputed = objective_value(inst, x, y, s)
    if abs(recomputed - sol.objective) > tol * max(1.0, abs(recomputed)):
        violations.append(
            Violation("objective", None, f"reported {sol.objective:.9g} vs {recomputed:.9g}")
        )
    return violations


def flow_feasible(inst: Instance, plan: FixPlan, need: list | None = None) -> bool:
    """Exact feasibility test for a partially fixed setup pattern.

    Feasible iff every cumulative demand prefix can be covered by the
    cumulative capacity of periods not fixed closed (inventory is unbounded,
    so fixing a setup open never removes capacity). ``need`` is the
    cumulative net demand ``cumsum(d) - s0`` as a list, when the caller
    already holds it. Demands, capacities and ``s0`` are integers, so one
    pass of exact sums over Python numbers decides it.
    """
    plan.validate_for(inst.T)
    if need is None:
        need = (inst.d.cumsum() - inst.s0).tolist()
    avail = inst.cap.tolist()
    for t, v in plan.entries.items():
        if not v:
            avail[t - 1] = 0
    supply = 0
    for cap_t, need_t in zip(avail, need):
        supply += cap_t
        if supply < need_t:
            return False
    return True
