"""From probabilities to fix plans, restricted re-solves and metrics.

The confidence of a prediction is its distance from total uncertainty,
``max(p, 1-p)``. A fix plan at level L keeps the round(L*T/100) most
confident periods and pins each to its thresholded value. Three re-solve
modes are supported:

* hard fix: pin the plan as equality constraints and solve; may be
  infeasible by construction.
* soft fix: start from the full plan and drop the least confident
  closed-period fixings until the plan passes the flow test, then solve.
  Open-period fixings never cause infeasibility, so this never reports an
  infeasible outcome on a feasible instance.
* warm start: repair the thresholded prediction into a feasible pattern,
  hand its cost to branch and bound as the initial incumbent, and solve the
  unrestricted problem exactly.

Plans are built on Python values: the prediction is checked with a few
ndarray reductions, the confidence order is one stable argsort, and the
plan's entries come from ``tolist()`` values, so ``FixPlan`` takes its
plain-int path. Soft fix finds its dropped fixings in one running-deficit
pass over the periods, with no flow test per drop.

``evaluate_instance`` is the evaluation entry point: it solves the plain
problem once and every requested (mode, level) on that same solver stack.
The per-mode ``solve_with_*`` functions take the caller's plain solve as
``EvalOptions.baseline`` and remain for the benchmark's ``fixing`` grid.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    STATUS_INFEASIBLE,
    STATUS_OPTIMAL,
    FixPlan,
    Instance,
    Solution,
    _round_half_up,
)
from .errors import DimensionError, PartitionError, ValidationError
from .nn.lstm import BiLstmModel, predict_instance
from .solvers.bnb import BnbOptions, branch_and_bound, repair_pattern

MODE_HARD = "hard"
MODE_SOFT = "soft"
MODE_WARM = "warm"
MODES = (MODE_HARD, MODE_SOFT, MODE_WARM)

DEFAULT_LEVELS = (0, 25, 50, 75, 85, 90, 95, 100)


@dataclass(frozen=True)
class PredictionVector:
    probs: np.ndarray
    source: str = ""
    predict_seconds: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=np.float64))


def validate_prediction(pred: PredictionVector, inst: Instance) -> None:
    probs = pred.probs
    if probs.shape != (inst.T,):
        raise DimensionError(f"prediction length {probs.shape} != horizon {inst.T}")
    # NaN fails both comparisons, so one test passes only finite entries in [0, 1].
    if not (probs.min() >= 0.0 and probs.max() <= 1.0):
        if not np.isfinite(probs).all():
            raise ValidationError("prediction contains non-finite entries")
        raise ValidationError("prediction entries must lie in [0, 1]")


def confidence_order(probs: np.ndarray) -> np.ndarray:
    """Period indices (0-based) by decreasing confidence, ties to earlier t."""
    # A stable sort keeps equal confidences in period order.
    return np.argsort(-np.maximum(probs, 1.0 - probs), kind="stable")


def select_predictions(pred: PredictionVector, level_pct: float, inst: Instance) -> FixPlan:
    """Fix the most confident round(level*T/100) periods to their labels."""
    validate_prediction(pred, inst)
    if not 0.0 <= level_pct <= 100.0:
        raise ValidationError("level must lie in [0, 100]")
    k = _round_half_up(level_pct * inst.T / 100.0)
    probs = pred.probs.tolist()
    order = confidence_order(pred.probs)[:k].tolist()
    return FixPlan({t + 1: int(probs[t] >= 0.5) for t in order})


@dataclass(frozen=True, kw_only=True)
class EvalOptions:
    """Solver settings of the ML solves, and the caller's plain solve.

    ``baseline`` is the unrestricted solve of the same instance on the same
    solver stack; its wall time is the plain time, and its objective is z*
    when its status is Optimal (otherwise z* and the gap are None). Only
    the per-mode ``solve_with_*`` functions, kept for the benchmark's
    ``fixing`` grid, take it from the caller.
    """

    time_limit: float | None = None
    gap_tol: float = 1e-9
    ls_rounds: int = 0
    baseline: Solution
    instance_id: str = ""


@dataclass(kw_only=True)
class EvalRecord:
    """One ``records.csv`` row; the fields are its columns, in file order."""

    instance_id: str
    c_ratio: float | None = None
    f_ratio: float | None = None
    T: int | None = None
    mode: str
    level_pct: float
    status: str
    z_star: float | None
    z_tilde: float | None
    time_plain_s: float
    time_ml_s: float
    k_fixed: int
    optgap_pct: float | None


def _solve_mode(
    inst: Instance, pred: PredictionVector, mode: str, level_pct: float, opts: EvalOptions
) -> EvalRecord:
    """Build the mode's plan, re-solve with it and score the result against the baseline."""
    t0 = time.perf_counter()
    incumbent_y = None
    if mode == MODE_HARD:
        plan = select_predictions(pred, level_pct, inst)
    elif mode == MODE_SOFT:
        plan = soft_fix_plan(inst, pred)
    else:
        plan = FixPlan.empty()
        incumbent_y = tuple(int(v) for v in repair_prediction(inst, pred))
    sol = branch_and_bound(inst, plan, BnbOptions(
        time_limit=opts.time_limit, gap_tol=opts.gap_tol,
        ls_rounds=opts.ls_rounds, incumbent_y=incumbent_y,
    ))
    time_ml = time.perf_counter() - t0 + pred.predict_seconds
    baseline = opts.baseline
    # A plain solve cut short by the time limit proves no optimum to score against.
    z_star = baseline.objective if baseline.status == STATUS_OPTIMAL else None
    z_tilde = sol.objective if sol.status != STATUS_INFEASIBLE else None
    optgap = 100.0 * (z_tilde - z_star) / z_star if z_tilde is not None and z_star else None
    meta = inst.meta or {}
    return EvalRecord(
        instance_id=opts.instance_id, mode=mode, level_pct=level_pct, status=sol.status,
        z_star=z_star, z_tilde=z_tilde, time_plain_s=baseline.stats.wall_time_seconds,
        time_ml_s=time_ml, k_fixed=len(plan), optgap_pct=optgap,
        c_ratio=meta.get("c_ratio"), f_ratio=meta.get("f_ratio"), T=inst.T,
    )


def solve_with_hard_fix(
    inst: Instance, pred: PredictionVector, level_pct: float, opts: EvalOptions
) -> EvalRecord:
    """Pin the level's fix plan as constraints and re-solve."""
    return _solve_mode(inst, pred, MODE_HARD, level_pct, opts)


def soft_fix_plan(inst: Instance, pred: PredictionVector) -> FixPlan:
    """Full-level plan with closed-period fixings dropped until it is feasible.

    Closed fixings are dropped least confident first (ties to the later
    period) until the plan passes the flow test, or none is left. The drop
    order does not depend on the plan, so one running-deficit pass over the
    periods finds how many must go: whenever cumulative supply falls short
    of cumulative demand, the next fixings in drop order are released, and
    a released period's capacity counts from its own period on.
    """
    entries = dict(select_predictions(pred, 100.0, inst).entries)
    probs = pred.probs.tolist()
    closed = [t for t, v in entries.items() if v == 0]
    drops = sorted(closed, key=lambda t: (max(probs[t - 1], 1.0 - probs[t - 1]), -t))
    rank = {t: r for r, t in enumerate(drops)}
    cap = inst.cap.tolist()
    supply, need, released = inst.s0, 0, 0
    for t, d_t in enumerate(inst.d.tolist(), 1):
        need += d_t
        if entries.get(t) != 0 or rank[t] < released:
            supply += cap[t - 1]
        while supply < need and released < len(drops):
            freed = drops[released]
            released += 1
            if freed <= t:
                supply += cap[freed - 1]
    for t in drops[:released]:
        del entries[t]
    return FixPlan(entries)


def solve_with_soft_fix(
    inst: Instance, pred: PredictionVector, opts: EvalOptions
) -> EvalRecord:
    """Full-level fixing with progressive unfixing of closed periods."""
    return _solve_mode(inst, pred, MODE_SOFT, 100.0, opts)


def repair_prediction(inst: Instance, pred: PredictionVector) -> np.ndarray:
    """Thresholded prediction repaired to pass the flow feasibility test."""
    validate_prediction(pred, inst)
    pattern = repair_pattern(inst, (pred.probs >= 0.5).astype(np.int64), pred.probs)
    if pattern is None:
        raise ValidationError("instance is infeasible; no repair exists")
    return pattern


def solve_with_warm_start(
    inst: Instance, pred: PredictionVector, opts: EvalOptions
) -> EvalRecord:
    """Exact solve seeded with the repaired prediction as incumbent."""
    return _solve_mode(inst, pred, MODE_WARM, 100.0, opts)


def validate_grid(modes: list[str], levels: list[float]) -> list[float]:
    """Check an evaluation grid; returns the levels as floats.

    A repeated mode or level (``50`` and ``50.0`` are one level) would
    count its records twice in every aggregate, so it is rejected.
    """
    levels = [float(lv) for lv in levels]
    if not modes or any(m not in MODES for m in modes):
        raise ValidationError(f"modes must be a non-empty list from {', '.join(MODES)}: {modes}")
    if len(set(modes)) < len(modes) or len(set(levels)) < len(levels):
        raise ValidationError(f"modes and levels must not repeat: {modes}, {levels}")
    if any(not 0.0 <= lv <= 100.0 for lv in levels):
        raise ValidationError(f"levels must lie in [0, 100]: {levels}")
    if MODE_HARD in modes and not levels:
        raise ValidationError("hard mode needs at least one level")
    return levels


def evaluate_instance(
    inst: Instance, pred: PredictionVector, modes: list[str], levels: list[float],
    opts: BnbOptions | None = None, instance_id: str = "",
) -> list[EvalRecord]:
    """One plain solve with ``opts``, then every (mode, level) record on that same stack.

    Hard fix gives a record per level, soft fix and warm start one each at
    level 100, in ``modes`` order; all share the plain solve's z* and time.
    Modes, levels and the prediction are checked before any solve.
    """
    levels = validate_grid(modes, levels)
    validate_prediction(pred, inst)
    opts = opts or BnbOptions()
    plain = EvalOptions(
        time_limit=opts.time_limit, gap_tol=opts.gap_tol, ls_rounds=opts.ls_rounds,
        baseline=branch_and_bound(inst, opts=opts), instance_id=instance_id,
    )
    return [
        _solve_mode(inst, pred, mode, lv, plain)
        for mode in modes for lv in (levels if mode == MODE_HARD else [100.0])
    ]


def concat_predictions(model: BiLstmModel, inst_long: Instance, chunk_T: int) -> PredictionVector:
    """Predict a long horizon by concatenating fixed-size chunk predictions."""
    if chunk_T < 1 or inst_long.T % chunk_T != 0:
        raise PartitionError(
            f"horizon {inst_long.T} is not a multiple of the chunk size {chunk_T}"
        )
    t0 = time.perf_counter()
    pieces = []
    for start in range(0, inst_long.T, chunk_T):
        window = slice(start, start + chunk_T)
        sub = Instance(
            T=chunk_T, d=inst_long.d[window], p=inst_long.p[window], f=inst_long.f[window],
            h=inst_long.h[window], cap=inst_long.cap[window], s0=0,
        )
        pieces.append(predict_instance(model, sub))
    return PredictionVector(
        probs=np.concatenate(pieces),
        source=f"bilstm-chunked-{chunk_T}",
        predict_seconds=time.perf_counter() - t0,
    )


@dataclass(frozen=True)
class MetricsReport:
    mode: str
    level_pct: float
    m: int
    m_infeasible: int
    inf_pct: float
    mean_time_plain: float
    mean_time_ml: float | None
    timeimp: float | None
    timegain_pct: float | None
    mean_optgap_pct: float | None


def compute_metrics(records: list[EvalRecord]) -> MetricsReport:
    """Aggregate one (mode, level) group of records.

    Infeasible records count toward the infeasibility rate but are excluded
    from the time and gap aggregates. The plain-solve time is averaged over
    the whole group since it does not depend on the prediction.
    """
    if not records:
        raise ValidationError("cannot aggregate an empty record set")
    groups = {(r.mode, r.level_pct) for r in records}
    if len(groups) != 1:
        raise ValidationError(f"records span several (mode, level) groups: {sorted(groups)}")
    mode, level = next(iter(groups))
    m = len(records)
    feasible = [r for r in records if r.status != STATUS_INFEASIBLE]
    m_inf = m - len(feasible)
    mean_plain = float(np.mean([r.time_plain_s for r in records]))
    if feasible:
        mean_ml = float(np.mean([r.time_ml_s for r in feasible]))
        timeimp = mean_plain / mean_ml if mean_ml > 0 else None
        timegain = 100.0 * (mean_plain - mean_ml) / mean_plain if mean_plain > 0 else None
        gaps = [r.optgap_pct for r in feasible if r.optgap_pct is not None]
        mean_gap = float(np.mean(gaps)) if gaps else None
    else:
        mean_ml = None
        timeimp = None
        timegain = None
        mean_gap = None
    return MetricsReport(
        mode=mode,
        level_pct=level,
        m=m,
        m_infeasible=m_inf,
        inf_pct=100.0 * m_inf / m,
        mean_time_plain=mean_plain,
        mean_time_ml=mean_ml,
        timeimp=timeimp,
        timegain_pct=timegain,
        mean_optgap_pct=mean_gap,
    )
