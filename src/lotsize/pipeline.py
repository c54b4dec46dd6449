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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (
    STATUS_INFEASIBLE,
    FixPlan,
    Instance,
    Solution,
    flow_feasible,
)
from .errors import DimensionError, PartitionError, ValidationError
from .nn.lstm import BiLstmModel, bilstm_forward
from .nn.standardize import instance_features
from .solvers.bnb import BnbOptions, branch_and_bound, repair_pattern

MODE_HARD = "hard"
MODE_SOFT = "soft"
MODE_WARM = "warm"

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
    if not np.all(np.isfinite(probs)):
        raise ValidationError("prediction contains non-finite entries")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValidationError("prediction entries must lie in [0, 1]")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def confidence_order(probs: np.ndarray) -> np.ndarray:
    """Period indices (0-based) by decreasing confidence, ties to earlier t."""
    conf = np.maximum(probs, 1.0 - probs)
    return np.lexsort((np.arange(len(probs)), -conf))


def select_predictions(pred: PredictionVector, level_pct: float, inst: Instance) -> FixPlan:
    """Fix the most confident round(level*T/100) periods to their labels."""
    validate_prediction(pred, inst)
    if not 0.0 <= level_pct <= 100.0:
        raise ValidationError("level must lie in [0, 100]")
    k = _round_half_up(level_pct * inst.T / 100.0)
    order = confidence_order(pred.probs)
    entries = {int(t) + 1: int(pred.probs[t] >= 0.5) for t in order[:k]}
    return FixPlan(entries)


@dataclass(frozen=True, kw_only=True)
class EvalOptions:
    """Solver settings of the ML solves, and the caller's plain solve.

    ``baseline`` is the unrestricted solve of the same instance on the same
    solver stack; its objective is z* and its wall time the plain time.
    """

    time_limit: float | None = None
    gap_tol: float = 1e-9
    ls_rounds: int = 0
    baseline: Solution
    instance_id: str = ""


@dataclass
class EvalRecord:
    instance_id: str
    mode: str
    level_pct: float
    status: str
    z_star: float | None
    z_tilde: float | None
    time_plain_s: float
    time_ml_s: float
    k_fixed: int
    optgap_pct: float | None
    c_ratio: float | None = None
    f_ratio: float | None = None
    T: int | None = None


def _solve_restricted(
    inst: Instance, plan: FixPlan, opts: EvalOptions, incumbent_y: tuple | None = None
) -> Solution:
    """The one exact solve behind every mode: cut rounds if asked, then B&B."""
    bnb_opts = BnbOptions(
        time_limit=opts.time_limit, gap_tol=opts.gap_tol,
        ls_rounds=opts.ls_rounds, incumbent_y=incumbent_y,
    )
    return branch_and_bound(inst, plan, bnb_opts)


def _finish_record(
    inst: Instance,
    mode: str,
    level_pct: float,
    sol: Solution,
    plan_size: int,
    time_ml: float,
    opts: EvalOptions,
) -> EvalRecord:
    baseline = opts.baseline
    z_star = baseline.objective if baseline.status != STATUS_INFEASIBLE else None
    feasible = sol.status != STATUS_INFEASIBLE
    z_tilde = sol.objective if feasible else None
    optgap = None
    if feasible and z_star:
        optgap = 100.0 * (z_tilde - z_star) / z_star
    meta = inst.meta or {}
    return EvalRecord(
        instance_id=opts.instance_id,
        mode=mode,
        level_pct=level_pct,
        status=sol.status,
        z_star=z_star,
        z_tilde=z_tilde,
        time_plain_s=baseline.stats.wall_time_seconds,
        time_ml_s=time_ml,
        k_fixed=plan_size,
        optgap_pct=optgap,
        c_ratio=meta.get("c_ratio"),
        f_ratio=meta.get("f_ratio"),
        T=inst.T,
    )


def solve_with_hard_fix(
    inst: Instance, pred: PredictionVector, level_pct: float, opts: EvalOptions
) -> EvalRecord:
    """Pin the level's fix plan as constraints and re-solve."""
    t0 = time.perf_counter()
    plan = select_predictions(pred, level_pct, inst)
    sol = _solve_restricted(inst, plan, opts)
    time_ml = time.perf_counter() - t0 + pred.predict_seconds
    return _finish_record(inst, MODE_HARD, level_pct, sol, len(plan), time_ml, opts)


def soft_fix_plan(inst: Instance, pred: PredictionVector) -> FixPlan:
    """Full-level plan with closed-period fixings dropped until it is feasible."""
    plan = select_predictions(pred, 100.0, inst)
    conf = np.maximum(pred.probs, 1.0 - pred.probs)
    entries = dict(plan.entries)
    while not flow_feasible(inst, FixPlan(entries)):
        zero_fixed = [t for t, v in entries.items() if v == 0]
        if not zero_fixed:
            break
        drop = min(zero_fixed, key=lambda t: (conf[t - 1], -t))
        del entries[drop]
    return FixPlan(entries)


def solve_with_soft_fix(
    inst: Instance, pred: PredictionVector, opts: EvalOptions
) -> EvalRecord:
    """Full-level fixing with progressive unfixing of closed periods."""
    t0 = time.perf_counter()
    plan = soft_fix_plan(inst, pred)
    sol = _solve_restricted(inst, plan, opts)
    time_ml = time.perf_counter() - t0 + pred.predict_seconds
    return _finish_record(inst, MODE_SOFT, 100.0, sol, len(plan), time_ml, opts)


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
    t0 = time.perf_counter()
    pattern = repair_prediction(inst, pred)
    sol = _solve_restricted(inst, FixPlan.empty(), opts, tuple(int(v) for v in pattern))
    time_ml = time.perf_counter() - t0 + pred.predict_seconds
    return _finish_record(inst, MODE_WARM, 100.0, sol, 0, time_ml, opts)


def concat_predictions(model: BiLstmModel, inst_long: Instance, chunk_T: int) -> PredictionVector:
    """Predict a long horizon by concatenating fixed-size chunk predictions."""
    if chunk_T < 1 or inst_long.T % chunk_T != 0:
        raise PartitionError(
            f"horizon {inst_long.T} is not a multiple of the chunk size {chunk_T}"
        )
    if model.standardizer is None:
        raise ValidationError("model has no standardizer attached")
    t0 = time.perf_counter()
    pieces = []
    for start in range(0, inst_long.T, chunk_T):
        sub = Instance(
            T=chunk_T,
            d=inst_long.d[start : start + chunk_T],
            p=inst_long.p[start : start + chunk_T],
            f=inst_long.f[start : start + chunk_T],
            h=inst_long.h[start : start + chunk_T],
            cap=inst_long.cap[start : start + chunk_T],
            s0=0,
        )
        feats = model.standardizer.transform(instance_features(sub))
        pieces.append(bilstm_forward(model, feats))
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
