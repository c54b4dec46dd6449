"""LP relaxation of the lot-sizing model, with variable fixing and cut rows.

Variable layout is ``[x_1..x_T, s_1..s_T, y_1..y_T]``. Flow balance rows are
equalities, capacity linking and cut rows are <= inequalities, and fixing a
setup variable collapses its bounds.

``LpWorkspace`` keeps one HiGHS model per instance, through the HiGHS bindings
that scipy bundles (``scipy.optimize._highspy``; no public scipy API keeps a
model between solves). Cut rows are appended to it, and each solve changes
only the setup bounds, so the dual simplex restarts from the last basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as _highs

from ..core import FixPlan, Instance
from ..errors import UndefinedGapError

LP_OPTIMAL = "Optimal"
LP_INFEASIBLE = "Infeasible"

# Every cost and variable is non-negative, so the LP is never unbounded and
# "unbounded or infeasible" can only mean infeasible.
_STATUS_MAP = {
    _highs.HighsModelStatus.kOptimal: LP_OPTIMAL,
    _highs.HighsModelStatus.kInfeasible: LP_INFEASIBLE,
    _highs.HighsModelStatus.kUnboundedOrInfeasible: LP_INFEASIBLE,
}


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    objective: float
    status: str


def _add_rows(highs, lower: np.ndarray, upper: np.ndarray, rows) -> None:
    """Append rows given as lists of (column, coefficient) pairs, float64 bounds."""
    starts = np.cumsum([0] + [len(r) for r in rows[:-1]], dtype=np.int32)
    index = np.array([c for r in rows for c, _ in r], dtype=np.int32)
    value = np.array([v for r in rows for _, v in r], dtype=np.float64)
    highs.addRows(len(rows), lower, upper, len(index), starts, index, value)


class LpWorkspace:
    """One persistent HiGHS model for repeated solves of one instance.

    The flow and capacity rows are built once; ``add_cuts`` appends cut rows
    and ``cuts`` holds every cut the model carries. ``solve`` changes only
    the setup bounds and re-runs the dual simplex from the basis the last
    solve left. Without cut rows, branch and bound uses the closed-form
    ``PathRelaxation`` instead.
    """

    def __init__(self, inst: Instance):
        T = inst.T
        self.inst = inst
        self.cuts: tuple = ()
        self._y_cols = np.arange(2 * T, 3 * T, dtype=np.int32)
        highs = _highs._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        cost = np.concatenate([inst.p, inst.h, inst.f])
        lower = np.zeros(3 * T)
        upper = np.concatenate([np.full(2 * T, _highs.kHighsInf), np.ones(T)])
        empty = np.zeros(0, dtype=np.int32)
        highs.addCols(3 * T, cost, lower, upper, 0, empty, empty, np.zeros(0))
        # Flow balance: s_{t-1} + x_t - s_t = d_t (s0 moves to the first row).
        flow = [
            [(t, 1.0), (T + t, -1.0)] + ([(T + t - 1, 1.0)] if t > 0 else [])
            for t in range(T)
        ]
        rhs = inst.d.astype(np.float64)
        rhs[0] -= inst.s0
        _add_rows(highs, rhs, rhs, flow)
        # Capacity linking: x_t - cap_t * y_t <= 0.
        linking = [[(t, 1.0), (2 * T + t, -float(inst.cap[t]))] for t in range(T)]
        _add_rows(highs, np.full(T, -_highs.kHighsInf), np.zeros(T), linking)
        self._highs = highs

    def add_cuts(self, cuts) -> None:
        """Append one row per cut: sum_S x_t - sum_S coeff_t * y_t - s_ell <= 0."""
        cuts = tuple(cuts)
        if not cuts:
            return
        T = self.inst.T
        rows = [
            [(t - 1, 1.0) for t in cut.set_S]
            + [(2 * T + t - 1, -c) for t, c in zip(cut.set_S, cut.coeffs)]
            + [(T + cut.ell - 1, -1.0)]
            for cut in cuts
        ]
        _add_rows(self._highs, np.full(len(cuts), -_highs.kHighsInf), np.zeros(len(cuts)), rows)
        self.cuts += cuts

    def solve(self, fixed: dict[int, int] | None = None) -> LpSolution:
        """Solve with setup bounds collapsed per the 1-based ``fixed`` map."""
        T = self.inst.T
        lower = np.zeros(T)
        upper = np.ones(T)
        for t, v in (fixed or {}).items():
            lower[t - 1] = upper[t - 1] = float(v)
        highs = self._highs
        highs.changeColsBounds(T, self._y_cols, lower, upper)
        highs.run()
        model_status = highs.getModelStatus()
        status = _STATUS_MAP.get(model_status)
        if status is None:
            raise RuntimeError(
                f"LP solver failed with status {highs.modelStatusToString(model_status)}"
            )
        if status != LP_OPTIMAL:
            return LpSolution(
                x=np.zeros(T), y=np.zeros(T), s=np.zeros(T),
                objective=float("inf"), status=status,
            )
        z = np.array(highs.getSolution().col_value)
        return LpSolution(
            x=z[:T], s=z[T : 2 * T], y=z[2 * T :],
            objective=highs.getObjectiveValue(), status=LP_OPTIMAL,
        )


def solve_lp(inst: Instance, plan: FixPlan | None = None) -> LpSolution:
    """Exact optimum of the relaxation with 0 <= y <= 1 and plan fixings."""
    plan = plan or FixPlan.empty()
    plan.validate_for(inst.T)
    return LpWorkspace(inst).solve(dict(plan.entries))


def compute_igap(mip_obj: float, lp_obj: float) -> float:
    """Integrality gap in percent: 100 * (mip - lp) / mip."""
    if mip_obj <= 0:
        raise UndefinedGapError("integrality gap undefined for non-positive MIP objective")
    return 100.0 * (mip_obj - lp_obj) / mip_obj
