"""LP relaxation of the lot-sizing model, with variable fixing and cut rows.

Variable layout is ``[x_1..x_T, s_1..s_T, y_1..y_T]``. Flow balance rows are
equalities, capacity linking and cut rows are <= inequalities, and fixing a
setup variable collapses its bounds. Every row enters the model the same
way: as a dense block over that layout, whose nonzeros go to HiGHS in
compressed-row form. A cut row is ``cuts.separate_ls_cuts``'s output as it
is, read as ``row @ z <= 0``.

``LpWorkspace`` keeps one HiGHS model per instance, through the HiGHS bindings
that scipy bundles (``scipy.optimize._highspy``; no public scipy API keeps a
model between solves). Cut rows are appended to it, and each solve changes
only the setup bounds, so the dual simplex restarts from the last basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize._highspy import _core as _highs

from ..core import Instance

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


def _add_rows(highs, lower: np.ndarray, upper: np.ndarray, rows: np.ndarray) -> None:
    """Append a dense float64 row block, passing its nonzeros to HiGHS as CSR."""
    r, c = np.nonzero(rows)
    starts = np.searchsorted(r, np.arange(len(rows))).astype(np.int32)
    highs.addRows(len(rows), lower, upper, len(c), starts, c.astype(np.int32), rows[r, c])


class LpWorkspace:
    """One persistent HiGHS model for repeated solves of one instance.

    The flow and capacity rows are built once; ``add_cuts`` appends cut
    rows. ``solve`` changes only the setup bounds and re-runs the dual
    simplex from the basis the last solve left. Without cut rows, branch and
    bound uses the closed-form ``PathRelaxation`` instead.
    """

    def __init__(self, inst: Instance):
        T = inst.T
        self.inst = inst
        self._y_cols = np.arange(2 * T, 3 * T, dtype=np.int32)
        highs = _highs._Highs()
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("presolve", "off")
        cost = np.concatenate([inst.p, inst.h, inst.f])
        lower = np.zeros(3 * T)
        upper = np.concatenate([np.full(2 * T, _highs.kHighsInf), np.ones(T)])
        empty = np.zeros(0, dtype=np.int32)
        highs.addCols(3 * T, cost, lower, upper, 0, empty, empty, np.zeros(0))
        # Row t is flow balance, s_{t-1} + x_t - s_t = d_t (s0 moves to the
        # first row); row T + t is capacity linking, x_t - cap_t * y_t <= 0.
        t = np.arange(T)
        rows = np.zeros((2 * T, 3 * T))
        rows[t, t] = rows[T + t, t] = 1.0
        rows[t, T + t] = -1.0
        rows[t[1:], T + t[:-1]] = 1.0
        rows[T + t, 2 * T + t] = -inst.cap
        rhs = inst.d.astype(np.float64)
        rhs[0] -= inst.s0
        _add_rows(highs, np.concatenate([rhs, np.full(T, -_highs.kHighsInf)]),
                  np.concatenate([rhs, np.zeros(T)]), rows)
        self._highs = highs

    def add_cuts(self, rows: np.ndarray) -> None:
        """Append cut rows over ``[x, s, y]``, each read as ``row @ z <= 0``."""
        _add_rows(self._highs, np.full(len(rows), -_highs.kHighsInf), np.zeros(len(rows)), rows)

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

