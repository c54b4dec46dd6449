"""LP relaxation of the lot-sizing model, with variable fixing and cut rows.

Variable layout is ``[x_1..x_T, s_1..s_T, y_1..y_T]``. Flow balance rows are
equalities, capacity linking and cut rows are <= inequalities, and fixing a
setup variable collapses its bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from ..core import FixPlan, Instance
from ..errors import UndefinedGapError

LP_OPTIMAL = "Optimal"
LP_INFEASIBLE = "Infeasible"
LP_UNBOUNDED = "Unbounded"

_STATUS_MAP = {0: LP_OPTIMAL, 2: LP_INFEASIBLE, 3: LP_UNBOUNDED}


@dataclass(frozen=True)
class LpSolution:
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    objective: float
    status: str


class LpWorkspace:
    """Reusable constraint matrices for repeated solves of one instance.

    Branch and bound with cut rows re-solves the same relaxation with
    different setup bounds, so the matrices are assembled once and only the
    bound column for ``y`` changes between calls. Without cut rows, branch
    and bound uses the closed-form ``PathRelaxation`` instead.
    """

    def __init__(self, inst: Instance, extra_cuts=()):
        T = inst.T
        self.inst = inst
        self.cost = np.concatenate([inst.p, inst.h, inst.f])
        A_eq = np.zeros((T, 3 * T))
        b_eq = inst.d.astype(np.float64).copy()
        for t in range(T):
            A_eq[t, t] = 1.0
            A_eq[t, T + t] = -1.0
            if t > 0:
                A_eq[t, T + t - 1] = 1.0
        b_eq[0] -= inst.s0
        cap_rows = np.zeros((T, 3 * T))
        for t in range(T):
            cap_rows[t, t] = 1.0
            cap_rows[t, 2 * T + t] = -float(inst.cap[t])
        cut_rows = np.zeros((len(extra_cuts), 3 * T))
        for i, cut in enumerate(extra_cuts):
            for t, coeff in zip(cut.set_S, cut.coeffs):
                cut_rows[i, t - 1] = 1.0
                cut_rows[i, 2 * T + t - 1] = -coeff
            cut_rows[i, T + cut.ell - 1] = -1.0
        self.A_eq = A_eq
        self.b_eq = b_eq
        self.A_ub = np.vstack([cap_rows, cut_rows])
        self.b_ub = np.zeros(T + len(extra_cuts))

    def solve(self, fixed: dict[int, int] | None = None) -> LpSolution:
        """Solve with setup bounds collapsed per the 1-based ``fixed`` map."""
        T = self.inst.T
        lower = np.zeros(3 * T)
        upper = np.full(3 * T, np.inf)
        upper[2 * T :] = 1.0
        if fixed:
            for t, v in fixed.items():
                lower[2 * T + t - 1] = float(v)
                upper[2 * T + t - 1] = float(v)
        res = linprog(
            self.cost,
            A_ub=self.A_ub,
            b_ub=self.b_ub,
            A_eq=self.A_eq,
            b_eq=self.b_eq,
            bounds=np.column_stack([lower, upper]),
            method="highs",
        )
        status = _STATUS_MAP.get(res.status)
        if status is None:
            raise RuntimeError(f"LP solver failed with status {res.status}: {res.message}")
        if status != LP_OPTIMAL:
            return LpSolution(
                x=np.zeros(T), y=np.zeros(T), s=np.zeros(T),
                objective=float("inf"), status=status,
            )
        z = np.asarray(res.x)
        return LpSolution(
            x=z[:T].copy(), s=z[T : 2 * T].copy(), y=z[2 * T :].copy(),
            objective=float(res.fun), status=LP_OPTIMAL,
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
