"""Production on a path: fixed setup patterns and cut-free node relaxations.

Once every setup variable is either fixed or relaxed with no cut rows, the
remaining problem in ``x`` and ``s`` is a transportation LP on a path.
Substituting the inventory balance turns it into ``min sum_u c_u * x_u``
subject to ``0 <= x_u <= ub_u`` and cumulative production covering cumulative
net demand. The holding cost from period ``u`` to the end of the horizon,
``H_u``, is folded into ``c_u``. Deficits are processed in period order and
each one has a superset of the sources available to earlier deficits, so
serving every deficit from the cheapest period with spare capacity is
optimal. One greedy, ``greedy_production``, does this for both callers:

- a fixed 0/1 pattern has ``c_u = p_u + H_u`` and ``ub_u = y_u * cap_u``;
- a branch-and-bound node without cut rows relaxes each free ``y_u`` to
  ``x_u / cap_u``, which charges ``f_u / cap_u`` per unit on top of
  ``p_u + H_u``. Periods fixed open pay ``f_u`` once and periods fixed
  closed have ``ub_u = 0``.

A node is the greedy on Python lists plus a few NumPy calls: ``y`` is
``x / cap`` with zero capacities replaced by one (``x`` is 0 there), ``s`` an
in-place cumulative sum, and the objective the same ``p@x + f@y + h@s`` on
the same float64 arrays as ``core.objective_value``. Its values are
bit-identical to computing them through ``np.divide(..., where=)`` and
``objective_value``, so search trees do not change, and a cut-free B&B
node costs about 0.04 ms at T=20 on a shared 2-CPU machine, of which the
greedy is about a third.

Both callers read the same per-solve path data, ``PathData``: the
cumulative net demand, the open unit costs ``p_u + H_u`` and the
capacities, as arrays and as lists. ``branch_and_bound`` builds it once per
call, before its flow test, and passes it to ``core.flow_feasible``, to
``PathRelaxation`` (which adds the free-period costs) and to every
``solve_for_pattern`` call; ``brute_force`` builds it once for all its
patterns. A caller without it gets a fresh copy. It is not
cached on the ``Instance``: at about 2.8 KB per instance at T=20, arrays and
lists included, that would add up over a data set. A pattern solve returns
its fresh arrays frozen in place (``Solution.adopt``), so they are not
copied again.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core import Instance, Solution, STATUS_OPTIMAL
from ..errors import DimensionError
from .lp import LP_INFEASIBLE, LP_OPTIMAL, LpSolution


def greedy_production(need, unit_cost, upper) -> list[float] | None:
    """Cheapest production covering every cumulative need, or None.

    ``need[k]`` is the cumulative net demand through period ``k`` (0-based)
    and must not decrease. Producing in ``u`` costs ``unit_cost[u]`` per unit
    and is bounded by ``upper[u]``. A deficit is served from the cheapest
    period up to it with room left, ties to the earliest period.
    """
    push, pop = heapq.heappush, heapq.heappop
    x = [0.0] * len(need)
    sources: list[tuple[float, int]] = []
    produced = 0.0
    for k, need_k in enumerate(need):
        if upper[k] > 0:
            push(sources, (unit_cost[k], k))
        deficit = need_k - produced
        while deficit > 0:
            if not sources:
                return None
            u = sources[0][1]
            room = upper[u] - x[u]
            if room > deficit:
                x[u] += deficit
                produced += deficit
                break
            pop(sources)
            x[u] = upper[u]
            produced += room
            deficit -= room
    return x


class PathData:
    """What every path solve of one instance reads, built once per solve.

    ``need`` is the cumulative net demand ``cumsum(d) - s0`` (int64, also as
    the list ``need_list``), ``open_cost`` the unit cost ``p_u + H_u`` of a
    period with its setup paid (array and list) and ``cap`` the capacities
    as float64 (array and list).
    """

    __slots__ = ("need", "need_list", "open_cost", "open_cost_list", "cap", "cap_list")

    def __init__(self, inst: Instance):
        self.need = inst.d.cumsum() - inst.s0
        self.need_list = self.need.tolist()
        self.open_cost = inst.p + inst.h[::-1].cumsum()[::-1]
        self.open_cost_list = self.open_cost.tolist()
        self.cap = inst.cap.astype(np.float64)
        self.cap_list = self.cap.tolist()


def solve_for_pattern(inst: Instance, pattern, path: PathData | None = None) -> Solution | None:
    """Optimal production for a 0/1 setup vector, or None if infeasible.

    ``path`` is the instance's ``PathData`` when the caller already holds it.
    """
    path = path or PathData(inst)
    y = np.array(pattern, dtype=np.int64)
    if y.shape != (inst.T,):
        raise DimensionError(f"pattern has shape {y.shape}, expected ({inst.T},)")
    upper = [c if v > 0 else 0.0 for c, v in zip(path.cap_list, y.tolist())]
    x = greedy_production(path.need_list, path.open_cost_list, upper)
    if x is None:
        return None
    x = np.array(x, dtype=np.float64)
    s = x.cumsum()
    s -= path.need
    # objective_value's sum, on arrays that are already T long.
    obj = float(inst.p @ x + inst.f @ y.astype(np.float64) + inst.h @ s)
    return Solution.adopt(x, s, y, obj, STATUS_OPTIMAL)


class PathRelaxation:
    """Cut-free LP relaxation of one instance, solved in closed form.

    Same ``solve(fixed)`` contract as ``LpWorkspace`` without cut rows: the
    optimum of the relaxation with ``0 <= y <= 1`` and the 1-based ``fixed``
    setups collapsed to their values. A free ``y_t`` is ``x_t / cap_t`` (0
    when ``cap_t`` is 0), the smallest value its capacity row allows.
    """

    def __init__(self, inst: Instance, path: PathData | None = None):
        path = path or PathData(inst)
        self.inst = inst
        cap = path.cap
        per_unit_setup = np.divide(inst.f, cap, out=np.zeros(inst.T), where=cap > 0)
        self._need = path.need
        self._need_list = path.need_list
        self._open_cost = path.open_cost_list
        self._free_cost = (path.open_cost + per_unit_setup).tolist()
        self._cap_list = path.cap_list
        # x is 0 wherever cap is 0, so x / safe_cap gives the relaxation's y = 0 there.
        self._safe_cap = np.where(cap > 0, cap, 1.0)

    def solve(self, fixed: dict[int, int]) -> LpSolution:
        T = self.inst.T
        unit_cost = list(self._free_cost)
        upper = list(self._cap_list)
        for t, v in fixed.items():
            if v:
                unit_cost[t - 1] = self._open_cost[t - 1]
            else:
                upper[t - 1] = 0.0
        x = greedy_production(self._need_list, unit_cost, upper)
        if x is None:
            return LpSolution(
                x=np.zeros(T), y=np.zeros(T), s=np.zeros(T),
                objective=float("inf"), status=LP_INFEASIBLE,
            )
        x = np.asarray(x)
        y = x / self._safe_cap
        for t, v in fixed.items():
            y[t - 1] = v
        s = x.cumsum()
        s -= self._need
        # objective_value's sum, on arrays that are already float64 and T long.
        inst = self.inst
        objective = float(inst.p @ x + inst.f @ y + inst.h @ s)
        return LpSolution(x=x, y=y, s=s, objective=objective, status=LP_OPTIMAL)
