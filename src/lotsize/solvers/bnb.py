"""Branch and bound on the setup variables, with optional root cut rounds.

A restricted solve pays once for what it needs, in this order. The
instance's ``PathData`` (``pattern.py``) is built first. The exact flow test
runs on it, and a plan that pins every setup is answered by one
fixed-pattern solve without a relaxation. The cut-free root is then solved
in closed form by ``PathRelaxation``, the production greedy of
``pattern.py``, and the root incumbent is built: the caller's
``incumbent_y`` if its pattern is feasible, else the rounding-and-repair
heuristic on that root. An ``incumbent_y`` that is not a 0/1 vector of
length T, or that breaks the plan, raises ``ValidationError``: it would
otherwise be returned as the restricted optimum.

With ``BnbOptions.ls_rounds > 0`` one rule decides whether the root is cut.
If the incumbent is within ``ROOT_GAP`` of the cut-free root, relative to
the incumbent (``incumbent - root <= ROOT_GAP * |incumbent|``), the (l,S)
loop is skipped: its rounds and its LP nodes, at about 0.3 ms each against
about 0.04 ms for a closed-form node (T=20, shared 2-CPU machine), cost more
than the bound they could still close. Otherwise ``ls_rounds`` rounds of
(l,S) separation (``cuts.root_cut_loop``) tighten the root, starting from
the closed-form point, so the cut-free LP is not solved again in HiGHS; the
loop's last point is the root node, also when the loop found no cut. ``SolveStats``
records why the loop stopped (``cut_stop``) and the root node's objective
(``root_bound``). The plain solve and every restricted solve of an
evaluation go through this same rule.

With cut rows, nodes are solved on the loop's own ``LpWorkspace``: one
persistent HiGHS model that holds the cut rows, where a node changes only
the setup bounds and re-solves hot from the last basis. Without cut rows,
nodes are solved in closed form by ``PathRelaxation``. Search is
best-bound first with deterministic FIFO tie-breaking, branching on the most
fractional setup variable (ties to the earliest period). A node is pruned
once its bound is within the relative gap ``GAP_TOL`` of the incumbent, so
an ``Optimal`` solution is optimal to a relative 1e-9 and its objective
stands as z*. Integer candidates
are re-evaluated exactly with the fixed-pattern solver so incumbent
objectives carry no LP round-off. The relaxation, both incumbents and every
integer candidate read the one ``PathData``, and the returned solution
shares the incumbent's frozen arrays under its final status and stats
(``Solution.with_stats``), so nothing is copied to stamp it. The root
incumbent exists whenever the instance is feasible, so a time-limited run
always returns its best solution so far; the limit covers the cut rounds.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from ..core import (
    STATUS_OPTIMAL,
    STATUS_TIME_LIMIT,
    FixPlan,
    Instance,
    Solution,
    SolveStats,
    flow_feasible,
    infeasible_solution,
)
from ..errors import ValidationError
from .cuts import DEFAULT_ROUNDS, root_cut_loop
from .lp import LP_INFEASIBLE, LP_OPTIMAL, LpWorkspace
from .pattern import PathData, PathRelaxation, solve_for_pattern

INT_TOL = 1e-6
# One gap for every solve, not an option: evaluation scores records against an
# Optimal plain solve's objective as z*, so a looser gap lets them beat it.
GAP_TOL = 1e-9
# Root-gap screen: with cut rounds asked for, the cut loop is skipped when the
# cut-free root is within this share of the root incumbent's objective. Chosen
# by wall time per record of the evaluate grid on desk instances at T=20 and
# T=30, where 1 in 384 unrestricted solves had a root gap below it.
ROOT_GAP = 0.07


@dataclass(frozen=True)
class BnbOptions:
    time_limit: float | None = None
    ls_rounds: int = 0
    incumbent_y: tuple | None = None

    def __post_init__(self):
        if self.ls_rounds < 0:
            raise ValidationError("ls_rounds must be non-negative")
        # NaN fails every comparison: a NaN limit would never stop the search.
        if self.time_limit is not None and not self.time_limit >= 0:
            raise ValidationError(f"time_limit must be non-negative, got {self.time_limit}")


def repair_pattern(inst: Instance, open_flags, scores, allowed=None) -> np.ndarray | None:
    """Open closed periods until cumulative capacity covers cumulative demand.

    Scans periods in order and, on a deficit, opens the closed period in the
    prefix with the highest score (ties to the earliest period). ``allowed``
    masks periods that may be opened. Returns None when no repair exists.
    """
    y = np.asarray(open_flags, dtype=np.int64).tolist()
    scores = np.asarray(scores, dtype=np.float64).tolist()
    allowed = [True] * inst.T if allowed is None else np.asarray(allowed, dtype=bool).tolist()
    cap = inst.cap.tolist()
    supply = inst.s0
    need = 0
    # Integer data: the running sums are exact.
    for t, d_t in enumerate(inst.d.tolist()):
        if y[t] > 0:
            supply += cap[t]
        need += d_t
        while supply < need:
            closed = [u for u in range(t + 1) if y[u] == 0 and allowed[u]]
            if not closed:
                return None
            pick = max(closed, key=lambda u: (scores[u], -u))
            y[pick] = 1
            supply += cap[pick]
    return np.array(y, dtype=np.int64)


def _check_incumbent(y, T: int, fixed: dict[int, int]) -> None:
    """A warm incumbent must be a 0/1 vector of length T that keeps the plan."""
    if len(y) != T:
        raise ValidationError(f"incumbent_y has length {len(y)}, expected {T}")
    if any(v not in (0, 1) for v in y):
        raise ValidationError("incumbent_y entries must be 0 or 1")
    for t, v in fixed.items():
        if y[t - 1] != v:
            raise ValidationError(
                f"incumbent_y sets period {t} to {y[t - 1]}, but the plan fixes it to {v}"
            )


def _root_incumbent(
    inst: Instance, fixed: dict[int, int], lp_y: np.ndarray, path: PathData
) -> Solution | None:
    rounded = (lp_y >= 0.5).astype(np.int64)
    allowed = np.ones(inst.T, dtype=bool)
    for t, v in fixed.items():
        rounded[t - 1] = v
        allowed[t - 1] = v == 1
    pattern = repair_pattern(inst, rounded, lp_y, allowed)
    if pattern is None:
        return None
    return solve_for_pattern(inst, pattern, path)


def branch_and_bound(
    inst: Instance, plan: FixPlan | None = None, opts: BnbOptions | None = None
) -> Solution:
    """Solve the MIP under ``plan`` fixings to the relative gap ``GAP_TOL``."""
    plan = plan or FixPlan.empty()
    plan.validate_for(inst.T)
    opts = opts or BnbOptions()
    t0 = time.perf_counter()
    fixed = dict(plan.entries)
    if opts.incumbent_y is not None:
        _check_incumbent(opts.incumbent_y, inst.T, fixed)
    pool = np.zeros((0, 3 * inst.T))
    lp_solves = 0
    nodes_explored = 0
    cut_stop = "off"
    root_bound = None

    def stats(**kwargs) -> SolveStats:
        return SolveStats(
            wall_time_seconds=time.perf_counter() - t0,
            nodes_explored=nodes_explored,
            lp_solves=lp_solves,
            cuts_added=len(pool),
            cut_stop=cut_stop,
            root_bound=root_bound,
            **kwargs,
        )

    # Built once; the flow test, the relaxation and every pattern solve read it.
    path = PathData(inst)
    # Cuts never change feasibility, so the flow test decides it for any rounds.
    if not flow_feasible(inst, plan, path.need_list):
        return infeasible_solution(inst.T, stats())

    # Fast path: the plan pins every setup variable.
    if len(fixed) == inst.T:
        sol = solve_for_pattern(inst, [fixed[t + 1] for t in range(inst.T)], path)
        if sol is None:
            return infeasible_solution(inst.T, stats())
        return sol.with_stats(stats(mip_gap=0.0))

    relaxation = PathRelaxation(inst, path)
    root = relaxation.solve(fixed)
    lp_solves = nodes_explored = 1
    if root.status == LP_INFEASIBLE:
        return infeasible_solution(inst.T, stats())

    incumbent: Solution | None = None
    if opts.incumbent_y is not None:
        incumbent = solve_for_pattern(inst, opts.incumbent_y, path)
    if incumbent is None:
        incumbent = _root_incumbent(inst, fixed, root.y, path)

    if opts.ls_rounds > 0:
        if incumbent is not None and (
            incumbent.objective - root.objective <= ROOT_GAP * abs(incumbent.objective)
        ):
            cut_stop = "root-gap"
        else:
            # The closed-form root is the loop's first point; when no cut
            # is found it stays the root and no LP is solved in HiGHS.
            workspace = LpWorkspace(inst)
            pool, bounds, root = root_cut_loop(
                inst, opts.ls_rounds, plan, workspace, start=root
            )
            lp_solves = len(bounds) + (root.status != LP_OPTIMAL)
            cut_stop = "rounds" if len(bounds) > opts.ls_rounds else "no-cut"
            if len(pool):
                relaxation = workspace
            if root.status == LP_INFEASIBLE:
                return infeasible_solution(inst.T, stats())
    root_bound = root.objective

    def upper() -> float:
        return incumbent.objective if incumbent is not None else float("inf")

    def prune_bound(u: float) -> float:
        return u - max(GAP_TOL * abs(u), 1e-12)

    # Nodes whose bound reaches ``cutoff`` are pruned; it moves only when
    # the incumbent does.
    cutoff = prune_bound(upper())
    counter = itertools.count()
    heap: list[tuple[float, int, dict[int, int]]] = []

    def process(lp_sol, node_fixed: dict[int, int]) -> None:
        nonlocal incumbent, cutoff
        # Most fractional free setup, ties to the earliest period.
        best, branch_t = INT_TOL, -1
        for t, v in enumerate(lp_sol.y.tolist()):
            frac = 1.0 - v if v > 0.5 else v
            if frac > best and (t + 1) not in node_fixed:
                best, branch_t = frac, t
        if branch_t < 0:
            pattern = np.round(lp_sol.y).astype(np.int64)
            for t, v in node_fixed.items():
                pattern[t - 1] = v
            cand = solve_for_pattern(inst, pattern, path)
            if cand is not None and cand.objective < upper():
                incumbent = cand
                cutoff = prune_bound(cand.objective)
            return
        for v in (0, 1):
            child = dict(node_fixed)
            child[branch_t + 1] = v
            heapq.heappush(heap, (lp_sol.objective, next(counter), child))

    process(root, fixed)
    status = STATUS_OPTIMAL
    lower = root.objective
    while heap:
        # The best bound on the heap is the one popped below.
        lower = heap[0][0]
        if lower >= cutoff:
            break
        if opts.time_limit is not None and time.perf_counter() - t0 > opts.time_limit:
            status = STATUS_TIME_LIMIT
            break
        node_fixed = heapq.heappop(heap)[2]
        lp_sol = relaxation.solve(node_fixed)
        nodes_explored += 1
        lp_solves += 1
        if lp_sol.status != LP_OPTIMAL:
            continue
        if lp_sol.objective >= cutoff:
            continue
        process(lp_sol, node_fixed)

    if incumbent is None:
        base = infeasible_solution(inst.T, stats())
        if status == STATUS_TIME_LIMIT:
            # Feasibility was never disproved; only the budget ran out.
            return base.with_stats(base.stats, STATUS_TIME_LIMIT)
        return base
    if status == STATUS_OPTIMAL:
        gap = 0.0
    else:
        u = upper()
        gap = max(0.0, (u - lower) / max(abs(u), 1e-12))
    return incumbent.with_stats(stats(mip_gap=gap), status)


def solve_with_ls_cuts(inst: Instance, rounds: int = DEFAULT_ROUNDS) -> Solution:
    """Branch and bound after ``rounds`` root cut rounds: ``solve("lscuts")``."""
    return branch_and_bound(inst, opts=BnbOptions(ls_rounds=rounds))
