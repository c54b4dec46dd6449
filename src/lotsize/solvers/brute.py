"""Exhaustive enumeration over all setup patterns, used as a test oracle."""

from __future__ import annotations

import time

import numpy as np

from ..core import Instance, Solution, SolveStats, infeasible_solution
from ..errors import ResourceLimitError
from .pattern import PathData, solve_for_pattern

BRUTE_MAX_T = 20


def brute_force(inst: Instance) -> Solution:
    """Best solution over all 2^T setup patterns; Infeasible if none works.

    Patterns are enumerated with period 1 as the lowest bit, so ties on the
    objective resolve toward patterns with fewer late setups.
    """
    if inst.T > BRUTE_MAX_T:
        raise ResourceLimitError(
            f"brute force enumerates 2^T patterns; T={inst.T} exceeds the limit {BRUTE_MAX_T}"
        )
    t0 = time.perf_counter()
    best: Solution | None = None
    path = PathData(inst)
    pattern = np.zeros(inst.T, dtype=np.int64)
    for mask in range(1 << inst.T):
        for t in range(inst.T):
            pattern[t] = (mask >> t) & 1
        sol = solve_for_pattern(inst, pattern, path)
        if sol is not None and (best is None or sol.objective < best.objective):
            best = sol
    elapsed = time.perf_counter() - t0
    if best is None:
        return infeasible_solution(inst.T, SolveStats(wall_time_seconds=elapsed))
    return best.with_stats(SolveStats(wall_time_seconds=elapsed, mip_gap=0.0))
