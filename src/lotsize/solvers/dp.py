"""Forward dynamic program over (period, ending inventory) states.

The classical lot-sizing recursion (Florian & Klein 1971), exact for integer
demand and capacity. ``F_t(i)`` is the least cost of periods 1..t ending with
inventory ``i``. With ``k = i + d_t`` and production cost ``f_t [q > 0] + p_t q``::

    F_t(i) = h_t i + min(F_{t-1}(k),
                         f_t + p_t k + min_{k - cap_t <= j <= k} (F_{t-1}(j) - p_t j))

so each period is a shift plus one trailing-window minimum of width
``cap_t``. Inventory is bounded by the remaining demand plus initial stock not
yet drawn down: O(T * D) time and memory for total demand D, with the stored
``F_t`` capped at ``DP_STATE_BUDGET`` states before anything is allocated.
Tie rule: among equal-cost plans, carry the least inventory into each period,
walking back from the end.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.ndimage import minimum_filter1d

from ..core import Instance, Solution, SolveStats, STATUS_OPTIMAL, infeasible_solution
from ..errors import ResourceLimitError, ValidationError

DP_STATE_BUDGET = 32_000_000  # float64 states kept for the backtrack: 256 MB


def solve_dp(inst: Instance) -> Solution:
    """Exact optimum via inventory-state dynamic programming."""
    d = inst.d
    cap = inst.cap
    if np.any(d != np.floor(d)) or np.any(cap != np.floor(cap)):
        raise ValidationError("dynamic program requires integer demand and capacity")
    T = inst.T
    t0 = time.perf_counter()

    cum_d = np.cumsum(d)
    remaining = cum_d[-1] - cum_d
    # Upper bound on ending inventory per period: future demand plus initial
    # stock not yet drawn down.
    bounds = [int(remaining[t] + max(0, inst.s0 - cum_d[t])) for t in range(T)]
    states = sum(bounds) + T
    if states > DP_STATE_BUDGET:
        raise ResourceLimitError(
            f"dynamic program would need {states:.2e} states; use a smaller-demand preset"
        )

    # F_{-1}: only the initial stock, padded to every inventory period 1 can draw on.
    F = np.full(int(d[0]) + bounds[0] + 1, np.inf)
    F[inst.s0] = 0.0
    tables = [F]
    for t in range(T):
        dt, n = int(d[t]), bounds[t] + 1
        prev, k = F[: dt + n], np.arange(dt + n)
        width = min(int(cap[t]), dt + n - 1)
        window = minimum_filter1d(
            prev - inst.p[t] * k, size=width + 1, origin=width // 2, mode="constant", cval=np.inf
        )
        produce = inst.f[t] + inst.p[t] * k[dt:] + window[dt:]
        F = inst.h[t] * np.arange(n) + np.minimum(prev[dt:], produce)
        tables.append(F)

    if not np.isfinite(F).any():
        return infeasible_solution(T, SolveStats(wall_time_seconds=time.perf_counter() - t0))

    s, x = np.zeros(T), np.zeros(T)
    i = int(np.argmin(F))
    objective = float(F[i])
    for t in range(T - 1, -1, -1):
        k = i + int(d[t])
        j = np.arange(max(0, k - int(cap[t])), k + 1)
        cost = tables[t][j] + inst.p[t] * (k - j) + np.where(j < k, inst.f[t], 0.0)
        s[t] = i
        i = int(j[np.argmin(cost)])
        x[t] = k - i
    elapsed = time.perf_counter() - t0
    return Solution(
        x=x, s=s, y=(x > 0).astype(np.int64), objective=objective, status=STATUS_OPTIMAL,
        stats=SolveStats(wall_time_seconds=elapsed, mip_gap=0.0),
    )
