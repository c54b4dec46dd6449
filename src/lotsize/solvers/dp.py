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

At desk scale (about 300 states per period) the cost is per NumPy call, not
per state. A period makes seven ufunc calls plus one ``minimum_filter1d``,
all writing into buffers allocated once per solve except the stored
``F_t``; a backtrack step is one slice, a multiply-add and an ``argmin``.
Measured on a shared 2-CPU machine: 0.35-0.56 ms per instance at T=20 with
d in [1, 60], and 10-13 ms at T=90 with d in [1, 600].

Tie rule: among equal-cost plans, carry the least inventory into each period,
walking back from the end.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.ndimage import minimum_filter1d

from ..core import Instance, Solution, SolveStats, STATUS_OPTIMAL, infeasible_solution
from ..errors import ResourceLimitError

DP_STATE_BUDGET = 32_000_000  # float64 states kept for the backtrack: 256 MB


def solve_dp(inst: Instance) -> Solution:
    """Exact optimum via inventory-state dynamic programming."""
    d = inst.d
    cap = inst.cap
    T = inst.T
    t0 = time.perf_counter()

    cum_d = np.cumsum(d)
    # Upper bound on ending inventory per period: future demand plus initial
    # stock not yet drawn down.
    bounds = (cum_d[-1] - cum_d + np.maximum(0, inst.s0 - cum_d)).tolist()
    states = sum(bounds) + T
    if states > DP_STATE_BUDGET:
        raise ResourceLimitError(
            f"dynamic program would need {states:.2e} states; use a smaller-demand preset"
        )

    dl, capl = d.tolist(), cap.tolist()
    pl, fl, hl = inst.p.tolist(), inst.f.tolist(), inst.h.tolist()
    # F_{-1}: only the initial stock, padded to every inventory period 1 can
    # draw on. No later period reads more states, so one arange and three
    # scratch buffers of this length serve every period.
    size = dl[0] + bounds[0] + 1
    F = np.full(size, np.inf)
    F[inst.s0] = 0.0
    ar = np.arange(size, dtype=np.float64)
    priced, shifted, window = np.empty(size), np.empty(size), np.empty(size)
    tables = [F]
    for t in range(T):
        dt, n = dl[t], bounds[t] + 1
        m = dt + n
        prev = F[:m]
        width = min(capl[t], m - 1)
        pk = np.multiply(ar[:m], pl[t], out=priced[:m])
        np.subtract(prev, pk, out=shifted[:m])
        minimum_filter1d(
            shifted[:m], size=width + 1, origin=width // 2, mode="constant", cval=np.inf,
            output=window[:m],
        )
        produce = pk[dt:]
        produce += fl[t]
        produce += window[dt:m]
        np.minimum(prev[dt:], produce, out=produce)
        F = np.multiply(ar[:n], hl[t])
        F += produce
        tables.append(F)

    if not np.isfinite(F).any():
        return infeasible_solution(T, SolveStats(wall_time_seconds=time.perf_counter() - t0))

    i = int(F.argmin())
    objective = float(F[i])
    s, x = [0] * T, [0] * T
    for t in range(T - 1, -1, -1):
        k = i + dl[t]
        lo = max(0, k - capl[t])
        # cost[j - lo] = F_{t-1}(j) + p_t (k - j) + f_t [j < k], j = lo..k; the
        # first minimum carries the least stock into period t.
        cost = tables[t][lo : k + 1] + pl[t] * ar[k - lo :: -1]
        cost[:-1] += fl[t]
        s[t] = i
        i = lo + int(cost.argmin())
        x[t] = k - i
    elapsed = time.perf_counter() - t0
    x = np.array(x, dtype=np.float64)
    return Solution(
        x=x, s=s, y=(x > 0).astype(np.int64), objective=objective, status=STATUS_OPTIMAL,
        stats=SolveStats(wall_time_seconds=elapsed, mip_gap=0.0),
    )
