"""(l,S) inequalities as LP rows, separated at fractional relaxation points.

For a prefix ``1..ell`` and a subset ``S`` of it, total production in ``S``
is bounded by the demand each setup could still serve through ``ell`` plus
the inventory left at ``ell``:

    sum_{t in S} x_t <= sum_{t in S} d_{t,ell} * y_t + s_ell

with ``d_{t,ell}`` the demand from ``t`` through ``ell``. A cut is one row
over ``LpWorkspace``'s ``[x, s, y]`` columns, read as ``row @ z <= 0``: 1 at
``x_t`` and ``-d_{t,ell}`` at ``y_t`` for each ``t`` in ``S``, and -1 at
``s_ell``. A pool of ``k`` cuts is a ``(k, 3T)`` float64 array, the block
``LpWorkspace.add_cuts`` appends to the HiGHS model.

The most violated subset for a prefix keeps exactly the periods where the
margin ``x_t - d_{t,ell} * y_t`` is positive, so separation computes the
margins of every prefix at once, as the upper triangle ``t <= ell`` of one
T×T array. A prefix yields a cut when its violation exceeds the constant
``SEPARATION_TOL``.

Branch and bound runs ``root_cut_loop`` when ``BnbOptions.ls_rounds > 0``
and its root-gap screen (``bnb.ROOT_GAP``) does not skip the loop: the
closed-form cut-free root, already solved for the screen, is the loop's
first point. The loop solves every later round on one persistent
``LpWorkspace`` and appends each round's cuts to it as rows; branch and
bound then solves its nodes on that same model.
"""

from __future__ import annotations

import numpy as np

from ..core import FixPlan, Instance
from ..errors import ValidationError
from .lp import LP_OPTIMAL, LpSolution, LpWorkspace

SEPARATION_TOL = 1e-6
DEFAULT_ROUNDS = 5


def separate_ls_cuts(inst: Instance, lp: LpSolution) -> np.ndarray:
    """The violated prefix inequalities at an LP point as rows, at most one per prefix.

    Rows come in prefix order; with no violated prefix the shape is (0, 3T).
    """
    if lp.status != LP_OPTIMAL:
        raise ValidationError("separation requires an optimal relaxation point")
    T = inst.T
    cum = np.concatenate([[0.0], np.cumsum(inst.d)])
    # demand[t, ell] is d_{t,ell} for t <= ell (0-based); below the diagonal it is unused.
    demand = cum[1:] - cum[:-1, None]
    margin = lp.x[:, None] - demand * lp.y[:, None]
    period = np.arange(T)
    member = (margin > 0) & (period[:, None] <= period)
    # Summed in period order, one addition at a time, so the tolerance test
    # sees the same slack as a scan over the periods would.
    slack = np.cumsum(np.where(member, margin, 0.0), axis=0)[-1]
    ells = np.flatnonzero(member.any(axis=0) & (slack - lp.s > SEPARATION_TOL))
    members = member[:, ells].T
    rows = np.zeros((len(ells), 3 * T))
    rows[:, :T] = members
    rows[np.arange(len(ells)), T + ells] = -1.0
    rows[:, 2 * T :] = np.where(members, -demand[:, ells].T, 0.0)
    return rows


def root_cut_loop(
    inst: Instance,
    rounds: int = DEFAULT_ROUNDS,
    plan: FixPlan | None = None,
    workspace: LpWorkspace | None = None,
    start: LpSolution | None = None,
) -> tuple[np.ndarray, list[float], LpSolution]:
    """Iterate separation at the root; returns the pool, the bounds and the root.

    Every round is solved on one ``workspace`` (a fresh one if none is
    given), and each round's fresh cut rows are appended to it and to the
    ``(k, 3T)`` pool, so the caller can go on solving nodes on the same
    model. ``start``, an optimal point of the cut-free relaxation under
    ``plan``, stands in for the first round's LP, which is then not solved.
    ``root`` is the last point, always over the final pool; ``bounds[-1]``
    is its objective when it is optimal. At most ``rounds + 1`` points are
    used, ``start`` included.
    """
    if rounds < 1:
        raise ValidationError("at least one separation round is required")
    fixed = dict((plan or FixPlan.empty()).entries)
    if workspace is None:
        workspace = LpWorkspace(inst)
    pool = np.zeros((0, 3 * inst.T))
    seen: set[bytes] = set()
    bounds: list[float] = []
    for k in range(rounds + 1):
        root = start if k == 0 and start is not None else workspace.solve(fixed)
        if root.status != LP_OPTIMAL:
            break
        bounds.append(root.objective)
        if k == rounds:
            break
        rows = separate_ls_cuts(inst, root)
        fresh = rows[np.array([row.tobytes() not in seen for row in rows], dtype=bool)]
        if not len(fresh):
            break
        seen.update(row.tobytes() for row in fresh)
        pool = np.vstack([pool, fresh])
        workspace.add_cuts(fresh)
    return pool, bounds, root
