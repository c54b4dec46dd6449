"""Valid-inequality separation for fractional relaxation points.

For a prefix ``1..ell`` and a subset ``S`` of it, total production in ``S``
is bounded by the demand each setup could still serve through ``ell`` plus
the inventory left at ``ell``:

    sum_{t in S} x_t <= sum_{t in S} d_{t,ell} * y_t + s_ell

with ``d_{t,ell}`` the demand from ``t`` through ``ell``. The most violated
subset for a given point keeps exactly the periods where ``x_t`` exceeds
``d_{t,ell} * y_t``, so separation is a linear scan per prefix.

Branch and bound runs ``root_cut_loop`` when ``BnbOptions.ls_rounds > 0``
and its root-gap screen (``bnb.ROOT_GAP``) does not skip the loop: the
closed-form cut-free root, already solved for the screen, is the loop's
first point. The loop solves every later round on one persistent
``LpWorkspace`` and appends each round's cuts to it as rows; branch and
bound then solves its nodes on that same model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import FixPlan, Instance
from ..errors import ValidationError
from .lp import LP_OPTIMAL, LpSolution, LpWorkspace

SEPARATION_TOL = 1e-6
DEFAULT_ROUNDS = 5


@dataclass(frozen=True)
class LsCut:
    """One separated inequality, with its demand coefficients cached."""

    ell: int
    set_S: tuple[int, ...]
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if not self.set_S:
            raise ValidationError("cut subset must be non-empty")
        if any(t > self.ell for t in self.set_S):
            raise ValidationError("cut subset must lie within the prefix")

    def violation(self, x, y, s) -> float:
        """Left side minus right side at a point; positive means violated."""
        lhs = sum(x[t - 1] for t in self.set_S)
        rhs = sum(c * y[t - 1] for t, c in zip(self.set_S, self.coeffs)) + s[self.ell - 1]
        return float(lhs - rhs)


def separate_ls_cuts(
    inst: Instance, lp: LpSolution, tol: float = SEPARATION_TOL
) -> list[LsCut]:
    """All violated prefix inequalities at an LP point, at most one per prefix."""
    if lp.status != LP_OPTIMAL:
        raise ValidationError("separation requires an optimal relaxation point")
    cuts: list[LsCut] = []
    cum = np.concatenate([[0.0], np.cumsum(inst.d)])
    for ell in range(1, inst.T + 1):
        members = []
        coeffs = []
        slack = 0.0
        for t in range(1, ell + 1):
            d_tl = cum[ell] - cum[t - 1]
            margin = lp.x[t - 1] - d_tl * lp.y[t - 1]
            if margin > 0:
                members.append(t)
                coeffs.append(float(d_tl))
                slack += margin
        if members and slack - lp.s[ell - 1] > tol:
            cuts.append(LsCut(ell=ell, set_S=tuple(members), coeffs=tuple(coeffs)))
    return cuts


def root_cut_loop(
    inst: Instance,
    rounds: int = DEFAULT_ROUNDS,
    tol: float = SEPARATION_TOL,
    plan: FixPlan | None = None,
    workspace: LpWorkspace | None = None,
    start: LpSolution | None = None,
) -> tuple[list[LsCut], list[float], LpSolution]:
    """Iterate separation at the root; returns the pool, the bounds and the root.

    Every round is solved on one ``workspace`` (a fresh one if none is
    given), and each round's fresh cuts are appended to it, so the caller
    can go on solving nodes on the same model. ``start``, an optimal point
    of the cut-free relaxation under ``plan``, stands in for the first
    round's LP, which is then not solved. ``root`` is the last point, always
    over the final pool; ``bounds[-1]`` is its objective when it is optimal.
    At most ``rounds + 1`` points are used, ``start`` included.
    """
    if rounds < 1:
        raise ValidationError("at least one separation round is required")
    fixed = dict((plan or FixPlan.empty()).entries)
    if workspace is None:
        workspace = LpWorkspace(inst)
    pool: list[LsCut] = []
    seen: set[tuple[int, tuple[int, ...]]] = set()
    bounds: list[float] = []
    for k in range(rounds + 1):
        root = start if k == 0 and start is not None else workspace.solve(fixed)
        if root.status != LP_OPTIMAL:
            break
        bounds.append(root.objective)
        if k == rounds:
            break
        fresh = [c for c in separate_ls_cuts(inst, root, tol) if (c.ell, c.set_S) not in seen]
        if not fresh:
            break
        for c in fresh:
            seen.add((c.ell, c.set_S))
        pool.extend(fresh)
        workspace.add_cuts(fresh)
    return pool, bounds, root
