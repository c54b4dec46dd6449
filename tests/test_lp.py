import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from lotsize import FixPlan, Instance, flow_feasible
from lotsize.solvers import LpWorkspace
from lotsize.solvers.lp import LP_INFEASIBLE, LP_OPTIMAL

from conftest import desk_instances, edge_instances, random_small_instance


def linprog_reference(inst: Instance, cuts, fixed: dict[int, int]) -> tuple[str, float]:
    """Status and objective of a fresh ``linprog`` solve of the same rows."""
    T = inst.T
    A_eq = np.zeros((T, 3 * T))
    b_eq = inst.d.astype(float)
    b_eq[0] -= inst.s0
    linking = np.zeros((T, 3 * T))
    for t in range(T):
        A_eq[t, t], A_eq[t, T + t] = 1.0, -1.0
        if t > 0:
            A_eq[t, T + t - 1] = 1.0
        linking[t, t], linking[t, 2 * T + t] = 1.0, -float(inst.cap[t])
    A_ub = np.vstack([linking, *cuts])
    bounds = [(0, None)] * (2 * T) + [(fixed.get(t, 0), fixed.get(t, 1)) for t in range(1, T + 1)]
    res = linprog(np.concatenate([inst.p, inst.h, inst.f]), A_ub=A_ub, b_ub=np.zeros(len(A_ub)),
                  A_eq=A_eq, b_eq=b_eq, bounds=bounds, method="highs")
    assert res.status in (0, 2), res.message
    return (LP_OPTIMAL, res.fun) if res.status == 0 else (LP_INFEASIBLE, float("inf"))


def ls_row(T: int, cum, ell: int, S) -> np.ndarray:
    """The (l,S) cut row over ``[x, s, y]`` for prefix ``ell`` and subset ``S`` (1-based)."""
    row = np.zeros(3 * T)
    for t in S:
        row[t - 1] = 1.0
        row[2 * T + t - 1] = -float(cum[ell] - cum[t - 1])
    row[T + ell - 1] = -1.0
    return row


@st.composite
def workspace_steps(draw):
    """An instance and a sequence of setup fixings and (l,S) cut rows to apply to it."""
    inst = draw(st.one_of(edge_instances(), desk_instances()))
    T = inst.T
    cum = np.concatenate([[0], np.cumsum(inst.d)])
    steps = []
    for kind in draw(st.lists(st.sampled_from(["fix", "fix", "close", "cut"]), min_size=1,
                              max_size=10)):
        if kind == "cut":
            ell = draw(st.integers(1, T))
            S = sorted(draw(st.sets(st.integers(1, ell), min_size=1)))
            steps.append(ls_row(T, cum, ell, S))
        elif kind == "close":
            # Every setup closed: infeasible whenever s0 falls short of demand.
            steps.append({t: 0 for t in range(1, T + 1)})
        else:
            periods = draw(st.sets(st.integers(1, T)))
            steps.append({t: draw(st.integers(0, 1)) for t in sorted(periods)})
    return inst, steps


class TestSolveLp:
    def test_relaxation_bounds_e1(self, e1):
        lp = LpWorkspace(e1).solve()
        assert lp.status == LP_OPTIMAL
        assert lp.objective <= 17.0 + 1e-7

    def test_plan_infeasibility_matches_flow_test(self, e1):
        assert LpWorkspace(e1).solve({2: 0}).status == LP_INFEASIBLE

    def test_single_period_by_hand(self):
        inst = Instance(T=1, d=[5], p=[1], f=[2], h=[1], cap=[10])
        lp = LpWorkspace(inst).solve()
        assert lp.status == LP_OPTIMAL
        assert lp.objective == pytest.approx(6.0, abs=1e-7)
        assert lp.y[0] == pytest.approx(0.5, abs=1e-7)

    def test_constraints_hold_at_optimum(self, e1):
        lp = LpWorkspace(e1).solve()
        s_prev = np.concatenate([[0.0], lp.s[:-1]])
        assert np.allclose(s_prev + lp.x - e1.d, lp.s, atol=1e-7)
        assert np.all(lp.x <= lp.y * e1.cap + 1e-7)
        assert np.all(lp.y >= -1e-7) and np.all(lp.y <= 1 + 1e-7)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), data=st.data())
    def test_infeasible_iff_flow_infeasible(self, seed, data):
        inst = random_small_instance(np.random.default_rng(seed))
        zeros = data.draw(
            st.lists(st.integers(1, inst.T), unique=True, min_size=0, max_size=inst.T)
        )
        plan = FixPlan({t: 0 for t in zeros})
        lp = LpWorkspace(inst).solve(dict(plan.entries))
        assert (lp.status == LP_INFEASIBLE) == (not flow_feasible(inst, plan))


class TestPersistentWorkspace:
    @settings(max_examples=150, deadline=None)
    @given(case=workspace_steps())
    def test_matches_fresh_linprog_after_every_step(self, case):
        inst, steps = case
        ws = LpWorkspace(inst)
        cuts = []
        for step in steps:
            if isinstance(step, np.ndarray):
                ws.add_cuts(step[None])
                cuts.append(step)
                continue
            lp = ws.solve(step)
            status, objective = linprog_reference(inst, cuts, step)
            assert lp.status == status
            if status == LP_OPTIMAL:
                assert lp.objective == pytest.approx(objective, rel=1e-9, abs=1e-9)
                for t, v in step.items():
                    assert lp.y[t - 1] == pytest.approx(v, abs=1e-9)

