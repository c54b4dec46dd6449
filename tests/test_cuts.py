"""Separation rule against exhaustive enumeration, validity, and bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotsize import FixPlan, GenParams, Instance, check_solution, generate_instance
from lotsize.errors import ValidationError
from lotsize.solvers import (
    BnbOptions,
    LpWorkspace,
    branch_and_bound,
    brute_force,
    root_cut_loop,
    separate_ls_cuts,
    solve_lp,
    solve_with_ls_cuts,
)
from lotsize.solvers.cuts import LsCut
from lotsize.solvers.lp import LpSolution, LP_OPTIMAL
from lotsize.solvers.pattern import PathRelaxation

from conftest import desk_instances, edge_instances, generated_instances, random_small_instance


def enumerate_most_violated(inst, x, y, s, tol):
    """Independent oracle: scan every subset S of every prefix."""
    best_per_ell = {}
    cum = np.concatenate([[0.0], np.cumsum(inst.d)])
    for ell in range(1, inst.T + 1):
        best = None
        for r in range(1, ell + 1):
            for S in itertools.combinations(range(1, ell + 1), r):
                lhs = sum(x[t - 1] for t in S)
                rhs = sum((cum[ell] - cum[t - 1]) * y[t - 1] for t in S) + s[ell - 1]
                violation = lhs - rhs
                if best is None or violation > best[0]:
                    best = (violation, S)
        if best is not None and best[0] > tol:
            best_per_ell[ell] = best
    return best_per_ell


def lp_point(inst, x, y, s):
    return LpSolution(
        x=np.array(x, float),
        y=np.array(y, float),
        s=np.array(s, float),
        objective=0.0,
        status=LP_OPTIMAL,
    )


class TestSeparation:
    def test_two_period_fractional_point(self):
        inst = Instance(T=2, d=[1, 1], p=[1, 1], f=[5, 5], h=[1, 1], cap=[3, 3])
        point = lp_point(inst, [2, 0], [0.5, 0], [1, 0])
        cuts = separate_ls_cuts(inst, point, tol=1e-6)
        by_ell = {c.ell: c for c in cuts}
        # Prefix 2 gives the textbook violation of 1.0 with S={1}.
        assert 2 in by_ell
        assert by_ell[2].set_S == (1,)
        assert by_ell[2].violation([2, 0], [0.5, 0], [1, 0]) == pytest.approx(1.0)
        # The separation rule examines every prefix; match the enumeration.
        oracle = enumerate_most_violated(inst, [2, 0], [0.5, 0], [1, 0], tol=1e-6)
        assert set(by_ell) == set(oracle)
        for ell, cut in by_ell.items():
            assert cut.violation([2, 0], [0.5, 0], [1, 0]) == pytest.approx(oracle[ell][0])

    def test_integer_optimum_yields_nothing(self, e1):
        opt = brute_force(e1)
        point = lp_point(e1, opt.x, opt.y, opt.s)
        assert separate_ls_cuts(e1, point, tol=1e-6) == []

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_enumeration_at_lp_points(self, seed):
        inst = random_small_instance(np.random.default_rng(seed), T=5)
        lp = solve_lp(inst)
        if lp.status != LP_OPTIMAL:
            return
        cuts = separate_ls_cuts(inst, lp, tol=1e-6)
        oracle = enumerate_most_violated(inst, lp.x, lp.y, lp.s, tol=1e-6)
        assert {c.ell for c in cuts} == set(oracle)
        for c in cuts:
            assert c.violation(lp.x, lp.y, lp.s) == pytest.approx(
                oracle[c.ell][0], abs=1e-9
            )

    def test_subset_must_be_nonempty(self):
        with pytest.raises(Exception):
            LsCut(ell=2, set_S=(), coeffs=())


class TestCutValidity:
    def test_mip_optimum_satisfies_all_cuts(self):
        for inst in generated_instances(15, seed=21, T=8):
            pool, _, _ = root_cut_loop(inst, rounds=5)
            opt = branch_and_bound(inst)
            for cut in pool:
                assert cut.violation(opt.x, opt.y, opt.s) <= 1e-6


class TestRootLoop:
    def test_bound_monotone(self):
        for inst in generated_instances(10, seed=22, T=8):
            _, bounds, _ = root_cut_loop(inst, rounds=5)
            assert all(b2 >= b1 - 1e-7 for b1, b2 in zip(bounds, bounds[1:]))

    def test_ends_on_the_final_pool(self):
        for rounds in (1, 2, 5):
            for inst in generated_instances(10, seed=22, T=8):
                pool, bounds, root = root_cut_loop(inst, rounds=rounds)
                assert 1 <= len(bounds) <= rounds + 1
                assert root.objective == bounds[-1]
                workspace = LpWorkspace(inst)
                workspace.add_cuts(pool)
                final = workspace.solve({})
                assert final.objective == pytest.approx(root.objective, rel=1e-9)

    def test_cuts_improve_some_root(self):
        improved = 0
        for inst in generated_instances(10, seed=23, T=8):
            _, bounds, _ = root_cut_loop(inst, rounds=5)
            if len(bounds) > 1 and bounds[-1] > bounds[0] + 1e-7:
                improved += 1
        assert improved > 0


class TestSolveWithCuts:
    def test_e1_objective(self, e1):
        assert solve_with_ls_cuts(e1).objective == pytest.approx(17.0)

    def test_round_count_invariance(self):
        for inst in generated_instances(5, seed=24, T=8):
            one = solve_with_ls_cuts(inst, rounds=1)
            five = solve_with_ls_cuts(inst, rounds=5)
            assert one.objective == pytest.approx(five.objective, rel=1e-9)
            assert five.stats.cuts_added >= one.stats.cuts_added

    def test_matches_plain_bnb(self):
        for inst in generated_instances(8, seed=25, T=8):
            assert solve_with_ls_cuts(inst).objective == pytest.approx(
                branch_and_bound(inst).objective, rel=1e-9
            )


@st.composite
def planned_instances(draw):
    """An instance and a random partial fix plan for it."""
    inst = draw(st.one_of(edge_instances(), desk_instances()))
    periods = draw(st.sets(st.integers(1, inst.T), max_size=inst.T - 1))
    return inst, FixPlan({t: draw(st.integers(0, 1)) for t in sorted(periods)})


class TestBranchAndCutDifferential:
    """Branch and cut on the persistent HiGHS model against cut-free B&B."""

    @settings(max_examples=150, deadline=None)
    @given(case=planned_instances(), rounds=st.integers(1, 5))
    def test_matches_cut_free_bnb_and_repeats(self, case, rounds):
        inst, plan = case
        cut = solve_with_ls_cuts(inst, rounds, plan=plan)
        free = branch_and_bound(inst, plan)
        assert cut.status == free.status
        if cut.status == "Optimal":
            assert cut.objective == pytest.approx(free.objective, rel=1e-9, abs=1e-9)
            assert check_solution(inst, cut) == []
            for t, v in plan.entries.items():
                assert cut.y[t - 1] == v
        again = solve_with_ls_cuts(inst, rounds, plan=plan)
        assert np.array_equal(again.y, cut.y)
        assert again.stats.nodes_explored == cut.stats.nodes_explored
        assert again.stats.lp_solves == cut.stats.lp_solves


class TestRelaxationsSolvedOnce:
    """Branch and cut solves each relaxation once and counts what it solves."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Every relaxation solved, keyed by the cut rows it holds and its fixings."""
        calls = []
        for cls in (LpWorkspace, PathRelaxation):
            def counted(self, fixed=None, _solve=cls.solve):
                rows = getattr(self, "cuts", ())
                calls.append((type(self).__name__, rows, tuple(sorted((fixed or {}).items()))))
                return _solve(self, fixed)

            monkeypatch.setattr(cls, "solve", counted)
        return calls

    def test_fixed_and_flow_infeasible_plans_solve_none(self, e1, solves):
        for plan in (FixPlan({1: 1, 2: 1, 3: 0}), FixPlan({2: 0})):
            sol = branch_and_bound(e1, plan, BnbOptions(ls_rounds=5))
            assert solves == []
            assert sol.stats.lp_solves == 0
        assert sol.status == "Infeasible"

    def test_no_relaxation_solved_twice(self, solves):
        rng = np.random.default_rng(26)
        for inst in generated_instances(12, seed=26, T=8):
            fixed = rng.choice(np.arange(1, inst.T + 1), size=3, replace=False)
            for plan in (FixPlan.empty(), FixPlan({int(t): 1 for t in fixed})):
                for rounds in (1, 5):
                    solves.clear()
                    sol = solve_with_ls_cuts(inst, rounds, plan=plan)
                    assert len(set(solves)) == len(solves)
                    assert sol.stats.lp_solves == len(solves)

    def test_root_is_the_loops_last_lp_when_no_cut_is_found(self, solves):
        """Each node costs one LP beyond the cut loop, whose last LP is the root."""
        params = GenParams(c_ratio=3, f_ratio=100, T=20, demand_range=(1, 60), seed=4)
        cases = [(generate_instance(params, 110), FixPlan({t: 1 for t in range(1, 16)}))]
        rng = np.random.default_rng(27)
        for inst in generated_instances(8, seed=27, T=8):
            fixed = rng.choice(np.arange(1, inst.T + 1), size=3, replace=False)
            cases.append((inst, FixPlan({int(t): 1 for t in fixed})))
        for inst, plan in cases:
            for rounds in (1, 3):
                solves.clear()
                sol = solve_with_ls_cuts(inst, rounds, plan=plan)
                root_key = tuple(sorted(dict(plan.entries).items()))
                loop_lps = sum(
                    1 for name, _, key in solves if name == "LpWorkspace" and key == root_key
                )
                assert sol.stats.lp_solves == loop_lps + sol.stats.nodes_explored - 1
                assert sol.stats.lp_solves == len(solves)
        # The repro case: the loop finds no cut, so its one LP is the root.
        first = solve_with_ls_cuts(cases[0][0], 3, plan=cases[0][1]).stats
        assert first.cuts_added == 0 and first.nodes_explored > 1
        assert first.lp_solves == first.nodes_explored

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValidationError):
            BnbOptions(ls_rounds=-1)
