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
    solve_with_ls_cuts,
)
from lotsize.solvers.cuts import SEPARATION_TOL
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


def violations(rows, x, y, s):
    """Left side minus right side of each cut row at a point; positive means violated."""
    return rows @ np.concatenate([x, s, y])


def prefixes(rows, T):
    """The 1-based prefix ``ell`` of each cut row: where its -1 on ``s`` sits."""
    return [int(np.flatnonzero(row[T : 2 * T])[0]) + 1 for row in rows]


def reference_separation(inst, x, y, s, tol):
    """The separation rule as a scan over prefixes and periods, emitting rows."""
    T = inst.T
    rows = []
    cum = np.concatenate([[0.0], np.cumsum(inst.d)])
    for ell in range(1, T + 1):
        row = np.zeros(3 * T)
        members = False
        slack = 0.0
        for t in range(1, ell + 1):
            d_tl = cum[ell] - cum[t - 1]
            margin = x[t - 1] - d_tl * y[t - 1]
            if margin > 0:
                row[t - 1] = 1.0
                row[2 * T + t - 1] = -d_tl
                members = True
                slack += margin
        if members and slack - s[ell - 1] > tol:
            row[T + ell - 1] = -1.0
            rows.append(row)
    return np.array(rows).reshape(-1, 3 * T)


@st.composite
def separation_points(draw):
    """An instance at T in {1, 5, 20, 60} and an optimal-status point to separate.

    Demands and capacities may be zero, and ``s0`` positive. The point is the
    instance's LP optimum when drawn and feasible. Otherwise each period's
    ``x`` is 0, exactly ``d_{t,ell} * y_t`` for a drawn ``ell >= t`` (a margin
    of exactly 0 at that prefix), or a value up to its capacity; ``y`` mixes
    0, 1/2, 1 and arbitrary fractions.
    """
    T = draw(st.sampled_from([1, 5, 20, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.integers(0, 30, T)
    cap = np.where(rng.random(T) < 0.2, 0, rng.integers(0, 90, T))
    inst = Instance(T=T, d=d, p=rng.integers(0, 5, T), f=rng.integers(0, 300, T),
                    h=rng.integers(0, 3, T), cap=cap, s0=draw(st.integers(0, 40)))
    if draw(st.booleans()):
        lp = LpWorkspace(inst).solve()
        if lp.status == LP_OPTIMAL:
            return inst, lp
    cum = np.concatenate([[0.0], np.cumsum(inst.d)])
    y = rng.choice([0.0, 0.5, 1.0, rng.random()], size=T)
    x = np.zeros(T)
    for t in range(1, T + 1):
        kind = rng.integers(3)
        if kind == 1:
            ell = int(rng.integers(t, T + 1))
            x[t - 1] = (cum[ell] - cum[t - 1]) * y[t - 1]
        elif kind == 2:
            x[t - 1] = rng.random() * cap[t - 1]
    s = np.where(rng.random(T) < 0.5, 0.0, rng.random(T) * 50)
    return inst, lp_point(inst, x, y, s)


class TestSeparation:
    def test_two_period_fractional_point(self):
        inst = Instance(T=2, d=[1, 1], p=[1, 1], f=[5, 5], h=[1, 1], cap=[3, 3])
        x, y, s = [2, 0], [0.5, 0], [1, 0]
        rows = separate_ls_cuts(inst, lp_point(inst, x, y, s), tol=1e-6)
        by_ell = dict(zip(prefixes(rows, 2), rows))
        found = dict(zip(prefixes(rows, 2), violations(rows, x, y, s)))
        # Prefix 2 gives the textbook violation of 1.0 with S={1}.
        assert 2 in by_ell
        assert np.flatnonzero(by_ell[2][:2]).tolist() == [0]
        assert found[2] == pytest.approx(1.0)
        # The separation rule examines every prefix; match the enumeration.
        oracle = enumerate_most_violated(inst, x, y, s, tol=1e-6)
        assert set(found) == set(oracle)
        for ell, violation in found.items():
            assert violation == pytest.approx(oracle[ell][0])

    def test_integer_optimum_yields_nothing(self, e1):
        opt = brute_force(e1)
        point = lp_point(e1, opt.x, opt.y, opt.s)
        assert separate_ls_cuts(e1, point, tol=1e-6).shape == (0, 9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_matches_enumeration_at_lp_points(self, seed):
        inst = random_small_instance(np.random.default_rng(seed), T=5)
        lp = LpWorkspace(inst).solve()
        if lp.status != LP_OPTIMAL:
            return
        rows = separate_ls_cuts(inst, lp, tol=1e-6)
        oracle = enumerate_most_violated(inst, lp.x, lp.y, lp.s, tol=1e-6)
        assert prefixes(rows, inst.T) == sorted(oracle)
        for ell, violation in zip(prefixes(rows, inst.T), violations(rows, lp.x, lp.y, lp.s)):
            assert violation == pytest.approx(oracle[ell][0], abs=1e-9)

    @settings(max_examples=120, deadline=None)
    @given(case=separation_points())
    def test_matches_the_scan_row_for_row(self, case):
        inst, point = case
        rows = separate_ls_cuts(inst, point)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, reference_separation(inst, point.x, point.y, point.s,
                                                         SEPARATION_TOL))

    @pytest.mark.parametrize("T", [1, 5, 20, 60])
    def test_point_without_violated_prefix_gives_no_rows(self, T):
        inst = generated_instances(1, seed=28, T=T)[0]
        zero = lp_point(inst, np.zeros(T), np.zeros(T), np.zeros(T))
        assert separate_ls_cuts(inst, zero).shape == (0, 3 * T)
        assert reference_separation(inst, zero.x, zero.y, zero.s, SEPARATION_TOL).shape == (0, 3 * T)


class TestCutValidity:
    def test_mip_optimum_satisfies_all_cuts(self):
        for inst in generated_instances(15, seed=21, T=8):
            pool, _, _ = root_cut_loop(inst, rounds=5)
            opt = branch_and_bound(inst)
            assert np.all(violations(pool, opt.x, opt.y, opt.s) <= 1e-6)


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


class TestRootGapScreen:
    """Skipping or running the cut loop never changes the answer."""

    def test_matches_cut_free_bnb_on_random_plans(self):
        rng = np.random.default_rng(31)
        stops = []
        for T in (8, 20):
            params = GenParams(c_ratio=3, f_ratio=100, T=T, demand_range=(1, 60), seed=31)
            for i in range(25):
                inst = generate_instance(params, i)
                size = int(rng.integers(0, T))
                fixed = rng.choice(np.arange(1, T + 1), size=size, replace=False)
                plan = FixPlan({int(t): int(rng.integers(0, 2)) for t in fixed})
                cut = solve_with_ls_cuts(inst, 3, plan=plan)
                free = branch_and_bound(inst, plan)
                assert cut.status == free.status
                if cut.status != "Optimal":
                    continue
                assert cut.objective == pytest.approx(free.objective, rel=1e-9)
                assert check_solution(inst, cut) == []
                assert free.stats.cut_stop == "off"
                stops.append(cut.stats.cut_stop)
        # Both branches of the rule ran, so the comparison covers each.
        assert "root-gap" in stops
        assert {"no-cut", "rounds"} & set(stops)


class TestRelaxationsSolvedOnce:
    """Branch and cut solves each relaxation once and counts what it solves."""

    @pytest.fixture
    def solves(self, monkeypatch):
        """Every relaxation solved, keyed by the cut rows it holds and its fixings."""
        calls = []
        # Cut rows appended to each workspace; the workspaces stay referenced,
        # so no two share a key.
        cut_rows = {}

        def add_cuts(self, rows, _add=LpWorkspace.add_cuts):
            cut_rows[self] = cut_rows.get(self, 0) + len(rows)
            _add(self, rows)

        monkeypatch.setattr(LpWorkspace, "add_cuts", add_cuts)
        for cls in (LpWorkspace, PathRelaxation):
            def counted(self, fixed=None, _solve=cls.solve):
                rows = cut_rows.get(self, 0)
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
        """Each node costs one relaxation beyond the root's; ``cut_stop`` says how many
        the root took.

        The closed-form cut-free root is always solved first. When the screen
        skips the loop, or the loop finds no cut at that point, it is the root
        and HiGHS solves nothing; otherwise each further round is one LP.
        """
        params = GenParams(c_ratio=3, f_ratio=100, T=20, demand_range=(1, 60), seed=4)
        cases = [(generate_instance(params, 110), FixPlan({t: 1 for t in range(1, 16)}))]
        rng = np.random.default_rng(27)
        for inst in generated_instances(8, seed=27, T=8):
            fixed = rng.choice(np.arange(1, inst.T + 1), size=3, replace=False)
            cases.append((inst, FixPlan({int(t): 1 for t in fixed})))
        seen = set()
        for inst, plan in cases:
            for rounds in (1, 3):
                solves.clear()
                st = solve_with_ls_cuts(inst, rounds, plan=plan).stats
                root_key = tuple(sorted(dict(plan.entries).items()))
                screen = [name for name, rows, key in solves if key == root_key and rows == 0]
                loop_lps = sum(
                    1 for name, _, key in solves if name == "LpWorkspace" and key == root_key
                )
                # The cut-free root is solved once, in closed form, never again in HiGHS.
                assert screen == ["PathRelaxation"]
                assert st.lp_solves == 1 + loop_lps + st.nodes_explored - 1
                assert st.lp_solves == len(solves)
                seen.add(st.cut_stop)
                if st.cuts_added == 0:
                    assert st.cut_stop in ("root-gap", "no-cut")
                    assert loop_lps == 0
                    assert {name for name, _, _ in solves} == {"PathRelaxation"}
                    assert st.lp_solves == st.nodes_explored
                else:
                    assert st.cut_stop in ("no-cut", "rounds")
                    assert 1 <= loop_lps <= rounds
                    assert (loop_lps == rounds) == (st.cut_stop == "rounds")
        assert {"root-gap", "no-cut", "rounds"} <= seen
        # The repro case: its cut-free root is within the screen's gap.
        first = solve_with_ls_cuts(cases[0][0], 3, plan=cases[0][1]).stats
        assert first.cut_stop == "root-gap" and first.cuts_added == 0
        assert first.nodes_explored > 1 and first.lp_solves == first.nodes_explored

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValidationError):
            BnbOptions(ls_rounds=-1)
