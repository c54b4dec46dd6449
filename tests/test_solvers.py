"""Branch and bound, dynamic program and brute force against each other."""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import minimum_filter1d
from scipy.optimize import Bounds, LinearConstraint, milp

from lotsize import (
    FixPlan, GenParams, Instance, Solution, check_solution, desk_params, generate_instance,
)
from lotsize.core import STATUS_OPTIMAL, infeasible_solution
from lotsize.errors import ResourceLimitError, ValidationError
from lotsize.solvers import (
    SOLVERS,
    BnbOptions,
    branch_and_bound,
    brute_force,
    solve,
    solve_dp,
    solve_for_pattern,
)
from lotsize.solvers.dp import DP_STATE_BUDGET
from lotsize.solvers.lp import LP_OPTIMAL, LpWorkspace
from lotsize.solvers.pattern import PathRelaxation, greedy_production

from conftest import desk_instances, edge_instances, random_small_instance


def milp_objective(inst: Instance) -> float:
    """Optimum of the CLSP as a mixed-integer program over (x, s, y)."""
    T = inst.T
    eye = np.eye(T)
    # Flow balance s_t - s_{t-1} - x_t = -d_t, with s_0 given.
    balance = np.hstack([-eye, eye - np.eye(T, k=-1), np.zeros((T, T))])
    rhs = -inst.d.astype(float)
    rhs[0] += inst.s0
    setup = np.hstack([eye, np.zeros((T, T)), -np.diag(inst.cap.astype(float))])
    res = milp(
        np.concatenate([inst.p, inst.h, inst.f]).astype(float),
        constraints=[LinearConstraint(balance, rhs, rhs), LinearConstraint(setup, -np.inf, 0)],
        integrality=np.repeat([0, 0, 1], T),
        bounds=Bounds(0, np.concatenate([np.full(2 * T, np.inf), np.ones(T)])),
        options={"mip_rel_gap": 0},
    )
    assert res.status == 0
    return float(res.fun)


def reference_dp(inst: Instance) -> Solution:
    """The dynamic program as first written, one array expression per step.

    ``solve_dp`` must return exactly this: the same status, objective and
    vectors, bit for bit, so its buffered loops change speed only.
    """
    d, cap, T = inst.d, inst.cap, inst.T
    cum_d = np.cumsum(d)
    remaining = cum_d[-1] - cum_d
    bounds = [int(remaining[t] + max(0, inst.s0 - cum_d[t])) for t in range(T)]
    if sum(bounds) + T > DP_STATE_BUDGET:
        raise ResourceLimitError("state budget")
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
        return infeasible_solution(T)
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
    return Solution(x=x, s=s, y=(x > 0).astype(np.int64), objective=objective,
                    status=STATUS_OPTIMAL)


def assert_same_as_reference(inst: Instance) -> None:
    sol, ref = solve_dp(inst), reference_dp(inst)
    assert sol.status == ref.status
    assert sol.objective == ref.objective
    for name in ("x", "s", "y"):
        assert np.array_equal(getattr(sol, name), getattr(ref, name)), name


def partial_fixings(inst: Instance):
    """1-based setup fixings of any size, values 0 or 1."""
    return st.dictionaries(st.integers(1, inst.T), st.integers(0, 1), max_size=inst.T)


def reference_greedy(need, unit_cost, upper):
    """The production greedy as first written, one ``take`` per step.

    ``greedy_production`` must return exactly this list, or None with it,
    so its leaner loop changes speed only.
    """
    x = [0.0] * len(need)
    sources = []
    produced = 0.0
    for k, need_k in enumerate(need):
        if upper[k] > 0:
            heapq.heappush(sources, (unit_cost[k], k))
        deficit = need_k - produced
        while deficit > 0:
            if not sources:
                return None
            u = sources[0][1]
            room = upper[u] - x[u]
            if room <= deficit:
                heapq.heappop(sources)
                x[u] = upper[u]
                take = room
            else:
                x[u] += deficit
                take = deficit
            produced += take
            deficit -= take
    return x


class TestGreedyParity:
    def test_matches_reference_on_random_inputs(self):
        rng = np.random.default_rng(4242)
        infeasible = zero_upper = negative_need = 0
        for _ in range(4000):
            T = int(rng.integers(1, 13))
            s0 = int(rng.integers(0, 16)) if rng.random() < 0.5 else 0
            # Integer needs as the callers pass them; s0 > 0 makes early ones negative.
            need = (np.cumsum(rng.integers(0, 10, T)) - s0).tolist()
            # Few distinct costs give ties; a fractional part mimics f / cap.
            unit_cost = rng.integers(0, 4, T).astype(float)
            if rng.random() < 0.5:
                unit_cost += rng.integers(0, 3, T) / rng.integers(1, 8, T)
            upper = rng.integers(0, 14, T) * (rng.random(T) < 0.8)
            upper = upper.tolist() if rng.random() < 0.5 else upper.astype(float).tolist()
            want = reference_greedy(need, unit_cost.tolist(), upper)
            got = greedy_production(need, unit_cost.tolist(), upper)
            assert got == want
            infeasible += want is None
            zero_upper += 0 in upper
            negative_need += need[0] < 0
        # The draw reaches every edge case the docstring names.
        assert min(infeasible, zero_upper, negative_need) > 100


class TestPatternSolver:
    def test_e1_optimal_pattern(self, e1):
        sol = solve_for_pattern(e1, [1, 1, 0])
        assert sol.objective == 17.0
        assert np.array_equal(sol.x, [2, 4, 0])

    def test_infeasible_pattern(self, e1):
        assert solve_for_pattern(e1, [1, 0, 0]) is None

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 100_000), data=st.data())
    def test_matches_lp_with_full_plan(self, seed, data):
        inst = random_small_instance(np.random.default_rng(seed))
        pattern = data.draw(
            st.lists(st.integers(0, 1), min_size=inst.T, max_size=inst.T)
        )
        greedy = solve_for_pattern(inst, pattern)
        lp = LpWorkspace(inst).solve({t + 1: v for t, v in enumerate(pattern)})
        if greedy is None:
            assert lp.status != LP_OPTIMAL
        else:
            assert lp.status == LP_OPTIMAL
            assert greedy.objective == pytest.approx(lp.objective, abs=1e-6)
            assert check_solution(inst, greedy) == []


class TestPathRelaxation:
    def test_single_period_by_hand(self):
        inst = Instance(T=1, d=[5], p=[1], f=[2], h=[1], cap=[10])
        lp = PathRelaxation(inst).solve({})
        assert lp.objective == pytest.approx(6.0)
        assert lp.y[0] == pytest.approx(0.5)

    def test_zero_capacity_period_fixed_open_pays_setup(self):
        inst = Instance(T=2, d=[0, 3], p=[1, 1], f=[7, 2], h=[0, 0], cap=[0, 6])
        lp = PathRelaxation(inst).solve({1: 1})
        assert np.array_equal(lp.y, [1.0, 0.5])
        assert lp.objective == pytest.approx(7 + 3 + 1)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_lp_workspace(self, data):
        inst = data.draw(edge_instances())
        fixed = data.draw(partial_fixings(inst))
        closed = PathRelaxation(inst).solve(fixed)
        lp = LpWorkspace(inst).solve(fixed)
        assert closed.status == lp.status
        if lp.status != LP_OPTIMAL:
            return
        assert closed.objective == pytest.approx(lp.objective, rel=1e-9, abs=1e-9)
        # The closed-form point is itself feasible for the relaxation.
        assert np.allclose(inst.s0 + np.cumsum(closed.x) - np.cumsum(inst.d), closed.s)
        assert np.all(closed.s >= -1e-9) and np.all(closed.x >= 0)
        assert np.all(closed.x <= closed.y * inst.cap + 1e-9)
        assert np.all((closed.y >= 0) & (closed.y <= 1))
        assert all(closed.y[t - 1] == v for t, v in fixed.items())


class TestBruteForce:
    def test_e1(self, e1):
        sol = brute_force(e1)
        # By hand: (1,1,1) lot-for-lot costs 21, (1,1,0) costs 17, patterns
        # closing period 1 or 2 are infeasible since cap 4 < d1+d2 = 5.
        assert sol.objective == 17.0
        assert np.array_equal(sol.y, [1, 1, 0])

    def test_zero_demand(self):
        inst = Instance(T=4, d=[0, 0, 0, 0], p=[1] * 4, f=[5] * 4, h=[1] * 4, cap=[3] * 4)
        sol = brute_force(inst)
        assert sol.objective == 0.0
        assert np.array_equal(sol.y, [0, 0, 0, 0])

    def test_infeasible_instance(self, e1):
        tight = Instance(T=3, d=[2, 3, 1], p=[1] * 3, f=[5] * 3, h=[1] * 3, cap=[1, 1, 1])
        assert brute_force(tight).status == "Infeasible"

    def test_horizon_guard(self):
        inst = Instance(T=25, d=[1] * 25, p=[1] * 25, f=[1] * 25, h=[1] * 25, cap=[2] * 25)
        with pytest.raises(ResourceLimitError):
            brute_force(inst)


class TestSolveDp:
    def test_e1(self, e1):
        sol = solve_dp(e1)
        assert sol.objective == 17.0
        assert check_solution(e1, sol) == []

    def test_single_period(self):
        inst = Instance(T=1, d=[5], p=[1], f=[2], h=[1], cap=[10])
        assert solve_dp(inst).objective == 7.0

    def test_infeasible(self):
        tight = Instance(T=3, d=[2, 3, 1], p=[1] * 3, f=[5] * 3, h=[1] * 3, cap=[1, 1, 1])
        assert solve_dp(tight).status == "Infeasible"

    def test_state_budget(self):
        big = Instance(
            T=5, d=[20_000_000] * 5, p=[1] * 5, f=[1] * 5, h=[1] * 5, cap=[40_000_000] * 5
        )
        with pytest.raises(ResourceLimitError):
            solve_dp(big)

    def test_ties_carry_the_least_inventory(self):
        # Producing in period 1 or in period 2 costs the same; walking back
        # from the end, the DP carries no stock into period 2.
        inst = Instance(T=2, d=[0, 1], p=[0, 0], f=[1, 1], h=[0, 0], cap=[1, 1])
        sol = solve_dp(inst)
        assert np.array_equal(sol.y, [0, 1])
        assert np.array_equal(sol.s, [0, 0])
        assert sol.objective == brute_force(inst).objective == 1.0

    @pytest.mark.parametrize("T", [30, 60, 90])
    def test_paper_scale_matches_milp(self, T):
        for i in range(2):
            inst = generate_instance(GenParams(c_ratio=3, f_ratio=100, T=T), i)
            sol = solve_dp(inst)
            assert sol.status == "Optimal"
            assert sol.objective == pytest.approx(milp_objective(inst), rel=1e-9)
            assert check_solution(inst, sol) == []

    def test_initial_inventory(self):
        inst = Instance(T=2, d=[3, 2], p=[1, 1], f=[10, 10], h=[1, 1], cap=[5, 5], s0=4)
        sol = solve_dp(inst)
        assert brute_force(inst).objective == pytest.approx(sol.objective)
        assert check_solution(inst, sol) == []


class TestDpParity:
    """``solve_dp`` against ``reference_dp``: equal, not approximately equal."""

    @settings(max_examples=300, deadline=None)
    @given(inst=edge_instances())
    def test_edge_instances(self, inst):
        assert_same_as_reference(inst)

    @settings(max_examples=60, deadline=None)
    @given(inst=desk_instances(max_T=30))
    def test_desk_instances(self, inst):
        assert_same_as_reference(inst)

    def test_paper_scale(self):
        params = GenParams(c_ratio=3, f_ratio=100, T=90, demand_range=(1, 600), seed=11)
        for i in range(2):
            assert_same_as_reference(generate_instance(params, i))

    def test_state_budget_in_both(self):
        big = Instance(
            T=5, d=[20_000_000] * 5, p=[1] * 5, f=[1] * 5, h=[1] * 5, cap=[40_000_000] * 5
        )
        for solver in (solve_dp, reference_dp):
            with pytest.raises(ResourceLimitError):
                solver(big)


class TestBranchAndBound:
    def test_e1(self, e1):
        sol = branch_and_bound(e1)
        assert sol.status == "Optimal"
        assert sol.objective == pytest.approx(17.0)
        assert np.array_equal(sol.y, [1, 1, 0])
        assert sol.stats.mip_gap == 0.0

    def test_neutral_fixing(self, e1):
        sol = branch_and_bound(e1, FixPlan({3: 0}))
        assert sol.objective == pytest.approx(17.0)

    def test_infeasible_fixing(self, e1):
        assert branch_and_bound(e1, FixPlan({2: 0})).status == "Infeasible"

    def test_warm_incumbent_prunes(self, e1):
        cold = branch_and_bound(e1)
        warm = branch_and_bound(e1, opts=BnbOptions(incumbent_y=(1, 1, 0)))
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.stats.nodes_explored <= cold.stats.nodes_explored

    def test_incumbent_that_breaks_the_plan_is_rejected(self):
        inst = generate_instance(desk_params(3, 100.0, T=10, seed=3), 0)
        free = branch_and_bound(inst)
        plan = FixPlan({10: 0})
        assert free.y[9] == 1
        assert branch_and_bound(inst, plan).objective == 1078.0
        with pytest.raises(ValidationError, match="period 10"):
            branch_and_bound(inst, plan, BnbOptions(incumbent_y=tuple(free.y.tolist())))

    @pytest.mark.parametrize(
        "incumbent, match",
        [((1, 1), "length"), ((1, 1, 0, 1), "length"), ((1, 2, 0), "0 or 1"), ((1, 0.5, 0), "0 or 1")],
    )
    def test_malformed_incumbent_is_rejected(self, e1, incumbent, match):
        with pytest.raises(ValidationError, match=match):
            branch_and_bound(e1, opts=BnbOptions(incumbent_y=incumbent))

    def test_time_limit_keeps_incumbent(self):
        rng = np.random.default_rng(77)
        inst = Instance(
            T=14,
            d=rng.integers(1, 60, 14),
            p=rng.integers(1, 5, 14),
            f=[100] * 14,
            h=[1] * 14,
            cap=rng.integers(70, 130, 14),
        )
        sol = branch_and_bound(inst, opts=BnbOptions(time_limit=0.0))
        assert sol.status == "TimeLimit"
        assert np.isfinite(sol.objective)
        assert sol.stats.mip_gap is not None and sol.stats.mip_gap >= 0

    def test_full_plan_fast_path(self, e1):
        sol = branch_and_bound(e1, FixPlan({1: 1, 2: 1, 3: 0}))
        assert sol.objective == pytest.approx(17.0)

    # A NaN gap_tol turned pruning off; a negative time limit stopped at once.
    @pytest.mark.parametrize("field,value", [
        ("time_limit", float("nan")), ("time_limit", -1.0),
        ("gap_tol", float("nan")), ("gap_tol", -1e-9),
    ])
    def test_bad_limits_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            BnbOptions(**{field: value})

    def test_zero_and_infinite_limits_accepted(self):
        BnbOptions(time_limit=0.0, gap_tol=0.0)
        BnbOptions(time_limit=float("inf"))


class TestOracleAgreement:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_three_way(self, seed):
        inst = random_small_instance(np.random.default_rng(seed))
        sols = {name: solve(name, inst) for name in SOLVERS}
        statuses = {sol.status for sol in sols.values()}
        if "Infeasible" in statuses:
            assert statuses == {"Infeasible"}
        else:
            for name, sol in sols.items():
                assert sol.objective == pytest.approx(sols["brute"].objective, rel=1e-6), name

    def test_unknown_name_is_rejected(self, e1):
        with pytest.raises(ValidationError):
            solve("nope", e1)


class TestSolveCutRounds:
    """``BnbOptions.ls_rounds`` is the one knob for cut rounds, and it names the backend."""

    @pytest.fixture
    def inst(self):
        # One round stops at 18 cuts, three or more find 24.
        return generate_instance(desk_params(3, 100.0, T=20, seed=5), 0)

    def test_lscuts_runs_the_rounds_opts_ask_for(self, inst):
        one = solve("lscuts", inst, BnbOptions(ls_rounds=1)).stats
        assert (one.cuts_added, one.cut_stop) == (18, "rounds")
        default = solve("lscuts", inst).stats
        assert (default.cuts_added, default.cut_stop) == (24, "no-cut")

    @pytest.mark.parametrize("name,rounds", [("bnb", 3), ("lscuts", 0)])
    def test_rounds_the_backend_cannot_run_are_rejected(self, inst, name, rounds):
        with pytest.raises(ValidationError, match="ls_rounds"):
            solve(name, inst, BnbOptions(ls_rounds=rounds))


class TestRootBound:
    """``SolveStats.root_bound`` is the objective of the root relaxation B&B searched from."""

    @pytest.fixture(scope="class")
    def draws(self) -> dict:
        # 30 draws per capacity ratio at T=15, f=100, d in [1, 60], seed 11.
        return {c: [generate_instance(GenParams(c, 100.0, T=15, demand_range=(1, 60), seed=11), i)
                    for i in range(30)] for c in (3, 5, 8)}

    def test_bnb_root_is_the_lp_relaxation_and_cuts_only_tighten_it(self, draws):
        mean_gap = {}
        for c, instances in draws.items():
            gaps = []
            for inst in instances:
                bnb, cuts = solve("bnb", inst), solve("lscuts", inst)
                lp = LpWorkspace(inst).solve()
                assert bnb.stats.root_bound == pytest.approx(lp.objective, rel=1e-9)
                assert cuts.stats.root_bound >= bnb.stats.root_bound - 1e-9
                for sol in (bnb, cuts):
                    assert sol.status == STATUS_OPTIMAL
                    assert sol.stats.root_bound <= sol.objective + 1e-9 * sol.objective
                gaps.append(100.0 * (bnb.objective - bnb.stats.root_bound) / bnb.objective)
            mean_gap[c] = sum(gaps) / len(gaps)
        # The mean root integrality gaps per capacity ratio on these draws.
        assert mean_gap == pytest.approx({3: 12.63, 5: 18.96, 8: 24.84}, abs=0.005)

    def test_none_without_a_root_relaxation(self, e1):
        assert solve("dp", e1).stats.root_bound is None
        assert solve("brute", e1).stats.root_bound is None
        # A flow-infeasible plan and a plan that pins every setup solve no relaxation.
        assert branch_and_bound(e1, FixPlan({2: 0})).stats.root_bound is None
        full = branch_and_bound(e1, FixPlan({1: 1, 2: 1, 3: 0}))
        assert full.objective == 17.0 and full.stats.root_bound is None
        assert branch_and_bound(e1).stats.root_bound <= 17.0


class TestCutFreeBranchAndBound:
    @settings(max_examples=150, deadline=None)
    @given(inst=edge_instances())
    def test_matches_brute_force_and_dp(self, inst):
        # Every backend in the solver table, the (l,S) cut loop included.
        sols = {name: solve(name, inst) for name in SOLVERS}
        bf = sols["brute"]
        for name, sol in sols.items():
            assert sol.status == bf.status, name
            if bf.status == "Optimal":
                assert sol.objective == pytest.approx(bf.objective, rel=1e-9, abs=1e-9), name
                assert check_solution(inst, sol) == [], name
            if name in ("dp", "brute"):
                assert sol.stats.root_bound is None, name
            elif sol.status == "Optimal":
                assert sol.stats.root_bound <= sol.objective + 1e-9 * max(1.0, sol.objective), name
        bb = sols["bnb"]
        if bb.status == "Optimal":
            assert bb.stats.lp_solves == bb.stats.nodes_explored

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_partial_plan_matches_enumeration(self, data):
        inst = data.draw(edge_instances())
        fixed = data.draw(partial_fixings(inst))
        best = None
        for pattern in itertools.product((0, 1), repeat=inst.T):
            if any(pattern[t - 1] != v for t, v in fixed.items()):
                continue
            sol = solve_for_pattern(inst, pattern)
            if sol is not None and (best is None or sol.objective < best):
                best = sol.objective
        bb = branch_and_bound(inst, FixPlan(fixed))
        if best is None:
            assert bb.status == "Infeasible"
        else:
            assert bb.status == "Optimal"
            assert bb.objective == pytest.approx(best, rel=1e-9, abs=1e-9)
            assert all(bb.y[t - 1] == v for t, v in fixed.items())
