import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lotsize import (
    FixPlan,
    Instance,
    Solution,
    check_solution,
    flow_feasible,
    objective_value,
)
from lotsize.core import FEAS_TOL, Violation
from lotsize.errors import DimensionError, ValidationError
from lotsize.solvers import solve_dp

from conftest import edge_instances, random_small_instance


def feasible_e1_solution(e1):
    return Solution(x=[2, 4, 0], s=[0, 1, 0], y=[1, 1, 0], objective=17.0, status="Optimal")


class TestObjectiveValue:
    def test_hand_computed(self, e1):
        assert objective_value(e1, [2, 4, 0], [1, 1, 0], [0, 1, 0]) == 17

    def test_zero_vectors(self, e1):
        assert objective_value(e1, [0, 0, 0], [0, 0, 0], [0, 0, 0]) == 0

    def test_lot_for_lot(self, e1):
        assert objective_value(e1, [2, 3, 1], [1, 1, 1], [0, 0, 0]) == 21

    def test_length_mismatch(self, e1):
        with pytest.raises(DimensionError):
            objective_value(e1, [2, 4], [1, 1, 0], [0, 1, 0])


def reference_check(inst: Instance, sol: Solution, tol: float = FEAS_TOL) -> list[Violation]:
    """``check_solution`` as a loop over periods, one test at a time."""
    violations = []
    x, s, y = sol.x, sol.s, sol.y
    implied = inst.s0 + np.cumsum(x) - np.cumsum(inst.d)
    for t in range(inst.T):
        if abs(implied[t] - s[t]) > tol:
            violations.append(
                Violation("flow", t + 1, f"reported s={s[t]:.6g}, implied {implied[t]:.6g}")
            )
        if x[t] > y[t] * inst.cap[t] + tol:
            violations.append(
                Violation("capacity", t + 1, f"x={x[t]:.6g} > y*cap={y[t] * inst.cap[t]:.6g}")
            )
        if x[t] < -tol:
            violations.append(Violation("nonneg_x", t + 1, f"x={x[t]:.6g}"))
        if s[t] < -tol:
            violations.append(Violation("nonneg_s", t + 1, f"s={s[t]:.6g}"))
        if min(abs(y[t]), abs(y[t] - 1)) > tol:
            violations.append(Violation("binary", t + 1, f"y={y[t]!r}"))
    recomputed = objective_value(inst, x, y, s)
    if abs(recomputed - sol.objective) > tol * max(1.0, abs(recomputed)):
        violations.append(
            Violation("objective", None, f"reported {sol.objective:.9g} vs {recomputed:.9g}")
        )
    return violations


@st.composite
def perturbed_solutions(draw):
    """An instance and its DP plan with some entries moved off the feasible set."""
    inst = draw(edge_instances())
    base = solve_dp(inst)
    T = inst.T
    x, s, y = base.x.copy(), base.s.copy(), base.y.copy()
    delta = st.floats(-3, 3, allow_nan=False).filter(lambda v: abs(v) > 1e-3)
    for t in draw(st.lists(st.integers(0, T - 1), min_size=1, max_size=2 * T)):
        which = draw(st.sampled_from("xsy"))
        if which == "y":
            y[t] = draw(st.integers(-2, 3))
        else:
            vec = x if which == "x" else s
            vec[t] += draw(st.one_of(delta, st.integers(-3, 3)))
    objective = base.objective if base.status == "Optimal" else 0.0
    objective += draw(st.sampled_from([0.0, 0.5, 1e-7, 1e-4]))
    return inst, Solution(x=x, s=s, y=y, objective=objective, status="Optimal")


class TestCheckSolution:
    def test_feasible_solution_clean(self, e1):
        assert check_solution(e1, feasible_e1_solution(e1), tol=1e-9) == []

    def test_capacity_violation(self, e1):
        sol = Solution(x=[6, 0, 0], s=[4, 1, 0], y=[1, 0, 0], objective=16.0, status="Optimal")
        kinds = [v.kind for v in check_solution(e1, sol)]
        assert kinds == ["capacity"]

    def test_flow_violation(self, e1):
        sol = Solution(x=[2, 4, 0], s=[1, 1, 0], y=[1, 1, 0], objective=18.0, status="Optimal")
        violations = check_solution(e1, sol)
        assert [v.kind for v in violations] == ["flow"]
        assert violations[0].t == 1

    def test_objective_mismatch_reported(self, e1):
        sol = Solution(x=[2, 4, 0], s=[0, 1, 0], y=[1, 1, 0], objective=20.0, status="Optimal")
        assert [v.kind for v in check_solution(e1, sol)] == ["objective"]

    @settings(max_examples=300, deadline=None)
    @given(case=perturbed_solutions())
    def test_matches_period_loop(self, case):
        inst, sol = case
        expected = reference_check(inst, sol)
        assume(expected)
        assert check_solution(inst, sol) == expected


class TestFlowFeasible:
    def test_empty_plan(self, e1):
        assert flow_feasible(e1, FixPlan.empty())

    def test_closing_period_two(self, e1):
        assert not flow_feasible(e1, FixPlan({2: 0}))

    def test_closing_period_one(self, e1):
        assert not flow_feasible(e1, FixPlan({1: 0}))

    def test_open_fixing_is_neutral(self, e1):
        assert flow_feasible(e1, FixPlan({1: 1, 2: 1, 3: 1}))

    def test_plan_index_out_of_range(self, e1):
        with pytest.raises(ValidationError):
            flow_feasible(e1, FixPlan({4: 0}))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_monotone_in_zero_fixes(self, data):
        seed = data.draw(st.integers(0, 10_000))
        inst = random_small_instance(np.random.default_rng(seed))
        zeros = data.draw(
            st.lists(st.integers(1, inst.T), unique=True, min_size=0, max_size=inst.T)
        )
        subset_size = data.draw(st.integers(0, len(zeros)))
        subset = zeros[:subset_size]
        big = FixPlan({t: 0 for t in zeros})
        small = FixPlan({t: 0 for t in subset})
        if not flow_feasible(inst, small):
            assert not flow_feasible(inst, big)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), ones=st.lists(st.integers(1, 6), unique=True))
    def test_one_fixes_never_matter(self, seed, ones):
        inst = random_small_instance(np.random.default_rng(seed), T=6)
        base = flow_feasible(inst, FixPlan.empty())
        assert flow_feasible(inst, FixPlan({t: 1 for t in ones})) == base


class TestInstanceValidation:
    def test_wrong_length(self):
        with pytest.raises(DimensionError):
            Instance(T=3, d=[1, 2], p=[1, 1, 1], f=[1, 1, 1], h=[1, 1, 1], cap=[3, 3, 3])

    def test_negative_entries(self):
        with pytest.raises(ValidationError):
            Instance(T=2, d=[1, -2], p=[1, 1], f=[1, 1], h=[1, 1], cap=[3, 3])

    def test_zero_horizon(self):
        with pytest.raises(ValidationError):
            Instance(T=0, d=[], p=[], f=[], h=[], cap=[])

    def test_roundtrip_dict(self, e1):
        assert Instance.from_dict(e1.to_dict()) == e1

    @settings(max_examples=150, deadline=None)
    @given(inst=edge_instances(), meta=st.sampled_from([{}, {"instance_id": "train-3"}]))
    def test_to_dict_writes_the_same_json(self, inst, meta):
        # Dataset lines must not change by a byte: compare with the dicts
        # built element by element.
        inst = Instance.from_dict({**inst.to_dict(), "meta": meta})
        by_element = {
            "T": int(inst.T),
            "d": [int(v) for v in inst.d],
            "p": [float(v) for v in inst.p],
            "f": [float(v) for v in inst.f],
            "h": [float(v) for v in inst.h],
            "cap": [int(v) for v in inst.cap],
            "s0": int(inst.s0),
        }
        if meta:
            by_element["meta"] = dict(meta)
        assert json.dumps(inst.to_dict()) == json.dumps(by_element)
        sol = solve_dp(inst)
        assert json.dumps(sol.to_dict()) == json.dumps({
            "x": [float(v) for v in sol.x],
            "y": [int(v) for v in sol.y],
            "s": [float(v) for v in sol.s],
            "objective": float(sol.objective),
            "time": float(sol.stats.wall_time_seconds),
        })

    @pytest.mark.parametrize("field,value", [
        ("d", [2.5, 1]), ("cap", [3.7, 3]), ("s0", 1.5), ("d", [float("nan"), 1]), ("T", 2.5),
    ], ids=["d", "cap", "s0", "d-nan", "T"])
    def test_fractional_integer_data_rejected(self, field, value):
        data = dict(T=2, d=[2, 1], p=[1, 1], f=[1, 1], h=[1, 1], cap=[3, 3], s0=0)
        data[field] = value
        with pytest.raises(ValidationError):
            Instance(**data)
        with pytest.raises(ValidationError):
            Instance.from_dict(data)

    def test_integral_floats_accepted(self):
        inst = Instance(T=2.0, d=[2.0, 1.0], p=[1, 1], f=[1, 1], h=[1, 1], cap=[3.0, 3.0], s0=1.0)
        assert inst.d.tolist() == [2, 1] and inst.cap.tolist() == [3, 3] and inst.s0 == 1
        assert type(inst.T) is int and inst.T == 2


class TestFixPlan:
    def test_rejects_non_binary_value(self):
        with pytest.raises(ValidationError):
            FixPlan({1: 2})

    def test_rejects_zero_index(self):
        with pytest.raises(ValidationError):
            FixPlan({0: 1})
