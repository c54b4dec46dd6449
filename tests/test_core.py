import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotsize import (
    FixPlan,
    Instance,
    Solution,
    check_solution,
    flow_feasible,
    objective_value,
)
from lotsize.errors import DimensionError, ValidationError

from conftest import random_small_instance


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
