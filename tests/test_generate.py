import json
import math

import numpy as np
import pytest

from lotsize import FixPlan, GenParams, flow_feasible, generate_dataset, generate_instance
from lotsize import generate
from lotsize.errors import DatasetError, GenerationError, ValidationError
from lotsize.generate import desk_params, split_counts
from lotsize.solvers import solve_dp


def round_half_up(x):
    return int(math.floor(x + 0.5))


class TestGenerateInstance:
    def test_capacity_bounds_track_realized_mean_demand(self):
        params = GenParams(c_ratio=3, f_ratio=1000.0, T=30, seed=1)
        for i in range(20):
            inst = generate_instance(params, i)
            d_bar = inst.d.mean()
            lo, hi = round_half_up(0.7 * 3 * d_bar), round_half_up(1.1 * 3 * d_bar)
            assert inst.cap.min() >= lo and inst.cap.max() <= hi

    def test_setup_cost_bounds(self):
        params = GenParams(c_ratio=5, f_ratio=1000.0, T=30, seed=2)
        for i in range(20):
            inst = generate_instance(params, i)
            assert inst.f.min() >= 900 and inst.f.max() <= 1100

    def test_demand_and_prod_cost_ranges(self):
        params = GenParams(c_ratio=3, f_ratio=100.0, T=50, seed=3)
        inst = generate_instance(params, 0)
        assert inst.d.min() >= 1 and inst.d.max() <= 600
        assert inst.p.min() >= 1 and inst.p.max() <= 5
        assert np.all(inst.h == 1.0)
        assert inst.s0 == 0

    def test_deterministic_per_draw(self):
        params = GenParams(c_ratio=3, f_ratio=100.0, T=12, seed=9)
        a = generate_instance(params, 7)
        b = generate_instance(params, 7)
        assert a == b

    def test_distinct_draws_differ(self):
        params = GenParams(c_ratio=3, f_ratio=100.0, T=12, seed=9)
        assert generate_instance(params, 0) != generate_instance(params, 1)

    def test_every_draw_is_flow_feasible(self):
        params = GenParams(c_ratio=3, f_ratio=100.0, T=15, demand_range=(1, 60), seed=4)
        for i in range(50):
            assert flow_feasible(generate_instance(params, i), FixPlan.empty())

    def test_redraw_budget_exhaustion(self, monkeypatch):
        # c=1 with heavy constant-ish demand is infeasible on most draws;
        # with a budget of 1 some draw index must fail.
        monkeypatch.setattr(generate, "REDRAW_BUDGET", 1)
        params = GenParams(c_ratio=1, f_ratio=10.0, T=40, demand_range=(550, 600), seed=0)
        with pytest.raises(GenerationError):
            for i in range(50):
                generate_instance(params, i)

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            GenParams(c_ratio=0, f_ratio=100.0, T=5)
        with pytest.raises(ValidationError):
            GenParams(c_ratio=3, f_ratio=0.0, T=5)
        with pytest.raises(ValidationError):
            GenParams(c_ratio=3, f_ratio=10.0, T=5, demand_range=(5, 2))

    @pytest.mark.parametrize("field,value", [
        ("T", 20.7), ("seed", 1.5), ("c_ratio", 3.9), ("demand_range", [1.5, 60]),
    ])
    def test_fractional_integer_params_rejected(self, field, value):
        data = {"c_ratio": 3, "f_ratio": 100.0, "T": 20, "demand_range": [1, 60], "seed": 1}
        data[field] = value
        with pytest.raises(ValidationError, match=field):
            GenParams.from_dict(data)

    def test_integral_float_params_accepted(self):
        data = {"c_ratio": 3.0, "f_ratio": 100.0, "T": 20.0, "demand_range": [1, 60], "seed": 1.0}
        params = GenParams.from_dict(data)
        assert (params.c_ratio, params.T, params.seed) == (3, 20, 1)
        assert all(type(v) is int for v in (params.c_ratio, params.T, params.seed))


class TestGenerateDataset:
    def test_split_fractions(self):
        params = desk_params(3, 100.0, T=10, seed=5)
        ds = generate_dataset(params, 100, solve_dp, oracle_name="dp")
        assert (len(ds.train), len(ds.validation), len(ds.test)) == (64, 16, 20)

    def test_split_counts_arithmetic(self):
        assert split_counts(100) == (64, 16, 20)
        assert split_counts(100_000) == (64_000, 16_000, 20_000)

    def test_minimum_size(self):
        params = desk_params(3, 100.0, T=10)
        with pytest.raises(ValidationError):
            generate_dataset(params, 5, solve_dp)

    def test_oracle_failure_is_reported(self):
        params = desk_params(3, 100.0, T=10, seed=6)

        def broken(inst):
            sol = solve_dp(inst)
            object.__setattr__(sol, "status", "TimeLimit")
            return sol

        with pytest.raises(DatasetError):
            generate_dataset(params, 10, broken)

    def test_regeneration_identical(self):
        params = desk_params(3, 100.0, T=10, seed=7)
        a = generate_dataset(params, 10, solve_dp)
        b = generate_dataset(params, 10, solve_dp)
        for (ia, sa), (ib, sb) in zip(a.train + a.validation + a.test, b.train + b.validation + b.test):
            assert ia == ib
            assert sa.objective == sb.objective
            assert np.array_equal(sa.y, sb.y)
