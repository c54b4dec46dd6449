import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lotsize import FixPlan, Instance, flow_feasible
from lotsize.errors import PartitionError, ValidationError
from lotsize.nn import BiLstmModel, Standardizer, bilstm_forward, instance_features
from lotsize.pipeline import (
    MODES,
    EvalOptions,
    EvalRecord,
    PredictionVector,
    compute_metrics,
    concat_predictions,
    evaluate_instance,
    repair_prediction,
    select_predictions,
    soft_fix_plan,
    solve_with_hard_fix,
)
from lotsize.solvers import BnbOptions, branch_and_bound, brute_force, solve_for_pattern

from conftest import generated_instances


def pred(probs):
    return PredictionVector(probs=np.array(probs, dtype=float))


class TestSelectPredictions:
    def test_two_thirds_level(self, e1):
        plan = select_predictions(pred([0.9, 0.2, 0.6]), 67.0, e1)
        assert plan.entries == {1: 1, 2: 0}

    def test_level_zero_empty(self, e1):
        assert len(select_predictions(pred([0.9, 0.2, 0.6]), 0.0, e1)) == 0

    def test_level_hundred_full(self, e1):
        plan = select_predictions(pred([0.9, 0.2, 0.6]), 100.0, e1)
        assert plan.entries == {1: 1, 2: 0, 3: 1}

    def test_tie_breaks_to_early_period(self, e1):
        plan = select_predictions(pred([0.7, 0.3, 0.9]), 34.0, e1)
        # confidences (0.7, 0.7, 0.9): k=1 picks period 3; k=2 adds period 1.
        assert plan.entries == {3: 1}
        plan2 = select_predictions(pred([0.7, 0.3, 0.9]), 67.0, e1)
        assert plan2.entries == {3: 1, 1: 1}

    def test_rejects_nan(self, e1):
        with pytest.raises(ValidationError):
            select_predictions(pred([0.5, np.nan, 0.5]), 50.0, e1)

    def test_rejects_out_of_range(self, e1):
        with pytest.raises(ValidationError):
            select_predictions(pred([1.2, 0.5, 0.5]), 50.0, e1)
        with pytest.raises(ValidationError):
            select_predictions(pred([0.5, 0.5, 0.5]), 120.0, e1)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_plans_nest_across_levels(self, data):
        T = data.draw(st.integers(1, 12))
        probs = data.draw(
            st.lists(
                st.floats(0.0, 1.0, allow_nan=False), min_size=T, max_size=T
            )
        )
        inst = Instance(T=T, d=[1] * T, p=[1] * T, f=[1] * T, h=[1] * T, cap=[2] * T)
        levels = sorted(data.draw(st.lists(st.floats(0, 100), min_size=2, max_size=5)))
        prev: dict = {}
        for level in levels:
            plan = select_predictions(pred(probs), level, inst)
            assert set(prev.items()) <= set(plan.entries.items())
            prev = plan.entries


class TestHardFix:
    def test_optimal_prediction_zero_gap(self, e1):
        [record] = evaluate_instance(e1, pred([0.9, 0.8, 0.1]), ["hard"], [100])
        assert record.status == "Optimal"
        assert record.z_star == pytest.approx(17.0)
        assert record.optgap_pct == pytest.approx(0.0, abs=1e-9)

    def test_forced_closure_infeasible(self, e1):
        [record] = evaluate_instance(e1, pred([0.9, 0.05, 0.6]), ["hard"], [67])
        assert record.status == "Infeasible"
        assert record.z_tilde is None
        assert record.optgap_pct is None

    def test_level_zero_matches_plain(self, e1):
        [record] = evaluate_instance(e1, pred([0.1, 0.1, 0.9]), ["hard"], [0])
        assert record.k_fixed == 0
        assert record.z_tilde == pytest.approx(record.z_star)

    def test_baseline_passed_through(self, e1):
        baseline = brute_force(e1)
        record = solve_with_hard_fix(
            e1, pred([0.9, 0.8, 0.1]), 50.0, EvalOptions(baseline=baseline, instance_id="x")
        )
        assert record.instance_id == "x"
        assert record.z_star == pytest.approx(17.0)

    def test_baseline_is_required(self):
        # The plain solve is the caller's: no record re-solves it.
        with pytest.raises(TypeError):
            EvalOptions(ls_rounds=3)


class TestSoftFix:
    def test_progressive_unfix_trace(self, e1):
        # Full plan {1:1, 2:0, 3:0} is flow-infeasible; the lower-confidence
        # closed period 3 drops first, still infeasible, then period 2.
        plan = soft_fix_plan(e1, pred([0.9, 0.1, 0.2]))
        assert plan.entries == {1: 1}
        [record] = evaluate_instance(e1, pred([0.9, 0.1, 0.2]), ["soft"], [])
        assert record.status == "Optimal"
        assert record.z_tilde == pytest.approx(17.0)
        assert record.optgap_pct == pytest.approx(0.0, abs=1e-9)

    def test_no_zero_fixes_equals_hard_full(self, e1):
        probs = [0.9, 0.8, 0.7]
        soft, hard = evaluate_instance(e1, pred(probs), ["soft", "hard"], [100])
        assert soft.status == hard.status
        if soft.z_tilde is not None:
            assert soft.z_tilde == pytest.approx(hard.z_tilde)

    def test_optimal_prediction(self, e1):
        [record] = evaluate_instance(e1, pred([0.9, 0.8, 0.1]), ["soft"], [])
        assert record.optgap_pct == pytest.approx(0.0, abs=1e-9)

    def test_never_infeasible_on_generated(self):
        for inst in generated_instances(10, seed=51, T=8):
            rng = np.random.default_rng(int(inst.d.sum()))
            [record] = evaluate_instance(inst, pred(rng.random(inst.T)), ["soft"], [])
            assert record.status != "Infeasible"


class TestWarmStart:
    def test_exact_regardless_of_prediction(self, e1):
        [record] = evaluate_instance(e1, pred([0.1, 0.1, 0.9]), ["warm"], [])
        assert record.status == "Optimal"
        assert record.z_tilde == pytest.approx(17.0)
        assert record.optgap_pct == pytest.approx(0.0, abs=1e-9)

    def test_incumbent_upper_bounds_optimum(self, e1, rng):
        for _ in range(10):
            pattern = repair_prediction(e1, pred(rng.random(3)))
            assert solve_for_pattern(e1, pattern).objective >= 17.0 - 1e-9


class TestRepairPrediction:
    def test_deficit_opens_period_two(self, e1):
        assert repair_prediction(e1, pred([0.9, 0.1, 0.2])).tolist() == [1, 1, 0]

    def test_feasible_left_unchanged(self, e1):
        assert repair_prediction(e1, pred([0.9, 0.8, 0.1])).tolist() == [1, 1, 0]

    def test_all_closed_forced_open(self, e1):
        repaired = repair_prediction(e1, pred([0.1, 0.2, 0.3]))
        assert flow_feasible(e1, FixPlan({t + 1: v for t, v in enumerate(repaired)}))
        assert repaired[0] == 1 and repaired[1] == 1

    def test_output_always_feasible(self, rng):
        for inst in generated_instances(10, seed=52, T=8):
            repaired = repair_prediction(inst, pred(rng.random(inst.T)))
            assert flow_feasible(inst, FixPlan({t + 1: v for t, v in enumerate(repaired)}))


class TestEvaluateInstance:
    OPTS = BnbOptions(ls_rounds=3)

    @pytest.fixture
    def plans(self, monkeypatch) -> list:
        """The plan of every ``branch_and_bound`` call the pipeline makes, in order."""
        calls = []

        def counted(inst, plan=None, opts=None):
            calls.append(plan)
            return branch_and_bound(inst, plan, opts)

        monkeypatch.setattr("lotsize.pipeline.branch_and_bound", counted)
        return calls

    def test_one_plain_solve_then_one_per_record_in_mode_order(self, e1, plans):
        records = evaluate_instance(e1, pred([0.9, 0.8, 0.1]), ["warm", "hard", "soft"], [75, 25])
        assert [(r.mode, r.level_pct) for r in records] == [
            ("warm", 100.0), ("hard", 75.0), ("hard", 25.0), ("soft", 100.0),
        ]
        assert plans[0] is None and len(plans) == 1 + len(records)

    def test_records_share_the_plain_solve(self):
        for inst in generated_instances(4, seed=53, T=8):
            probs = np.random.default_rng(int(inst.d.sum())).random(inst.T)
            records = evaluate_instance(inst, pred(probs), MODES, [0, 50, 100], self.OPTS, "x")
            assert {r.z_star for r in records} == {branch_and_bound(inst, opts=self.OPTS).objective}
            assert len({r.time_plain_s for r in records}) == 1
            assert {r.instance_id for r in records} == {"x"}

    @pytest.mark.parametrize("modes,levels", [
        (["hard", "cold"], [50]), ([], [50]), (["soft", "hard"], []), (["hard"], [50, 120]),
    ], ids=["unknown-mode", "no-mode", "hard-without-level", "level-120"])
    def test_bad_grid_raises_before_any_solve(self, e1, plans, modes, levels):
        with pytest.raises(ValidationError):
            evaluate_instance(e1, pred([0.9, 0.1, 0.2]), modes, levels)
        assert plans == []


class TestConcatPredictions:
    def _model(self):
        std = Standardizer(
            mean=np.array([2.0, 50.0, 30.0, 10.0]), std=np.array([1.0, 10.0, 5.0, 3.0])
        )
        return BiLstmModel.initialize(
            layer_count=2, width=5, dropout_rate=0.0, input_size=4, seed=61, standardizer=std
        )

    def _long_instance(self, T=12):
        rng = np.random.default_rng(62)
        return Instance(
            T=T,
            d=rng.integers(1, 20, T),
            p=rng.integers(1, 5, T),
            f=rng.integers(40, 60, T),
            h=[1] * T,
            cap=rng.integers(25, 40, T),
        )

    def test_chunks_match_per_chunk_forward(self):
        model = self._model()
        inst = self._long_instance(12)
        combined = concat_predictions(model, inst, 4)
        assert combined.probs.shape == (12,)
        for start in range(0, 12, 4):
            sub = Instance(
                T=4,
                d=inst.d[start : start + 4],
                p=inst.p[start : start + 4],
                f=inst.f[start : start + 4],
                h=inst.h[start : start + 4],
                cap=inst.cap[start : start + 4],
            )
            feats = model.standardizer.transform(instance_features(sub))
            assert np.array_equal(combined.probs[start : start + 4], bilstm_forward(model, feats))

    def test_single_chunk_identity(self):
        model = self._model()
        inst = self._long_instance(8)
        one = concat_predictions(model, inst, 8)
        feats = model.standardizer.transform(instance_features(inst))
        assert np.array_equal(one.probs, bilstm_forward(model, feats))

    def test_partition_error(self):
        model = self._model()
        inst = self._long_instance(10)
        with pytest.raises(PartitionError):
            concat_predictions(model, inst, 4)


def make_record(status="Optimal", z_star=100.0, z_tilde=100.0, tp=1.0, tm=0.5, level=50.0):
    gap = None
    if status != "Infeasible" and z_star:
        gap = 100.0 * (z_tilde - z_star) / z_star
    return EvalRecord(
        instance_id="i",
        mode="hard",
        level_pct=level,
        status=status,
        z_star=z_star,
        z_tilde=None if status == "Infeasible" else z_tilde,
        time_plain_s=tp,
        time_ml_s=tm,
        k_fixed=3,
        optgap_pct=gap,
    )


class TestComputeMetrics:
    def test_benchmark_scale_arithmetic(self):
        records = [make_record(tp=22.6, tm=1.7) for _ in range(4)]
        report = compute_metrics(records)
        assert report.timeimp == pytest.approx(22.6 / 1.7)
        assert report.timeimp == pytest.approx(13.3, abs=0.01)
        assert report.timegain_pct == pytest.approx(100 * (22.6 - 1.7) / 22.6)

    def test_infeasibility_share(self):
        records = [make_record() for _ in range(19710)] + [
            make_record(status="Infeasible") for _ in range(290)
        ]
        assert compute_metrics(records).inf_pct == pytest.approx(1.45)

    def test_zero_gap_case(self):
        records = [make_record(z_tilde=100.0) for _ in range(5)]
        assert compute_metrics(records).mean_optgap_pct == 0.0

    def test_infeasible_excluded_from_time_and_gap(self):
        records = [
            make_record(tm=1.0, z_tilde=110.0),
            make_record(status="Infeasible", tm=99.0),
        ]
        report = compute_metrics(records)
        assert report.mean_time_ml == pytest.approx(1.0)
        assert report.mean_optgap_pct == pytest.approx(10.0)
        assert report.m == 2 and report.m_infeasible == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics([])

    def test_mixed_groups_rejected(self):
        with pytest.raises(ValidationError):
            compute_metrics([make_record(level=50.0), make_record(level=75.0)])
