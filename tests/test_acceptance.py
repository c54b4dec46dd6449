"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The desk-scale dataset and the trained model are session fixtures shared by
several criteria; building them takes a few minutes of CPU. Run with
``pytest tests/test_acceptance.py -v -s`` to watch the per-criterion lines.
"""

import time

import numpy as np
import pytest

from lotsize import FixPlan, GenParams, desk_params, flow_feasible, generate_instance
from lotsize.baselines import LogisticConfig, logistic_fit, logistic_predict
from lotsize.nn import (
    BiLstmModel,
    TrainConfig,
    instance_features,
    pairs_to_arrays,
    predict_instance,
    standardize_fit,
    train,
)
from lotsize.pipeline import (
    MODE_HARD,
    MODE_SOFT,
    MODE_WARM,
    EvalRecord,
    PredictionVector,
    compute_metrics,
    concat_predictions,
    evaluate_instance,
    select_predictions,
)
from lotsize.report import summarize
from lotsize.solvers import (
    BnbOptions,
    LpWorkspace,
    branch_and_bound,
    brute_force,
    root_cut_loop,
    solve_dp,
)

from test_gradcheck import finite_difference_check

EVAL_LEVELS = (25.0, 50.0, 75.0, 85.0, 90.0, 95.0, 100.0)
# The stack of ``lotsize evaluate``'s defaults, for the plain and the ML solves.
EVAL_OPTS = BnbOptions(ls_rounds=3)
TRAIN_BUDGET_CPU_SECONDS = 20 * 60


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _adjacent_decreases(values, tol) -> int:
    return sum(1 for a, b in zip(values, values[1:]) if b < a - tol)


@pytest.fixture(scope="session")
def desk_dataset():
    """2000/500/500 split of solved T=20 instances (c=3, f=100, d in [1,60])."""
    params = desk_params(3, 100.0, T=20, seed=777)
    pairs = [(inst, solve_dp(inst)) for inst in (generate_instance(params, i) for i in range(3000))]
    return {
        "params": params,
        "train": pairs[:2000],
        "val": pairs[2000:2500],
        "test": pairs[2500:],
    }


@pytest.fixture(scope="session")
def trained(desk_dataset):
    standardizer = standardize_fit(
        [instance_features(inst) for inst, _ in desk_dataset["train"]]
    )
    model = BiLstmModel.initialize(
        layer_count=3, width=40, dropout_rate=0.3, seed=0, standardizer=standardizer
    )
    config = TrainConfig(
        learning_rate=0.01, batch_size=64, max_epochs=30, early_stop_patience=8, seed=0
    )
    cpu_start = time.process_time()
    result = train(
        model,
        pairs_to_arrays(desk_dataset["train"], standardizer),
        pairs_to_arrays(desk_dataset["val"], standardizer),
        config,
    )
    cpu_seconds = time.process_time() - cpu_start
    return {
        "model": result.model,
        "cpu_seconds": cpu_seconds,
        "best_val_accuracy": max(e.val_accuracy for e in result.history),
    }


@pytest.fixture(scope="session")
def test_predictions(desk_dataset, trained):
    """One prediction per test instance, with its generation time."""
    preds = []
    for inst, _ in desk_dataset["test"]:
        t0 = time.perf_counter()
        probs = predict_instance(trained["model"], inst)
        preds.append(PredictionVector(probs=probs, predict_seconds=time.perf_counter() - t0))
    return preds


@pytest.fixture(scope="session")
def hard_fix_records(desk_dataset, test_predictions):
    """Per test instance, its hard-fix records at every evaluation level."""
    return [
        evaluate_instance(inst, pred, [MODE_HARD], EVAL_LEVELS, EVAL_OPTS, f"test-{i:06d}")
        for i, ((inst, _), pred) in enumerate(zip(desk_dataset["test"], test_predictions))
    ]


def test_criterion_1_oracle_triangle():
    t0 = time.perf_counter()
    worst_rel = 0.0
    status_splits = 0
    for i in range(500):
        params = GenParams(
            c_ratio=[3, 5, 8][i % 3],
            f_ratio=[10.0, 100.0][i % 2],
            T=2 + (i * 7) % 11,
            demand_range=(0, 10),
            seed=4242,
        )
        inst = generate_instance(params, i)
        bf = brute_force(inst)
        dp = solve_dp(inst)
        bb = branch_and_bound(inst)
        if len({bf.status, dp.status, bb.status}) != 1:
            status_splits += 1
            continue
        if bf.status == "Optimal":
            ref = bf.objective
            rel = max(abs(dp.objective - ref), abs(bb.objective - ref)) / max(1.0, abs(ref))
            worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    ok = status_splits == 0 and worst_rel < 1e-6 and elapsed < 120.0
    _report(
        1,
        ok,
        f"500 instances, status splits {status_splits}, worst rel diff {worst_rel:.2e}, "
        f"{elapsed:.0f}s (budget 120s)",
    )


def test_criterion_2_optimal_fix_zero_gap(desk_dataset):
    worst_rel = 0.0
    failures = 0
    for inst, oracle in desk_dataset["test"][:100]:
        pred = PredictionVector(probs=oracle.y.astype(np.float64))
        [record] = evaluate_instance(inst, pred, [MODE_HARD], [100.0], EVAL_OPTS)
        if record.status == "Infeasible" or record.z_tilde is None:
            failures += 1
            continue
        worst_rel = max(worst_rel, abs(record.z_tilde - oracle.objective) / oracle.objective)
    ok = failures == 0 and worst_rel <= 1e-9
    _report(2, ok, f"100 instances, {failures} infeasible, worst rel gap {worst_rel:.2e}")


def test_criterion_3_fixing_monotonicity(desk_dataset, test_predictions, hard_fix_records):
    levels = (0.0,) + EVAL_LEVELS
    nested_ok = True
    feas_monotone_ok = True
    obj_monotone_ok = True
    gap_ok = True
    for i in range(100):
        inst, _ = desk_dataset["test"][i]
        pred = test_predictions[i]
        prev_entries: dict = {}
        for lv in levels:
            plan = select_predictions(pred, lv, inst)
            if not set(prev_entries.items()) <= set(plan.entries.items()):
                nested_ok = False
            prev_entries = plan.entries
        row = evaluate_instance(inst, pred, [MODE_HARD], [0.0], EVAL_OPTS) + hard_fix_records[i]
        feasible_flags = [r.status != "Infeasible" for r in row]
        for a, b in zip(feasible_flags, feasible_flags[1:]):
            if b and not a:
                feas_monotone_ok = False
        objectives = [r.z_tilde for r in row if r.z_tilde is not None]
        for a, b in zip(objectives, objectives[1:]):
            if b < a - 1e-6 * max(1.0, abs(a)):
                obj_monotone_ok = False
        for r in row:
            if r.optgap_pct is not None and r.optgap_pct < -1e-6:
                gap_ok = False
    ok = nested_ok and feas_monotone_ok and obj_monotone_ok and gap_ok
    _report(
        3,
        ok,
        f"100 instances x {len(levels)} levels: nested={nested_ok}, "
        f"feasibility monotone={feas_monotone_ok}, objective monotone={obj_monotone_ok}, "
        f"optgap nonnegative={gap_ok}",
    )


def test_criterion_4_cut_validity_and_bound():
    params = desk_params(3, 100.0, T=10, seed=999)
    violations = 0
    bound_regressions = 0
    strict_improvements = 0
    for i in range(100):
        inst = generate_instance(params, i)
        pool, bounds, _ = root_cut_loop(inst, rounds=5)
        opt = branch_and_bound(inst)
        violations += int(np.sum(pool @ np.concatenate([opt.x, opt.s, opt.y]) > 1e-6))
        plain_bound = bounds[0]
        workspace = LpWorkspace(inst)
        workspace.add_cuts(pool)
        final_bound = workspace.solve({}).objective
        if final_bound < plain_bound - 1e-7:
            bound_regressions += 1
        if final_bound > plain_bound + 1e-7:
            strict_improvements += 1
    ok = violations == 0 and bound_regressions == 0 and strict_improvements >= 1
    _report(
        4,
        ok,
        f"100 instances: cut violations {violations}, bound regressions {bound_regressions}, "
        f"strict improvements {strict_improvements}",
    )


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(20):
        layers = int(rng.integers(1, 3))
        width = int(rng.integers(2, 6))
        T = int(rng.integers(2, 7))
        seed = int(rng.integers(0, 10_000))
        model = BiLstmModel.initialize(
            layer_count=layers, width=width, dropout_rate=0.0, input_size=4, seed=seed
        )
        X = rng.normal(size=(2, T, 4))
        Y = rng.integers(0, 2, size=(2, T)).astype(float)
        worst = max(worst, finite_difference_check(model, X, Y, step=1e-5))
    ok = worst < 1e-4
    _report(5, ok, f"20 models, max relative gradient error {worst:.2e} (bound 1e-4)")


def test_criterion_6_metric_arithmetic():
    timing = [
        EvalRecord(
            instance_id=str(i), mode="hard", level_pct=50.0, status="Optimal",
            z_star=100.0, z_tilde=100.0, time_plain_s=22.6, time_ml_s=1.7,
            k_fixed=0, optgap_pct=0.0,
        )
        for i in range(10)
    ]
    report = compute_metrics(timing)
    timeimp_ok = report.timeimp == pytest.approx(22.6 / 1.7) and abs(report.timeimp - 13.3) < 0.01
    counts = [
        EvalRecord(
            instance_id=str(i), mode="hard", level_pct=100.0,
            status="Infeasible" if i < 290 else "Optimal",
            z_star=100.0, z_tilde=None if i < 290 else 100.0,
            time_plain_s=1.0, time_ml_s=0.5, k_fixed=0,
            optgap_pct=None if i < 290 else 0.0,
        )
        for i in range(20_000)
    ]
    inf_ok = compute_metrics(counts).inf_pct == 1.45
    ok = timeimp_ok and inf_ok
    _report(
        6,
        ok,
        f"timeimp {report.timeimp:.4f} (expect 13.2941), inf {compute_metrics(counts).inf_pct}%"
        " (expect 1.45 exactly)",
    )


def test_criterion_7_desk_scale_learning(desk_dataset, trained, hard_fix_records):
    acc = trained["best_val_accuracy"]
    cpu = trained["cpu_seconds"]
    budget_ok = cpu <= TRAIN_BUDGET_CPU_SECONDS
    acc_ok = acc >= 0.85
    reports = {r.level_pct: r for r in summarize(sum(hard_fix_records, []))}
    at50 = reports[50.0]
    level50_ok = at50.inf_pct <= 5.0 and at50.mean_optgap_pct <= 2.0
    inf_series = [reports[lv].inf_pct for lv in EVAL_LEVELS]
    gap_series = [
        reports[lv].mean_optgap_pct if reports[lv].mean_optgap_pct is not None else np.inf
        for lv in EVAL_LEVELS
    ]
    trend_ok = (
        _adjacent_decreases(inf_series, tol=1e-9) <= 1
        and _adjacent_decreases(gap_series, tol=1e-6) <= 1
    )
    ok = budget_ok and acc_ok and level50_ok and trend_ok
    _report(
        7,
        ok,
        f"train {cpu:.0f}s CPU (budget {TRAIN_BUDGET_CPU_SECONDS}), val acc {acc:.4f} "
        f"(bar 0.85), level-50 inf {at50.inf_pct:.2f}% optgap {at50.mean_optgap_pct:.4f}%, "
        f"inf series {['%.2f' % v for v in inf_series]}, "
        f"gap series {['%.4f' % v for v in gap_series]}",
    )


def test_criterion_8_generalization(trained):
    model = trained["model"]
    params = GenParams(c_ratio=3, f_ratio=100.0, T=80, demand_range=(1, 60), seed=888)
    instances = [generate_instance(params, i) for i in range(100)]

    blocks_ok = True
    for inst in instances[:10]:
        combined = concat_predictions(model, inst, 20)
        for start in range(0, 80, 20):
            from lotsize import Instance

            sub = Instance(
                T=20,
                d=inst.d[start : start + 20],
                p=inst.p[start : start + 20],
                f=inst.f[start : start + 20],
                h=inst.h[start : start + 20],
                cap=inst.cap[start : start + 20],
            )
            direct = predict_instance(model, sub)
            if not np.array_equal(combined.probs[start : start + 20], direct):
                blocks_ok = False

    infeasible = 0
    plans = []
    for inst in instances:
        pred = concat_predictions(model, inst, 20)
        plan = select_predictions(pred, 25.0, inst)
        plans.append(plan)
        if not flow_feasible(inst, plan):
            infeasible += 1
    # Spot-check that the flow test and the restricted solve agree on status;
    # root cuts keep the T=80 solves tractable without affecting status.
    agree_ok = True
    for inst, plan in zip(instances[:3], plans[:3]):
        sol = branch_and_bound(inst, plan, BnbOptions(ls_rounds=5))
        if (sol.status == "Infeasible") != (not flow_feasible(inst, plan)):
            agree_ok = False
    inf_pct = 100.0 * infeasible / len(instances)
    ok = blocks_ok and agree_ok and inf_pct <= 10.0
    _report(
        8,
        ok,
        f"chunk blocks exact={blocks_ok}, status agreement={agree_ok}, "
        f"T=80 inf at 25% level {inf_pct:.1f}% (bar 10%)",
    )


def test_criterion_9_baseline_ordering(desk_dataset, trained, test_predictions):
    logistic = logistic_fit(desk_dataset["train"], LogisticConfig(seed=0))

    def inf_rate(prob_rows):
        bad = 0
        for (inst, _), probs in zip(desk_dataset["test"], prob_rows):
            plan = select_predictions(PredictionVector(probs=np.asarray(probs)), 50.0, inst)
            if not flow_feasible(inst, plan):
                bad += 1
        return 100.0 * bad / len(desk_dataset["test"])

    lstm_inf = inf_rate([p.probs for p in test_predictions])
    logistic_inf = inf_rate(
        [logistic_predict(logistic, inst) for inst, _ in desk_dataset["test"]]
    )
    ok = lstm_inf <= logistic_inf
    _report(
        9, ok, f"level-50 inf%: sequence model {lstm_inf:.2f} vs logistic {logistic_inf:.2f}"
    )


def test_criterion_10_soft_warm_safety(desk_dataset, test_predictions):
    infeasible = 0
    worst_warm_gap = 0.0
    for (inst, _), pred in zip(desk_dataset["test"][:200], test_predictions):
        soft, warm = evaluate_instance(inst, pred, [MODE_SOFT, MODE_WARM], [], EVAL_OPTS)
        if soft.status == "Infeasible" or warm.status == "Infeasible":
            infeasible += 1
        if warm.optgap_pct is not None:
            worst_warm_gap = max(worst_warm_gap, abs(warm.optgap_pct))
    ok = infeasible == 0 and worst_warm_gap <= 1e-6
    _report(
        10,
        ok,
        f"200 instances: infeasible outcomes {infeasible}, "
        f"worst warm-start |optgap| {worst_warm_gap:.2e}%",
    )
