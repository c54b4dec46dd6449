"""The four benchmark workloads: label, exact, fixing and learn.

Every workload draws desk-config instances (c=3, f=100, T=20, d in [1, 60])
from the benchmark seed. ``setup`` builds the inputs (drawing, oracle
labelling, warm-up); ``op(i)`` runs the i-th unit of measured work, cycling
through the inputs. Ops time only the calls into the package and run the
correctness checks outside the timed region; a failed check counts against
``failed``.

Functions are looked up on their modules at call time so that the tracer,
which rebinds module attributes, sees every call.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import shutil
import statistics
import time
import zlib
from pathlib import Path

import numpy as np

import lotsize.core as core
import lotsize.dataio as dataio
import lotsize.generate as generate
import lotsize.nn as nn
import lotsize.pipeline as pipeline
import lotsize.solvers as solvers
import lotsize.solvers.bnb as bnb

from tracer import rebind, restore

C_RATIO = 3
F_RATIO = 100.0
REL_TOL = 1e-6
SOLVE_LS_ROUNDS = 5  # `solve --solver lscuts` default
EVAL_LS_ROUNDS = 3  # `evaluate` default, as in the acceptance suite
# Per-period error rate of the noisy oracle predictions, near the trained
# model's accuracy of about 0.9.
PREDICTION_ERROR = 0.1
GROUPS = tuple(f"hard{int(lv)}" for lv in pipeline.DEFAULT_LEVELS) + ("soft", "warm")

SIZES = {
    # ``learn`` is (train, validation, held-out) instance counts.
    "full": {"T": 20, "label_batch": 16, "exact_n": 40, "fixing_n": 64, "learn": (64, 16, 16)},
    "tiny": {"T": 10, "label_batch": 10, "exact_n": 4, "fixing_n": 3, "learn": (8, 4, 4)},
}


def derive(seed: int, *tags) -> int:
    """Stable sub-seed for one use of the benchmark seed."""
    return zlib.crc32(":".join(str(t) for t in (seed,) + tags).encode())


def params_for(seed: int, T: int, *tags) -> generate.GenParams:
    return generate.desk_params(C_RATIO, F_RATIO, T=T, seed=derive(seed, *tags))


# Warm-up inputs do not depend on the benchmark seed, so that set-up time
# varies with the seed only through the inputs the workload measures.
WARM_SEED = 0


def same_objective(z: float, ref: float) -> bool:
    return abs(z - ref) <= REL_TOL * max(1.0, abs(ref))


def p50_ms(seconds) -> float:
    return 1e3 * statistics.median(seconds) if seconds else 0.0


def tail_ms(seconds) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    xs = sorted(seconds)
    n = len(xs)
    if n < 11:
        return {"value": None, "unit": "ms", "percentile": None, "samples": n}
    k = n - 11
    return {"value": 1e3 * xs[k], "unit": "ms", "percentile": 100.0 * k / (n - 1), "samples": n}


def sliced_rate(work, slices: int = 5) -> float:
    """Work per second: the median over consecutive slices of the run.

    ``work`` holds (units, seconds) per op in run order. Other processes on
    the machine slow it down in bursts; the median of the slices' rates moves
    less with a burst than the whole run's rate does.
    """
    n = len(work)
    k = min(slices, n)
    bounds = [round(i * n / k) for i in range(k + 1)] if n else []
    rates = [
        sum(u for u, _ in work[a:b]) / sum(t for _, t in work[a:b])
        for a, b in zip(bounds, bounds[1:])
    ]
    return statistics.median(rates) if rates else 0.0


def stage(value, unit, samples) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


GROUP_METRICS = (("p50_ms", "ms"), ("inf_pct", "%"), ("optgap_pct", "%"),
                 ("nodes_mean", "count"), ("timeimp", "ratio"))


def layer_defaults() -> dict[str, tuple[float, str]]:
    """Per-layer figures that workloads measure themselves, at 0 (layer bypassed)."""
    out = {"dataio.bytes": (0.0, "B"), "pipeline.hard0.timeimp_oracle": (0.0, "ratio")}
    for group in GROUPS:
        for key, unit in GROUP_METRICS:
            out[f"pipeline.{group}.{key}"] = (0.0, unit)
    return out


class Workload:
    name = ""

    def __init__(self, seed: int, size: str, out_dir: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.out_dir = out_dir
        self.tracer = None
        self.begin()

    def begin(self) -> None:
        """Clear the samples and counters of the previous measurement."""
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, count: int, message: str) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)

    def timed(self, instance: str, fn, *args, **kwargs):
        """Call into the package with tracing on; returns (result, seconds)."""
        if self.tracer is not None:
            self.tracer.begin(instance)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end()
        return result, elapsed

    def close(self) -> None:
        pass

    def layer_extras(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures the workload measures itself (not from spans)."""
        return {}


class Label(Workload):
    """The gen stage: draw, DP-label, write and read back a dataset."""

    name = "label"

    def setup(self) -> None:
        self.data_dir = self.out_dir / f"label-data-{os.getpid()}"
        warm = params_for(WARM_SEED, self.size["T"], "label-warm")
        self._round_trip(warm, self.size["label_batch"])

    def begin(self) -> None:
        super().begin()
        self.batches: list[tuple[float, int]] = []
        self.bytes = 0

    def _round_trip(self, params, n):
        ds = generate.generate_dataset(params, n, solvers.solve_dp, oracle_name="dp")
        dataio.write_dataset(ds, self.data_dir)
        return ds, dataio.read_dataset(self.data_dir)

    def op(self, b: int) -> None:
        n = self.size["label_batch"]
        params = params_for(self.seed, self.size["T"], "label", b)
        self.attempted += n
        try:
            (ds, back), elapsed = self.timed(f"batch-{b:06d}", self._round_trip, params, n)
        except Exception as exc:  # noqa: BLE001 - a failed op is a result, not a crash
            self.fail(n, f"batch {b}: {exc!r}")
            return
        self.batches.append((elapsed, n))
        self.bytes += sum(f.stat().st_size for f in self.data_dir.iterdir())
        pairs = [p for _, split in ds.splits() for p in split]
        read = [p for _, split in back.splits() for p in split]
        if len(read) != len(pairs):
            self.fail(n, f"batch {b}: read back {len(read)} of {len(pairs)} instances")
            return
        for i, ((inst, sol), (inst2, sol2)) in enumerate(zip(pairs, read)):
            problem = None
            if core.check_solution(inst, sol):
                problem = "oracle solution violates the model"
            elif inst2 != inst or not np.array_equal(sol2.y, sol.y) or sol2.objective != sol.objective:
                problem = "round trip changed the instance or its solution"
            if problem:
                self.fail(1, f"batch {b} instance {i}: {problem}")

    def metrics(self):
        seconds = sum(t for t, _ in self.batches)
        count = sum(n for _, n in self.batches)
        per_inst = [t / n for t, n in self.batches]
        e2e = {
            "ops_per_s": sliced_rate([(n, t) for t, n in self.batches]),
            "op_p50_ms": p50_ms(per_inst),
        }
        rate = count / seconds if seconds else 0.0
        return e2e, {"label_inst_per_s": stage(rate, "1/s", count)}

    def layer_extras(self):
        return {"dataio.bytes": (float(self.bytes), "B")}

    def close(self) -> None:
        shutil.rmtree(self.out_dir / f"label-data-{os.getpid()}", ignore_errors=True)


class Exact(Workload):
    """A test split solved by cut-free B&B and by (l,S) cuts plus B&B."""

    name = "exact"

    def setup(self) -> None:
        params = params_for(self.seed, self.size["T"], "exact")
        self.cases = []
        for i in range(self.size["exact_n"]):
            inst = generate.generate_instance(params, i)
            self.cases.append((f"test-{i:06d}", inst, solvers.solve_dp(inst)))
        warm = generate.generate_instance(params_for(WARM_SEED, 10, "exact-warm"), 0)
        solvers.branch_and_bound(warm)
        solvers.solve_with_ls_cuts(warm, rounds=SOLVE_LS_ROUNDS)

    def begin(self) -> None:
        super().begin()
        # Per solver: (seconds, nodes) of each solve.
        self.solves: dict[str, list[tuple[float, int]]] = {"bnb": [], "lscuts": []}

    def op(self, i: int) -> None:
        iid, inst, oracle = self.cases[i % len(self.cases)]
        runs = (
            ("bnb", solvers.branch_and_bound, {}),
            ("lscuts", solvers.solve_with_ls_cuts, {"rounds": SOLVE_LS_ROUNDS}),
        )
        for solver, fn, kwargs in runs:
            self.attempted += 1
            try:
                sol, elapsed = self.timed(iid, fn, inst, **kwargs)
            except Exception as exc:  # noqa: BLE001
                self.fail(1, f"{iid} {solver}: {exc!r}")
                continue
            self.solves[solver].append((elapsed, sol.stats.nodes_explored))
            if sol.status != core.STATUS_OPTIMAL:
                self.fail(1, f"{iid} {solver}: status {sol.status}")
            elif not same_objective(sol.objective, oracle.objective):
                self.fail(1, f"{iid} {solver}: objective {sol.objective!r} != DP {oracle.objective!r}")
            elif core.check_solution(inst, sol):
                self.fail(1, f"{iid} {solver}: solution violates the model")

    def metrics(self):
        # Gated on cut-free B&B, the node-LP path. An (l,S) solve spends a
        # seed-dependent share of its time in the root cut loop, which moved
        # pooled work units per second by 14% between seeds.
        bnb_runs = self.solves["bnb"]
        bnb_s = [t for t, _ in bnb_runs]
        e2e = {
            "ops_per_s": sliced_rate([(1 + n, t) for t, n in bnb_runs]),
            "op_p50_ms": p50_ms([t / (1 + n) for t, n in bnb_runs]),
        }
        lscuts_s = [t for t, _ in self.solves["lscuts"]]
        return e2e, {
            "bnb_p50_ms": stage(p50_ms(bnb_s), "ms", len(bnb_s)),
            "bnb_tail_ms": tail_ms(bnb_s),
            "lscuts_p50_ms": stage(p50_ms(lscuts_s), "ms", len(lscuts_s)),
        }


class SolveObserver:
    """Sees every branch-and-bound call: the last solution and the nodes.

    ``evaluate`` records carry neither, but the correctness gate needs the
    solution and the work-normalised metrics need the node count.
    """

    def __init__(self):
        original = bnb.branch_and_bound

        def observed(*args, **kwargs):
            sol = original(*args, **kwargs)
            self.last = sol
            self.nodes += sol.stats.nodes_explored
            return sol

        self.reset()
        self._undo = rebind(original, functools.wraps(original)(observed))

    def reset(self) -> None:
        self.last = None
        self.nodes = 0

    def close(self) -> None:
        restore(self._undo)


class Fixing(Workload):
    """The evaluate grid on seeded noisy copies of the oracle labels."""

    name = "fixing"

    def __init__(self, *args):
        super().__init__(*args)
        self.observer = SolveObserver()

    def setup(self) -> None:
        params = params_for(self.seed, self.size["T"], "fixing")
        rng = np.random.default_rng(derive(self.seed, "predictions"))
        self.cases = []
        for i in range(self.size["fixing_n"]):
            inst = generate.generate_instance(params, i)
            oracle = solvers.solve_dp(inst)
            self.cases.append((f"test-{i:06d}", inst, oracle, self._noisy(oracle.y, rng)))
        warm = generate.generate_instance(params_for(WARM_SEED, 10, "fixing-warm"), 0)
        warm_oracle = solvers.solve_dp(warm)
        self._grid(warm, warm_oracle, self._noisy(warm_oracle.y, rng), "warm-up")

    @staticmethod
    def _noisy(y, rng) -> pipeline.PredictionVector:
        """Oracle labels flipped at the error rate, with random confidence."""
        flip = rng.random(len(y)) < PREDICTION_ERROR
        label = np.where(flip, 1 - y, y)
        conf = rng.uniform(0.5, 1.0, len(y))
        return pipeline.PredictionVector(probs=np.where(label == 1, conf, 1.0 - conf), source="noisy-oracle")

    def begin(self) -> None:
        super().begin()
        # (group, record, seconds, nodes) per evaluate record.
        self.records: list[tuple[str, pipeline.EvalRecord, float, int]] = []

    def _grid(self, inst, oracle, pred, iid):
        """The evaluate calls for one instance, as ``lotsize evaluate`` makes them."""
        opts = pipeline.EvalOptions(ls_rounds=EVAL_LS_ROUNDS, baseline=oracle, instance_id=iid)
        calls = [(f"hard{int(lv)}", pipeline.solve_with_hard_fix, (inst, pred, lv, opts))
                 for lv in pipeline.DEFAULT_LEVELS]
        calls.append(("soft", pipeline.solve_with_soft_fix, (inst, pred, opts)))
        calls.append(("warm", pipeline.solve_with_warm_start, (inst, pred, opts)))
        out = []
        for group, fn, args in calls:
            self.observer.reset()
            try:
                record, elapsed = self.timed(iid, fn, *args)
            except Exception as exc:  # noqa: BLE001
                out.append((group, exc, 0.0, 0, None))
                continue
            out.append((group, record, elapsed, self.observer.nodes, self.observer.last))
        return out

    def op(self, i: int) -> None:
        iid, inst, oracle, pred = self.cases[i % len(self.cases)]
        for group, record, elapsed, nodes, sol in self._grid(inst, oracle, pred, iid):
            self.attempted += 1
            if isinstance(record, Exception):
                self.fail(1, f"{iid} {group}: {record!r}")
                continue
            self.records.append((group, record, elapsed, nodes))
            problem = self._check(inst, oracle, pred, record, sol)
            if problem:
                self.fail(1, f"{iid} {group}: {problem}")

    @staticmethod
    def _check(inst, oracle, pred, record, sol) -> str | None:
        if record.status == core.STATUS_INFEASIBLE:
            if record.mode == pipeline.MODE_HARD and not core.flow_feasible(
                inst, pipeline.select_predictions(pred, record.level_pct, inst)
            ):
                return None  # the fix plan itself admits no solution
            return "infeasible outcome on a feasible plan"
        if record.status != core.STATUS_OPTIMAL:
            return f"status {record.status}"
        if sol is None or sol.objective != record.z_tilde:
            return "solution was not observed"
        if core.check_solution(inst, sol):
            return "solution violates the model"
        z_star = oracle.objective
        if record.z_tilde < z_star - REL_TOL * max(1.0, abs(z_star)):
            return f"objective {record.z_tilde!r} below the DP optimum {z_star!r}"
        exact = record.mode == pipeline.MODE_WARM or (
            record.mode == pipeline.MODE_HARD and record.level_pct == 0
        )
        if exact and not same_objective(record.z_tilde, z_star):
            return f"objective {record.z_tilde!r} != DP {z_star!r}"
        return None

    def _seconds(self, group: str) -> list[float]:
        return [t for g, r, t, _ in self.records
                if g == group and r.status != core.STATUS_INFEASIBLE]

    def metrics(self):
        seconds = sum(t for _, _, t, _ in self.records)
        e2e = {
            "ops_per_s": sliced_rate([(1 + n, t) for _, _, t, n in self.records]),
            "op_p50_ms": p50_ms([t / (1 + n) for _, _, t, n in self.records]),
        }
        plain = self._seconds("hard0")
        out = {
            "evaluate_records_per_s": stage(
                len(self.records) / seconds if seconds else 0.0, "1/s", len(self.records)
            ),
            "plain_p50_ms": stage(p50_ms(plain), "ms", len(plain)),
            "plain_tail_ms": tail_ms(plain),
        }
        for group in ("hard50", "soft", "warm"):
            times = self._seconds(group)
            out[f"{group}_p50_ms"] = stage(p50_ms(times), "ms", len(times))
        return e2e, out

    def layer_extras(self):
        """The evaluate grid per mode/level group.

        ``timeimp`` divides by the level-0 hard-fix time of the same grid run,
        so plain and ML times come from one solver stack. ``timeimp_oracle``
        is the ratio ``lotsize evaluate`` reports today, which divides by the
        DP oracle's stored time instead.
        """
        out = {}
        # Each grid run appends its ten records in GROUPS order.
        plain_time = 0.0
        same_stack = []
        for group, record, _, _ in self.records:
            if group == "hard0":
                plain_time = record.time_ml_s
            same_stack.append(dataclasses.replace(record, time_plain_s=plain_time))
        for group in GROUPS:
            rows = [k for k, (g, *_) in enumerate(self.records) if g == group]
            if not rows:
                continue
            report = pipeline.compute_metrics([same_stack[k] for k in rows])
            out[f"pipeline.{group}.p50_ms"] = (p50_ms(self._seconds(group)), "ms")
            out[f"pipeline.{group}.inf_pct"] = (report.inf_pct, "%")
            out[f"pipeline.{group}.optgap_pct"] = (report.mean_optgap_pct or 0.0, "%")
            out[f"pipeline.{group}.nodes_mean"] = (
                statistics.fmean(self.records[k][3] for k in rows), "count"
            )
            out[f"pipeline.{group}.timeimp"] = (report.timeimp or 0.0, "ratio")
            if group == "hard0":
                oracle_report = pipeline.compute_metrics([self.records[k][1] for k in rows])
                out["pipeline.hard0.timeimp_oracle"] = (oracle_report.timeimp or 0.0, "ratio")
        return out

    def close(self) -> None:
        self.observer.close()


class Learn(Workload):
    """Train the default BiLSTM at batch 64, then predict one instance at a time.

    Each op trains one epoch and then predicts every held-out instance once,
    so training and prediction are sampled over the whole run.
    """

    name = "learn"

    def setup(self) -> None:
        n_train, n_val, n_held = self.size["learn"]
        params = params_for(self.seed, self.size["T"], "learn")
        pairs = []
        for i in range(n_train + n_val + n_held):
            inst = generate.generate_instance(params, i)
            pairs.append((inst, solvers.solve_dp(inst)))
        train_pairs = pairs[:n_train]
        std = nn.standardize_fit([nn.instance_features(inst) for inst, _ in train_pairs])
        self.train_arrays = nn.pairs_to_arrays(train_pairs, std)
        self.val_arrays = nn.pairs_to_arrays(pairs[n_train : n_train + n_val], std)
        self.held = [(f"heldout-{i:06d}", inst) for i, (inst, _) in enumerate(pairs[n_train + n_val :])]
        self.model = nn.BiLstmModel.initialize(
            layer_count=3, width=40, dropout_rate=0.3, seed=derive(self.seed, "init"), standardizer=std
        )
        nn.train(self.model, self.train_arrays, self.val_arrays, self._config(-1))

    def _config(self, epoch: int) -> nn.TrainConfig:
        # One epoch per call, so early stopping cannot trigger.
        return nn.TrainConfig(batch_size=64, max_epochs=1, seed=derive(self.seed, "epoch", epoch))

    def begin(self) -> None:
        super().begin()
        self.epochs: list[tuple[float, int]] = []
        self.predicts: list[float] = []

    def op(self, k: int) -> None:
        self.train_epoch(k)
        for iid, inst in self.held:
            self.predict(iid, inst)

    def train_epoch(self, k: int) -> None:
        self.attempted += 1
        try:
            result, elapsed = self.timed(
                f"epoch-{k:06d}", nn.train, self.model, self.train_arrays, self.val_arrays,
                self._config(k),
            )
        except Exception as exc:  # noqa: BLE001 - includes divergence
            self.fail(1, f"epoch {k}: {exc!r}")
            return
        self.epochs.append((elapsed, len(self.train_arrays[0])))
        if not all(np.isfinite(e.train_loss) for e in result.history):
            self.fail(1, f"epoch {k}: non-finite training loss")

    def predict(self, iid: str, inst) -> None:
        self.attempted += 1
        try:
            probs, elapsed = self.timed(iid, nn.predict_instance, self.model, inst)
        except Exception as exc:  # noqa: BLE001
            self.fail(1, f"{iid}: {exc!r}")
            return
        self.predicts.append(elapsed)
        if probs.shape != (inst.T,) or not np.all((probs >= 0.0) & (probs <= 1.0)):
            self.fail(1, f"{iid}: probabilities outside [0, 1] or of the wrong length")

    def metrics(self):
        seconds = sum(t for t, _ in self.epochs)
        samples = sum(n for _, n in self.epochs)
        rate = samples / seconds if seconds else 0.0
        e2e = {
            "ops_per_s": sliced_rate([(n, t) for t, n in self.epochs]),
            "op_p50_ms": p50_ms(self.predicts),
        }
        return e2e, {
            "train_samples_per_s": stage(rate, "1/s", samples),
            "predict_p50_ms": stage(p50_ms(self.predicts), "ms", len(self.predicts)),
            "predict_tail_ms": tail_ms(self.predicts),
        }


WORKLOADS = {w.name: w for w in (Label, Exact, Fixing, Learn)}
