"""Benchmark of the lotsize pipeline stages: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures with no tracing and prints the end-to-end metrics of
BENCHMARK.json. ``--trace 1`` measures the same ops twice on the same
inputs, first untraced and then traced, and prints the per-layer metrics,
including the tracing overhead between the two. ``--workload all`` runs
every workload in its own child process, one after the other, and prints the
stage metrics of all of them. The last line of standard output is always one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Full results (stage metrics with sample counts, failures, the environment
block) go to ``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``, and
traced runs also write their spans to ``<workload>-seed<seed>-spans.jsonl``.
"""

from __future__ import annotations

import os

# One BLAS thread: no load beyond this process, and steadier timings.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
SETUP_REPEATS = 3
# Seed kept out of development and tuning; a claimed gain must also hold on it.
HELD_OUT_SEED = 7919
WORKLOAD_NAMES = ("label", "exact", "fixing", "learn")
CHILD_TIMEOUT_S = 900


def import_package():
    """Import lotsize from this checkout's ``src``; never an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lotsize
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import lotsize from {ROOT / 'src'}: {exc}")
    if not Path(lotsize.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: lotsize was imported from {lotsize.__file__}, not from src/")


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def environment(load_start) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def measure(workload, seconds: float) -> int:
    """Run ops until the time is spent (once at least); returns the op count."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        workload.op(n)
        n += 1
    return n


def run_workload(args) -> int:
    import tracer as tracing
    from workloads import WORKLOADS, layer_defaults

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed, args.size, OUT_DIR)
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        workload.begin()
        seconds = args.seconds / 2 if args.trace else args.seconds
        t0 = time.perf_counter()
        ops = measure(workload, seconds)
        untraced_s = time.perf_counter() - t0
        e2e, stage = workload.metrics()
        attempted, failed = workload.attempted, workload.failed
        failures = list(workload.failures)
        layers = {}
        if args.trace:
            # Figures the workload measures itself come from the untraced pass.
            layers = {**layer_defaults(), **workload.layer_extras()}
            tracer = tracing.Tracer()
            tracer.install()
            workload.tracer = tracer
            workload.begin()
            try:
                t0 = time.perf_counter()
                for i in range(ops):
                    workload.op(i)
                traced_s = time.perf_counter() - t0
            finally:
                workload.tracer = None
                tracer.uninstall()
            attempted += workload.attempted
            failed += workload.failed
            failures += workload.failures
            layers.update(tracing.layer_metrics(tracer.spans))
            layers["trace.overhead_pct"] = (100.0 * (traced_s - untraced_s) / untraced_s, "%")
            layers["trace.spans"] = (float(len(tracer.spans)), "count")
            tracer.write(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    finally:
        workload.close()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    common = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s", "samples": len(setup_s)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "samples": 1},
        "fail_share": {"value": failed / attempted if attempted else 1.0, "unit": "ratio",
                       "samples": attempted},
    }
    stage = {**common, **stage}
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_per_s": {"value": e2e["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": e2e["op_p50_ms"], "unit": "ms"},
        }
    env = environment(load_start)
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "setup_runs_s": setup_s,
        "ops": ops,
        "stage": stage,
        "failures": failures,
        "environment": env,
        "result": result,
    }
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(env))
    print("stage " + json.dumps(stage))
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints all stage metrics."""
    merged = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
               "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        stage = json.loads(next(l for l in lines if l.startswith("stage "))[len("stage "):])
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["correct"]
        for metric, entry in stage.items():
            merged[f"{name}.{metric}"] = entry
            extra = ""
            if "percentile" in entry:
                extra = f"  (p{entry['percentile']}, n={entry['samples']})"
            print(f"{name:7s} {metric:24s} {entry['value']} {entry['unit']}{extra}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                                  for k, v in merged.items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1, help=f"held-out seed: {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="'tiny' is the self-test's input size")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
