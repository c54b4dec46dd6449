"""Self-test of the benchmark on tiny inputs; it takes about a minute.

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced and traced for one second
at ``--size tiny`` and checks that:

* the last line of output carries exactly the metrics BENCHMARK.json lists
  for that mode, each with its unit, and every correctness check passed;
* the result file holds the stage metrics with their units and sample
  counts, and the environment block;
* a traced run wrote spans with parent links and instance ids.

It also checks that ``--workload all`` prints the 16 stage metrics, and
that the benchmark exits non-zero without printing a result in a directory
that holds only BENCHMARK.json and the benchmark's files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "fail_share": "ratio"}
STAGE = {
    "label": {"label_inst_per_s": "1/s"},
    "exact": {"bnb_p50_ms": "ms", "bnb_tail_ms": "ms", "lscuts_p50_ms": "ms"},
    "fixing": {
        "evaluate_records_per_s": "1/s",
        "plain_p50_ms": "ms",
        "plain_tail_ms": "ms",
        "hard50_p50_ms": "ms",
        "soft_p50_ms": "ms",
        "warm_p50_ms": "ms",
    },
    "learn": {"train_samples_per_s": "1/s", "predict_p50_ms": "ms", "predict_tail_ms": "ms"},
}
ENV_KEYS = {"nproc", "blas_threads", "python", "numpy", "scipy", "loadavg_start", "loadavg_end"}
SPAN_KEYS = {"id", "name", "start", "end", "parent", "instance"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(bench: dict, workload: str, trace: int) -> list[str]:
    errors = []
    proc = run(workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correctness gate failed: {result['attempted']} attempted, "
                      f"{result['failed']} failed")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, "
                      f"unit mismatch {sorted(k for k in got if k in expected and got[k] != expected[k])}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            errors.append(f"{where}: {name} is not a number")
    report = json.loads((OUT / f"{workload}-seed1-trace{trace}.json").read_text())
    stage = report["stage"]
    for name, unit in {**COMMON, **STAGE[workload]}.items():
        entry = stage.get(name)
        if entry is None or entry["unit"] != unit or "samples" not in entry:
            errors.append(f"{where}: stage metric {name} [{unit}] missing or malformed: {entry}")
        elif name.endswith("_tail_ms") and "percentile" not in entry:
            errors.append(f"{where}: {name} lacks its percentile")
    missing_env = ENV_KEYS - set(report["environment"])
    if missing_env:
        errors.append(f"{where}: environment block lacks {sorted(missing_env)}")
    if trace:
        lines = (OUT / f"{workload}-seed1-spans.jsonl").read_text().splitlines()
        spans = [json.loads(line) for line in lines]
        if not spans or any(set(s) - {"counts"} != SPAN_KEYS for s in spans):
            errors.append(f"{where}: spans missing or malformed")
        elif not any(s["parent"] >= 0 for s in spans) or not all(s["instance"] for s in spans):
            errors.append(f"{where}: spans lack parent links or instance ids")
    return errors


def check_all() -> list[str]:
    """``--workload all`` prints the 16 stage metrics of the four workloads."""
    proc = run("all", 0)
    if proc.returncode != 0:
        return [f"all: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.splitlines()[-1])
    expected = {f"{w}.{m}": u for w, names in STAGE.items() for m, u in {**COMMON, **names}.items()}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    names = {k.split(".", 1)[1] for k in got}
    if got != expected or len(names) != 16 or not result["correct"]:
        return [f"all: stage metrics {sorted(got)} differ from {sorted(expected)}"]
    return []


def check_bare_directory() -> list[str]:
    """Without the package sources the benchmark must fail and print no result."""
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run("label", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            found = check_run(bench, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAIL'}")
            errors += found
    found = check_all()
    print(f"all: {'ok' if not found else 'FAIL'}")
    errors += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    errors += found
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
