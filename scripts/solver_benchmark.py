#!/usr/bin/env python3
"""Compare the exact solvers across capacity ratios on fresh instances.

Reports per-solver mean wall time, the mean root integrality gap, and
cross-checks that all solvers agree on the optimum. Writes one CSV row per
(c, solver) pair.
"""

import argparse
import csv
import statistics
import sys
import time
from pathlib import Path

from lotsize import GenParams, generate_instance
from lotsize.solvers import SOLVERS, compute_igap, solve, solve_lp


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--T", type=int, default=15)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--f", type=float, default=100.0)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--demand-max", type=int, default=60)
    ap.add_argument("--include-brute", action="store_true")
    ap.add_argument("--out", type=Path, default=Path("solver_benchmark.csv"))
    return ap.parse_args()


def main():
    args = parse_args()
    names = [name for name in SOLVERS if name != "brute" or args.include_brute]
    if args.include_brute and args.T > 20:
        sys.exit("brute force only handles T <= 20")
    rows = []
    for c in (3, 5, 8):
        params = GenParams(
            c_ratio=c, f_ratio=args.f, T=args.T,
            demand_range=(1, args.demand_max), seed=args.seed,
        )
        instances = [generate_instance(params, i) for i in range(args.n)]
        igaps = []
        reference = None
        for name in names:
            times = []
            objs = []
            for inst in instances:
                t0 = time.perf_counter()
                sol = solve(name, inst)
                times.append(time.perf_counter() - t0)
                objs.append(sol.objective)
            if reference is None:
                reference = objs
            else:
                worst = max(
                    abs(a - b) / max(1.0, abs(a)) for a, b in zip(reference, objs)
                )
                if worst > 1e-6:
                    sys.exit(f"solver {name} disagrees at c={c} (rel diff {worst:.2e})")
            rows.append(
                {
                    "c": c,
                    "solver": name,
                    "mean_time_s": statistics.mean(times),
                    "max_time_s": max(times),
                }
            )
            print(f"c={c} {name:7s} mean {statistics.mean(times)*1e3:8.1f} ms")
        for inst, obj in zip(instances, reference):
            igaps.append(compute_igap(obj, solve_lp(inst).objective))
        print(f"c={c} mean root integrality gap {statistics.mean(igaps):.2f}%")
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["c", "solver", "mean_time_s", "max_time_s"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
