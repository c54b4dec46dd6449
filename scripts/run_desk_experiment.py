#!/usr/bin/env python3
"""End-to-end desk-scale experiment: generate, train, predict, evaluate, report.

Runs the whole pipeline through the CLI so every stage leaves a manifest.
With the defaults this takes a few minutes on a workstation and ends with a
markdown summary table under <out>/report/.
"""

import argparse
import sys
from pathlib import Path

from lotsize.cli import main as cli


def run(*argv) -> None:
    code = cli([str(a) for a in argv])
    if code != 0:
        sys.exit(code)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("desk_experiment"))
    ap.add_argument("--c", type=int, default=3)
    ap.add_argument("--f", type=float, default=100.0)
    ap.add_argument("--T", type=int, default=20)
    ap.add_argument("--n", type=int, default=500)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=20)
    ap.add_argument("--layers", type=int, default=3)
    ap.add_argument("--units", type=int, default=40)
    ap.add_argument("--levels", default="0,25,50,75,85,90,95,100")
    ap.add_argument("--modes", default="hard,soft,warm")
    ap.add_argument("--jobs", type=int, default=1, help="worker processes for gen")
    return ap.parse_args()


def main():
    args = parse_args()
    out = args.out
    ds = out / "dataset"
    run("gen", "--c", args.c, "--f", args.f, "--T", args.T, "--n", args.n,
        "--seed", args.seed, "--demand-range", "1,60", "--jobs", args.jobs, "--out", ds)
    run("train", "--dataset", ds, "--layers", args.layers, "--units", args.units,
        "--epochs", args.epochs, "--seed", args.seed, "--out", out / "model")
    run("predict", "--dataset", ds, "--model", out / "model" / "model.bin",
        "--out", out / "predictions")
    run("evaluate", "--dataset", ds, "--probs", out / "predictions" / "probs.jsonl",
        "--levels", args.levels, "--mode", args.modes, "--out", out / "eval")
    run("report", "--records", out / "eval" / "records.csv", "--out", out / "report")
    print(f"\ndone; see {out / 'report' / 'report.md'}")


if __name__ == "__main__":
    main()
