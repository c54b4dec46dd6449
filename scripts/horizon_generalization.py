#!/usr/bin/env python3
"""Evaluate a trained model on longer horizons via chunked predictions.

Loads a weight file trained at some horizon, generates instances whose
horizon is a multiple of it, builds concatenated predictions, and reports
infeasibility and optimality gap per fixing level.
"""

import argparse
from pathlib import Path

from lotsize import GenParams, generate_instance
from lotsize.nn import load_model
from lotsize.pipeline import MODE_HARD, concat_predictions, evaluate_instance
from lotsize.report import summarize
from lotsize.solvers import BnbOptions


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", type=Path, required=True)
    ap.add_argument("--chunk-T", type=int, required=True, help="horizon the model was trained at")
    ap.add_argument("--T", type=int, required=True, help="target horizon (multiple of chunk-T)")
    ap.add_argument("--c", type=int, default=3)
    ap.add_argument("--f", type=float, default=100.0)
    ap.add_argument("--n", type=int, default=50)
    ap.add_argument("--seed", type=int, default=21)
    ap.add_argument("--demand-max", type=int, default=60)
    ap.add_argument("--levels", default="25,50,75,85")
    ap.add_argument("--ls-rounds", type=int, default=3)
    return ap.parse_args()


def main():
    args = parse_args()
    model = load_model(args.model)
    params = GenParams(
        c_ratio=args.c, f_ratio=args.f, T=args.T,
        demand_range=(1, args.demand_max), seed=args.seed,
    )
    levels = [float(v) for v in args.levels.split(",")]
    opts = BnbOptions(ls_rounds=args.ls_rounds)
    records = []
    for i in range(args.n):
        inst = generate_instance(params, i)
        pred = concat_predictions(model, inst, args.chunk_T)
        records += evaluate_instance(inst, pred, [MODE_HARD], levels, opts, str(i))
    print(f"T={args.T} predicted with chunk_T={args.chunk_T} on {args.n} instances")
    print("level  inf%    optgap%   timeimp")
    for rep in summarize(records):
        gap = "-" if rep.mean_optgap_pct is None else f"{rep.mean_optgap_pct:.3f}"
        imp = "-" if rep.timeimp is None else f"{rep.timeimp:.1f}"
        print(f"{rep.level_pct:5g}  {rep.inf_pct:5.1f}   {gap:>8}  {imp:>7}")


if __name__ == "__main__":
    main()
