"""Command-line orchestration: gen, solve, train, predict, evaluate, report.

Every command writes its outputs plus a run manifest into ``--out``. A
config file of ``key = value`` lines can pre-set any long flag; explicit
flags win. Exit codes: 0 success, 2 usage, 3 missing input, 4 format
mismatch, 5 resource limits.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import LogisticConfig, logistic_fit, logistic_predict
from .core import Instance
from .dataio import (
    read_dataset,
    read_probabilities,
    read_records_csv,
    split_ids,
    write_dataset,
    write_probabilities,
    write_records_csv,
)
from .errors import (
    DatasetError,
    GenerationError,
    ModelFormatError,
    ResourceLimitError,
    UsageError,
    ValidationError,
)
from .generate import GenParams, generate_dataset
from .manifest import RunManifest
from .nn.lstm import BiLstmModel, predict_instance
from .nn.model_io import load_model, save_model
from .nn.standardize import instance_features, standardize_fit
from .nn.train import TrainConfig, pairs_to_arrays, train
from .pipeline import (
    DEFAULT_LEVELS,
    EvalOptions,
    PredictionVector,
    solve_with_hard_fix,
    solve_with_soft_fix,
    solve_with_warm_start,
)
from .report import figure_csvs, render_markdown
from .solvers import BnbOptions, branch_and_bound, brute_force, solve_dp, solve_with_ls_cuts

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_RESOURCE = 5

SOLVER_NAMES = ("bnb", "dp", "lscuts", "brute")


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip().strip("\"'")
    return values


def _all_option_actions(parser: argparse.ArgumentParser) -> dict[str, list[argparse.Action]]:
    """Map every option dest to its actions across all subcommands."""
    actions: dict[str, list[argparse.Action]] = {}
    stack = [parser]
    while stack:
        p = stack.pop()
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
            elif action.dest not in ("help", "==SUPPRESS=="):
                actions.setdefault(action.dest, []).append(action)
    return actions


def _apply_config_defaults(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Pull --config out of argv and install its values as parser defaults.

    Values from the file are converted with the owning option's type; flags
    given explicitly on the command line still win.
    """
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config requires a file path")
    path = argv[idx + 1]
    remaining = argv[:idx] + argv[idx + 2 :]
    file_values = _read_config_file(path)
    actions = _all_option_actions(parser)
    unknown = set(file_values) - set(actions)
    if unknown:
        raise UsageError(f"config file sets unknown keys: {sorted(unknown)}")
    for key, raw in file_values.items():
        # Subparsers re-apply their own action defaults over the parent's,
        # so install the value on every action carrying this dest.
        for action in actions[key]:
            convert = action.type
            try:
                value = convert(raw) if convert is not None else raw
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise UsageError(f"config value {key}={raw!r} is invalid: {exc}") from exc
            action.default = value
            action.required = False
    return remaining


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'lo,hi'")
    return int(parts[0]), int(parts[1])


def _levels(text) -> list[float]:
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(v) for v in str(text).split(",") if v != ""]


def _modes(text) -> list[str]:
    modes = [m.strip() for m in str(text).split(",") if m.strip()]
    for m in modes:
        if m not in ("hard", "soft", "warm"):
            raise argparse.ArgumentTypeError(f"unknown mode {m!r}")
    return modes


def _pool_map(jobs: int):
    if jobs <= 1:
        return None
    executor = ProcessPoolExecutor(max_workers=jobs)
    return executor


def _config_snapshot(args, tool: str) -> dict:
    snap = {"tool": tool}
    for key, value in vars(args).items():
        if key == "func":
            continue
        if isinstance(value, tuple):
            value = list(value)
        snap[key] = value
    return snap


def _oracle_dp(inst: Instance):
    return solve_dp(inst)


def _oracle_bnb(inst: Instance):
    return branch_and_bound(inst)


def _oracle_lscuts(inst: Instance):
    return solve_with_ls_cuts(inst)


_ORACLES = {"dp": _oracle_dp, "bnb": _oracle_bnb, "lscuts": _oracle_lscuts}


def cmd_gen(args) -> int:
    params = GenParams(
        c_ratio=args.c,
        f_ratio=args.f,
        T=args.T,
        demand_range=args.demand_range,
        prod_cost_range=args.prod_cost_range,
        seed=args.seed,
    )
    if args.n < 10:
        raise UsageError("--n must be at least 10")
    if args.oracle not in _ORACLES:
        raise UsageError(f"--oracle must be one of {sorted(_ORACLES)}")
    manifest = RunManifest(
        command=sys.argv[1:],
        config=_config_snapshot(args, "gen"),
        seeds={"seed": args.seed},
        tool_version=__version__,
    )
    pool = _pool_map(args.jobs)
    try:
        map_fn = pool.map if pool else None
        dataset = generate_dataset(
            params, args.n, _ORACLES[args.oracle], oracle_name=args.oracle, map_fn=map_fn
        )
    finally:
        if pool:
            pool.shutdown()
    out = Path(args.out)
    write_dataset(dataset, out)
    files = [out / "meta.json", out / "train.jsonl", out / "val.jsonl", out / "test.jsonl"]
    manifest.finish(out, [f for f in files if f.exists()])
    print(f"wrote dataset to {out} (train/val/test = "
          f"{len(dataset.train)}/{len(dataset.validation)}/{len(dataset.test)})")
    return 0


def _solve_one(payload):
    name, inst_dict, opt_values = payload
    inst = Instance.from_dict(inst_dict)
    opts = BnbOptions(
        time_limit=opt_values.get("time_limit"),
        gap_tol=opt_values.get("gap_tol", 1e-9),
    )
    if name == "bnb":
        return branch_and_bound(inst, opts=opts)
    if name == "dp":
        return solve_dp(inst)
    if name == "lscuts":
        return solve_with_ls_cuts(inst, rounds=opt_values.get("ls_rounds", 5), opts=opts)
    if name == "brute":
        return brute_force(inst)
    raise UsageError(f"unknown solver {name!r}")


def cmd_solve(args) -> int:
    if args.solver not in SOLVER_NAMES:
        raise UsageError(f"--solver must be one of {SOLVER_NAMES}")
    dataset = read_dataset(args.dataset)
    split = {"train": dataset.train, "val": dataset.validation, "test": dataset.test}[args.split]
    if not split:
        raise UsageError(f"split {args.split!r} of {args.dataset} is empty")
    manifest = RunManifest(
        command=sys.argv[1:],
        config=_config_snapshot(args, "solve"),
        tool_version=__version__,
    )
    opt_values = {
        "time_limit": args.time_limit,
        "gap_tol": args.gap_tol,
        "ls_rounds": args.ls_rounds,
    }
    payloads = [(args.solver, inst.to_dict(), opt_values) for inst, _ in split]
    pool = _pool_map(args.jobs)
    try:
        mapper = pool.map if pool else map
        solutions = list(mapper(_solve_one, payloads))
    finally:
        if pool:
            pool.shutdown()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "solutions.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("instance_id,status,objective,wall_time_s,nodes,lp_solves,cuts\n")
        for iid, sol in zip(split_ids(args.split, len(split)), solutions):
            fh.write(
                f"{iid},{sol.status},{sol.objective!r},{sol.stats.wall_time_seconds!r},"
                f"{sol.stats.nodes_explored},{sol.stats.lp_solves},{sol.stats.cuts_added}\n"
            )
    manifest.finish(out, [csv_path])
    print(f"wrote {csv_path}")
    return 0


def cmd_train(args) -> int:
    dataset = read_dataset(args.dataset)
    if not dataset.train or not dataset.validation:
        raise UsageError("training requires non-empty train and validation splits")
    standardizer = standardize_fit([instance_features(inst) for inst, _ in dataset.train])
    model = BiLstmModel.initialize(
        layer_count=args.layers,
        width=args.units,
        dropout_rate=args.dropout,
        seed=args.seed,
        standardizer=standardizer,
    )
    config = TrainConfig(
        learning_rate=args.lr,
        batch_size=args.batch_size,
        max_epochs=args.epochs,
        early_stop_patience=args.patience,
        seed=args.seed,
    )
    manifest = RunManifest(
        command=sys.argv[1:],
        config=_config_snapshot(args, "train"),
        seeds={"seed": args.seed},
        tool_version=__version__,
    )
    train_arrays = pairs_to_arrays(dataset.train, standardizer)
    val_arrays = pairs_to_arrays(dataset.validation, standardizer)
    result = train(model, train_arrays, val_arrays, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.bin"
    save_model(result.model, model_path)
    history_path = out / "history.csv"
    with open(history_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_accuracy,wall_time_s\n")
        for e in result.history:
            fh.write(f"{e.epoch},{e.train_loss!r},{e.val_accuracy!r},{e.seconds!r}\n")
    manifest.finish(out, [model_path, Path(str(model_path) + ".manifest.txt"), history_path])
    best = max(e.val_accuracy for e in result.history)
    print(
        f"trained {args.layers}x{args.units} model in {result.total_seconds:.1f}s; "
        f"best val accuracy {best:.4f} at epoch {result.best_epoch}; wrote {model_path}"
    )
    return 0


def cmd_predict(args) -> int:
    dataset = read_dataset(args.dataset)
    split = {"train": dataset.train, "val": dataset.validation, "test": dataset.test}[args.split]
    if not split:
        raise UsageError(f"split {args.split!r} of {args.dataset} is empty")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=sys.argv[1:],
        config=_config_snapshot(args, "predict"),
        tool_version=__version__,
    )
    rows = []
    if args.baseline == "logistic":
        model = logistic_fit(dataset.train, LogisticConfig(seed=args.seed))
        for inst, _ in split:
            rows.append(logistic_predict(model, inst))
        source = "logistic"
    elif args.model:
        model = load_model(args.model)
        for inst, _ in split:
            rows.append(predict_instance(model, inst))
        source = f"bilstm-L{model.layer_count}W{model.width}"
    else:
        raise UsageError("predict requires --model FILE or --baseline logistic")
    probs_path = out / "probs.jsonl"
    write_probabilities(probs_path, split_ids(args.split, len(split)), rows, source)
    manifest.finish(out, [probs_path])
    print(f"wrote {probs_path}")
    return 0


def cmd_evaluate(args) -> int:
    dataset = read_dataset(args.dataset)
    split = {"train": dataset.train, "val": dataset.validation, "test": dataset.test}[args.split]
    if not split:
        raise UsageError(f"split {args.split!r} of {args.dataset} is empty")
    probs = read_probabilities(args.probs)
    levels = _levels(args.levels)
    for lv in levels:
        if not 0 <= lv <= 100:
            raise UsageError(f"level {lv} outside [0, 100]")
    modes = _modes(args.mode)
    ids = split_ids(args.split, len(split))
    records = []
    for iid, (inst, oracle_sol) in zip(ids, split):
        if iid not in probs:
            raise UsageError(f"probability file lacks an entry for {iid}")
        pred = PredictionVector(probs=np.array(probs[iid]), source=str(args.probs))
        opts = EvalOptions(
            time_limit=args.time_limit,
            gap_tol=args.gap_tol,
            ls_rounds=args.ls_rounds,
            baseline=oracle_sol,
            instance_id=iid,
        )
        for mode in modes:
            if mode == "hard":
                for lv in levels:
                    records.append(solve_with_hard_fix(inst, pred, lv, opts))
            elif mode == "soft":
                records.append(solve_with_soft_fix(inst, pred, opts))
            else:
                records.append(solve_with_warm_start(inst, pred, opts))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=sys.argv[1:],
        config=_config_snapshot(args, "evaluate"),
        tool_version=__version__,
    )
    csv_path = out / "records.csv"
    write_records_csv(csv_path, records)
    manifest.finish(out, [csv_path])
    print(f"wrote {csv_path} ({len(records)} records)")
    return 0


def cmd_report(args) -> int:
    records = read_records_csv(args.records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest(
        command=sys.argv[1:],
        config=_config_snapshot(args, "report"),
        tool_version=__version__,
    )
    report_path = out / "report.md"
    report_path.write_text(render_markdown(records), encoding="utf-8")
    files = [report_path]
    for name, text in figure_csvs(records).items():
        fpath = out / name
        fpath.write_text(text, encoding="utf-8")
        files.append(fpath)
    manifest.finish(out, files)
    print(f"wrote {report_path} and {len(files) - 1} figure CSVs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lotsize",
        description="Generate, solve, learn and evaluate capacitated lot-sizing instances.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a solved dataset")
    p.add_argument("--c", type=int, required=True, help="capacity-to-demand ratio")
    p.add_argument("--f", type=float, required=True, help="setup-to-holding cost ratio")
    p.add_argument("--T", type=int, required=True, help="periods per instance")
    p.add_argument("--n", type=int, required=True, help="number of instances (>= 10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--demand-range", type=_int_pair, default=(1, 600))
    p.add_argument("--prod-cost-range", type=_int_pair, default=(1, 5))
    p.add_argument("--oracle", default="dp", help="oracle solver: dp, bnb or lscuts")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve a dataset split with one solver")
    p.add_argument("--dataset", required=True)
    p.add_argument("--solver", required=True, help="bnb, dp, lscuts or brute")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--gap-tol", type=float, default=1e-9)
    p.add_argument("--ls-rounds", type=int, default=5)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("train", help="train the sequence model on a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--units", type=int, default=40)
    p.add_argument("--dropout", type=float, default=0.3)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--patience", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="emit setup probabilities for a split")
    p.add_argument("--dataset", required=True)
    p.add_argument("--model", default=None, help="weight file from 'train'")
    p.add_argument("--baseline", default=None, help="'logistic' fits the baseline on the fly")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="re-solve a split under fixed predictions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--probs", required=True, help="probability file from 'predict'")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--levels", default=",".join(str(v) for v in DEFAULT_LEVELS))
    p.add_argument("--mode", default="hard", help="comma list from hard, soft, warm")
    p.add_argument("--time-limit", type=float, default=None)
    p.add_argument("--gap-tol", type=float, default=1e-9)
    p.add_argument("--ls-rounds", type=int, default=3)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="aggregate records into tables and figure CSVs")
    p.add_argument("--records", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, GenerationError, DatasetError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ModelFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
