"""Command-line orchestration: gen, solve, train, predict, evaluate, report.

Every command writes its outputs plus a run manifest into ``--out``; the
manifest's ``command`` is the argument list ``main`` received. ``gen
--oracle`` and ``solve --solver`` take any name in ``solvers.SOLVERS``; a
solver flag the chosen backend does not read is a usage error. A config file
of ``key = value`` lines (``--config FILE``) pre-sets long flags of the
chosen command: each line becomes ``--key=value`` ahead of the explicit
flags, which therefore win, and a key the command does not define is a usage
error. Exit codes: 0 success, 2 usage, 3 missing input, 4 format mismatch,
5 resource limits.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import __version__
from .baselines import LogisticConfig, logistic_fit, logistic_predict
from .dataio import (
    read_dataset,
    read_probabilities,
    read_records_csv,
    split_ids,
    write_dataset,
    write_probabilities,
    write_records_csv,
)
from .errors import LotsizeError, ModelFormatError, ResourceLimitError, UsageError
from .generate import GenParams, generate_dataset
from .manifest import RunManifest
from .nn.lstm import BiLstmModel, predict_instance
from .nn.model_io import load_model, save_model
from .nn.standardize import instance_features, standardize_fit
from .nn.train import TrainConfig, pairs_to_arrays, train
from .pipeline import DEFAULT_LEVELS, MODE_HARD, MODES, PredictionVector, evaluate_instance
from .report import figure_csvs, render_markdown
from .solvers import DEFAULT_ROUNDS, SOLVERS, BnbOptions, solve

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_FORMAT = 4
EXIT_RESOURCE = 5


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


def _merge_config(argv: list[str]) -> tuple[list[str], list[str]]:
    """Replace --config FILE by the file's values as the command's own flags.

    Each ``key = value`` line becomes ``--key=value`` right after the
    command name, ahead of the explicit flags, which therefore win. Returns
    the merged argv and the keys the file set.
    """
    if "--config" not in argv:
        return argv, []
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise UsageError("--config requires a file path")
    file_values = _read_config_file(argv[idx + 1])
    remaining = argv[:idx] + argv[idx + 2 :]
    at = next((i for i, a in enumerate(remaining) if not a.startswith("-")), None)
    if at is None:
        raise UsageError("--config requires a command")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in file_values.items()]
    return remaining[: at + 1] + flags + remaining[at + 1 :], list(file_values)


def _int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected 'lo,hi'")
    return int(parts[0]), int(parts[1])


def _levels(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise UsageError(f"--levels: {exc}") from exc


@contextlib.contextmanager
def _mapper(jobs: int):
    """The builtin ``map`` for one job, else a process pool's, shut down on exit."""
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")
    if jobs == 1:
        yield map
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield pool.map


def _config_snapshot(args) -> dict:
    snap = {"tool": args.command}
    for key, value in vars(args).items():
        if key == "func":
            continue
        if isinstance(value, tuple):
            value = list(value)
        snap[key] = value
    return snap


def _check_solver(name: str, flag: str) -> None:
    if name not in SOLVERS:
        raise UsageError(f"{flag} must be one of {', '.join(SOLVERS)}")


def _read_split(args):
    """The dataset and its ``--split`` pairs; an empty split is a usage error."""
    dataset = read_dataset(args.dataset)
    pairs = dict(dataset.splits())[args.split]
    if not pairs:
        raise UsageError(f"split {args.split!r} of {args.dataset} is empty")
    return dataset, pairs


def cmd_gen(args, manifest: RunManifest) -> int:
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
    _check_solver(args.oracle, "--oracle")
    with _mapper(args.jobs) as map_fn:
        dataset = generate_dataset(
            params, args.n, functools.partial(solve, args.oracle),
            oracle_name=args.oracle, map_fn=map_fn,
        )
    out = Path(args.out)
    write_dataset(dataset, out)
    files = [out / "meta.json", out / "train.jsonl", out / "val.jsonl", out / "test.jsonl"]
    manifest.finish(out, [f for f in files if f.exists()])
    print(f"wrote dataset to {out} (train/val/test = "
          f"{len(dataset.train)}/{len(dataset.validation)}/{len(dataset.test)})")
    return 0


def cmd_solve(args, manifest: RunManifest) -> int:
    _check_solver(args.solver, "--solver")
    reads = {"bnb": ("time_limit", "gap_tol"), "lscuts": ("time_limit", "gap_tol", "ls_rounds")}
    for name in ("time_limit", "gap_tol", "ls_rounds"):
        if getattr(args, name) is not None and name not in reads.get(args.solver, ()):
            raise UsageError(f"--solver {args.solver} does not read --{name.replace('_', '-')}")
    _, split = _read_split(args)
    gap_tol = BnbOptions.gap_tol if args.gap_tol is None else args.gap_tol
    solver = functools.partial(
        solve,
        args.solver,
        opts=BnbOptions(time_limit=args.time_limit, gap_tol=gap_tol),
        ls_rounds=DEFAULT_ROUNDS if args.ls_rounds is None else args.ls_rounds,
    )
    with _mapper(args.jobs) as map_fn:
        solutions = list(map_fn(solver, [inst for inst, _ in split]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "solutions.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("instance_id,status,objective,wall_time_s,nodes,lp_solves,cuts,cut_stop\n")
        for iid, sol in zip(split_ids(args.split, len(split)), solutions):
            st = sol.stats
            fh.write(
                f"{iid},{sol.status},{sol.objective!r},{st.wall_time_seconds!r},"
                f"{st.nodes_explored},{st.lp_solves},{st.cuts_added},{st.cut_stop}\n"
            )
    manifest.finish(out, [csv_path])
    print(f"wrote {csv_path}")
    return 0


def cmd_train(args, manifest: RunManifest) -> int:
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


def cmd_predict(args, manifest: RunManifest) -> int:
    if (args.model is None) == (args.baseline is None):
        raise UsageError("predict takes exactly one of --model FILE and --baseline logistic")
    if args.model is not None and args.seed is not None:
        raise UsageError("predict --model does not read --seed")
    dataset, split = _read_split(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.baseline == "logistic":
        seed = 0 if args.seed is None else args.seed
        manifest.seeds["seed"] = seed
        model = logistic_fit(dataset.train, LogisticConfig(seed=seed))
        predict_one = functools.partial(logistic_predict, model)
        source = "logistic"
    else:
        model = load_model(args.model)
        predict_one = functools.partial(predict_instance, model)
        source = f"bilstm-L{model.layer_count}W{model.width}"
    # Each row carries its own forward-pass time, the prediction share of timeML.
    preds = []
    for inst, _ in split:
        t0 = time.perf_counter()
        probs = predict_one(inst)
        preds.append(PredictionVector(probs, source, time.perf_counter() - t0))
    probs_path = out / "probs.jsonl"
    write_probabilities(probs_path, split_ids(args.split, len(split)), preds)
    manifest.finish(out, [probs_path])
    print(f"wrote {probs_path}")
    return 0


def cmd_evaluate(args, manifest: RunManifest) -> int:
    levels = _levels(args.levels)
    modes = [m.strip() for m in args.mode.split(",") if m.strip()]
    bnb_opts = BnbOptions(
        time_limit=args.time_limit, gap_tol=args.gap_tol, ls_rounds=args.ls_rounds
    )
    _, split = _read_split(args)
    preds, untimed = read_probabilities(args.probs)
    # Rows without predict_s add nothing to time_ml_s; the manifest says how many.
    manifest.inputs["probability_rows_without_predict_s"] = untimed
    ids = split_ids(args.split, len(split))
    records = []
    for iid, (inst, _) in zip(ids, split):
        if iid not in preds:
            raise UsageError(f"probability file lacks an entry for {iid}")
        # Plain and ML solves share one solver stack; the oracle's time is not used.
        records += evaluate_instance(inst, preds[iid], modes, levels, bnb_opts, iid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "records.csv"
    write_records_csv(csv_path, records)
    manifest.finish(out, [csv_path])
    print(f"wrote {csv_path} ({len(records)} records)")
    return 0


def cmd_report(args, manifest: RunManifest) -> int:
    records = read_records_csv(args.records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
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
    p.add_argument("--oracle", default="dp", help=f"oracle solver: {', '.join(SOLVERS)}")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve a dataset split with one solver")
    p.add_argument("--dataset", required=True)
    p.add_argument("--solver", required=True, help=", ".join(SOLVERS))
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--time-limit", type=float, default=None, help="bnb, lscuts")
    p.add_argument("--gap-tol", type=float, default=None, help="bnb, lscuts")
    p.add_argument("--ls-rounds", type=int, default=None, help="lscuts")
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
    p.add_argument("--baseline", choices=("logistic",), help="fit this baseline on the fly")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--seed", type=int, default=None, help="logistic (default 0)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="re-solve a split under fixed predictions")
    p.add_argument("--dataset", required=True)
    p.add_argument("--probs", required=True, help="probability file from 'predict'")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--levels", default=",".join(str(v) for v in DEFAULT_LEVELS))
    p.add_argument("--mode", default=MODE_HARD, help=f"comma list from {', '.join(MODES)}")
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
        merged, config_keys = _merge_config(argv)
        args, extra = parser.parse_known_args(merged)
        unknown = sorted(set(config_keys) - set(vars(args)))
        if unknown:
            raise UsageError(f"config file sets keys that {args.command} does not define: {unknown}")
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
        manifest = RunManifest(
            command=argv,
            config=_config_snapshot(args),
            seeds={"seed": args.seed} if "seed" in vars(args) else {},
            tool_version=__version__,
        )
        return args.func(args, manifest)
    except FileNotFoundError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ModelFormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ResourceLimitError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except LotsizeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
