import csv
import json
import os
import platform
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import lotsize
from lotsize.cli import EXIT_USAGE, main
from lotsize.nn.model_io import MAGIC

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
# A weight-file header that lacks the model width.
NO_WIDTH = json.dumps({"format_version": 1, "layer_count": 1}).encode()


def run(*argv) -> int:
    return main([str(a) for a in argv])


def subprocess_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(lotsize.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = run(
        "gen", "--c", 3, "--f", 100, "--T", 8, "--n", 25, "--seed", 12,
        "--demand-range", "1,40", "--out", out,
    )
    assert code == 0
    return out


class TestGen:
    def test_layout_and_manifest(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert {"meta.json", "train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"} <= names
        manifest = json.loads((dataset_dir / "manifest.json").read_text())
        assert manifest["tool_version"]
        assert manifest["command"][0] == "gen"
        assert manifest["nproc"] >= 1
        assert manifest["versions"] == {
            "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__
        }
        assert manifest["wall_s"] > 0 and manifest["cpu_s"] > 0
        assert set(manifest["artifacts"]) == {
            "meta.json", "train.jsonl", "val.jsonl", "test.jsonl"
        }

    def test_split_sizes(self, dataset_dir):
        meta = json.loads((dataset_dir / "meta.json").read_text())
        assert meta["counts"] == {"train": 16, "val": 4, "test": 5}

    def test_rerun_identical_up_to_solve_times(self, dataset_dir, tmp_path):
        # Measured solve durations are the one non-reproducible field in a
        # dataset line; everything else must match byte for byte.
        out2 = tmp_path / "ds2"
        assert run(
            "gen", "--c", 3, "--f", 100, "--T", 8, "--n", 25, "--seed", 12,
            "--demand-range", "1,40", "--out", out2,
        ) == 0
        assert (dataset_dir / "meta.json").read_bytes() == (out2 / "meta.json").read_bytes()
        for name in ("train.jsonl", "val.jsonl", "test.jsonl"):
            lines_a = (dataset_dir / name).read_text().splitlines()
            lines_b = (out2 / name).read_text().splitlines()
            assert len(lines_a) == len(lines_b)
            for a, b in zip(lines_a, lines_b):
                row_a, row_b = json.loads(a), json.loads(b)
                row_a["solution"].pop("time")
                row_b["solution"].pop("time")
                assert row_a == row_b

    def test_n_below_minimum_is_usage_error(self, tmp_path):
        assert run("gen", "--c", 3, "--f", 100, "--T", 8, "--n", 5,
                   "--out", tmp_path / "x") == 2

    def test_paper_demand_range_is_labelled(self, tmp_path):
        # The default demand range is d in [1, 600], the paper's.
        assert run("gen", "--c", 3, "--f", 100, "--T", 30, "--n", 10,
                   "--out", tmp_path / "paper") == 0

    def test_unknown_oracle_is_usage_error(self, tmp_path):
        assert run("gen", "--c", 3, "--f", 100, "--T", 8, "--n", 10,
                   "--oracle", "magic", "--out", tmp_path / "x") == 2


class TestSolve:
    def test_bnb_and_dp_agree(self, dataset_dir, tmp_path):
        assert run("solve", "--dataset", dataset_dir, "--solver", "bnb",
                   "--out", tmp_path / "a") == 0
        assert run("solve", "--dataset", dataset_dir, "--solver", "dp",
                   "--out", tmp_path / "b") == 0
        read = lambda p: [r["objective"] for r in csv.DictReader(open(p))]
        objs_a = read(tmp_path / "a" / "solutions.csv")
        objs_b = read(tmp_path / "b" / "solutions.csv")
        assert len(objs_a) == 5
        for a, b in zip(objs_a, objs_b):
            assert float(a) == pytest.approx(float(b), rel=1e-9)

    def test_brute_guard_on_long_horizon(self, tmp_path):
        big = tmp_path / "big"
        assert run("gen", "--c", 3, "--f", 100, "--T", 25, "--n", 10, "--seed", 1,
                   "--demand-range", "1,10", "--out", big) == 0
        assert run("solve", "--dataset", big, "--solver", "brute",
                   "--out", tmp_path / "bf") == 5

    def test_missing_dataset_is_io_error(self, tmp_path):
        assert run("solve", "--dataset", tmp_path / "absent", "--solver", "dp",
                   "--out", tmp_path / "o") == 3

    def test_unknown_solver_is_usage_error(self, dataset_dir, tmp_path):
        assert run("solve", "--dataset", dataset_dir, "--solver", "nope",
                   "--out", tmp_path / "o") == 2

    def test_cut_rounds_are_read_by_lscuts(self, dataset_dir, tmp_path):
        assert run("solve", "--dataset", dataset_dir, "--solver", "lscuts",
                   "--ls-rounds", 3, "--out", tmp_path / "o") == 0
        rows = list(csv.DictReader(open(tmp_path / "o" / "solutions.csv")))
        assert list(rows[0]) == ["instance_id", "status", "objective", "wall_time_s",
                                 "nodes", "lp_solves", "cuts", "cut_stop"]
        assert {r["cut_stop"] for r in rows} <= {"root-gap", "no-cut", "rounds"}
        for r in rows:
            assert (r["cut_stop"] == "root-gap") <= (r["cuts"] == "0")
        assert run("solve", "--dataset", dataset_dir, "--solver", "bnb",
                   "--out", tmp_path / "b") == 0
        rows = list(csv.DictReader(open(tmp_path / "b" / "solutions.csv")))
        assert {r["cut_stop"] for r in rows} == {"off"}

    # A negative limit made every solve a TimeLimit; a NaN gap_tol turned pruning off.
    @pytest.mark.parametrize("flags", [
        ("--solver", "bnb", "--time-limit", -1),
        ("--solver", "lscuts", "--gap-tol", "nan"),
    ], ids=["bnb-time-limit-neg", "lscuts-gap-tol-nan"])
    def test_bad_limit_is_usage_error(self, flags, dataset_dir, tmp_path, capsys):
        assert run("solve", "--dataset", dataset_dir, *flags, "--out", tmp_path / "o") == 2
        assert flags[2].lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# Only values that start no worker process: a pool of that size would be real.
@pytest.mark.parametrize("argv", [
    ["gen", "--c", 3, "--f", 100, "--T", 8, "--n", 10, "--demand-range", "1,20", "--jobs", 0],
    ["solve", "--solver", "dp", "--jobs", -3],
], ids=["gen-jobs0", "solve-jobs-3"])
def test_jobs_below_one_is_usage_error(argv, dataset_dir, tmp_path, capsys):
    if argv[0] == "solve":
        argv = argv + ["--dataset", dataset_dir]
    assert run(*argv, "--out", tmp_path / "o") == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# Each command sets a flag that the chosen solver or source would ignore.
@pytest.mark.parametrize("argv,flag", [
    (["solve", "--solver", "dp", "--time-limit", 1e-6, "--gap-tol", 0.9, "--ls-rounds", 9],
     "--time-limit"),
    (["solve", "--solver", "brute", "--gap-tol", 0.9], "--gap-tol"),
    (["solve", "--solver", "bnb", "--ls-rounds", 7], "--ls-rounds"),
    (["predict", "--baseline", "logistic", "--model", "/nonexistent.bin"], "--model"),
    (["predict", "--model", "/nonexistent.bin", "--seed", 3], "--seed"),
    (["solve", "--solver", "bnb", "--config", "ls_rounds = 7"], "--ls-rounds"),
], ids=["dp-all", "brute-gap-tol", "bnb-ls-rounds", "predict-both", "predict-model-seed",
        "config-ls-rounds"])
def test_ignored_flag_is_usage_error(argv, flag, dataset_dir, tmp_path, capsys):
    if "--config" in argv:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(argv[-1] + "\n")
        argv = argv[:-1] + [cfg]
    assert run(*argv, "--dataset", dataset_dir, "--out", tmp_path / "o") == EXIT_USAGE
    assert flag in capsys.readouterr().err


@pytest.fixture(scope="module")
def model_dir(dataset_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli") / "model"
    code = run(
        "train", "--dataset", dataset_dir, "--layers", 2, "--units", 10,
        "--epochs", 4, "--patience", 3, "--seed", 5, "--out", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def lr_probs(dataset_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("cli") / "lr"
    assert run("predict", "--dataset", dataset_dir, "--baseline", "logistic", "--out", out) == 0
    return out / "probs.jsonl"


# Each of these wrote a records.csv and exited 0: header only for an empty
# mode or level list, TimeLimit rows for a negative limit, unpruned search for
# a NaN gap tolerance.
@pytest.mark.parametrize("flags", [
    ("--mode", ","),
    ("--mode", "hard", "--levels", ""),
    ("--mode", "soft,hard", "--levels", ","),
    ("--time-limit", -1),
    ("--time-limit", "nan"),
    ("--gap-tol", "nan"),
    ("--gap-tol", -0.5),
], ids=["mode-empty", "levels-empty", "levels-comma", "time-limit-neg", "time-limit-nan",
        "gap-tol-nan", "gap-tol-neg"])
def test_bad_evaluate_input_is_usage_error(flags, dataset_dir, lr_probs, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run("evaluate", "--dataset", dataset_dir, "--probs", lr_probs, *flags,
               "--out", out) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_empty_levels_are_fine_without_hard_mode(dataset_dir, lr_probs, tmp_path):
    out = tmp_path / "eval"
    assert run("evaluate", "--dataset", dataset_dir, "--probs", lr_probs, "--mode", "soft",
               "--levels", "", "--out", out) == 0
    records = list(csv.DictReader(open(out / "records.csv")))
    assert len(records) == 5 and {r["mode"] for r in records} == {"soft"}


class TestTrainPredictEvaluateReport:
    def test_train_outputs(self, model_dir):
        assert (model_dir / "model.bin").exists()
        assert (model_dir / "model.bin.manifest.txt").exists()
        history = list(csv.DictReader(open(model_dir / "history.csv")))
        assert len(history) >= 1
        assert set(history[0]) == {"epoch", "train_loss", "val_accuracy", "wall_time_s"}

    def test_predict_evaluate_report(self, dataset_dir, model_dir, tmp_path):
        probs_dir = tmp_path / "probs"
        assert run("predict", "--dataset", dataset_dir, "--model",
                   model_dir / "model.bin", "--out", probs_dir) == 0
        rows = [json.loads(l) for l in open(probs_dir / "probs.jsonl")]
        assert len(rows) == 5
        assert all(len(r["probs"]) == 8 for r in rows)

        eval_dir = tmp_path / "eval"
        assert run("evaluate", "--dataset", dataset_dir, "--probs",
                   probs_dir / "probs.jsonl", "--levels", "0,50",
                   "--mode", "hard", "--out", eval_dir) == 0
        records = list(csv.DictReader(open(eval_dir / "records.csv")))
        assert len(records) == 10
        level0 = [r for r in records if float(r["level_pct"]) == 0.0]
        assert all(float(r["optgap_pct"]) == pytest.approx(0.0, abs=1e-9) for r in level0)

        # Bad evaluate input is a usage error, not a traceback.
        short = tmp_path / "short.jsonl"
        short.write_text("".join(
            json.dumps({**r, "probs": r["probs"][:-1]}) + "\n" for r in rows))
        assert run("evaluate", "--dataset", dataset_dir, "--probs", short,
                   "--out", tmp_path / "bad_eval") == 2
        assert run("evaluate", "--dataset", dataset_dir, "--probs",
                   probs_dir / "probs.jsonl", "--mode", "bogus",
                   "--out", tmp_path / "bad_eval") == 2

        rep_dir = tmp_path / "rep"
        assert run("report", "--records", eval_dir / "records.csv", "--out", rep_dir) == 0
        assert (rep_dir / "report.md").exists()
        assert (rep_dir / "fig_levels_hard.csv").exists()

    def test_logistic_baseline_same_schema(self, dataset_dir, tmp_path):
        probs_dir = tmp_path / "lr"
        assert run("predict", "--dataset", dataset_dir, "--baseline", "logistic",
                   "--out", probs_dir) == 0
        eval_dir = tmp_path / "lr_eval"
        assert run("evaluate", "--dataset", dataset_dir, "--probs",
                   probs_dir / "probs.jsonl", "--levels", "50",
                   "--mode", "hard", "--out", eval_dir) == 0
        records = list(csv.DictReader(open(eval_dir / "records.csv")))
        assert {"instance_id", "mode", "level_pct", "status", "z_star", "z_tilde",
                "time_plain_s", "time_ml_s", "k_fixed", "optgap_pct",
                "c_ratio", "f_ratio", "T"} == set(records[0])

    def test_plain_time_is_measured_not_stored(self, dataset_dir, tmp_path):
        # evaluate times the plain solve on the ML solves' stack; the oracle
        # time stored in the dataset must not reach the records.
        slow = tmp_path / "slow"
        shutil.copytree(dataset_dir, slow)
        rows = [json.loads(l) for l in (slow / "test.jsonl").read_text().splitlines()]
        for row in rows:
            row["solution"]["time"] = 1e6
        (slow / "test.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
        probs_dir = tmp_path / "lr"
        assert run("predict", "--dataset", slow, "--baseline", "logistic",
                   "--out", probs_dir) == 0
        assert run("evaluate", "--dataset", slow, "--probs", probs_dir / "probs.jsonl",
                   "--levels", "0", "--mode", "hard,warm", "--out", tmp_path / "eval") == 0
        records = list(csv.DictReader(open(tmp_path / "eval" / "records.csv")))
        assert len(records) == 2 * len(rows)
        assert all(float(r["time_plain_s"]) < 1e6 for r in records)
        for r, row in zip(records[::2], rows):
            assert float(r["z_star"]) == pytest.approx(row["solution"]["objective"], rel=1e-9)

    def test_prediction_time_counts_in_ml_time(self, dataset_dir, tmp_path):
        # predict writes each instance's forward-pass time; evaluate adds it to timeML.
        probs_dir = tmp_path / "lr"
        assert run("predict", "--dataset", dataset_dir, "--baseline", "logistic",
                   "--out", probs_dir) == 0
        rows = [json.loads(l) for l in open(probs_dir / "probs.jsonl")]
        assert all(r["predict_s"] > 0 for r in rows)
        slow = tmp_path / "slow.jsonl"
        slow.write_text("".join(json.dumps({**r, "predict_s": 5.0}) + "\n" for r in rows))
        assert run("evaluate", "--dataset", dataset_dir, "--probs", slow, "--levels", "0,50",
                   "--mode", "hard,soft,warm", "--out", tmp_path / "eval") == 0
        records = list(csv.DictReader(open(tmp_path / "eval" / "records.csv")))
        assert len(records) == 4 * len(rows)
        assert all(float(r["time_ml_s"]) >= 5.0 for r in records)

    def test_untimed_probability_rows_are_counted(self, dataset_dir, tmp_path):
        # A row without predict_s is read as 0 s; the evaluate manifest counts such rows.
        probs_dir = tmp_path / "lr"
        assert run("predict", "--dataset", dataset_dir, "--baseline", "logistic",
                   "--out", probs_dir) == 0
        rows = [json.loads(l) for l in open(probs_dir / "probs.jsonl")]
        untimed = tmp_path / "untimed.jsonl"
        untimed.write_text("".join(
            json.dumps({k: v for k, v in r.items() if k != "predict_s" or i % 2}) + "\n"
            for i, r in enumerate(rows)
        ))
        for probs, expected in ((probs_dir / "probs.jsonl", 0), (untimed, (len(rows) + 1) // 2)):
            out = tmp_path / f"eval-{expected}"
            assert run("evaluate", "--dataset", dataset_dir, "--probs", probs, "--levels", "50",
                       "--out", out) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["inputs"] == {"probability_rows_without_predict_s": expected}

    def test_evaluate_rejects_jobs(self, dataset_dir, tmp_path):
        # evaluate runs in one process; a --jobs flag would be accepted and ignored.
        proc = subprocess.run(
            [sys.executable, "-m", "lotsize.cli", "evaluate", "--dataset", str(dataset_dir),
             "--probs", str(tmp_path / "probs.jsonl"), "--jobs", "2",
             "--out", str(tmp_path / "eval")],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == EXIT_USAGE
        assert "--jobs" in proc.stderr
        assert "Traceback" not in proc.stderr

    # One epoch: a NaN step would only surface as divergence at the second.
    @pytest.mark.parametrize("flags", [("--epochs", 0), ("--lr", "nan", "--epochs", 1),
                                       ("--patience", 0, "--epochs", 1)],
                             ids=["epochs0", "lr-nan", "patience0"])
    def test_bad_train_config_is_usage_error(self, flags, dataset_dir, tmp_path):
        assert run("train", "--dataset", dataset_dir, *flags, "--out", tmp_path / "m") == 2

    def test_predict_without_source_is_usage_error(self, dataset_dir, tmp_path):
        assert run("predict", "--dataset", dataset_dir, "--out", tmp_path / "x") == 2

    def test_tampered_model_version_is_format_error(self, dataset_dir, model_dir, tmp_path):
        import struct
        from lotsize.nn.model_io import MAGIC

        bad = tmp_path / "bad.bin"
        raw = bytearray((model_dir / "model.bin").read_bytes())
        header_len = struct.unpack_from("<Q", raw, len(MAGIC))[0]
        header = raw[len(MAGIC) + 8 : len(MAGIC) + 8 + header_len]
        header = header.replace(b'"format_version": 1', b'"format_version": 7')
        bad.write_bytes(bytes(raw[: len(MAGIC) + 8]) + bytes(header)
                        + bytes(raw[len(MAGIC) + 8 + header_len :]))
        assert run("predict", "--dataset", dataset_dir, "--model", bad,
                   "--out", tmp_path / "y") == 4

    @pytest.mark.parametrize("raw", [
        MAGIC + b"\x01\x02",
        MAGIC + struct.pack("<Q", len(NO_WIDTH)) + NO_WIDTH,
    ], ids=["short-length", "no-width"])
    def test_unparsable_model_is_format_error(self, raw, dataset_dir, tmp_path):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(raw)
        proc = subprocess.run(
            [sys.executable, "-m", "lotsize.cli", "predict", "--dataset", str(dataset_dir),
             "--model", str(bad), "--out", str(tmp_path / "y")],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        assert "Traceback" not in proc.stderr


RECORD_ROW = "test-000000,3,100.0,8,hard,50.0,Optimal,{z},17.0,0.01,0.005,4,0.0\n"


def _corrupt(kind: str, dataset_dir: Path, tmp: Path) -> list:
    """Write an input file whose line 2 is malformed; return the command reading it."""
    good_probs = json.dumps({"instance_id": "test-000000", "probs": [0.5] * 8})
    probs = tmp / "probs.jsonl"
    evaluate = ["evaluate", "--dataset", dataset_dir, "--probs", probs, "--out", tmp / "o"]
    if kind.startswith("probs"):
        probs.write_text(good_probs + "\n" + {
            "probs-truncated": good_probs[:-5] + "\n",
            "probs-string": json.dumps({"instance_id": "test-000000", "probs": [0.5, "a"]}) + "\n",
            "probs-missing": json.dumps({"instance_id": "test-000000"}) + "\n",
            "probs-repeated-id": json.dumps({"instance_id": "test-000000", "probs": [0.25] * 8})
            + "\n",
        }[kind])
        return evaluate
    if kind.startswith("dataset"):
        ds = tmp / "ds"
        shutil.copytree(dataset_dir, ds)
        lines = (ds / "test.jsonl").read_text().splitlines(keepends=True)
        if kind == "dataset-truncated":
            lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
        else:
            row = json.loads(lines[1])
            if kind == "dataset-fractional-horizon":
                row["instance"]["T"] += 0.5
            else:
                row["instance"]["d"][0] += 0.5
            lines[1] = json.dumps(row) + "\n"
        (ds / "test.jsonl").write_text("".join(lines))
        return ["solve", "--dataset", ds, "--solver", "dp", "--out", tmp / "o"]
    from lotsize.dataio import RECORD_COLUMNS

    row = {"records-truncated": RECORD_ROW.format(z=17.0)[:30] + "\n",
           "records-z-star": RECORD_ROW.format(z="abc")}[kind]
    records = tmp / "records.csv"
    records.write_text(",".join(RECORD_COLUMNS) + "\n" + row + RECORD_ROW.format(z=17.0))
    return ["report", "--records", records, "--out", tmp / "o"]


@pytest.mark.parametrize("kind", [
    "probs-truncated", "probs-string", "probs-missing", "probs-repeated-id",
    "dataset-truncated", "dataset-fractional-demand", "dataset-fractional-horizon",
    "records-truncated", "records-z-star",
])
def test_malformed_input_file_is_usage_error(kind, dataset_dir, tmp_path):
    argv = _corrupt(kind, dataset_dir, tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "lotsize.cli", *map(str, argv)],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert ":2: malformed entry" in proc.stderr


@pytest.mark.parametrize("field,value", [("T", 8.5), ("seed", 1.5), ("c_ratio", 3.9)])
def test_fractional_meta_parameter_is_usage_error(field, value, dataset_dir, tmp_path):
    ds = tmp_path / "ds"
    shutil.copytree(dataset_dir, ds)
    meta = json.loads((ds / "meta.json").read_text())
    meta["gen_params"][field] = value
    (ds / "meta.json").write_text(json.dumps(meta) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "lotsize.cli", "solve", "--dataset", str(ds), "--solver", "dp",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=subprocess_env(), timeout=120,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "meta.json:1: malformed entry" in proc.stderr and field in proc.stderr


class TestConfigFile:
    def test_config_provides_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("c = 3\nf = 100\nT = 8\nn = 25\nseed = 12\ndemand_range = 1,40\n")
        out = tmp_path / "from_cfg"
        assert run("gen", "--config", cfg, "--out", out) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["gen_params"]["seed"] == 12
        out2 = tmp_path / "override"
        assert run("gen", "--config", cfg, "--seed", 13, "--out", out2) == 0
        meta2 = json.loads((out2 / "meta.json").read_text())
        assert meta2["gen_params"]["seed"] == 13

    # jobs and oracle are options of other commands, not of the chosen one.
    @pytest.mark.parametrize("command,line", [
        ("gen", "bogus_key = 1"), ("evaluate", "jobs = 2"), ("solve", "oracle = dp"),
    ], ids=["gen-bogus_key", "evaluate-jobs", "solve-oracle"])
    def test_unknown_config_key_is_usage_error(self, command, line, dataset_dir, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        flags = {
            "gen": ["--c", 3, "--f", 100, "--T", 8, "--n", 10],
            "evaluate": ["--dataset", dataset_dir, "--probs", tmp_path / "probs.jsonl"],
            "solve": ["--dataset", dataset_dir, "--solver", "dp"],
        }[command]
        assert run(command, "--config", cfg, *flags, "--out", tmp_path / "o") == 2


def test_scripts_print_help():
    # Each script imports its names from the package at start-up.
    scripts = sorted(SCRIPTS.glob("*.py"))
    assert scripts
    for script in scripts:
        proc = subprocess.run(
            [sys.executable, str(script), "--help"],
            capture_output=True, text=True, env=subprocess_env(), timeout=120,
        )
        assert proc.returncode == 0, f"{script.name}: {proc.stderr}"


def test_horizon_script_evaluates_chunked_predictions(model_dir):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "horizon_generalization.py"),
         "--model", str(model_dir / "model.bin"), "--chunk-T", "8", "--T", "16",
         "--n", "3", "--levels", "50"],
        capture_output=True, text=True, env=subprocess_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # A title line, the table header, then one row per level.
    assert [row.split()[0] for row in proc.stdout.splitlines()[2:]] == ["50"]
