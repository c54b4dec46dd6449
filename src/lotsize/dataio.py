"""On-disk formats: dataset directories, probability files, records CSV.

A dataset directory holds ``meta.json`` plus one JSON-lines file per split;
each line pairs an instance with its oracle solution. Writing is canonical
(sorted keys, no timestamps), so regeneration with the same seed differs
only in each solution's measured solve ``time``; timestamps live only in
the run manifest.
"""

from __future__ import annotations

import csv
import json
import typing
from contextlib import contextmanager
from pathlib import Path

from .core import STATUS_OPTIMAL, Instance, Solution
from .errors import DimensionError, UsageError, ValidationError
from .generate import Dataset, GenParams
from .pipeline import EvalRecord, PredictionVector

SPLIT_FILES = {"train": "train.jsonl", "val": "val.jsonl", "test": "test.jsonl"}


def _cell_parser(hint):
    """The parser of one records column: a ``T | None`` field reads '' as None."""
    kinds = [t for t in typing.get_args(hint) if t is not type(None)]
    return (lambda cell: kinds[0](cell) if cell else None) if kinds else hint


# Column -> parser, from EvalRecord's own field annotations, in file order.
_RECORD_PARSERS = {col: _cell_parser(t) for col, t in typing.get_type_hints(EvalRecord).items()}


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@contextmanager
def _entry(path: Path, lineno: int):
    """Report a malformed entry as a ValidationError naming ``path:line``."""
    try:
        yield
    except (ValueError, KeyError, TypeError, ValidationError, DimensionError) as exc:
        raise ValidationError(f"{path}:{lineno}: malformed entry: {exc!r}") from exc


def write_dataset(dataset: Dataset, path: str | Path) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    counts = {name: len(pairs) for name, pairs in dataset.splits()}
    meta = {
        "format": 1,
        "gen_params": dataset.gen_params.to_dict(),
        "split_fractions": list(dataset.split_fractions),
        "counts": counts,
        "oracle": dataset.provenance.get("oracle", ""),
        "n": dataset.n,
    }
    (path / "meta.json").write_text(_dump(meta) + "\n", encoding="utf-8")
    for name, pairs in dataset.splits():
        with open(path / SPLIT_FILES[name], "w", encoding="utf-8") as fh:
            for inst, sol in pairs:
                fh.write(_dump({"instance": inst.to_dict(), "solution": sol.to_dict()}) + "\n")
    return path


def read_dataset(path: str | Path) -> Dataset:
    path = Path(path)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no dataset at {path} (missing meta.json)")
    with _entry(meta_path, 1):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        gen_params = GenParams.from_dict(meta["gen_params"])
        fractions = tuple(meta.get("split_fractions", (0.64, 0.16, 0.20)))
    splits = {}
    for name, fname in SPLIT_FILES.items():
        pairs = []
        fpath = path / fname
        if fpath.exists():
            with open(fpath, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    with _entry(fpath, lineno):
                        row = json.loads(line)
                        inst = Instance.from_dict(row["instance"])
                        sol = Solution.from_dict(row["solution"], status=STATUS_OPTIMAL)
                    pairs.append((inst, sol))
        splits[name] = pairs
    return Dataset(
        train=splits["train"],
        validation=splits["val"],
        test=splits["test"],
        gen_params=gen_params,
        split_fractions=fractions,
        provenance={"oracle": meta.get("oracle", ""), "n": meta.get("n")},
    )


def split_ids(split_name: str, n: int) -> list[str]:
    """Stable per-line identifiers used by probability and record files."""
    return [f"{split_name}-{i:06d}" for i in range(n)]


def write_probabilities(path: str | Path, ids: list[str], preds: list[PredictionVector]) -> Path:
    """One row per instance: its probabilities, source and ``predict_s`` seconds."""
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for iid, pred in zip(ids, preds):
            row = {
                "instance_id": iid,
                "probs": [float(v) for v in pred.probs],
                "predict_s": float(pred.predict_seconds),
            }
            if pred.source:
                row["source"] = pred.source
            fh.write(_dump(row) + "\n")
    return path


def read_probabilities(path: str | Path) -> tuple[dict[str, PredictionVector], int]:
    """Predictions by instance id, and how many rows had no ``predict_s``.

    A row without ``predict_s`` is read as taking 0 seconds. A repeated
    ``instance_id`` is a malformed row.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no probability file at {path}")
    out: dict[str, PredictionVector] = {}
    untimed = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            with _entry(path, lineno):
                row = json.loads(line)
                untimed += "predict_s" not in row
                seconds = float(row.get("predict_s", 0.0))
                if not 0.0 <= seconds < float("inf"):
                    raise ValueError(f"predict_s must be a finite non-negative time, got {seconds}")
                iid = row["instance_id"]
                if iid in out:
                    raise ValueError(f"instance_id {iid!r} repeats an earlier row")
                out[iid] = PredictionVector(
                    probs=[float(v) for v in row["probs"]],
                    source=str(row.get("source", "")),
                    predict_seconds=seconds,
                )
    return out, untimed


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_records_csv(path: str | Path, records: list[EvalRecord]) -> Path:
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RECORD_PARSERS)
        for r in records:
            writer.writerow([_fmt(getattr(r, col)) for col in _RECORD_PARSERS])
    return path


def read_records_csv(path: str | Path) -> list[EvalRecord]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no records file at {path}")
    records = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [col for col in _RECORD_PARSERS if col not in (reader.fieldnames or ())]
        if missing:
            raise UsageError(f"records file {path} lacks the columns {missing}")
        for row in reader:
            with _entry(path, reader.line_num):
                records.append(EvalRecord(**{c: p(row[c]) for c, p in _RECORD_PARSERS.items()}))
    if not records:
        raise ValidationError(f"records file {path} is empty")
    return records
