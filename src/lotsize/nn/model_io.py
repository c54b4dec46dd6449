"""Versioned binary container for trained model weights.

Layout: an 8-byte magic, an 8-byte little-endian header length, a JSON
header, then the raw little-endian float64 tensors concatenated in the order
listed by the header. A sibling ``<path>.manifest.txt`` lists every tensor
with its shape and SHA-256 checksum.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from ..errors import ModelFormatError, ValidationError
from .lstm import BiLstmModel
from .standardize import Standardizer

MAGIC = b"LSWGHT1\n"
FORMAT_VERSION = 1


def _tensor_bytes(arr: np.ndarray) -> bytes:
    return np.ascontiguousarray(arr, dtype="<f8").tobytes()


def save_model(model: BiLstmModel, path: str | Path) -> Path:
    """Write the weight container and its text manifest; returns the path."""
    path = Path(path)
    params = model.parameters()
    names = list(params.keys())
    header = {
        "format_version": FORMAT_VERSION,
        "layer_count": model.layer_count,
        "width": model.width,
        "dropout": model.dropout_rate,
        "input_size": model.input_size,
        "feature_mean": [float(v) for v in model.standardizer.mean]
        if model.standardizer
        else None,
        "feature_std": [float(v) for v in model.standardizer.std]
        if model.standardizer
        else None,
        "tensors": [{"name": n, "shape": list(params[n].shape)} for n in names],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    manifest_lines = []
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for name in names:
            blob = _tensor_bytes(params[name])
            fh.write(blob)
            digest = hashlib.sha256(blob).hexdigest()
            shape = "x".join(str(s) for s in params[name].shape) or "scalar"
            manifest_lines.append(f"{name} {shape} {digest}")
    manifest_path = Path(str(path) + ".manifest.txt")
    manifest_path.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    return path


def load_model(path: str | Path) -> BiLstmModel:
    """Read a weight container; raises ModelFormatError on any mismatch."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    if raw[: len(MAGIC)] != MAGIC:
        raise ModelFormatError(f"{path} is not a model weight file")
    # Any failure to parse the header or the tensors means a corrupt file.
    try:
        return _decode(raw)
    except (struct.error, KeyError, TypeError, ValueError, AttributeError, OverflowError,
            ValidationError) as exc:
        raise ModelFormatError(f"corrupt model file {path}: {exc!r}") from exc


def _decode(raw: bytes) -> BiLstmModel:
    offset = len(MAGIC)
    (header_len,) = struct.unpack_from("<Q", raw, offset)
    offset += 8
    header = json.loads(raw[offset : offset + header_len].decode("utf-8"))
    offset += header_len
    if header.get("format_version") != FORMAT_VERSION:
        raise ModelFormatError(
            f"model format version {header.get('format_version')!r} unsupported; "
            f"this build reads version {FORMAT_VERSION}"
        )
    standardizer = None
    if header.get("feature_mean") is not None:
        standardizer = Standardizer(
            mean=np.array(header["feature_mean"]), std=np.array(header["feature_std"])
        )
    model = BiLstmModel.initialize(
        layer_count=int(header["layer_count"]),
        width=int(header["width"]),
        dropout_rate=float(header["dropout"]),
        input_size=int(header["input_size"]),
        seed=0,
        standardizer=standardizer,
    )
    expected = model.parameters()
    loaded: set[str] = set()
    for entry in header["tensors"]:
        name = entry["name"]
        shape = tuple(entry["shape"])
        if name not in expected or expected[name].shape != shape:
            raise ModelFormatError(f"unexpected tensor {name} with shape {shape}")
        count = int(np.prod(shape)) if shape else 1
        blob = raw[offset : offset + 8 * count]
        if len(blob) != 8 * count:
            raise ModelFormatError(f"truncated tensor data for {name}")
        expected[name][...] = np.frombuffer(blob, dtype="<f8").reshape(shape)
        loaded.add(name)
        offset += 8 * count
    if offset != len(raw):
        raise ModelFormatError("trailing bytes after declared tensors")
    if loaded != set(expected):
        raise ModelFormatError("tensor list does not cover the declared architecture")
    return model
