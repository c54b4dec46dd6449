"""Run manifests: who produced an output directory, from what, when, on
what environment, and in how much wall and CPU time."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import scipy

MANIFEST_NAME = "manifest.json"


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _versions() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class RunManifest:
    command: list[str]
    config: dict
    seeds: dict = field(default_factory=dict)
    artifacts: dict = field(default_factory=dict)
    # Facts about the inputs read that change what the outputs mean.
    inputs: dict = field(default_factory=dict)
    tool_version: str = ""
    started_at: str = field(default_factory=_now)
    finished_at: str = ""
    host: str = field(default_factory=platform.platform)
    # CPUs this process may run on.
    nproc: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))
    versions: dict = field(default_factory=_versions)
    # Wall and process CPU seconds from construction to ``finish``.
    wall_s: float = 0.0
    cpu_s: float = 0.0

    def __post_init__(self):
        self._clock_start = (time.perf_counter(), time.process_time())

    def finish(self, out_dir: str | Path, artifact_files: list[str | Path]) -> Path:
        """Hash the produced files and write the manifest into ``out_dir``."""
        out_dir = Path(out_dir)
        for f in artifact_files:
            f = Path(f)
            self.artifacts[str(f.relative_to(out_dir) if f.is_relative_to(out_dir) else f)] = (
                sha256_file(f)
            )
        self.finished_at = _now()
        self.wall_s = time.perf_counter() - self._clock_start[0]
        self.cpu_s = time.process_time() - self._clock_start[1]
        path = out_dir / MANIFEST_NAME
        path.write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n", "utf-8")
        return path
