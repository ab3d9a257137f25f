"""The benchmark's per-layer metrics wrap functions of the package by name
(`perfbench/spans.py`); a renamed target silently drops its metrics, so every
target must still exist."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_benchmark_wrap_target_exists() -> None:
    script = """
import json
import spans
tracer = spans.Tracer()
spans.install(tracer)
print(json.dumps(tracer.missing))
"""
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(out.stdout) == []
