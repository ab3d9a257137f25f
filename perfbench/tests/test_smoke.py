"""Seconds-long smoke test of the benchmark command.

Run with ``python -m pytest perfbench/tests -q``; Tier-1 (``tests/``) does not
collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return dest


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric() -> None:
    out = result_line(bench(ROOT, "--workload", "cached", "--seed", "1",
                            "--seconds", "1", "--trace", "0"))
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_per_layer_metric() -> None:
    proc = bench(ROOT, "--workload", "replay", "--seed", "2", "--seconds", "1", "--trace", "1")
    out = result_line(proc)
    assert out["correct"] is True
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert "replay records are byte-identical to the recording pass's: ok" in proc.stdout
    assert (ROOT / ".bench_work" / "spans" / "replay-seed2.jsonl").is_file()


def test_wrong_verdicts_fail_the_run(tmp_path: Path) -> None:
    root = copy_checkout(tmp_path, with_src=True)
    runner = root / "src" / "contrafact" / "runner.py"
    # runner looks `verify` up in its own namespace, so this rebinding is what runs
    runner.write_text(runner.read_text(encoding="utf-8") + (
        "\n\n_verify = verify\n\n\n"
        "def verify(*args, **kwargs):\n"
        "    verdict = _verify(*args, **kwargs)\n"
        "    return type(verdict)(label='true', value=6, raw='true')\n"
    ), encoding="utf-8")
    proc = bench(root, "--workload", "replay", "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 1
    assert "each verdict is the scripted label: FAILED" in proc.stdout
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_fails_without_the_package_source(tmp_path: Path) -> None:
    root = copy_checkout(tmp_path, with_src=False)
    proc = bench(root, "--workload", "live", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
