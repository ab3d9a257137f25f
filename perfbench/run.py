"""Offline end-to-end benchmark of contrafact's `full` pipeline.

    python3 perfbench/run.py --workload live|cached|replay|all --seed N \
        --seconds S --trace 0|1

Generates a seeded corpus, prepares the workload's inputs untimed, measures
the workload in a fresh process (and, with --trace 1, again with every layer
boundary wrapped), checks the program's outputs, prints every metric by name
with its unit, and ends with one JSON line. Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from checkout import ROOT, import_contrafact

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
# end-to-end figures that are 0 on some workload, so BENCHMARK.json lists them
# with the unbounded per-layer metrics
COUNTS = ("case_fail_share", "backend_calls_per_case", "prompt_kchars_per_case")


def _measure_in_child(job: dict, work: Path, tag: str) -> dict:
    """Measure in a fresh process with a fixed hash seed, so dict and set
    layouts are the same on every run."""
    job_path = work / f"{tag}-job.json"
    result = work / f"{tag}-result.json"
    job_path.write_text(json.dumps({**job, "result": str(result)}), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "measure.py"), str(job_path)],
                   check=True, timeout=CHILD_TIMEOUT_S, stdout=sys.stderr,
                   env={**os.environ, "PYTHONHASHSEED": "0"})
    return json.loads(result.read_text(encoding="utf-8"))


def _records(run_dir: str) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted((Path(run_dir) / "records").glob("*.json"))}


def _same_records(a: str, b: str) -> bool:
    return _records(a) == _records(b)


def _output_checks(corpus, run_dir: str) -> list[tuple[str, bool]]:
    from corpus_gen import expected_macro_f1

    records = {r["case_id"]: r for r in map(json.loads, _records(run_dir).values())}
    metrics = json.loads((Path(run_dir) / "metrics.json").read_text(encoding="utf-8"))
    pairs = [(case.gold_label, corpus.verdicts[case.id]) for case in corpus.cases]
    report = metrics.get("report") or {}
    macro_f1 = (report.get("macro") or {}).get("f1")
    return [
        ("every case ends done", len(records) == len(corpus.cases)
         and all(r["status"] == "done" for r in records.values())),
        ("each verdict is the scripted label", all(
            (records.get(case.id, {}).get("verdict") or {}).get("label")
            == corpus.verdicts[case.id] for case in corpus.cases)),
        ("metrics.json macro-F1 equals the expected value",
         macro_f1 is not None and abs(macro_f1 - expected_macro_f1(pairs)) < 1e-9),
    ]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    from contrafact.corpus import write_canonical

    from corpus_gen import generate
    from harness import WORKLOADS, Spec, run_pass

    workload = WORKLOADS[name]
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        corpus = generate(seed, workload.cases_per_pass)
        write_canonical(corpus.cases, work / "corpus")
        base = Spec(seed=seed, dataset=str(work / "corpus"), run_dir="",
                    verdicts=corpus.verdicts, workers=workload.workers,
                    latency=workload.latency)

        def spec(tag: str, **changes) -> Spec:
            return replace(base, run_dir=str(work / tag / "run"), **changes)

        recording = None
        if workload.cache == "warm":
            run_pass(spec("fill", latency=False, cache_dir=str(work / "cache")))
        if workload.replay:
            recording = spec("recording", latency=False,
                             record_path=str(work / "recording.jsonl"))
            run_pass(recording)

        os.sync()  # flush the set-up's writes before the timed passes
        job = {"base": base.to_dict(), "workload": name, "work": str(work),
               "replay_path": recording.record_path if recording else None,
               "seconds": seconds, "trace": False}
        result = _measure_in_child(job, work, "timed")
        first, *others = result["run_dirs"]
        checks = _output_checks(corpus, first)
        checks.append((f"all {len(others) + 1} timed passes produce byte-identical record files",
                       all(_same_records(run_dir, first) for run_dir in others)))
        traced = None
        if trace:
            spans = WORK / "spans" / f"{name}-seed{seed}.jsonl"
            traced = _measure_in_child({**job, "trace": True, "spans": str(spans)},
                                       work, "traced")
            traced["spans_path"] = str(spans)
            checks.append(("traced run records are byte-identical to the untraced run's",
                           _same_records(traced["run_dirs"][0], first)))
        if recording is not None:
            checks.append(("replay records are byte-identical to the recording pass's",
                           _same_records(recording.run_dir, first)))
        if workload.cache == "warm":
            checks.append(("cached sends 0 backend calls", result["backend_calls"] == 0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        os.sync()
    return {
        "workload": name,
        "seed": seed,
        "shares": corpus.report_count_shares(),
        "e2e": result["e2e"],
        "traced": traced,
        "checks": checks,
    }


def _print_workload(out: dict, spec: dict) -> None:
    name, e2e = out["workload"], out["e2e"]
    passes = len(e2e["_pass_rates"])
    print(f"[{name}] seed={out['seed']} cases={e2e['_cases_per_pass']} x {passes} timed passes;"
          " report-count shares: "
          + " ".join(f"{k}:{v:.0%}" for k, v in out["shares"].items()))
    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    for metric in ("cases_per_s", "case_p50_s", "case_tail_s", "setup_s", "peak_rss_mb",
                   *COUNTS):
        extra = ""
        if metric == "cases_per_s":
            extra = " (median of passes: " + ", ".join(f"{r:.4g}" for r in e2e["_pass_rates"]) + ")"
        if metric == "case_p50_s":
            extra = f" (median of {passes} passes)"
        if metric == "case_tail_s":
            extra = (f" (p{e2e['_tail_pct']} of each pass's {e2e['_cases_per_pass']} cases;"
                     f" median of {passes} passes)")
        if metric == "setup_s":
            extra = f" (median of {len(e2e['_setup_samples'])} set-ups)"
        unit = units[metric]
        print(f"[{name}] {metric:<28} {e2e[metric]:.6g} {unit['unit']}"
              f" ({unit['better']} is better){extra}")
    traced = out["traced"]
    if traced is not None:
        layers, notes = traced["layers"], traced["notes"]
        values = _layer_values(out)
        for metric in spec["per_layer"]:
            key = metric["name"]
            if key in values:
                print(f"[{name}] {key:<40} {values[key]:.6g} {metric['unit']}")
            else:
                print(f"[{name}] {key:<40} missing (wrap target not found)")
        print(f"[{name}] trace: {notes['spans']} spans in {traced['spans_path']}; traced "
              f"{traced['e2e']['cases_per_s']:.4g} cases/s against untraced "
              f"{e2e['cases_per_s']:.4g}: "
              f"overhead {values['trace.overhead_pct']:.2f}%")
        print(f"[{name}] trace: case_p50_s {notes['case_p50_s']:.4f} s = serial depth p50 "
              f"x mean latency {notes['depth_x_latency_s']:.4f} s + gap "
              f"{layers['runner.unexplained_p50_s']:.4f} s")
        if "gateway.cache_hit_ratio" in layers:
            print(f"[{name}] trace: cache hit ratio {layers['gateway.cache_hit_ratio']:.4f} "
                  f"({notes['cache_hits']} hits of {notes['cache_gets']} gets)")
        print(f"[{name}] trace: extraction drop ratio {layers['extraction.drop_ratio']:.4f} "
              f"({notes['dropped']} dropped of {notes['drop_base']} entities and triples)")
        selfs = sorted(((v, k) for k, v in layers.items() if k.startswith("self.")),
                       reverse=True)
        print(f"[{name}] trace: self time per case by layer: "
              + ", ".join(f"{k[5:-11]} {v * 1000:.2f} ms" for v, k in selfs))
    for label, ok in out["checks"]:
        print(f"[{name}] check: {label}: {'ok' if ok else 'FAILED'}")


def _layer_values(out: dict) -> dict:
    """Per-layer metrics of the traced run, its case counts and the tracing cost."""
    traced = out["traced"]
    untraced_rate = out["e2e"]["cases_per_s"]
    values = {key: traced["e2e"][key] for key in COUNTS}
    values.update(traced["layers"])
    values["trace.cases_per_s"] = traced["e2e"]["cases_per_s"]
    values["trace.overhead_pct"] = (
        (untraced_rate - traced["e2e"]["cases_per_s"]) / untraced_rate * 100)
    return values


def _metric_values(out: dict, spec: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        names, values = spec["per_layer"], _layer_values(out)
    else:
        names, values = spec["end_to_end"], out["e2e"]
    return {prefix + m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in names if m["name"] in values}


def main(argv: list[str] | None = None) -> int:
    from harness import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outs = []
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except subprocess.SubprocessError as exc:
            print(f"[{name}] check: workload ran to completion: FAILED ({exc!r})")
            return 1
        _print_workload(out, spec)
        outs.append(out)
    prefix = len(outs) > 1
    metrics = {}
    for out in outs:
        metrics.update(_metric_values(out, spec, bool(args.trace),
                                      f"{out['workload']}." if prefix else ""))
    correct = all(ok for out in outs for _, ok in out["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": sum(out["e2e"]["_cases"] for out in outs),
        "failed": sum(out["e2e"]["_failed"] for out in outs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    import_contrafact()
    sys.exit(main())
