"""Workload definitions, gateway set-up and the measured run.

Shared by ``run.py`` (which prepares inputs and checks outputs) and
``measure.py`` (the fresh process that measures one workload).
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from contrafact.gateway import LlmGateway, RecordingWriter, ResponseCache
from contrafact.gateway.embedding import parse_embedder_id
from contrafact.runner import CaseRunner, RunConfig, run

from corpus_gen import SCHEME
from latency_backend import CallStats, CountingReplayBackend, LatencyBackend, Responder


@dataclass(frozen=True)
class Workload:
    workers: int
    latency: bool  # seeded per-call latency at the backend during the timed run
    cache: str | None  # None, "cold" or "warm" (filled by an untimed pass)
    record: bool  # RecordingWriter on during the timed run
    replay: bool  # ReplayBackend over a recording made by an untimed pass
    cases_per_pass: int  # corpus size; every timed pass runs the whole corpus


WORKLOADS = {
    "live": Workload(
        workers=2, latency=True, cache="cold", record=True, replay=False,
        cases_per_pass=50,
    ),
    "cached": Workload(
        workers=2, latency=True, cache="warm", record=True, replay=False,
        cases_per_pass=80,
    ),
    "replay": Workload(
        workers=1, latency=False, cache=None, record=False, replay=True,
        # enough cases for the O(N) manifest rewrite to grow visibly over a pass
        cases_per_pass=160,
    ),
}
MIN_PASSES = 2
SETUP_PROBES = 30


@dataclass(frozen=True)
class Spec:
    """Everything one pipeline run needs; travels to measure.py as JSON."""

    seed: int
    dataset: str
    run_dir: str
    verdicts: dict
    workers: int
    latency: bool
    cache_dir: str | None = None
    record_path: str | None = None
    replay_path: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def pass_spec(base: Spec, workload: str, work: Path, tag: str,
              replay_path: str | None) -> Spec:
    """The spec of one measured pass: its own run directory, plus its own cold
    cache and recording where the workload has them."""
    w = WORKLOADS[workload]
    changes = {}
    if w.cache:
        changes["cache_dir"] = str(work / tag / "cache" if w.cache == "cold" else work / "cache")
    if w.record:
        changes["record_path"] = str(work / tag / "calls.jsonl")
    if replay_path is not None:
        changes["replay_path"] = replay_path
    return replace(base, run_dir=str(work / tag / "run"), **changes)


def make_config(spec: Spec) -> RunConfig:
    """The same configuration for every pass of a workload, so record bytes
    (which carry the config digest) are comparable across passes."""
    return RunConfig(dataset=spec.dataset, scheme=SCHEME, k=5, workers=spec.workers)


def make_gateway(spec: Spec) -> tuple[LlmGateway, object, float]:
    """Gateway, its backend, and the seconds spent loading a replay recording."""
    started = time.perf_counter()
    if spec.replay_path:
        backend = CountingReplayBackend(spec.replay_path)
        embedder = None  # replayed runs serve embeddings from the recording
    else:
        backend = LatencyBackend(Responder(spec.verdicts, spec.seed), spec.seed, spec.latency)
        embedder = parse_embedder_id(make_config(spec).models.embed)
    replay_load_s = time.perf_counter() - started if spec.replay_path else 0.0
    gateway = LlmGateway(
        backend,
        embedder=embedder,
        cache=ResponseCache(spec.cache_dir) if spec.cache_dir else None,
        recorder=RecordingWriter(spec.record_path) if spec.record_path else None,
    )
    return gateway, backend, replay_load_s


def run_pass(spec: Spec) -> None:
    """One untimed pipeline pass: cache fill or recording."""
    gateway, _, _ = make_gateway(spec)
    run(make_config(spec), spec.run_dir, gateway)


class _SetupDone(Exception):
    pass


def probe_setup(spec: Spec) -> float:
    """Seconds from building the gateway to the first ``CaseRunner.run_case``.

    Covers the backend (including a ReplayBackend parse), corpus loading and
    everything ``run()`` does before its first case. The probe stops there.
    """
    first: list[float] = []

    def stop(self, case, *args, **kwargs):
        first.append(time.perf_counter())
        raise _SetupDone

    original = CaseRunner.run_case
    CaseRunner.run_case = stop
    started = time.perf_counter()
    try:
        gateway, _, _ = make_gateway(spec)
        run(make_config(spec), spec.run_dir, gateway)
    except _SetupDone:
        pass
    finally:
        CaseRunner.run_case = original
    return min(first) - started


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(values)
    n = len(ordered)
    pct = math.floor(100 * (n - 10) / n)
    return pct, ordered[math.ceil(pct * n / 100) - 1]


@dataclass
class TimedRun:
    cases: list[tuple[str, float, float, str]]  # case id, start, end, status
    ended: float  # run() returned
    stats: CallStats  # the pass's backend counts; the backend itself is let go
    replay_load_s: float


def timed_run(spec: Spec, tracer=None) -> TimedRun:
    """Run the workload once, timing each case around ``CaseRunner.run_case``.

    With a tracer, every layer boundary is wrapped first; the end-to-end
    figures depend on no wrap target but ``CaseRunner.run_case``.
    """
    gateway, backend, replay_load_s = make_gateway(spec)
    if tracer is not None:
        import spans

        spans.install(tracer)
        tracer.patch(backend, "complete", "backend.complete")
    cases: list[tuple[str, float, float, str]] = []
    original = CaseRunner.run_case

    def timed(self, case, *args, **kwargs):
        start = time.perf_counter()
        record = original(self, case, *args, **kwargs)
        cases.append((record.case_id, start, time.perf_counter(), record.status))
        return record

    CaseRunner.run_case = timed
    root = tracer.open_root("runner.run") if tracer is not None else None
    try:
        run(make_config(spec), spec.run_dir, gateway)
        ended = time.perf_counter()
    finally:
        CaseRunner.run_case = original
        if root is not None:
            tracer.close_root(root)
    return TimedRun(cases, ended, backend.stats, replay_load_s)


def end_to_end(passes: list[TimedRun], setup_samples: list[float]) -> dict:
    """Each timing is taken per pass, then the median over the passes is
    reported, so host contention during a few passes does not move it."""
    rates, p50s, tails = [], [], []
    for t in passes:
        durations = [end - start for _, start, end, _ in t.cases]
        rates.append(len(t.cases) / (t.ended - min(start for _, start, _, _ in t.cases)))
        p50s.append(statistics.median(durations))
        pct, tail_value = tail(durations)
        tails.append(tail_value)
    n = sum(len(t.cases) for t in passes)
    failed = sum(1 for t in passes for *_, status in t.cases if status != "done")
    return {
        "cases_per_s": statistics.median(rates),
        "case_p50_s": statistics.median(p50s),
        "case_tail_s": statistics.median(tails),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "case_fail_share": failed / n,
        "backend_calls_per_case": sum(t.stats.calls for t in passes) / n,
        "prompt_kchars_per_case": sum(t.stats.prompt_chars for t in passes) / 1000 / n,
        "_pass_rates": rates,
        "_failed": failed,
        "_tail_pct": pct,
        "_cases": n,
        "_cases_per_pass": len(passes[0].cases),
        "_setup_samples": setup_samples,
    }


def measure(job: dict) -> dict:
    """Timed passes over the corpus until ``seconds`` are spent, at least
    MIN_PASSES, with SETUP_PROBES set-ups spread between them.

    A pass starts only if one as long as the longest so far still ends in
    time. Host speed shifts from one moment to the next, so set-ups made back
    to back share one speed; spread over the run, their median does not. A
    traced measurement makes one pass, after its set-up probes: the wrappers
    go on once.
    """
    base = Spec(**job["base"])
    workload, work, replay_path = job["workload"], Path(job["work"]), job["replay_path"]
    trace = job["trace"]
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    setup: list[float] = []

    def probe(spec: Spec) -> None:
        setup.append(probe_setup(replace(spec, run_dir=f"{spec.run_dir}-probe{len(setup)}")))

    passes: list[TimedRun] = []
    specs: list[Spec] = []
    started, longest = time.perf_counter(), 0.0
    while len(passes) < (1 if trace else MIN_PASSES) or (
            not trace and time.perf_counter() - started + longest <= job["seconds"]):
        spec = pass_spec(base, workload, work, "traced" if trace else f"pass{len(passes)}",
                         replay_path)
        for _ in range(SETUP_PROBES - len(setup) if trace else min(1, SETUP_PROBES - len(setup))):
            probe(spec)
        gc.collect()  # each pass starts from a collected heap
        pass_started = time.perf_counter()
        passes.append(timed_run(spec, tracer))
        longest = max(longest, time.perf_counter() - pass_started)
        if not trace:
            # only the traced run's per-layer metrics read call intervals;
            # dropping them keeps peak RSS independent of the number of passes
            passes[-1].stats.intervals.clear()
        specs.append(spec)
    while len(setup) < SETUP_PROBES:
        probe(specs[-1])
    result = {
        "e2e": end_to_end(passes, setup),
        "backend_calls": sum(t.stats.calls for t in passes),
        "run_dirs": [spec.run_dir for spec in specs],
    }
    if tracer is not None:
        from layers import layer_metrics

        result["layers"], result["notes"] = layer_metrics(
            tracer, passes[0], Path(specs[0].run_dir))
        result["missing"] = tracer.missing
        spans_path = job.get("spans")
        if spans_path:
            tracer.dump(Path(spans_path))
    return result
