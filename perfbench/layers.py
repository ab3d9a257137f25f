"""Per-layer metrics from a traced run: spans, backend counts and records."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from spans import CASE_SPAN, self_times

# layer of each span name, for self time per layer
LAYER_OF = {
    "runner.run": "runner",
    CASE_SPAN: "runner",
    "runner.write_record": "runner_io",
    "runner.write_manifest": "runner_io",
    "runner.write_metrics": "runner_io",
    "corpus.load": "corpus",
    "extraction.extract_case": "extraction",
    "kg.merge": "kg",
    "contrastive.formulate": "contrastive",
    "reasoning.answer": "reasoning",
    "reasoning.summarise": "reasoning",
    "verification.verify": "verification",
    "prompts.render": "prompts",
    "gateway.complete_record": "gateway",
    "gateway.embed": "gateway",
    "cache.get": "cache",
    "cache.put": "cache",
    "recorder.append": "recorder",
    "backend.complete": "backend",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

# span names each metric reads; a metric whose span was not wrapped is missing
NEEDS = {
    "runner.write_record_per_case": ("runner.write_record",),
    "runner.write_record_s_per_case": ("runner.write_record",),
    "runner.write_manifest_s_per_case": ("runner.write_manifest",),
    "runner.write_manifest_ms_first_tenth": ("runner.write_manifest",),
    "runner.write_manifest_ms_last_tenth": ("runner.write_manifest",),
    "corpus.load_s": ("corpus.load",),
    "gateway.complete_calls_per_case": ("gateway.complete_record",),
    "gateway.overhead_ms_per_call": ("gateway.complete_record",),
    "gateway.cache_hit_ratio": ("cache.get",),
    "gateway.cache_gets_per_case": ("cache.get",),
    "gateway.cache_get_ms_p50": ("cache.get",),
    "gateway.cache_put_ms_p50": ("cache.put",),
    "gateway.recorder_append_ms_p50": ("recorder.append",),
    "gateway.embed_ms_per_case": ("gateway.embed",),
    "extraction.s_per_case": ("extraction.extract_case",),
    "extraction.calls_per_case": ("extraction.extract_case", "gateway.complete_record"),
    "kg.merge_ms_per_case": ("kg.merge",),
    "contrastive.formulate_ms_per_case": ("contrastive.formulate", "gateway.embed"),
    "reasoning.answer_s_per_case": ("reasoning.answer",),
    "reasoning.summarise_s_per_case": ("reasoning.summarise",),
    "verification.verify_s_per_case": ("verification.verify",),
    "prompts.render_ms_per_case": ("prompts.render",),
}


def serial_depth(intervals: list[tuple[float, float]]) -> int:
    """Longest chain of non-overlapping calls (greedy by earliest end)."""
    depth, free_at = 0, float("-inf")
    for start, end in sorted(intervals, key=lambda iv: iv[1]):
        if start >= free_at:
            depth += 1
            free_at = end
    return depth


def _p50_ms(durations: list[float]) -> float:
    return statistics.median(durations) * 1000 if durations else 0.0


def _tenth_ms(durations: list[float], last: bool) -> float:
    if not durations:
        return 0.0
    size = max(1, len(durations) // 10)
    part = durations[-size:] if last else durations[:size]
    return sum(part) / len(part) * 1000


def _records(run_dir: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8"))
            for p in sorted((run_dir / "records").glob("*.json"))]


def layer_metrics(tracer, timed, run_dir: Path) -> tuple[dict, dict]:
    """Metrics by name, plus notes (bases and derived figures) for printing."""
    spans = tracer.spans
    n = len(timed.cases)
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    own = self_times(spans)
    parent_of = {s.id: s.parent for s in spans}
    name_of = {s.id: s.name for s in spans}

    def durations(name: str) -> list[float]:
        return [s.end - s.start for s in sorted(by_name.get(name, ()), key=lambda s: s.start)]

    def total(name: str) -> float:
        return sum(durations(name))

    def under(span, ancestor: str) -> bool:
        parent = span.parent
        while parent is not None:
            if name_of.get(parent) == ancestor:
                return True
            parent = parent_of.get(parent)
        return False

    stats = timed.stats.snapshot()
    per_case: dict[str | None, list[tuple[float, float]]] = {}
    for case, start, end, _ in stats["intervals"]:
        per_case.setdefault(case, []).append((start, end))
    depths = [serial_depth(per_case.get(case_id, [])) for case_id, *_ in timed.cases]
    delays = [delay for *_, delay in stats["intervals"]]
    mean_latency = sum(delays) / len(delays) if delays else 0.0
    case_p50 = statistics.median(end - start for _, start, end, _ in timed.cases)
    first_start = min(start for _, start, _, _ in timed.cases)
    last_end = max(end for _, _, end, _ in timed.cases)
    backend_s = sum(end - start for _, start, end, _ in stats["intervals"])

    completes = by_name.get("gateway.complete_record", [])
    gets = by_name.get("cache.get", [])
    hits = sum(1 for s in gets if s.result is not None)
    records = _records(run_dir)
    dropped = sum(sum((r.get("extraction_drops") or {}).values()) for r in records)
    kept = sum(len((r.get("kg") or {}).get(key, ())) for r in records
               for key in ("entities", "triples"))

    layer_self = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        layer_self[LAYER_OF[span.name]] += own[span.id]

    metrics = {
        "runner.serial_depth_p50": statistics.median(depths),
        "runner.unexplained_p50_s": case_p50 - statistics.median(depths) * mean_latency,
        "runner.write_record_per_case": len(durations("runner.write_record")) / n,
        "runner.write_record_s_per_case": total("runner.write_record") / n,
        "runner.write_manifest_s_per_case": total("runner.write_manifest") / n,
        "runner.write_manifest_ms_first_tenth": _tenth_ms(durations("runner.write_manifest"), False),
        "runner.write_manifest_ms_last_tenth": _tenth_ms(durations("runner.write_manifest"), True),
        "runner.self_s_per_case": layer_self["runner"] / n,
        "runner.finalize_s": timed.ended - last_end,
        "corpus.load_s": total("corpus.load"),
        "gateway.complete_calls_per_case": len(completes) / n,
        "gateway.overhead_ms_per_call": (
            (total("gateway.complete_record") - total("backend.complete")) / len(completes) * 1000
            if completes else 0.0
        ),
        "gateway.inflight_mean": backend_s / (timed.ended - first_start),
        "gateway.inflight_max": stats["in_flight_max"],
        "gateway.cache_hit_ratio": hits / len(gets) if gets else 0.0,
        "gateway.cache_gets_per_case": len(gets) / n,
        "gateway.cache_get_ms_p50": _p50_ms(durations("cache.get")),
        "gateway.cache_put_ms_p50": _p50_ms(durations("cache.put")),
        "gateway.recorder_append_ms_p50": _p50_ms(durations("recorder.append")),
        "gateway.replay_load_s": timed.replay_load_s,
        "gateway.embed_ms_per_case": total("gateway.embed") / n * 1000,
        "gateway.backend_errors": stats["errors"],
        "gateway.backend_s_per_case": backend_s / n,
        "gateway.mean_latency_ms": mean_latency * 1000,
        "extraction.s_per_case": total("extraction.extract_case") / n,
        "extraction.calls_per_case": sum(
            1 for s in completes if under(s, "extraction.extract_case")) / n,
        "extraction.drop_ratio": dropped / (dropped + kept) if dropped + kept else 0.0,
        "kg.merge_ms_per_case": total("kg.merge") / n * 1000,
        "kg.entities_per_case": sum(len((r.get("kg") or {}).get("entities", ()))
                                    for r in records) / len(records),
        "contrastive.formulate_ms_per_case": sum(
            own[s.id] for s in by_name.get("contrastive.formulate", ())) / n * 1000,
        "contrastive.candidates_per_case": sum(r.get("candidate_count") or 0
                                               for r in records) / len(records),
        "reasoning.answer_s_per_case": total("reasoning.answer") / n,
        "reasoning.summarise_s_per_case": total("reasoning.summarise") / n,
        "verification.verify_s_per_case": total("verification.verify") / n,
        "prompts.render_ms_per_case": total("prompts.render") / n * 1000,
    }
    metrics.update({f"self.{layer}_s_per_case": layer_self[layer] / n for layer in LAYERS})
    for name, needs in NEEDS.items():
        if any(target in tracer.missing for target in needs):
            metrics.pop(name)
    notes = {
        "cache_gets": len(gets),
        "cache_hits": hits,
        "drop_base": dropped + kept,
        "dropped": dropped,
        "case_p50_s": case_p50,
        "depth_x_latency_s": statistics.median(depths) * mean_latency,
        "spans": len(spans),
    }
    return metrics, notes
