"""Acceptance suite: one test per criterion, printing a PASS line for each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 5 needs the real corpora on disk; point CONTRAFACT_DATA_DIR
at a directory holding ``liar-raw/`` and ``rawfc/`` (canonical or published
layouts) or the test skips with an explanation.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path

import pytest

from contrafact.contrastive import formulate, generate_candidates, mmr_rank
from contrafact.corpus import dataset_stats, write_canonical
from contrafact.gateway import (
    HashEmbedder,
    LlmGateway,
    RecordingWriter,
    ReplayBackend,
    ResponseCache,
)
from contrafact.kg import Entity, KnowledgeGraph, Term, Triple
from contrafact.metrics import (
    DistanceWeight,
    distance_weight,
    prf,
    weighted_alignscore,
    weighted_rquge,
)
from contrafact.runner import RunConfig, StageModels, run
from contrafact.verification import LabelScheme, load_scheme, map_binary
from helpers import (
    MockBackend,
    PipelineScript,
    brute_force_candidate_texts,
    brute_force_mmr,
    random_graph,
    run_bytes,
    scripted_backend,
    write_fixture_dataset,
)

LIAR_RAW = load_scheme("liar-raw")


def _report(criterion: int, name: str) -> None:
    print(f"[acceptance] criterion {criterion} ({name}): PASS")


# -- criterion 1: candidate-generation oracle equivalence ---------------------------


def test_criterion_1_candidate_generation_oracle() -> None:
    rng = random.Random(20_240_001)
    started = time.perf_counter()
    for _ in range(200):
        graph = random_graph(rng, max_entities=6, max_claim_triples=4)
        candidates = generate_candidates(graph)
        texts = [c.text for c in candidates]
        assert len(texts) == len(set(texts)), "duplicate question text survived dedup"
        assert set(texts) == brute_force_candidate_texts(graph)
        for candidate in candidates:
            replaced = (
                candidate.source.head
                if candidate.side == "head"
                else candidate.source.tail
            )
            assert candidate.alternative != replaced
            assert (
                graph.entity(candidate.alternative).entity_class
                == graph.entity(replaced).entity_class
            )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"200-graph oracle sweep took {elapsed:.2f}s"
    _report(1, "candidate generation matches brute force on 200 random graphs")


# -- criterion 2: ranking oracle equivalence + prefix consistency --------------------


def _candidate_graph(n: int) -> KnowledgeGraph:
    place = Term("Place")
    entities = [Entity("a1", "A1", Term("Person")), Entity("p0", "P0", place)]
    entities += [Entity(f"p{i}", f"P{i}", place) for i in range(1, n + 1)]
    return KnowledgeGraph(
        entities=tuple(entities),
        triples=(Triple("a1", Term("visited"), "p0", "claim"),),
    )


def test_criterion_2_ranking_oracle_and_prefix_consistency() -> None:
    rng = random.Random(20_240_002)
    for trial in range(500):
        n = rng.randint(1, 8)
        dim = rng.randint(2, 16)
        vectors = [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(n)]
        theta, order, scores = brute_force_mmr(vectors)
        trace = mmr_rank(vectors)
        assert trace.initial_index == theta, f"anchor mismatch on trial {trial}"
        assert trace.order == order, f"order mismatch on trial {trial}"
        for (_, got), expected in zip(trace.steps, scores):
            assert abs(got - expected) < 1e-9

        if trial % 10 == 0:
            graph = _candidate_graph(n)
            candidates = generate_candidates(graph)
            assert len(candidates) == n
            mapping = {c.text: vectors[i] for i, c in enumerate(candidates)}
            def embed(texts):
                return [mapping[t] for t in texts]

            full, _ = formulate(graph, k=n, embed=embed)
            assert [q.text for q in full] == [candidates[i].text for i in order]
            for k in range(1, n + 1):
                prefix, _ = formulate(graph, k=k, embed=embed)
                assert prefix == full[:k]
    _report(2, "ranking matches step-by-step brute force on 500 random sets")


# -- criterion 3: weighted-metric exactness -------------------------------------------


def test_criterion_3_weighted_metric_exactness() -> None:
    assert abs(distance_weight("true", "true", LIAR_RAW).value - 1.0) < 1e-12
    assert abs(distance_weight("true", "pants-fire", LIAR_RAW).value - 0.0) < 1e-12
    assert abs(distance_weight("half-true", "false", LIAR_RAW).value - 0.84) < 1e-12

    # annihilator / identity / mean identities hold exactly
    assert weighted_alignscore(0.73, DistanceWeight(0.0)) == 0.0
    assert weighted_alignscore(0.73, DistanceWeight(1.0)) == 0.73
    assert weighted_rquge([4.25], DistanceWeight(0.0)) == 0.0
    assert weighted_rquge([4.25], DistanceWeight(1.0)) == 4.25
    assert weighted_rquge([1.0, 3.0], DistanceWeight(0.5)) == 1.0

    rng = random.Random(20_240_003)
    for _ in range(1000):
        gold = rng.choice(LIAR_RAW.labels)
        predicted = rng.choice(LIAR_RAW.labels)
        weight = distance_weight(predicted, gold, LIAR_RAW)
        align_base = rng.uniform(0.0, 1.0)
        question_scores = [rng.uniform(1.0, 5.0) for _ in range(rng.randint(1, 5))]
        macro_align = align_base
        macro_rquge = sum(question_scores) / len(question_scores)
        assert weighted_alignscore(align_base, weight) <= macro_align
        assert weighted_rquge(question_scores, weight) <= macro_rquge
        assert 0.0 <= weight.value <= 1.0
    _report(3, "distance weights exact; weighted <= macro on 1000 random claims")


# -- criterion 4: binary mapping over the published label distribution ----------------


LABEL_DISTRIBUTION = {
    "pants-fire": 1013,
    "false": 2466,
    "barely-true": 2057,
    "half-true": 2594,
    "mostly-true": 2439,
    "true": 2021,
}


def test_criterion_4_binary_mapping_bucket_counts() -> None:
    labels = [
        label for label, count in LABEL_DISTRIBUTION.items() for _ in range(count)
    ]
    assert len(labels) == 12_590
    buckets = {"false": 0, "true": 0}
    for label in labels:
        buckets[map_binary(label)] += 1
    assert buckets["false"] == 5_536
    assert buckets["true"] == 7_054
    _report(4, "binary mapping reproduces the 5,536 / 7,054 split exactly")


# -- criterion 5: real-corpus statistics ----------------------------------------------


def _load_real(root: Path, scheme_name: str):
    from contrafact.corpus import SPLITS, DatasetLoader

    loader = DatasetLoader(root, load_scheme(scheme_name))
    return dataset_stats(
        case for split in SPLITS for case in loader.iter_split(split)
    )


def test_criterion_5_corpus_statistics() -> None:
    data_dir = os.environ.get("CONTRAFACT_DATA_DIR")
    if not data_dir:
        pytest.skip(
            "criterion 5 needs the real corpora: set CONTRAFACT_DATA_DIR to a "
            "directory containing liar-raw/ and rawfc/ (this sandbox has no "
            "network access to fetch them)"
        )
    root = Path(data_dir)
    started = time.perf_counter()
    liar = _load_real(root / "liar-raw", "liar-raw")
    rawfc = _load_real(root / "rawfc", "rawfc")
    elapsed = time.perf_counter() - started

    assert liar.total == 12_590
    assert liar.avg_reports == pytest.approx(12.3, abs=0.05)
    assert rawfc.total == 2_012
    assert rawfc.avg_reports == pytest.approx(21.0, abs=0.05)
    for stats in (liar, rawfc):
        for split, share in (("train", 0.8), ("val", 0.1), ("test", 0.1)):
            assert stats.per_split.get(split, 0) / stats.total == pytest.approx(
                share, abs=0.02
            )
    assert elapsed < 60.0, f"loading took {elapsed:.1f}s"
    _report(5, "real-corpus statistics match the published totals")


# -- criterion 6: end-to-end replay determinism ----------------------------------------


GOLDEN_LABELS = ["pants-fire", "false", "barely-true", "half-true", "mostly-true", "true"]


def _golden_config(dataset: Path, workers: int) -> RunConfig:
    return RunConfig(
        dataset=str(dataset),
        scheme="liar-raw",
        split="test",
        k=3,
        mode="full",
        models=StageModels(embed="hash:16"),
        workers=workers,
    )


def test_criterion_6_replay_determinism(tmp_path) -> None:
    dataset = tmp_path / "data"
    labels = [GOLDEN_LABELS[i % 6] for i in range(10)]
    write_fixture_dataset(dataset, n=10, labels=labels)
    # predictions rotate one class off gold so the confusion table is non-trivial
    verdicts = {
        f"Marlow{i} ": GOLDEN_LABELS[(i + 1) % 6] for i in range(10)
    }

    recording = tmp_path / "golden.jsonl"
    with RecordingWriter(recording) as recorder:
        record_gateway = LlmGateway(
            scripted_backend(verdict_for=verdicts),
            embedder=HashEmbedder(16),
            recorder=recorder,
            sleep=lambda _: None,
        )
        run(_golden_config(dataset, workers=1), tmp_path / "recorded", record_gateway)

    replays: list[dict[str, bytes]] = []
    widths = ((1, 8), (1, 8), (1, 8), (4, 8), (1, 1))  # (workers, max_in_flight)
    for i, (workers, max_in_flight) in enumerate(widths):
        replay_gateway = LlmGateway(
            ReplayBackend(recording), cache=None, max_in_flight=max_in_flight
        )
        run_dir = tmp_path / f"replay-{i}"
        started = time.perf_counter()
        result = run(_golden_config(dataset, workers=workers), run_dir, replay_gateway)
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"replay {i} took {elapsed:.1f}s"
        assert result.done == 10
        assert result.failed == 0
        replays.append(run_bytes(run_dir))

    baseline = replays[0]
    assert len(baseline) == 11  # 10 records + metrics.json
    for other in replays[1:]:
        assert other == baseline  # byte-identical across executions and widths
    _report(
        6,
        "10-claim golden run replays byte-identically "
        "(5 replays; case workers 1 and 4; max in flight 8 and 1)",
    )


def test_replay_over_a_cache_writes_the_cacheless_replay_bytes(tmp_path) -> None:
    dataset = tmp_path / "data"
    write_fixture_dataset(dataset, n=6, labels=GOLDEN_LABELS)
    verdicts = {f"Marlow{i} ": GOLDEN_LABELS[(i + 1) % 6] for i in range(6)}
    recording = tmp_path / "golden.jsonl"
    with RecordingWriter(recording) as recorder:
        record_gateway = LlmGateway(
            scripted_backend(verdict_for=verdicts),
            embedder=HashEmbedder(16),
            recorder=recorder,
            sleep=lambda _: None,
        )
        run(_golden_config(dataset, workers=1), tmp_path / "recorded", record_gateway)

    def replay(name: str, cache: ResponseCache | None) -> dict[str, bytes]:
        with RecordingWriter(tmp_path / f"{name}.jsonl") as recorder:
            gateway = LlmGateway(ReplayBackend(recording), cache=cache, recorder=recorder)
            result = run(_golden_config(dataset, workers=1), tmp_path / name, gateway)
        assert (result.done, result.failed) == (6, 0)
        return run_bytes(tmp_path / name)

    def cache_hits(name: str) -> set[tuple[str, bool]]:
        lines = (tmp_path / f"{name}.jsonl").read_text().splitlines()
        return {(call["kind"], call["cache_hit"]) for call in map(json.loads, lines)}

    cacheless = replay("cacheless", None)
    assert len(cacheless) == 7  # 6 records + metrics.json
    cache = ResponseCache(tmp_path / "cache")
    assert replay("cold", cache) == cacheless
    assert replay("warm", cache) == cacheless
    # completions and embedding batches alike: a replay reads the recording,
    # never the cache, so the warm replay takes no hit either
    assert cache_hits("cold") == {("complete", False), ("embed", False)}
    assert cache_hits("warm") == {("complete", False), ("embed", False)}


def test_a_live_run_with_a_retried_call_and_its_replay_write_the_same_bytes(
    tmp_path,
) -> None:
    dataset = tmp_path / "data"
    write_fixture_dataset(dataset, n=2, labels=GOLDEN_LABELS)
    script = PipelineScript()
    fail_once = [ConnectionError("connection reset")]

    def flaky(request):
        if "expert answering questions" in request.prompt:
            try:
                raise fail_once.pop()
            except IndexError:
                pass
        return script(request)

    recording = tmp_path / "live.jsonl"
    with RecordingWriter(recording) as recorder:
        live_gateway = LlmGateway(
            MockBackend(responder=flaky),
            embedder=HashEmbedder(16),
            recorder=recorder,
            sleep=lambda _: None,
        )
        run(_golden_config(dataset, workers=1), tmp_path / "live", live_gateway)
    lines = [json.loads(line) for line in recording.read_text().splitlines()]
    assert [line["retries"] for line in lines].count(1) == 1

    replay_gateway = LlmGateway(ReplayBackend(recording), cache=None)
    result = run(_golden_config(dataset, workers=1), tmp_path / "replay", replay_gateway)
    assert (result.done, result.failed) == (2, 0)
    assert run_bytes(tmp_path / "replay") == run_bytes(tmp_path / "live")


# -- criterion 7: classification-metric correctness -------------------------------------


TWO_CLASS = LabelScheme(name="two", labels=("true", "false"), descriptions=("y", "n"))
THREE_CLASS = LabelScheme(
    name="three", labels=("a", "b", "c"), descriptions=("", "", "")
)


def test_criterion_7_prf_fixtures() -> None:
    tol = 1e-9

    # worked 2-class example
    report = prf(
        [("true", "true"), ("true", "false"), ("false", "false"), ("false", "false")],
        TWO_CLASS,
    )
    assert abs(report.per_label["true"].f1 - 2 / 3) < tol
    assert abs(report.per_label["false"].f1 - 0.8) < tol
    assert abs(report.macro.f1 - 11 / 15) < tol
    assert abs(report.macro.precision - 5 / 6) < tol
    assert abs(report.macro.recall - 0.75) < tol

    # perfect three-class predictions
    report = prf([("a", "a"), ("b", "b"), ("c", "c")], THREE_CLASS)
    assert abs(report.macro.precision - 1.0) < tol
    assert abs(report.macro.recall - 1.0) < tol
    assert abs(report.macro.f1 - 1.0) < tol

    # degenerate one-class predictor
    report = prf([("true", "true"), ("false", "true")], TWO_CLASS)
    assert abs(report.macro.precision - 0.25) < tol
    assert abs(report.macro.recall - 0.5) < tol
    assert abs(report.macro.f1 - 1 / 3) < tol

    # three-class mixed confusion
    report = prf(
        [("a", "a"), ("a", "b"), ("b", "b"), ("b", "c"), ("c", "c"), ("c", "c")],
        THREE_CLASS,
    )
    assert abs(report.macro.precision - 13 / 18) < tol
    assert abs(report.macro.recall - 2 / 3) < tol
    assert abs(report.macro.f1 - 59 / 90) < tol

    # six-label scheme with two absent-from-gold label errors
    report = prf(
        [
            ("pants-fire", "false"),
            ("false", "false"),
            ("barely-true", "barely-true"),
            ("half-true", "half-true"),
            ("mostly-true", "true"),
            ("true", "true"),
        ],
        LIAR_RAW,
    )
    assert abs(report.macro.precision - 0.5) < tol
    assert abs(report.macro.recall - 2 / 3) < tol
    assert abs(report.macro.f1 - 5 / 9) < tol
    assert abs(report.balanced_accuracy - 2 / 3) < tol

    _report(7, "macro precision/recall/F1 match 5 hand-computed fixtures")


# -- criterion 8: robustness over an adversarial fixture set -----------------------------


MARKERS = ("JUNKEXTRACT", "DANGLING", "EMPTYENT", "NOANSWER", "AMBIVERDICT")


def _adversarial_dataset(root: Path) -> None:
    from contrafact.corpus import ClaimCase, Report

    cases = []
    for i in range(50):
        marker = MARKERS[i % 5]
        claim = (
            f"Case{i:02d} {marker} involves Senator Quill{i:02d} praising "
            f"the Delta{i:02d} project outcome."
        )
        reports = (
            Report(0, (f"Observers noted the Delta{i:02d} project changed scope.",)),
            Report(1, (f"Senator Quill{i:02d} spoke about the project twice.",)),
        )
        cases.append(
            ClaimCase(
                id=f"adv-{i:03d}",
                claim=claim,
                reports=reports,
                gold_label="half-true",
                split="test",
            )
        )
    write_canonical(cases, root)


def _adversarial_script() -> PipelineScript:
    return PipelineScript(
        default_verdict="half-true",
        entity_override={
            "JUNKEXTRACT": "%%% not even close to json %%%",
            "EMPTYENT": "[]",
            "DANGLING": '["Alpha", "Beta"]',
        },
        class_override={"DANGLING": '{"Alpha": "Person", "Beta": "Person"}'},
        relation_override={
            "DANGLING": '[["Alpha", "met", "Beta"], ["Alpha", "met", "Ghost"]]'
        },
        answer_override={"NOANSWER": "   "},
        verify_override={"AMBIVERDICT": "false or maybe half-true"},
    )


def test_criterion_8_robustness_suite(tmp_path) -> None:
    dataset = tmp_path / "data"
    _adversarial_dataset(dataset)
    config = RunConfig(
        dataset=str(dataset),
        scheme="liar-raw",
        split="test",
        k=3,
        mode="full",
        models=StageModels(embed="hash:16"),
        workers=4,
        extraction_retries=1,
    )
    gateway = LlmGateway(
        MockBackend(responder=_adversarial_script()),
        embedder=HashEmbedder(16),
        sleep=lambda _: None,
    )
    result = run(config, tmp_path / "run", gateway)

    assert result.total == 50
    assert result.done == 10
    assert result.failed == 40

    records = {
        payload["case_id"]: payload
        for payload in (
            json.loads(path.read_text())
            for path in (tmp_path / "run" / "records").glob("*.json")
        )
    }
    assert len(records) == 50
    by_marker: dict[str, list[dict]] = {marker: [] for marker in MARKERS}
    for i in range(50):
        by_marker[MARKERS[i % 5]].append(records[f"adv-{i:03d}"])

    for record in by_marker["JUNKEXTRACT"]:
        assert record["status"] == "failed"
        assert record["failure"]["stage"] == "extract"

    for record in by_marker["DANGLING"]:
        assert record["status"] == "done"
        assert record["extraction_drops"]["triples"] >= 1
        surfaces = {e["surface"] for e in record["kg"]["entities"]}
        assert "Ghost" not in surfaces

    for record in by_marker["EMPTYENT"]:
        assert record["status"] == "failed"
        assert record["failure"]["stage"] == "summarise"
        assert record["candidate_count"] == 0

    for record in by_marker["NOANSWER"]:
        assert record["status"] == "failed"
        assert record["failure"]["stage"] == "summarise"
        assert all(p["error"] for p in record["qa_pairs"])

    for record in by_marker["AMBIVERDICT"]:
        assert record["status"] == "failed"
        assert record["failure"]["stage"] == "verify"
        assert record["summary"] is not None

    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["evaluated"] == 10
    assert metrics["excluded_failed"] == 40
    _report(8, "50-case adversarial set degrades as contracted with no crash")
