from __future__ import annotations

import errno
import gc
import itertools
import json
import os
import shutil
import threading
import weakref
from pathlib import Path

import pytest

from contrafact.gateway import (
    GatewayError,
    HashEmbedder,
    LlmGateway,
    RecordingWriter,
    ReplayBackend,
    ResponseCache,
)
from contrafact.runner import (
    MODE_FULL,
    MODE_KG_ONLY,
    MODE_LLM_QUESTIONS,
    MODE_NAIVE,
    CaseRunner,
    PipelineRecord,
    RunConfig,
    RunDirectory,
    StageModels,
    parse_llm_questions,
    record_filename,
    run,
)
from contrafact import corpus, prompts
from contrafact.prompts import PromptError
from contrafact.verification import load_scheme
from helpers import MockBackend, PipelineScript, make_case, scripted_backend, write_fixture_dataset

LIAR_RAW = load_scheme("liar-raw")


def make_config(dataset, **overrides) -> RunConfig:
    defaults = dict(
        dataset=str(dataset),
        scheme="liar-raw",
        split="test",
        k=3,
        mode=MODE_FULL,
        models=StageModels(embed="hash:16"),
        workers=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


def make_gateway(**script_kwargs) -> tuple[LlmGateway, MockBackend]:
    backend = scripted_backend(**script_kwargs)
    gateway = LlmGateway(
        backend, embedder=HashEmbedder(16), cache=None, sleep=lambda _: None
    )
    return gateway, backend


def read_manifest(run_dir) -> list[dict]:
    return [json.loads(line) for line in (run_dir / "manifest.jsonl").read_text().splitlines()]


# -- parse_llm_questions -----------------------------------------------------------


def test_parse_numbered_questions() -> None:
    raw = "1. Why A rather than B?\n2. Why C rather than D?"
    assert parse_llm_questions(raw) == [
        "Why A rather than B?",
        "Why C rather than D?",
    ]


def test_parse_empty_output_yields_nothing() -> None:
    assert parse_llm_questions("") == []
    assert parse_llm_questions("\n \n") == []


def test_parse_caps_at_limit() -> None:
    raw = "\n".join(f"{i}. Question {i}?" for i in range(1, 8))
    out = parse_llm_questions(raw)
    assert len(out) == 5
    assert out[0] == "Question 1?"
    assert out[-1] == "Question 5?"


def test_parse_strips_bullets_and_brackets() -> None:
    raw = "- Why one?\n* Why two?\n(3) Why three?\n4) Why four?"
    assert parse_llm_questions(raw) == [
        "Why one?",
        "Why two?",
        "Why three?",
        "Why four?",
    ]


# -- config digest -------------------------------------------------------------------


def test_digest_ignores_worker_width(tmp_path) -> None:
    a = make_config(tmp_path, workers=1)
    b = make_config(tmp_path, workers=4)
    assert a.digest == b.digest


def test_digest_tracks_semantic_fields(tmp_path) -> None:
    a = make_config(tmp_path)
    assert a.digest != make_config(tmp_path, k=4).digest
    assert a.digest != make_config(tmp_path, mode=MODE_NAIVE).digest
    assert (
        a.digest
        != make_config(tmp_path, models=StageModels(verify="other", embed="hash:16")).digest
    )


def test_digest_bytes_are_pinned() -> None:
    """`run.json` and every record carry this digest; a resume compares it."""
    default = RunConfig(dataset="data", scheme="liar-raw")
    assert default.digest == (
        "dab914cebef5c0199000c5588e20cb43e34e9e6025c7d4dfab2713a5509065a2"
    )
    assert RunConfig(dataset="data", scheme="liar-raw", ids=()).digest == default.digest
    every_field = RunConfig(
        dataset="data/liar",
        scheme="liar-wf",
        split="val",
        k=4,
        mode=MODE_LLM_QUESTIONS,
        models=StageModels(
            extract="ex", answer="an", summarise="su", verify="ve", embed="hash:8"
        ),
        workers=3,
        max_tokens=256,
        answer_max_tokens=128,
        context_char_budget=900,
        candidate_limit=11,
        extraction_retries=0,
        limit=7,
        ids=("case-2", "case-1"),
        retry_failed=True,
        fewshot_path="shots.json",
        template_dir="tpl",
    )
    assert every_field.digest == (
        "7199e69ef4b388ceacc39bc14d6674566dd46e9ebba07f17ff2a3ef05fc4f3bf"
    )
    assert every_field.to_dict()["ids"] == ["case-2", "case-1"]


def test_a_fresh_run_computes_its_config_payload_at_most_twice(
    tmp_path, monkeypatch
) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=2)
    calls = []
    to_dict = RunConfig.to_dict

    def counted(self):
        calls.append(self)
        return to_dict(self)

    monkeypatch.setattr(RunConfig, "to_dict", counted)
    assert run(make_config(data), tmp_path / "run", make_gateway()[0]).done == 2
    assert len(calls) <= 2  # the digest, and run.json's echo of the config


def test_config_validation(tmp_path) -> None:
    with pytest.raises(ValueError):
        make_config(tmp_path, k=0)
    with pytest.raises(ValueError):
        make_config(tmp_path, mode="bogus")


def test_run_config_rejects_negative_extraction_retries(tmp_path) -> None:
    with pytest.raises(ValueError):
        make_config(tmp_path, extraction_retries=-1)


@pytest.mark.parametrize(
    ("name", "value"),
    [
        ("max_tokens", 0),
        ("max_tokens", -7),
        ("answer_max_tokens", 0),
        ("context_char_budget", 0),
        ("context_char_budget", -5),
        ("candidate_limit", -1),
    ],
)
def test_run_config_rejects_nonsensical_numbers(tmp_path, name, value) -> None:
    with pytest.raises(ValueError, match=name):
        make_config(tmp_path, **{name: value})


def test_record_filename_sanitization() -> None:
    assert record_filename("case-001") == "case-001.json"
    weird = record_filename("a/b c")
    assert "/" not in weird and " " not in weird
    assert weird != record_filename("a_b_c")  # collision-proofed by hash suffix
    hidden = record_filename(".hidden")  # eval skips hidden files
    assert hidden.startswith("_hidden-") and hidden != record_filename("_hidden")
    for case_id in ("a.b", "case.", "x..y", "_under"):
        assert record_filename(case_id) == f"{case_id}.json"


# -- single-case stage flow -----------------------------------------------------------


def test_full_mode_record_has_every_stage(tmp_path) -> None:
    write_fixture_dataset(tmp_path / "data", n=1)
    config = make_config(tmp_path / "data")
    gateway, _ = make_gateway(
        verdict_for={"Marlow0": "half-true"},
        summary_override={"": "This is the distilled\n\nparagraph."},
    )
    runner = CaseRunner(config, LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "done"
    assert record.kg and record.kg["entities"]
    assert record.candidate_count and record.candidate_count > 0
    assert record.questions and len(record.questions) <= config.k
    assert record.trace and record.trace["initial_index"] is not None
    assert record.qa_pairs and all(p["answer"] for p in record.qa_pairs)
    assert record.summary == {"text": "This is the distilled\nparagraph.", "word_count": 5}
    assert record.verdict == {
        "label": "half-true",
        "value": 4,
        "raw": "half-true",
    }
    assert set(record.timings) == {"extract", "questions", "answer", "summarise", "verify"}


def test_a_bug_inside_one_answer_call_fails_the_case_at_answer(
    tmp_path, monkeypatch
) -> None:
    write_fixture_dataset(tmp_path / "data", n=1)
    gateway, _ = make_gateway()
    answers = itertools.count()
    real = LlmGateway.complete

    def buggy(self, request):
        if "expert answering questions" in request.prompt and next(answers) == 1:
            raise TypeError("a bug, not a failed model call")
        return real(self, request)

    monkeypatch.setattr(LlmGateway, "complete", buggy)
    runner = CaseRunner(make_config(tmp_path / "data"), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "failed"
    assert record.failure["stage"] == "answer"
    assert "a bug, not a failed model call" in record.failure["reason"]


STAGE_FIELD = {
    "extract": "kg",
    "questions": "questions",
    "answer": "qa_pairs",
    "summarise": "summary",
    "verify": "verdict",
}
STAGES_OF = {
    MODE_FULL: ["extract", "questions", "answer", "summarise", "verify"],
    MODE_LLM_QUESTIONS: ["questions", "answer", "summarise", "verify"],
}


@pytest.mark.parametrize(
    "mode, stop",
    [(mode, stage) for mode, stages in STAGES_OF.items() for stage in stages],
)
def test_stop_after_produces_partial_record(tmp_path, mode, stop) -> None:
    gateway, _ = make_gateway()
    runner = CaseRunner(make_config(tmp_path, mode=mode), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0), stop_after=stop)
    stages = STAGES_OF[mode]
    ran = stages[: stages.index(stop) + 1]
    assert record.last_stage == stop
    assert list(record.timings) == ran
    assert all(getattr(record, STAGE_FIELD[stage]) is not None for stage in ran)
    if stop == stages[-1]:  # stopping after the last stage is a whole run
        assert record.status == "done"
    else:
        assert record.status == "partial"
        assert getattr(record, STAGE_FIELD[stages[len(ran)]]) is None


def test_naive_mode_is_one_completion_per_case(tmp_path) -> None:
    gateway, backend = make_gateway(verdict_for={"Marlow0": "false"})
    runner = CaseRunner(make_config(tmp_path, mode=MODE_NAIVE), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "done"
    assert record.kg is None
    assert record.questions is None
    assert record.qa_pairs is None
    assert record.summary is None
    assert record.verdict["label"] == "false"
    assert len(backend.requests) == 1
    assert "--- Report 1 ---" in backend.requests[0].prompt


def test_kg_augment_mode_includes_graph_in_context(tmp_path) -> None:
    gateway, backend = make_gateway()
    runner = CaseRunner(make_config(tmp_path, mode=MODE_KG_ONLY), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "done"
    assert record.kg is not None
    assert record.questions is None
    verify_prompts = [
        r.prompt for r in backend.requests if "expert fact-checking claims" in r.prompt
    ]
    assert len(verify_prompts) == 1
    assert "--- Knowledge graph ---" in verify_prompts[0]
    assert "--- Report 1 ---" in verify_prompts[0]


def test_llm_questions_mode_uses_prompted_questions(tmp_path) -> None:
    gateway, backend = make_gateway()
    config = make_config(tmp_path, mode=MODE_LLM_QUESTIONS, k=5)
    runner = CaseRunner(config, LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "done"
    assert record.kg is None
    assert record.candidate_count == 5
    assert [q["text"] for q in record.questions] == [
        f"Why outcome {i} rather than alternative {i}?" for i in range(1, 6)
    ]
    assert record.qa_pairs and len(record.qa_pairs) == 5
    question_prompts = [
        r.prompt for r in backend.requests if "generating contrastive questions" in r.prompt
    ]
    assert len(question_prompts) == 1
    assert "## Example Prompt:" in question_prompts[0]


def test_record_stable_json_round_trip(tmp_path) -> None:
    gateway, _ = make_gateway()
    runner = CaseRunner(make_config(tmp_path), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    payload = json.loads(record.stable_json())
    assert "timings" not in payload
    again = PipelineRecord.from_dict(payload)
    assert again.stable_json() == record.stable_json()


# -- failure capture -------------------------------------------------------------------


def test_extraction_junk_fails_case_at_extract_stage(tmp_path) -> None:
    gateway, _ = make_gateway(entity_override={"Marlow0": "%% junk %%"})
    runner = CaseRunner(make_config(tmp_path), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "failed"
    assert record.failure["stage"] == "extract"


def test_failed_extraction_names_its_source_in_record_and_manifest(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=1)
    gateway, _ = make_gateway(entity_override={"Auditor Quinn0 reported": "%% junk %%"})
    result = run(make_config(data), tmp_path / "run", gateway)
    assert result.failed == 1
    record = RunDirectory(tmp_path / "run").read_record("case-000")
    reason = record.failure["reason"]
    assert reason.startswith("report:0: unparseable entities output after 3 attempt(s): ")
    assert read_manifest(tmp_path / "run")[0]["error"] == reason


def test_embedder_failure_fails_full_mode_at_questions_stage(tmp_path) -> None:
    class FailingEmbedder:
        model_id = "hash:16"

        def embed(self, texts):
            raise RuntimeError("embedding endpoint down")

    gateway = LlmGateway(
        scripted_backend(), embedder=FailingEmbedder(), cache=None, sleep=lambda _: None
    )
    runner = CaseRunner(make_config(tmp_path), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "failed"
    assert record.failure["stage"] == "questions"
    assert record.last_stage == "extract"
    assert record.kg is not None and record.questions is None


def test_unparseable_questions_fail_llm_questions_mode_at_questions_stage(
    tmp_path,
) -> None:
    script = PipelineScript()

    def responder(request):
        if "generating contrastive questions" in request.prompt:
            return " \n \n"
        return script(request)

    gateway = LlmGateway(
        MockBackend(responder=responder),
        embedder=HashEmbedder(16),
        cache=None,
        sleep=lambda _: None,
    )
    runner = CaseRunner(make_config(tmp_path, mode=MODE_LLM_QUESTIONS), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "failed"
    assert record.failure["stage"] == "questions"
    assert record.failure["raw"] == " \n \n"
    assert record.last_stage is None
    assert record.questions is None


def test_empty_entities_fail_at_summarise_stage(tmp_path) -> None:
    gateway, _ = make_gateway(entity_override={"Marlow0": "[]"})
    runner = CaseRunner(make_config(tmp_path), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    # no entities -> no candidates -> nothing to summarise
    assert record.status == "failed"
    assert record.failure["stage"] == "summarise"
    assert record.candidate_count == 0


def test_zero_success_answers_fail_at_summarise(tmp_path) -> None:
    gateway, _ = make_gateway(answer_override={"* Question": "   "})
    runner = CaseRunner(make_config(tmp_path), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "failed"
    assert record.failure["stage"] == "summarise"
    assert record.qa_pairs and all(p["error"] for p in record.qa_pairs)


def test_naive_mode_transport_failure_attributed_to_verify(tmp_path) -> None:
    from contrafact.gateway import RetryPolicy

    backend = MockBackend(queue=[TimeoutError("network down")] * 3)
    gateway = LlmGateway(
        backend,
        embedder=HashEmbedder(16),
        sleep=lambda _: None,
        retry=RetryPolicy(max_retries=0),
    )
    runner = CaseRunner(make_config(tmp_path, mode=MODE_NAIVE), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "failed"
    assert record.failure["stage"] == "verify"


def test_kg_mode_transport_failure_after_extract_attributed_to_verify(tmp_path) -> None:
    from contrafact.gateway import GatewayError, RetryPolicy
    from helpers import PipelineScript

    script = PipelineScript()

    def responder(request):
        if "expert fact-checking claims" in request.prompt:
            raise GatewayError("endpoint down")
        return script(request)

    gateway = LlmGateway(
        MockBackend(responder=responder),
        embedder=HashEmbedder(16),
        sleep=lambda _: None,
        retry=RetryPolicy(max_retries=0),
    )
    runner = CaseRunner(make_config(tmp_path, mode=MODE_KG_ONLY), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "failed"
    assert record.failure["stage"] == "verify"
    assert record.kg is not None


def test_ambiguous_verdict_fails_at_verify(tmp_path) -> None:
    gateway, _ = make_gateway(verify_override={"* Claim": "false or maybe half-true"})
    runner = CaseRunner(make_config(tmp_path), LIAR_RAW, gateway)
    record = runner.run_case(make_case(0))
    assert record.status == "failed"
    assert record.failure["stage"] == "verify"
    assert record.summary is not None  # earlier stages are retained


def test_a_failed_record_keeps_the_model_output_that_failed_it(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=1)
    gateway, _ = make_gateway(verify_override={"* Claim": "false or maybe half-true"})
    run(make_config(data), tmp_path / "run", gateway)
    record = json.loads((tmp_path / "run" / "records" / "case-000.json").read_text())
    assert record["failure"] == {
        "stage": "verify",
        "reason": "output matched zero or several labels of scheme 'liar-raw'",
        "raw": "false or maybe half-true",
    }


def test_a_failed_extraction_keeps_its_last_output_and_a_transport_failure_none(
    tmp_path,
) -> None:
    gateway, _ = make_gateway(entity_override={"Marlow0": "%% junk %%"})
    record = CaseRunner(make_config(tmp_path), LIAR_RAW, gateway).run_case(make_case(0))
    assert record.failure["raw"] == "%% junk %%"

    backend = MockBackend(queue=[GatewayError("network down")])
    gateway = LlmGateway(backend, embedder=HashEmbedder(16), sleep=lambda _: None)
    runner = CaseRunner(make_config(tmp_path, mode=MODE_NAIVE), LIAR_RAW, gateway)
    assert "raw" not in runner.run_case(make_case(0)).failure


# -- run orchestration ------------------------------------------------------------------


def test_run_writes_records_manifest_and_metrics(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=3, labels=["half-true", "true", "false"])
    config = make_config(data)
    gateway, _ = make_gateway(
        verdict_for={"Marlow0": "half-true", "Marlow1": "true", "Marlow2": "false"}
    )
    result = run(config, tmp_path / "run", gateway)
    assert result.done == 3
    assert result.failed == 0
    assert (tmp_path / "run" / "run.json").exists()
    records = sorted((tmp_path / "run" / "records").glob("*.json"))
    assert len(records) == 3
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["evaluated"] == 3
    assert metrics["report"]["macro"]["f1"] == 1.0
    manifest = read_manifest(tmp_path / "run")
    assert [entry["id"] for entry in manifest] == ["case-000", "case-001", "case-002"]
    assert all(entry["status"] == "done" for entry in manifest)
    assert all("timings" in entry for entry in manifest)


def test_rerun_skips_completed_cases(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=3)
    config = make_config(data)
    gateway, backend = make_gateway()
    run(config, tmp_path / "run", gateway)
    first_calls = len(backend.requests)

    # delete one record; rerun must execute exactly that one case
    directory = RunDirectory(tmp_path / "run")
    directory.record_path("case-001").unlink()
    gateway2, backend2 = make_gateway()
    result = run(config, tmp_path / "run", gateway2)
    assert result.skipped == 2
    assert result.executed == 1
    assert 0 < len(backend2.requests) < first_calls
    case_ids_touched = {
        r.prompt[r.prompt.rfind("Marlow"):][:7]
        for r in backend2.requests
        if "Marlow" in r.prompt
    }
    assert case_ids_touched == {"Marlow1"}


def test_rerun_keeps_the_manifest_timings_of_skipped_cases(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=3)
    config = make_config(data)
    run(config, tmp_path / "run", make_gateway()[0])
    manifest = tmp_path / "run" / "manifest.jsonl"
    first = manifest.read_bytes()
    assert all(entry["timings"] for entry in read_manifest(tmp_path / "run"))

    RunDirectory(tmp_path / "run").record_path("case-001").unlink()
    run(config, tmp_path / "run", make_gateway()[0])
    second = manifest.read_bytes()
    assert second.startswith(first)  # the earlier lines, byte for byte
    added = [json.loads(line) for line in second[len(first):].splitlines()]
    assert [(entry["id"], entry["status"]) for entry in added] == [("case-001", "done")]
    assert added[0]["timings"]


def test_resume_after_a_torn_manifest_line_matches_an_uncut_run(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=4)
    config = make_config(data)
    run(config, tmp_path / "whole", make_gateway()[0])
    run(config, tmp_path / "cut", make_gateway()[0])
    manifest = tmp_path / "cut" / "manifest.jsonl"
    text = manifest.read_text()
    last = text.rstrip("\n").rfind("\n") + 1
    manifest.write_text(text[: last + (len(text) - last) // 2])  # an append cut in half
    RunDirectory(tmp_path / "cut").record_path("case-001").unlink()

    result = run(config, tmp_path / "cut", make_gateway()[0])
    assert (result.skipped, result.executed) == (3, 1)
    final = manifest.read_text()
    assert final.startswith(text[:last])  # the torn fragment is cut, and only it
    ids = [json.loads(line)["id"] for line in final.splitlines()]  # every line parses
    # case-003 keeps its record but lost its line; case-001 ran again
    assert ids == ["case-000", "case-001", "case-002", "case-001"]
    for path in sorted((tmp_path / "whole" / "records").iterdir()):
        assert path.read_bytes() == (tmp_path / "cut" / "records" / path.name).read_bytes()


@pytest.mark.parametrize("workers", [1, 3])
def test_run_rewrites_the_manifest_a_constant_number_of_times(
    tmp_path, monkeypatch, workers
) -> None:
    appends, rewrites = [], []
    write_manifest, write = RunDirectory.write_manifest, RunDirectory._write

    def counted_append(self, entry):
        appends.append(entry["id"])
        return write_manifest(self, entry)

    def counted_write(self, path, text):
        if os.path.basename(path) == "manifest.jsonl":
            rewrites.append(path)
        return write(self, path, text)

    monkeypatch.setattr(RunDirectory, "write_manifest", counted_append)
    monkeypatch.setattr(RunDirectory, "_write", counted_write)
    for n in (2, 6):
        appends.clear()
        data = tmp_path / f"data-{n}"
        write_fixture_dataset(data, n=n)
        result = run(
            make_config(data, workers=workers), tmp_path / f"run-{n}", make_gateway()[0]
        )
        assert len(appends) == result.executed == result.done == n
        ids = [entry["id"] for entry in read_manifest(tmp_path / f"run-{n}")]
        assert sorted(ids) == [f"case-{i:03d}" for i in range(n)]  # whole lines
    assert rewrites == []  # the manifest is never rewritten


def test_failed_cases_skipped_unless_retry_requested(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=2)
    config = make_config(data)
    gateway, _ = make_gateway(entity_override={"Marlow0": "junk"})
    result = run(config, tmp_path / "run", gateway)
    assert result.failed == 1

    gateway_fixed, backend_fixed = make_gateway()
    result2 = run(config, tmp_path / "run", gateway_fixed)
    assert result2.executed == 0
    assert result2.skipped == 2
    assert backend_fixed.requests == []

    retry_config = make_config(data, retry_failed=True)
    gateway_retry, _ = make_gateway()
    result3 = run(retry_config, tmp_path / "run", gateway_retry)
    assert result3.executed == 1
    assert result3.done == 2


def test_run_rejects_mismatched_config_digest(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=1)
    gateway, _ = make_gateway()
    run(make_config(data), tmp_path / "run", gateway)
    with pytest.raises(RuntimeError):
        run(make_config(data, k=4), tmp_path / "run", make_gateway()[0])


def test_manifest_never_reorders_or_duplicates_across_reruns(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=4)
    config = make_config(data)
    gateway, _ = make_gateway(entity_override={"Marlow2": "junk"})
    run(config, tmp_path / "run", gateway)
    first = read_manifest(tmp_path / "run")
    retry = make_config(data, retry_failed=True)
    run(retry, tmp_path / "run", make_gateway()[0])
    lines = read_manifest(tmp_path / "run")
    assert lines[: len(first)] == first  # earlier lines stay where they were
    # the retried case has a line for each run, and its last one is its latest
    assert [(e["id"], e["status"]) for e in lines[len(first):]] == [("case-002", "done")]
    assert [e["status"] for e in lines if e["id"] == "case-002"] == ["failed", "done"]


def test_run_with_worker_pool_matches_sequential_records(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=4)
    config_seq = make_config(data, workers=1)
    config_par = make_config(data, workers=4)
    sequential = LlmGateway(
        scripted_backend(), embedder=HashEmbedder(16), sleep=lambda _: None, max_in_flight=1
    )
    run(config_seq, tmp_path / "run-seq", sequential)
    run(config_par, tmp_path / "run-par", make_gateway()[0])
    for path in sorted((tmp_path / "run-seq" / "records").glob("*.json")):
        other = tmp_path / "run-par" / "records" / path.name
        assert path.read_bytes() == other.read_bytes()
    assert (tmp_path / "run-seq" / "metrics.json").read_bytes() == (
        tmp_path / "run-par" / "metrics.json"
    ).read_bytes()


class CountingEmbedder(HashEmbedder):
    def __init__(self, dim: int) -> None:
        super().__init__(dim)
        self.calls = 0

    def embed(self, texts):
        self.calls += 1
        return super().embed(texts)


def cached_gateway(cache_dir, embedder=None) -> LlmGateway:
    return LlmGateway(
        scripted_backend(),
        embedder=embedder or HashEmbedder(16),
        cache=ResponseCache(cache_dir),
        sleep=lambda _: None,
    )


def test_warm_run_keeps_every_case_on_the_calling_thread(tmp_path, monkeypatch) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=4)
    config = make_config(data, workers=4)
    run(config, tmp_path / "cold", cached_gateway(tmp_path / "cache"))

    threads: list[int] = []
    original = CaseRunner.run_case

    def recorded(self, case, *args, **kwargs):
        threads.append(threading.get_ident())
        return original(self, case, *args, **kwargs)

    monkeypatch.setattr(CaseRunner, "run_case", recorded)
    before = threading.active_count()
    result = run(config, tmp_path / "warm", cached_gateway(tmp_path / "cache"))
    assert result.done == 4
    assert threads == [threading.get_ident()] * 4
    assert threading.active_count() == before


def test_warm_run_makes_no_embedder_call_and_writes_the_same_records(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=3)
    config = make_config(data)
    cold, warm = CountingEmbedder(16), CountingEmbedder(16)
    run(config, tmp_path / "cold", cached_gateway(tmp_path / "cache", cold))
    run(config, tmp_path / "warm", cached_gateway(tmp_path / "cache", warm))
    assert cold.calls == 3
    assert warm.calls == 0
    paths = sorted((tmp_path / "cold" / "records").glob("*.json"))
    assert len(paths) == 3
    for path in paths:
        assert path.read_bytes() == (tmp_path / "warm" / "records" / path.name).read_bytes()


def test_cold_and_warm_runs_at_any_width_write_the_same_bytes(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=4)

    def tree(root) -> dict[str, bytes]:
        return {
            str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*"))
            if path.is_file()
        }

    runs = {}
    for workers in (1, 4):
        config = make_config(data, workers=workers)
        cache = tmp_path / f"cache-{workers}"
        run(config, tmp_path / f"cold-{workers}", cached_gateway(cache))
        cold_cache = tree(cache)
        run(config, tmp_path / f"warm-{workers}", cached_gateway(cache))
        assert tree(cache) == cold_cache  # a warm run writes no cache entry
        runs[f"cold-{workers}"] = tree(tmp_path / f"cold-{workers}" / "records")
        runs[f"warm-{workers}"] = tree(tmp_path / f"warm-{workers}" / "records")
        runs[f"cache-{workers}"] = cold_cache
    assert len(runs["cold-1"]) == 4
    assert runs["cache-1"] == runs["cache-4"]
    for name in ("warm-1", "cold-4", "warm-4"):
        assert runs[name] == runs["cold-1"], name


def test_cold_run_has_workers_cases_in_flight_and_never_more(tmp_path, monkeypatch) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=7)
    workers = 3
    lock = threading.Lock()
    running = [0]
    peak = [0]
    all_in = threading.Event()
    gave_up = threading.Event()
    original = CaseRunner.run_case

    def counted(self, case, *args, **kwargs):
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
            if running[0] == workers:
                all_in.set()
        try:
            return original(self, case, *args, **kwargs)
        finally:
            with lock:
                running[0] -= 1

    script = PipelineScript()

    def responder(request):
        # the first calls wait until `workers` cases are in flight at once
        if not all_in.wait(timeout=5):
            gave_up.set()
            all_in.set()
        return script(request)

    monkeypatch.setattr(CaseRunner, "run_case", counted)
    gateway = LlmGateway(
        MockBackend(responder=responder), embedder=HashEmbedder(16), sleep=lambda _: None
    )
    result = run(make_config(data, workers=workers), tmp_path / "run", gateway)
    assert result.done == 7
    assert not gave_up.is_set()
    assert peak[0] == workers


def test_a_run_holds_no_more_live_records_than_workers(tmp_path, monkeypatch) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=30, labels=["true", "false"])
    config = make_config(data, workers=2)
    created: list[weakref.ref] = []  # records are unhashable, so no WeakSet
    peaks: list[int] = []
    lock = threading.Lock()
    threads: set[int] = set()
    init, write_record = PipelineRecord.__init__, RunDirectory.write_record

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(weakref.ref(self))

    def counted_write(self, record):
        write_record(self, record)
        with lock:
            threads.add(threading.get_ident())
            gc.collect()
            peaks.append(sum(1 for ref in created if ref() is not None))

    monkeypatch.setattr(PipelineRecord, "__init__", tracked_init)
    monkeypatch.setattr(RunDirectory, "write_record", counted_write)
    first = run(config, tmp_path / "run", make_gateway()[0])
    assert first.done == 30 and len(threads) == 2
    # a resumed run reads the 20 finished records and keeps none of them
    for i in range(0, 30, 3):
        RunDirectory(tmp_path / "run").record_path(f"case-{i:03d}").unlink()
    second = run(config, tmp_path / "run", make_gateway()[0])
    assert (second.skipped, second.executed) == (20, 10)
    assert second.metrics == first.metrics
    assert len(peaks) == 40 and max(peaks) <= 2


def test_a_failing_record_write_stops_the_run_from_taking_new_cases(
    tmp_path, monkeypatch
) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=4)
    config = make_config(data, workers=4)
    run(config, tmp_path / "cold", cached_gateway(tmp_path / "cache"))

    started: list[str] = []
    run_case, write_record = CaseRunner.run_case, RunDirectory.write_record

    def recorded(self, case, *args, **kwargs):
        started.append(case.id)
        return run_case(self, case, *args, **kwargs)

    def failing(self, record):
        if record.case_id == "case-001":
            raise OSError("disk full")
        write_record(self, record)

    monkeypatch.setattr(CaseRunner, "run_case", recorded)
    monkeypatch.setattr(RunDirectory, "write_record", failing)
    with pytest.raises(OSError, match="disk full"):
        run(config, tmp_path / "warm", cached_gateway(tmp_path / "cache"))
    # a warm run takes its cases one at a time, so none after the failure starts
    assert started == ["case-000", "case-001"]


@pytest.mark.parametrize(
    "owner, method", [(ResponseCache, "put"), (RecordingWriter, "append")]
)
def test_a_failed_gateway_file_write_stops_the_run_and_a_resume_finishes_it(
    tmp_path, monkeypatch, owner, method
) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=3)
    config = make_config(data)

    def run_into(name):
        with RecordingWriter(tmp_path / f"{name}.jsonl") as recorder:
            gateway = LlmGateway(
                scripted_backend(),
                embedder=HashEmbedder(16),
                cache=ResponseCache(tmp_path / f"{name}-cache"),
                recorder=recorder,
                sleep=lambda _: None,
            )
            return run(config, tmp_path / name, gateway)

    run_into("whole")

    calls = itertools.count(1)
    real = getattr(owner, method)

    def full_disk(self, *args):
        if next(calls) == 5:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(self, *args)

    monkeypatch.setattr(owner, method, full_disk)
    with pytest.raises(OSError, match="No space left on device"):
        run_into("cut")
    monkeypatch.undo()
    assert RunDirectory(tmp_path / "cut").read_record("case-000") is None

    resumed = run_into("cut")
    assert resumed.done == 3
    for name in ("records/case-000.json", "records/case-001.json",
                 "records/case-002.json", "metrics.json"):
        assert (tmp_path / "cut" / name).read_bytes() == (
            tmp_path / "whole" / name
        ).read_bytes()
    assert [(e["id"], e["status"]) for e in read_manifest(tmp_path / "cut")] == [
        (e["id"], e["status"]) for e in read_manifest(tmp_path / "whole")
    ]


# Each file a run writes to: the method it writes through, and the file name
# its calls must have to count (None: every call counts).
WRITE_SITES = {
    "record": (RunDirectory, "write_record", None),
    "run.json": (RunDirectory, "_write", "run.json"),
    "metrics.json": (RunDirectory, "_write", "metrics.json"),
    "manifest-append": (RunDirectory, "write_manifest", None),
    "cache-put": (ResponseCache, "put", None),
    "recording-append": (RecordingWriter, "append", None),
}


def _at_write(owner, method, name, action):
    """`owner.method`, calling `action()` first at each of its writes whose
    path is `name` (or at every write when `name` is None)."""
    real = getattr(owner, method)

    def wrapped(self, *args):
        if name is None or os.path.basename(str(args[0])) == name:
            action()
        return real(self, *args)

    return wrapped


@pytest.mark.parametrize("site", sorted(WRITE_SITES))
def test_a_run_cut_at_any_write_resumes_and_replays_as_an_uncut_run(
    tmp_path, monkeypatch, site
) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=2)
    config = make_config(data)
    owner, method, name = WRITE_SITES[site]

    def run_into(run_dir, backend=None, cache=True):
        with RecordingWriter(f"{run_dir}.jsonl") as recorder:
            gateway = LlmGateway(
                backend or scripted_backend(),
                embedder=HashEmbedder(16),
                cache=ResponseCache(f"{run_dir}-cache") if cache else None,
                recorder=recorder,
                sleep=lambda _: None,
            )
            return run(config, run_dir, gateway)

    def files(run_dir):
        # a cut may leave a case without a line, but every line parses
        assert {e["id"] for e in read_manifest(run_dir)} <= {"case-000", "case-001"}
        records = sorted(os.listdir(run_dir / "records"))
        return (
            {r: (run_dir / "records" / r).read_bytes() for r in records},
            (run_dir / "metrics.json").read_bytes(),
        )

    writes = itertools.count()
    with monkeypatch.context() as patch:
        patch.setattr(owner, method, _at_write(owner, method, name, writes.__next__))
        run_into(tmp_path / "whole")
    whole = files(tmp_path / "whole")
    count = next(writes)
    assert count > 0

    for n in range(1, count + 1):
        cut = tmp_path / f"cut-{n}"
        calls = itertools.count(1)

        def full_disk():
            if next(calls) == n:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with monkeypatch.context() as patch:
            patch.setattr(owner, method, _at_write(owner, method, name, full_disk))
            with pytest.raises(OSError, match="No space left on device"):
                run_into(cut)
        resumed = run_into(cut)
        assert resumed.done == 2, f"resume after write {n}"
        assert files(cut) == whole, f"resume after write {n}"
        replayed = tmp_path / f"replay-{n}"
        run_into(replayed, ReplayBackend(f"{cut}.jsonl"), cache=False)
        assert files(replayed) == whole, f"replay after write {n}"


def test_a_run_parses_one_case_before_its_first_case_starts(tmp_path, monkeypatch) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=5)
    parsed = [0]
    at_first_case: list[int] = []
    parse, run_case = corpus._parse_case, CaseRunner.run_case

    def counted_parse(*args):
        parsed[0] += 1
        return parse(*args)

    def recorded(self, case, *args, **kwargs):
        at_first_case.append(parsed[0])
        return run_case(self, case, *args, **kwargs)

    monkeypatch.setattr(corpus, "_parse_case", counted_parse)
    monkeypatch.setattr(CaseRunner, "run_case", recorded)
    result = run(make_config(data), tmp_path / "run", make_gateway()[0])
    assert result.done == 5
    assert at_first_case[0] == 1
    assert parsed[0] == 5


def test_a_fresh_run_reads_no_record_and_writes_no_manifest_before_a_case_ends(
    tmp_path, monkeypatch
) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=3)
    reads: list[str] = []
    manifest_at_first_case: list[bool] = []
    read_record, run_case = RunDirectory.read_record, CaseRunner.run_case

    def counted_read(self, case_id):
        reads.append(case_id)
        return read_record(self, case_id)

    def recorded(self, case, *args, **kwargs):
        manifest_at_first_case.append((tmp_path / "run" / "manifest.jsonl").exists())
        return run_case(self, case, *args, **kwargs)

    monkeypatch.setattr(RunDirectory, "read_record", counted_read)
    monkeypatch.setattr(CaseRunner, "run_case", recorded)
    config = make_config(data)
    assert run(config, tmp_path / "run", make_gateway()[0]).done == 3
    assert reads == []
    assert manifest_at_first_case[0] is False
    # a resume reads the records there are, and only those
    RunDirectory(tmp_path / "run").record_path("case-001").unlink()
    assert run(config, tmp_path / "run", make_gateway()[0]).skipped == 2
    assert reads == ["case-000", "case-002"]


def test_a_repeated_case_id_runs_once(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=3, labels=["true", "false", "true"])
    split = data / "test.json"
    payload = json.loads(split.read_text())
    payload[1]["event_id"] = payload[0]["event_id"]
    split.write_text(json.dumps(payload))

    result = run(make_config(data), tmp_path / "run", make_gateway()[0])
    assert (result.total, result.executed) == (2, 2)
    assert [e["id"] for e in read_manifest(tmp_path / "run")] == ["case-000", "case-002"]
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert (metrics["cases"], metrics["load_diagnostics"]) == (2, 1)
    record = RunDirectory(tmp_path / "run").read_record("case-000")
    assert record.claim.startswith("Senator Marlow0 ")  # the first case kept


def test_run_honors_ids_and_limit_filters(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=5)
    config = make_config(data, ids=("case-002",))
    result = run(config, tmp_path / "run-ids", make_gateway()[0])
    assert result.total == 1
    assert (tmp_path / "run-ids" / "records" / "case-002.json").exists()

    limited = make_config(data, limit=2)
    result = run(limited, tmp_path / "run-limit", make_gateway()[0])
    assert result.total == 2


def test_load_run_records_round_trips_a_run(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=2)
    run(make_config(data), tmp_path / "run", make_gateway()[0])
    directory = RunDirectory(tmp_path / "run")
    records = [directory.read_record(case_id) for case_id in ("case-000", "case-001")]
    assert sorted(r.case_id for r in records) == ["case-000", "case-001"]
    assert all(r.status == "done" for r in records)
    assert all(r.timings == {} for r in records)  # volatile data is manifest-only


def test_failed_cases_are_excluded_from_metrics_with_count(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=3)
    config = make_config(data)
    gateway, _ = make_gateway(entity_override={"Marlow1": "junk"})
    run(config, tmp_path / "run", gateway)
    metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
    assert metrics["evaluated"] == 2
    assert metrics["excluded_failed"] == 1
    assert metrics["report"]["excluded"] == 1


def test_run_files_are_replaced_not_rewritten_in_place(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=2)
    config = make_config(data)
    run_dir = tmp_path / "run"
    run(config, run_dir, make_gateway()[0])
    # a hard link keeps the old inode alive, so the file system cannot reuse it
    old = tmp_path / "metrics.json"
    old.hardlink_to(run_dir / "metrics.json")
    run(config, run_dir, make_gateway()[0])  # resume: metrics.json is written again
    assert (run_dir / "metrics.json").stat().st_ino != old.stat().st_ino
    assert old.read_bytes() == (run_dir / "metrics.json").read_bytes()
    assert not list(run_dir.rglob("*.tmp"))


def test_a_run_json_write_cut_short_leaves_no_torn_file(tmp_path, monkeypatch) -> None:
    import os

    class Killed(BaseException):
        pass

    real_write = os.write

    def torn_write(fd, data):
        real_write(fd, bytes(data[:10]))
        raise Killed

    data = tmp_path / "data"
    write_fixture_dataset(data, n=2)
    config = make_config(data)
    directory = RunDirectory(tmp_path / "run")
    monkeypatch.setattr(os, "write", torn_write)
    with pytest.raises(Killed):
        directory.check_or_write_meta(config)
    monkeypatch.undo()
    assert directory.read_meta() is None  # the torn bytes never reached run.json
    result = run(config, tmp_path / "run", make_gateway()[0])  # so a rerun starts cleanly
    assert result.done == 2
    assert directory.read_meta()["config_digest"] == config.digest
    assert not list((tmp_path / "run").rglob("*.tmp"))


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temp_file(
    tmp_path, monkeypatch
) -> None:
    directory = RunDirectory(tmp_path)
    directory.write_metrics({"cases": 1})
    before = directory.metrics_path.read_bytes()

    def full_disk(fd, data):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError) as excinfo:
        directory.write_metrics({"cases": 2})
    monkeypatch.undo()
    assert excinfo.value.errno == errno.ENOSPC
    assert directory.metrics_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["metrics.json"]


def test_reading_a_run_directory_creates_nothing(tmp_path) -> None:
    directory = RunDirectory(tmp_path / "absent")
    assert directory.read_meta() is None
    assert not directory.has_record_files()
    assert list(directory.record_payloads()) == []
    assert directory.read_record("case-000") is None
    assert not (tmp_path / "absent").exists()


def test_record_payloads_come_in_file_name_order(tmp_path) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=12)
    run(make_config(data, workers=3), tmp_path / "run", make_gateway()[0])
    directory = RunDirectory(tmp_path / "run")
    payloads = list(directory.record_payloads())
    names = sorted(p.name for p in directory.records_dir.glob("*.json"))
    assert [record_filename(p["case_id"]) for p in payloads] == names
    assert payloads[0] == directory.read_record("case-000").stable_dict()


# -- templates are read before any model call -------------------------------------

MODE_TEMPLATES = {
    MODE_FULL: ["extract_entities", "extract_classes", "extract_relations",
                "answer", "summarise", "verify"],
    MODE_NAIVE: ["verify"],
    MODE_KG_ONLY: ["extract_entities", "extract_classes", "extract_relations", "verify"],
    MODE_LLM_QUESTIONS: ["llm_questions", "answer", "summarise", "verify"],
}


@pytest.mark.parametrize("mode", sorted(MODE_TEMPLATES))
def test_case_runner_reads_every_template_of_its_mode_and_no_other(tmp_path, mode) -> None:
    packaged = Path(prompts.__file__).parent / "templates"
    templates = tmp_path / "templates"
    templates.mkdir()
    for name in MODE_TEMPLATES[mode]:
        shutil.copy(packaged / f"{name}.txt", templates)
    backend = MockBackend()
    gateway = LlmGateway(backend, embedder=HashEmbedder(16), sleep=lambda _: None)
    scheme = load_scheme("liar-raw")
    config = make_config(tmp_path, mode=mode, template_dir=str(templates))
    CaseRunner(config, scheme, gateway)  # the mode's templates are enough
    for name in MODE_TEMPLATES[mode]:
        path = templates / f"{name}.txt"
        text = path.read_text(encoding="utf-8")
        path.unlink()
        with pytest.raises(PromptError) as excinfo:
            CaseRunner(config, scheme, gateway)
        assert str(path) in str(excinfo.value)
        path.write_text(text + " {", encoding="utf-8")  # a stray brace
        with pytest.raises(PromptError) as excinfo:
            CaseRunner(config, scheme, gateway)
        assert str(path) in str(excinfo.value)
        path.write_text(text, encoding="utf-8")
    assert backend.requests == []
