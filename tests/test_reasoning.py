from __future__ import annotations

import json

import pytest

from contrafact.contrastive import generate_candidates
from contrafact.gateway import LlmGateway, RecordingWriter, RetryPolicy
from contrafact.kg import Entity, KnowledgeGraph, Term, Triple
from contrafact.prompts import PromptLibrary
from contrafact.reasoning import (
    QAPair,
    SummaryUnavailable,
    answer_questions,
    build_context,
    summarise,
)
from helpers import MockBackend

REPORTS = ["First report text.", "Second report text."]
CONTEXT = build_context(REPORTS, 30_000)
STAGE = dict(prompts=PromptLibrary(), model="reasoner", max_tokens=512)


def gateway_with(queue) -> LlmGateway:
    # one call at a time, so queued responses pop in question order
    return LlmGateway(MockBackend(queue=queue), sleep=lambda _: None, max_in_flight=1)


def sample_questions(n: int = 2):
    place = Term("Place")
    entities = [Entity("a1", "A1", Term("Person")), Entity("p0", "P0", place)]
    entities += [Entity(f"p{i}", f"P{i}", place) for i in range(1, n + 1)]
    graph = KnowledgeGraph(
        entities=tuple(entities),
        triples=(Triple("a1", Term("visited"), "p0", "claim"),),
    )
    return generate_candidates(graph)[:n]


# -- context assembly -------------------------------------------------------------


def test_context_has_numbered_separators_in_order() -> None:
    context = build_context(REPORTS, budget=10_000)
    assert context.index("--- Report 1 ---") < context.index("--- Report 2 ---")
    assert "First report text." in context
    assert "Second report text." in context


def test_context_truncates_from_the_tail() -> None:
    context = build_context(REPORTS, budget=30)
    assert len(context) == 30
    assert context.startswith("--- Report 1 ---")


# -- answering ---------------------------------------------------------------------


def test_no_questions_no_pairs() -> None:
    assert answer_questions([], CONTEXT, "claim", gateway_with([]), **STAGE) == []


def test_empty_report_set_is_allowed() -> None:
    questions = sample_questions(1)
    pairs = answer_questions(
        questions, build_context([], 30_000), "claim", gateway_with(["ans"]), **STAGE
    )
    assert pairs[0].ok


def test_two_questions_answered_in_rank_order() -> None:
    questions = sample_questions(2)
    gateway = gateway_with(["answer one", "answer two"])
    pairs = answer_questions(questions, CONTEXT, "the claim", gateway, **STAGE)
    assert [p.rank for p in pairs] == [0, 1]
    assert [p.answer for p in pairs] == ["answer one", "answer two"]
    assert [p.question_text for p in pairs] == [q.text for q in questions]
    assert all(p.ok for p in pairs)
    assert all(p.prompt_sha for p in pairs)


def test_answer_retry_count_lands_on_the_recording_line(tmp_path) -> None:
    questions = sample_questions(1)
    recording = tmp_path / "session.jsonl"
    with RecordingWriter(recording) as recorder:
        gateway = LlmGateway(
            MockBackend(queue=[TimeoutError("t1"), TimeoutError("t2"), "recovered"]),
            recorder=recorder,
            sleep=lambda _: None,
            retry=RetryPolicy(max_retries=2),
        )
        pairs = answer_questions(questions, CONTEXT, "claim", gateway, **STAGE)
    assert pairs[0].ok
    assert "retries" not in pairs[0].to_dict()
    [line] = recording.read_text().splitlines()
    assert json.loads(line)["retries"] == 2


def test_per_question_failure_is_non_fatal() -> None:
    questions = sample_questions(2)
    gateway = LlmGateway(
        MockBackend(queue=[TimeoutError("down")] * 1 + ["fine"]),
        sleep=lambda _: None,
        retry=RetryPolicy(max_retries=0),
        max_in_flight=1,
    )
    pairs = answer_questions(questions, CONTEXT, "claim", gateway, **STAGE)
    assert not pairs[0].ok
    assert pairs[0].error
    assert pairs[1].ok


def test_empty_answer_is_marked_failed() -> None:
    questions = sample_questions(1)
    pairs = answer_questions(
        questions, CONTEXT, "claim", gateway_with(["   "]), **STAGE
    )
    assert not pairs[0].ok
    assert pairs[0].error == "empty answer"


def test_prompt_is_pure_function_of_inputs() -> None:
    questions = sample_questions(1)
    backend_a = MockBackend(queue=["x"])
    backend_b = MockBackend(queue=["x"])
    answer_questions(questions, CONTEXT, "claim", LlmGateway(backend_a), **STAGE)
    answer_questions(questions, CONTEXT, "claim", LlmGateway(backend_b), **STAGE)
    assert backend_a.requests[0].prompt == backend_b.requests[0].prompt


def test_prompts_are_independent_across_questions() -> None:
    questions = sample_questions(3)
    backend = MockBackend(queue=["a", "b", "c"])
    answer_questions(
        questions, CONTEXT, "claim", LlmGateway(backend, max_in_flight=1), **STAGE
    )
    for i, request in enumerate(backend.requests):
        assert questions[i].text in request.prompt
        for j, other in enumerate(questions):
            if j != i:
                assert other.text not in request.prompt


def test_concurrent_answering_preserves_order() -> None:
    questions = sample_questions(4)

    def responder(request):
        for i, question in enumerate(questions):
            if question.text in request.prompt:
                return f"answer {i}"
        raise AssertionError("unknown question")

    sequential, concurrent = (
        answer_questions(
            questions,
            CONTEXT,
            "claim",
            LlmGateway(MockBackend(responder=responder), max_in_flight=width),
            **STAGE,
        )
        for width in (1, 4)
    )
    assert [p.answer for p in concurrent] == [f"answer {i}" for i in range(4)]
    assert [p.to_dict() for p in concurrent] == [p.to_dict() for p in sequential]


def test_answer_accepts_plain_text_questions() -> None:
    pairs = answer_questions(
        ["Why x rather than y?"], CONTEXT, "claim", gateway_with(["because"]), **STAGE
    )
    assert pairs[0].question is None
    assert pairs[0].question_text == "Why x rather than y?"
    assert pairs[0].ok


# -- summarising -------------------------------------------------------------------


def ok_pair(i: int) -> QAPair:
    return QAPair(question_text=f"Question {i}?", rank=i, answer=f"Answer body {i}.")


def test_single_pair_scripted_summary() -> None:
    gateway = gateway_with(["This is the distilled paragraph."])
    summary = summarise("claim", [ok_pair(0)], gateway, **STAGE)
    assert summary == "This is the distilled paragraph."


def test_all_pairs_errored_raises_summary_unavailable() -> None:
    failed = QAPair(question_text="q", rank=0, answer=None, error="down")
    with pytest.raises(SummaryUnavailable):
        summarise("claim", [failed], gateway_with(["never"]), **STAGE)


def test_prompt_contains_numbered_blocks_in_rank_order() -> None:
    backend = MockBackend(queue=["summary"])
    pairs = [ok_pair(i) for i in range(5)]
    summarise("claim", pairs, LlmGateway(backend), **STAGE)
    prompt = backend.requests[0].prompt
    for i in range(5):
        assert f"* Question {i + 1}: Question {i}?" in prompt
        assert f"* Answer {i + 1}: Answer body {i}." in prompt
    assert "* Question 6:" not in prompt
    positions = [prompt.index(f"* Question {i + 1}:") for i in range(5)]
    assert positions == sorted(positions)


def test_failed_pairs_are_skipped_and_numbering_is_sequential() -> None:
    backend = MockBackend(queue=["summary"])
    pairs = [
        ok_pair(0),
        QAPair(question_text="broken", rank=1, answer=None, error="x"),
        ok_pair(2),
    ]
    summarise("claim", pairs, LlmGateway(backend), **STAGE)
    prompt = backend.requests[0].prompt
    assert "* Question 1: Question 0?" in prompt
    assert "* Question 2: Question 2?" in prompt
    assert "broken" not in prompt


def test_summary_collapses_blank_lines_to_single_paragraph() -> None:
    gateway = gateway_with(["para one.\n\n\npara two."])
    summary = summarise("claim", [ok_pair(0)], gateway, **STAGE)
    assert summary == "para one.\npara two."
