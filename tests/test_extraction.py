from __future__ import annotations

import json
import threading

import pytest

from contrafact.corpus import ClaimCase, Report
from contrafact.extraction import (
    ExtractionError,
    extract_case_audited,
    parse_classes,
    parse_entities,
    parse_relations,
)
from contrafact.gateway import (
    GatewayError,
    LlmGateway,
    ResponseCache,
    RetryPolicy,
)
from contrafact.prompts import PromptLibrary
from helpers import MockBackend

SETTINGS = ("extractor", 1024, 2)  # model, max_tokens, retries
PROMPTS = PromptLibrary()


def gateway_with(queue) -> LlmGateway:
    return LlmGateway(MockBackend(queue=queue), sleep=lambda _: None)


def three_phase_queue(
    entities='["X", "Y"]',
    classes='{"X": "Person", "Y": "Organization"}',
    relations='[["X", "works_for", "Y"]]',
):
    return [entities, classes, relations]


# -- parsing --------------------------------------------------------------------


def test_parse_entities_handles_code_fences_and_prose() -> None:
    raw = 'Sure! Here you go:\n```json\n["Alice", "Bob"]\n```\nHope that helps.'
    assert parse_entities(raw) == ["Alice", "Bob"]


def test_parse_entities_skips_non_strings_and_blanks() -> None:
    assert parse_entities('["A", 3, null, "  ", "B"]') == ["A", "B"]


def test_parse_classes_accepts_plain_object() -> None:
    assert parse_classes('{"A": "Person", "B": "Place"}') == {
        "A": "Person",
        "B": "Place",
    }


def test_parse_relations_accepts_arrays_and_objects() -> None:
    raw = json.dumps(
        [
            ["A", "knows", "B"],
            {"head": "B", "relation": "cites", "tail": "A"},
            {"subject": "A", "predicate": "visited", "object": "B"},
            ["broken"],
            42,
        ]
    )
    assert parse_relations(raw) == [
        ("A", "knows", "B"),
        ("B", "cites", "A"),
        ("A", "visited", "B"),
    ]


def test_parse_failures_on_wrong_shapes() -> None:
    from contrafact.extraction import _ParseFailure

    with pytest.raises(_ParseFailure):
        parse_entities('{"not": "an array"}')
    with pytest.raises(_ParseFailure):
        parse_classes("[1, 2, 3]")
    with pytest.raises(_ParseFailure):
        parse_entities("total junk with no brackets")


# -- one source: a claim-only case -------------------------------------------


def extract_claim(gateway: LlmGateway, claim: str = "text"):
    return extract_case_audited(ClaimCase(id="c1", claim=claim), gateway, PROMPTS, *SETTINGS)


def test_empty_text_is_a_precondition_violation() -> None:
    case = ClaimCase(id="c1", claim="Alpha funded Beta.", reports=(Report(0, ("  ",)),))
    with pytest.raises(ValueError):
        extract_case_audited(case, scripted_case_gateway()[0], PROMPTS, *SETTINGS)


def test_scripted_extraction_builds_expected_graph() -> None:
    gateway = gateway_with(three_phase_queue())
    graph = extract_claim(gateway, "X works for Y.")[0]
    assert len(graph.entities) == 2
    assert {e.surface: e.entity_class.text for e in graph.entities} == {
        "X": "Person",
        "Y": "Organization",
    }
    assert len(graph.triples) == 1
    triple = graph.triples[0]
    assert triple.provenance == "claim"
    assert triple.relation.text == "works_for"


def test_dangling_triple_is_dropped_and_counted() -> None:
    gateway = gateway_with(
        three_phase_queue(
            relations='[["X", "works_for", "Y"], ["X", "knows", "Ghost"]]'
        )
    )
    graph, _, dropped_triples = extract_claim(gateway)
    assert len(graph.triples) == 1
    assert dropped_triples == 1


def test_self_loop_from_model_is_dropped_not_fatal() -> None:
    gateway = gateway_with(
        three_phase_queue(relations='[["X", "references", "X"]]')
    )
    graph, _, dropped_triples = extract_claim(gateway)
    assert graph.triples == ()
    assert dropped_triples == 1


def test_unlabeled_entity_dropped_with_its_triples() -> None:
    gateway = gateway_with(
        three_phase_queue(classes='{"X": "Person"}')  # Y never labeled
    )
    graph, dropped_entities, dropped_triples = extract_claim(gateway)
    assert [e.surface for e in graph.entities] == ["X"]
    assert dropped_entities == 1
    assert dropped_triples == 1  # the X->Y triple dangles


def test_empty_entity_set_yields_empty_graph_without_later_phases() -> None:
    backend = MockBackend(queue=["[]"])
    gateway = LlmGateway(backend, sleep=lambda _: None)
    graph, _, _ = extract_claim(gateway)
    assert graph.entities == ()
    assert len(backend.requests) == 1


def test_junk_output_retries_then_extraction_error_with_phase_and_raw() -> None:
    junk = ["not json at all"] * 3
    gateway = gateway_with(junk)
    with pytest.raises(ExtractionError) as excinfo:
        extract_claim(gateway)
    assert excinfo.value.phase == "entities"
    assert excinfo.value.raw == "not json at all"


def test_retry_succeeds_on_later_attempt() -> None:
    gateway = gateway_with(["garbage", '["X", "Y"]'] + three_phase_queue()[1:])
    graph = extract_claim(gateway)[0]
    assert len(graph.entities) == 2


def test_retry_is_a_new_request_that_the_cache_cannot_answer(tmp_path) -> None:
    backend = MockBackend(queue=["garbage"] + three_phase_queue())
    gateway = LlmGateway(backend, cache=ResponseCache(tmp_path), sleep=lambda _: None)
    graph, _, _ = extract_claim(gateway)
    assert [e.surface for e in graph.entities] == ["X", "Y"]
    # the entities phase took two backend calls, the other phases one each
    assert len(backend.requests) == 4
    first, second = backend.requests[:2]
    assert second.prompt.startswith(first.prompt) and second.digest != first.digest


def test_gateway_failure_wrapped_as_extraction_error() -> None:
    backend = MockBackend(queue=[TimeoutError("down")] * 5)
    gateway = LlmGateway(backend, sleep=lambda _: None, retry=RetryPolicy(max_retries=0))
    with pytest.raises(ExtractionError) as excinfo:
        extract_claim(gateway)
    assert isinstance(excinfo.value.__cause__, GatewayError)


def test_duplicate_phase_one_entities_collapse() -> None:
    gateway = gateway_with(
        three_phase_queue(entities='["X", "x ", "Y"]')
    )
    graph = extract_claim(gateway)[0]
    assert [e.surface for e in graph.entities] == ["X", "Y"]


# -- extract_case_audited -------------------------------------------------------


def make_case(reports: int) -> ClaimCase:
    return ClaimCase(
        id="c1",
        claim="Alpha funded Beta.",
        reports=tuple(
            Report(i, (f"Report {i} sentence one.", "Sentence two.")) for i in range(reports)
        ),
        gold_label=None,
        split="test",
    )


def scripted_responder(request) -> str:
    text = request.prompt[request.prompt.rfind("Text: ") + len("Text: "):].strip()
    if "1. Extract nodes" in request.prompt:
        if text.startswith("Alpha"):
            return '["Alpha", "Beta"]'
        return '["Beta", "Gamma"]'
    if "2. Label nodes" in request.prompt:
        return '{"Alpha": "Org", "Beta": "Org", "Gamma": "Person"}'
    if "3. Extract relationships" in request.prompt:
        if text.startswith("Alpha"):
            return '[["Alpha", "funded", "Beta"]]'
        return '[["Gamma", "runs", "Beta"]]'
    raise AssertionError("unexpected prompt")


def scripted_case_gateway(max_in_flight: int = 8) -> tuple[LlmGateway, MockBackend]:
    backend = MockBackend(responder=scripted_responder)
    return LlmGateway(backend, sleep=lambda _: None, max_in_flight=max_in_flight), backend


def test_case_with_claim_only_has_only_claim_triples() -> None:
    gateway, _ = scripted_case_gateway()
    graph = extract_case_audited(make_case(0), gateway, PROMPTS, *SETTINGS)[0]
    assert len(graph.triples) == 1
    assert all(t.provenance == "claim" for t in graph.triples)


def test_case_merges_claim_and_reports_with_provenance() -> None:
    gateway, _ = scripted_case_gateway()
    graph = extract_case_audited(make_case(2), gateway, PROMPTS, *SETTINGS)[0]
    # hand-merged union of the three fixture graphs
    assert [(e.id, e.surface, e.entity_class.text) for e in graph.entities] == [
        ("e1", "Alpha", "Org"),
        ("e2", "Beta", "Org"),
        ("e3", "Gamma", "Person"),
    ]
    assert sorted(
        (t.head, t.relation.text, t.tail, t.provenance) for t in graph.triples
    ) == [
        ("e1", "funded", "e2", "claim"),
        ("e3", "runs", "e2", "report:0"),
        ("e3", "runs", "e2", "report:1"),
    ]
    assert len(graph.claim_triples) == 1


def test_provenance_faithfulness_against_call_log() -> None:
    gateway, backend = scripted_case_gateway()
    case = make_case(2)
    extract_case_audited(case, gateway, PROMPTS, *SETTINGS)
    for request in backend.requests:
        payload = request.prompt[request.prompt.rfind("Text: "):]
        if case.claim in payload:
            assert not any(r.text in payload for r in case.reports)
        else:
            assert any(r.text in payload for r in case.reports)


def test_failing_report_extraction_identifies_source() -> None:
    def responder(request):
        text = request.prompt[request.prompt.rfind("Text: ") + len("Text: "):].strip()
        if text.startswith("Report 1"):
            return "junk"
        if "1. Extract nodes" in request.prompt:
            return '["Alpha", "Beta"]'
        if "2. Label nodes" in request.prompt:
            return '{"Alpha": "Org", "Beta": "Org"}'
        return '[["Alpha", "funded", "Beta"]]'

    gateway = LlmGateway(MockBackend(responder=responder), sleep=lambda _: None)
    with pytest.raises(ExtractionError) as excinfo:
        extract_case_audited(make_case(2), gateway, PROMPTS, *SETTINGS)
    assert str(excinfo.value).startswith("report:1: ")


def test_empty_report_graph_does_not_break_merge() -> None:
    def responder(request):
        text = request.prompt[request.prompt.rfind("Text: ") + len("Text: "):].strip()
        if "1. Extract nodes" in request.prompt:
            return "[]" if text.startswith("Report") else '["Alpha", "Beta"]'
        if "2. Label nodes" in request.prompt:
            return '{"Alpha": "Org", "Beta": "Org"}'
        return '[["Alpha", "funded", "Beta"]]'

    gateway = LlmGateway(MockBackend(responder=responder), sleep=lambda _: None)
    graph = extract_case_audited(make_case(1), gateway, PROMPTS, *SETTINGS)[0]
    assert len(graph.triples) == 1
    assert graph.triples[0].provenance == "claim"


def test_concurrent_report_extraction_matches_sequential() -> None:
    gateway_a, _ = scripted_case_gateway(max_in_flight=1)
    gateway_b, _ = scripted_case_gateway(max_in_flight=4)
    case = make_case(2)
    sequential = extract_case_audited(case, gateway_a, PROMPTS, *SETTINGS)[0]
    concurrent = extract_case_audited(case, gateway_b, PROMPTS, *SETTINGS)[0]
    assert sequential.canonical_json() == concurrent.canonical_json()


def test_claim_and_every_report_are_extracted_at_once() -> None:
    barrier = threading.Barrier(4, timeout=5)

    def responder(request):
        if "1. Extract nodes" in request.prompt:
            barrier.wait()  # breaks unless the claim and all 3 reports are in flight
        return scripted_responder(request)

    case = make_case(3)
    concurrent = extract_case_audited(
        case,
        LlmGateway(MockBackend(responder=responder), sleep=lambda _: None, max_in_flight=4),
        PROMPTS,
        *SETTINGS,
    )[0]
    sequential = extract_case_audited(
        case, scripted_case_gateway(max_in_flight=1)[0], PROMPTS, *SETTINGS
    )[0]
    assert concurrent.canonical_json() == sequential.canonical_json()


def test_report_failure_inside_the_fan_out_identifies_source() -> None:
    barrier = threading.Barrier(3, timeout=5)

    def responder(request):
        if "1. Extract nodes" in request.prompt:
            barrier.wait()  # the claim and both reports are in flight together
            if "Text: Report 1" in request.prompt:
                return "junk"
        return scripted_responder(request)

    gateway = LlmGateway(
        MockBackend(responder=responder), sleep=lambda _: None, max_in_flight=4
    )
    with pytest.raises(ExtractionError) as excinfo:  # no retry: one barrier round
        extract_case_audited(make_case(2), gateway, PROMPTS, "extractor", 1024, 0)
    assert str(excinfo.value).startswith("report:1: ")
    assert excinfo.value.phase == "entities"


def test_a_failing_source_leaves_the_same_calls_at_every_width() -> None:
    def responder(request):
        if "Text: Report 0" in request.prompt:
            return "junk"  # report:0 never parses, at any attempt
        return scripted_responder(request)

    def requests_at(max_in_flight: int) -> list[tuple[str, str]]:
        backend = MockBackend(responder=responder)
        gateway = LlmGateway(backend, sleep=lambda _: None, max_in_flight=max_in_flight)
        with pytest.raises(ExtractionError) as excinfo:
            extract_case_audited(make_case(3), gateway, PROMPTS, *SETTINGS)
        assert str(excinfo.value).startswith("report:0: ")
        return sorted((r.model, r.prompt) for r in backend.requests)

    narrow, wide = requests_at(1), requests_at(4)
    assert narrow == wide
    # every source ran: the claim and reports 1 and 2 went through all phases
    assert sum("Text: Report 2" in prompt for _, prompt in narrow) == 3


def test_first_failing_source_in_input_order_is_raised() -> None:
    def responder(request):
        if "Text: Report" in request.prompt:
            return "junk"
        return scripted_responder(request)

    for width in (1, 4):
        gateway = LlmGateway(
            MockBackend(responder=responder), sleep=lambda _: None, max_in_flight=width
        )
        with pytest.raises(ExtractionError) as excinfo:
            extract_case_audited(make_case(3), gateway, PROMPTS, *SETTINGS)
        assert str(excinfo.value).startswith("report:0: ")


def test_fewshot_blocks_are_rendered_once_per_library(monkeypatch) -> None:
    from contrafact import prompts
    from contrafact.prompts import load_fewshot

    rendered: list[int] = []
    real = prompts.render_examples

    def counting(examples):
        rendered.append(len(examples))
        return real(examples)

    monkeypatch.setattr(prompts, "render_examples", counting)
    library = PromptLibrary()
    gateway, backend = scripted_case_gateway()
    extract_case_audited(make_case(2), gateway, library, *SETTINGS)
    extract_case_audited(make_case(2), gateway, library, *SETTINGS)
    assert len(backend.requests) == 18
    assert len(rendered) == 3  # one block per phase
    # the block still reaches every prompt of its phase
    block = real(load_fewshot()["entities"])
    assert block and all(
        block in r.prompt for r in backend.requests if "1. Extract nodes" in r.prompt
    )


def test_replay_determinism_for_extraction() -> None:
    gateway_a, _ = scripted_case_gateway()
    gateway_b, _ = scripted_case_gateway()
    case = make_case(2)
    assert (
        extract_case_audited(case, gateway_a, PROMPTS, *SETTINGS)[0].canonical_json()
        == extract_case_audited(case, gateway_b, PROMPTS, *SETTINGS)[0].canonical_json()
    )


# -- the case graph's building rules, pinned --------------------------------------


def test_case_graph_building_rules_are_pinned() -> None:
    # per source: phase 1 names, phase 2 classes, phase 3 rows
    script = {
        "Alpha": (
            # "ALPHA" repeats "Alpha"; "Ghost" is listed twice and never labeled
            ["Alpha", "Beta", "ALPHA", "Ghost", "Ghost", "Paris"],
            {"Alpha": "Org", "Beta": "Org", "Paris": "Place"},
            [
                ["Alpha", "funded", "Beta"],
                ["alpha ", "FUNDED", "beta"],  # a duplicate row: dropped, not counted
                ["Alpha", "visited", "Ghost"],  # dangling
                ["Alpha", "is", "ALPHA"],  # a self-loop
                ["Beta", "based in", "Paris"],
            ],
        ),
        "Report 0": (
            # "beta" is the claim's "Beta"; "Paris" is a Person here, a Place there
            ["beta", "Paris", "Gamma"],
            {"beta": "org", "Paris": "Person", "Gamma": "Person"},
            [["Gamma", "runs", "beta"], ["Gamma", "knows", "Paris"], ["gamma", "runs", "Beta"]],
        ),
        "Report 1": (
            ["gamma", "Delta"],
            {"gamma": "Person", "Delta": "Place", "Epsilon": "Person"},
            # "Beta" is not among this report's names: dangling
            [["Gamma", "runs", "Beta"], ["Gamma", "lives in", "Delta"], ["Gamma", "runs", "Delta"]],
        ),
    }

    def responder(request) -> str:
        text = request.prompt[request.prompt.rfind("Text: ") + len("Text: "):].strip()
        names, classes, rows = next(v for k, v in script.items() if text.startswith(k))
        if "1. Extract nodes" in request.prompt:
            return json.dumps(names)
        if "2. Label nodes" in request.prompt:
            return json.dumps(classes)
        return json.dumps(rows)

    case = ClaimCase(
        id="pin",
        claim="Alpha funded Beta.",
        reports=(Report(0, ("Report 0 text.",)), Report(1, ("Report 1 text.",))),
    )
    gateway = LlmGateway(MockBackend(responder=responder), sleep=lambda _: None)
    graph, dropped_entities, dropped_triples = extract_case_audited(
        case, gateway, PROMPTS, "extractor", 1024, 0
    )
    assert graph.to_dict() == {
        "entities": [
            {"id": "e1", "surface": "Alpha", "class": "Org"},
            {"id": "e2", "surface": "Beta", "class": "Org"},
            {"id": "e3", "surface": "Paris", "class": "Place"},
            {"id": "e4", "surface": "Paris", "class": "Person"},
            {"id": "e5", "surface": "Gamma", "class": "Person"},
            {"id": "e6", "surface": "Delta", "class": "Place"},
        ],
        "triples": [
            {"head": "e1", "relation": "funded", "tail": "e2", "provenance": "claim"},
            {"head": "e2", "relation": "based in", "tail": "e3", "provenance": "claim"},
            {"head": "e5", "relation": "runs", "tail": "e2", "provenance": "report:0"},
            {"head": "e5", "relation": "knows", "tail": "e4", "provenance": "report:0"},
            {"head": "e5", "relation": "lives in", "tail": "e6", "provenance": "report:1"},
            {"head": "e5", "relation": "runs", "tail": "e6", "provenance": "report:1"},
        ],
    }
    assert (dropped_entities, dropped_triples) == (2, 3)
