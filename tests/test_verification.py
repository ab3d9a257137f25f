from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrafact.gateway import LlmGateway
from contrafact.prompts import PromptLibrary
from contrafact.verification import (
    RETRY_SUFFIX,
    LabelScheme,
    SchemeError,
    UnparseableVerdict,
    load_scheme,
    map_binary,
    match_label,
    normalize_label,
    verify,
)
from helpers import MockBackend

LIAR_RAW = load_scheme("liar-raw")
RAWFC = load_scheme("rawfc")
BINARY = load_scheme("liar-raw-binary")
PROMPTS = PromptLibrary()


def gateway_with(queue) -> LlmGateway:
    return LlmGateway(MockBackend(queue=queue), sleep=lambda _: None)


# -- schemes -----------------------------------------------------------------------


def test_builtin_scheme_values_are_consecutive() -> None:
    assert LIAR_RAW.labels == (
        "pants-fire",
        "false",
        "barely-true",
        "half-true",
        "mostly-true",
        "true",
    )
    assert [LIAR_RAW.value_of(label) for label in LIAR_RAW.labels] == [1, 2, 3, 4, 5, 6]
    assert LIAR_RAW.y_min == 1
    assert LIAR_RAW.y_max == 6


def test_rawfc_scheme_order() -> None:
    assert RAWFC.labels == ("false", "half", "true")
    assert RAWFC.value_of("half") == 2


def test_scheme_lookup_is_case_insensitive() -> None:
    assert LIAR_RAW.value_of("Half-True") == 4
    assert "HALF-TRUE" in LIAR_RAW
    assert "sorta-true" not in LIAR_RAW


def reference_value_of(scheme: LabelScheme, label: str) -> int | None:
    """The lookup by linear scan over normalized labels."""
    key = normalize_label(label)
    for i, candidate in enumerate(scheme.labels, start=1):
        if normalize_label(candidate) == key:
            return i
    return None


def label_variants(label: str) -> list[str]:
    return [
        label,
        label.upper(),
        label.title(),
        f"  {label}.  ",
        f"{label}!!",
        label.replace("-", " "),
        label.replace("-", "_"),
        f'"{label.upper()}"',
        label + "-ish",
        "not " + label,
    ]


@pytest.mark.parametrize("scheme", [LIAR_RAW, RAWFC, BINARY], ids=lambda s: s.name)
def test_scheme_lookups_match_a_scan_over_every_label_and_variant(scheme) -> None:
    probes = [v for label in scheme.labels for v in label_variants(label)]
    probes += ["sorta-true", "", "pants on fire", "half true false"]
    for probe in probes:
        expected = reference_value_of(scheme, probe)
        assert (probe in scheme) is (expected is not None), probe
        if expected is None:
            with pytest.raises(SchemeError):
                scheme.value_of(probe)
            with pytest.raises(SchemeError):
                scheme.canonical(probe)
        else:
            assert scheme.value_of(probe) == expected
            assert scheme.canonical(probe) == scheme.labels[expected - 1]


def reference_match_label(output: str, scheme: LabelScheme) -> str | None:
    import re

    normalized = normalize_label(output)
    for label in scheme.labels:
        if normalize_label(label) == normalized:
            return label
    hits = [
        label
        for label in scheme.labels
        if re.search(rf"(?<!\w){re.escape(normalize_label(label))}(?!\w)", normalized)
    ]
    return hits[0] if len(hits) == 1 else None


@pytest.mark.parametrize("scheme", [LIAR_RAW, RAWFC, BINARY], ids=lambda s: s.name)
def test_match_label_agrees_with_a_scan_over_every_label(scheme) -> None:
    outputs = [v for label in scheme.labels for v in label_variants(label)]
    outputs += [f"The claim is {label}." for label in scheme.labels]
    outputs += ["false or true", "mostly", "", "Verdict: HALF-TRUE"]
    for output in outputs:
        assert match_label(output, scheme) == reference_match_label(output, scheme), output


def test_duplicate_labels_rejected() -> None:
    with pytest.raises(SchemeError):
        LabelScheme(name="bad", labels=("true", "TRUE"), descriptions=("a", "b"))


def test_unknown_scheme_name_raises() -> None:
    with pytest.raises(SchemeError):
        load_scheme("no-such-scheme")


def test_scheme_from_json_file(tmp_path) -> None:
    path = tmp_path / "scheme.json"
    path.write_text(
        '{"name": "tiny", "labels": ['
        '{"label": "no", "value": 1, "description": "nope"},'
        '{"label": "yes", "value": 2, "description": "yep"}]}'
    )
    scheme = load_scheme(str(path))
    assert scheme.name == "tiny"
    assert scheme.value_of("yes") == 2


@pytest.mark.parametrize(
    "content",
    [
        b'{"name": "x"}',
        b"not json",
        b"caf\xe9",
        b"[]",
        b'{"name": "x", "labels": ["no"]}',
        b'{"name": "x", "labels": [{"label": "no"}]}',
        b'{"name": "x", "labels": [{"label": "no", "value": "1"}, {"label": "yes", "value": 2}]}',
        b'{"name": "x", "labels": [{"label": null, "value": 1}]}',
        b'{"name": "x", "labels": [{"label": "no", "value": 2}]}',
    ],
    ids=[
        "no-labels", "not-json", "not-utf8", "not-an-object", "row-not-an-object",
        "no-value", "mixed-values", "label-not-a-string", "values-not-consecutive",
    ],
)
def test_a_malformed_scheme_file_is_a_scheme_error_that_names_it(tmp_path, content) -> None:
    path = tmp_path / "scheme.json"
    path.write_bytes(content)
    with pytest.raises(SchemeError, match=f"^malformed scheme file {re.escape(str(path))}: "):
        load_scheme(str(path))


def test_a_scheme_path_that_is_a_directory_is_a_scheme_error_that_names_it(tmp_path) -> None:
    with pytest.raises(SchemeError, match=f"^malformed scheme file {re.escape(str(tmp_path))}: "):
        load_scheme(tmp_path)


def test_rendered_labels_include_descriptions() -> None:
    rendered = RAWFC.rendered_labels()
    assert rendered.splitlines()[0].startswith("- false: ")
    assert len(rendered.splitlines()) == 3


# -- normalization and matching ------------------------------------------------------


def test_normalization_examples() -> None:
    assert normalize_label("  Half-True. ") == "half true"
    assert normalize_label("PANTS-FIRE!!") == "pants fire"


@given(st.text(max_size=80))
@settings(max_examples=300, deadline=None)
def test_normalization_is_idempotent(text) -> None:
    once = normalize_label(text)
    assert normalize_label(once) == once


def test_match_exact_beats_substring() -> None:
    assert match_label("barely true", LIAR_RAW) == "barely-true"
    assert match_label("  Half-True.", LIAR_RAW) == "half-true"


def test_match_unique_substring() -> None:
    assert match_label("The claim is: false", RAWFC) == "false"


def test_match_ambiguous_returns_none() -> None:
    assert match_label("probably false or half", RAWFC) is None
    assert match_label("it is barely true at best", LIAR_RAW) is None


def test_match_no_hit_returns_none() -> None:
    assert match_label("unsure", RAWFC) is None


def test_match_does_not_fire_inside_words() -> None:
    assert match_label("falsehoods abound", RAWFC) is None


# -- verify ---------------------------------------------------------------------------


def test_verify_scripted_false_under_rawfc() -> None:
    verdict = verify("claim", "summary", RAWFC, gateway_with(["false"]), model="v", prompts=PROMPTS)
    assert verdict.label == "false"
    assert verdict.value == 1
    assert verdict.raw == "false"


def test_verify_normalizes_half_true() -> None:
    verdict = verify(
        "claim", "summary", LIAR_RAW, gateway_with(["  Half-True. "]), model="v", prompts=PROMPTS
    )
    assert verdict.label == "half-true"
    assert verdict.value == 4


def test_verify_ambiguous_retries_with_stricter_suffix_then_fails() -> None:
    backend = MockBackend(queue=["probably false or half", "still false or half"])
    gateway = LlmGateway(backend, sleep=lambda _: None)
    with pytest.raises(UnparseableVerdict) as excinfo:
        verify("claim", "summary", RAWFC, gateway, model="v", prompts=PROMPTS)
    assert excinfo.value.raw == "still false or half"
    assert len(backend.requests) == 2
    assert backend.requests[1].prompt == backend.requests[0].prompt + RETRY_SUFFIX


def test_verify_retry_can_recover() -> None:
    gateway = gateway_with(["false or half", "half"])
    verdict = verify("claim", "summary", RAWFC, gateway, model="v", prompts=PROMPTS)
    assert verdict.label == "half"


def test_verify_prompt_lists_labels_and_inputs() -> None:
    backend = MockBackend(queue=["true"])
    verify(
        "the claim text", "the summary text", RAWFC, LlmGateway(backend), model="v", prompts=PROMPTS
    )
    prompt = backend.requests[0].prompt
    assert "- false: " in prompt
    assert "- half: " in prompt
    assert "- true: " in prompt
    assert "* Context: the summary text" in prompt
    assert "* Claim: the claim text" in prompt


def test_verdict_label_always_in_scheme_with_matching_value() -> None:
    for raw, expected in [
        ("pants-fire", 1),
        ("FALSE", 2),
        ("Barely-True", 3),
        ("half-true", 4),
        ("mostly-true", 5),
        ("true", 6),
    ]:
        verdict = verify("c", "s", LIAR_RAW, gateway_with([raw]), model="v", prompts=PROMPTS)
        assert verdict.label in LIAR_RAW
        assert LIAR_RAW.value_of(verdict.label) == verdict.value == expected


# -- binary mapping ------------------------------------------------------------------


def test_binary_mapping_examples() -> None:
    assert map_binary("barely-true") == "false"
    assert map_binary("half-true") == "true"
    assert map_binary("pants-fire") == "false"


def test_binary_mapping_is_total_and_surjective() -> None:
    image = {map_binary(label) for label in LIAR_RAW.labels}
    assert image == {"false", "true"}


def test_binary_mapping_buckets() -> None:
    false_bucket = [l for l in LIAR_RAW.labels if map_binary(l) == "false"]
    true_bucket = [l for l in LIAR_RAW.labels if map_binary(l) == "true"]
    assert false_bucket == ["pants-fire", "false", "barely-true"]
    assert true_bucket == ["half-true", "mostly-true", "true"]


def test_binary_mapping_rejects_foreign_labels() -> None:
    with pytest.raises(SchemeError):
        map_binary("half")  # three-way scheme label, not the six-way one
    with pytest.raises(SchemeError):
        map_binary("unknown")


def test_binary_mapping_accepts_unnormalized_input() -> None:
    assert map_binary("  Mostly-True. ") == "true"
    assert BINARY.value_of(map_binary("false")) == 1
