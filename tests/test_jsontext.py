"""The hand-built JSON of request digests and record files against the stdlib.

Digests key every cache entry and recording, and record files are compared
byte for byte across runs, so each hand-built encoder must spell exactly what
`json.dumps` spells, for every input the stdlib accepts.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contrafact.gateway import ModelRequest, request_digest
from contrafact.gateway.types import EmbeddingRequest, embed_digest
from contrafact.jsontext import compact, indented
from contrafact.runner import PipelineRecord

# any code point, lone surrogates included
ANY_TEXT = st.text(st.characters(exclude_categories=()))
SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, 1e308, -1e308, 5e-324, math.nan, math.inf, -math.inf]
)
FLOATS = st.floats() | SPECIAL_FLOATS
SCALARS = st.none() | st.booleans() | st.integers() | FLOATS | ANY_TEXT
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(ANY_TEXT, children, max_size=4),
    max_leaves=24,
)


def stdlib_compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def stdlib_digest(payload: dict) -> str:
    return hashlib.sha256(stdlib_compact(payload).encode("utf-8")).hexdigest()


class Text(str):
    pass


class Count(int):
    pass


class Ratio(float):
    pass


# -- request digests ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    model=ANY_TEXT.filter(bool),
    prompt=ANY_TEXT.filter(bool),
    max_tokens=st.integers() | st.booleans(),
    temperature=FLOATS | st.integers() | st.booleans(),
)
@example(model="m", prompt="p", max_tokens=1024, temperature=0.0)
@example(model="é", prompt="\ud800 lone \udfff", max_tokens=0, temperature=-0.0)
@example(model=Text("m"), prompt=Text("p"), max_tokens=Count(7), temperature=Ratio(0.5))
def test_request_digest_matches_the_stdlib(model, prompt, max_tokens, temperature) -> None:
    request = ModelRequest(model, prompt, temperature=temperature, max_tokens=max_tokens)
    fields = {
        "max_tokens": max_tokens,
        "model": model,
        "prompt": prompt,
        "temperature": temperature,
    }
    assert request.canonical() == stdlib_compact(fields)
    assert request.digest == request_digest(request) == stdlib_digest(fields)


@settings(max_examples=200, deadline=None)
@given(model=ANY_TEXT, texts=st.lists(ANY_TEXT, max_size=6))
@example(model="hash:16", texts=[])
@example(model=Text("m"), texts=[Text("a"), "\udc80"])
def test_embedding_digest_matches_the_stdlib(model, texts) -> None:
    expected = stdlib_digest({"model": model, "texts": list(texts)})
    assert embed_digest(model, texts) == expected
    assert embed_digest(model, tuple(texts)) == expected
    assert EmbeddingRequest(model, tuple(texts)).digest == expected


@given(SCALARS)
@example(Count(3))
@example(Ratio(math.nan))
@example(np.float64(0.25))
def test_compact_matches_the_stdlib_on_scalars(value) -> None:
    assert compact(value) == stdlib_compact(value)


def test_compact_matches_the_stdlib_on_containers() -> None:
    value = {"b": [1, 2.5, None], "a": {"z": True, "y": "é"}}
    assert compact(value) == stdlib_compact(value)


# -- record files ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(TREES)
@example({"": [], "a": {}, "b": [{}], "c": ()})
@example([-0.0, 1e308, math.nan, math.inf, -math.inf, 5e-324])
def test_indented_matches_the_stdlib(tree) -> None:
    assert indented(tree) == json.dumps(tree, sort_keys=True, indent=2)


@settings(max_examples=100, deadline=None)
@given(kg=TREES, trace=TREES, verdict=st.dictionaries(ANY_TEXT, SCALARS))
def test_record_file_text_matches_the_stdlib(kg, trace, verdict) -> None:
    record = PipelineRecord(
        case_id="case-1",
        claim="Zoë said so",
        mode="full",
        config_digest="abc",
        kg=kg,
        trace=trace,
        verdict=verdict,
        timings={"extract": 0.5},
    )
    expected = json.dumps(record.stable_dict(), sort_keys=True, indent=2) + "\n"
    assert record.stable_json() == expected


@pytest.mark.parametrize(
    "value",
    [
        {1: "int keys", 2: [True]},
        {"a": {2.5: "float keys", -1.0: 1}},
        OrderedDict([("b", 1), ("a", 2)]),
        {"n": np.float64(0.5), "c": Count(3), "t": Text("x"), "r": Ratio(1.5)},
        [[Text("nested")], {"k": (Count(1),)}],
    ],
)
def test_indented_leaves_what_it_does_not_spell_to_the_stdlib(value) -> None:
    assert indented(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [{"a": object()}, {1: "x", "b": "y"}, [{1j}]])
def test_indented_raises_where_the_stdlib_raises(value) -> None:
    with pytest.raises(TypeError):
        json.dumps(value, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        indented(value)
