from __future__ import annotations

import re

import pytest

from contrafact.prompts import (
    PromptError,
    PromptLibrary,
    load_fewshot,
    prompt_sha,
    render,
    render_examples,
    render_qa_blocks,
)
from contrafact.runner import PIPELINES


def test_all_packaged_templates_load() -> None:
    library = PromptLibrary()
    stages = [stage for pipeline in PIPELINES.values() for stage in pipeline]
    for name in {name for *_, templates in stages for name in templates}:
        assert library.template(name)


def test_unknown_template_raises() -> None:
    with pytest.raises(PromptError):
        PromptLibrary().template("no-such-template")


def test_a_template_with_a_stray_brace_is_an_error_when_read(tmp_path) -> None:
    path = tmp_path / "verify.txt"
    path.write_text("Claim: {claim} {context", encoding="utf-8")
    with pytest.raises(PromptError) as excinfo:
        PromptLibrary(tmp_path).template("verify")
    assert str(path) in str(excinfo.value)


def test_missing_placeholder_is_an_error() -> None:
    with pytest.raises(PromptError) as excinfo:
        render("Hello {name}, meet {other}", {"name": "A"})
    assert "other" in str(excinfo.value)


def test_extra_values_are_ignored() -> None:
    assert render("Hi {name}", {"name": "A", "unused": "B"}) == "Hi A"


def test_rendering_is_pure() -> None:
    library = PromptLibrary()
    values = {
        "context": "ctx",
        "claim": "clm",
        "contrastive question": "why?",
    }
    assert library.render("answer", **values) == library.render("answer", **values)


def test_directory_override_wins(tmp_path) -> None:
    (tmp_path / "verify.txt").write_text("custom {claim} {context} {veracity labels}")
    library = PromptLibrary(tmp_path)
    out = library.render(
        "verify", **{"claim": "c", "context": "x", "veracity labels": "- l"}
    )
    assert out == "custom c x - l"
    with pytest.raises(PromptError):
        library.template("answer")  # override dir must carry every used template


def test_qa_blocks_are_numbered_from_one() -> None:
    blocks = render_qa_blocks([("q1", "a1"), ("q2", "a2")])
    assert blocks.splitlines() == [
        "* Question 1: q1",
        "* Answer 1: a1",
        "* Question 2: q2",
        "* Answer 2: a2",
    ]


def test_examples_block_renders_entities_line_when_present() -> None:
    block = render_examples(
        [{"text": "T", "output": "O"}, {"text": "T2", "entities": "[...]", "output": "O2"}]
    )
    assert "Example:\nText: T\nOutput: O" in block
    assert "Entities: [...]" in block
    assert block.endswith("\n\n")
    assert render_examples([]) == ""


def test_default_fewshot_has_every_phase() -> None:
    fewshot = load_fewshot()
    assert set(fewshot) >= {"entities", "classes", "relations", "llm_questions"}
    assert fewshot["entities"][0]["text"]


def test_prompt_sha_is_stable_and_content_sensitive() -> None:
    assert prompt_sha("abc") == prompt_sha("abc")
    assert prompt_sha("abc") != prompt_sha("abd")
    assert len(prompt_sha("abc")) == 64


def test_render_fills_in_the_fewshot_examples_before_the_callers_values() -> None:
    fewshot = load_fewshot()
    library = PromptLibrary()
    block = render_examples(fewshot["entities"])
    assert block in library.render("extract_entities", text="T")
    assert block not in library.render("extract_entities", text="T", examples="")
    prompt = library.render("llm_questions", claim="C", reports="R")
    for key in ("claim", "reports", "questions"):
        assert fewshot["llm_questions"][key] in prompt


def test_a_fewshot_file_of_ones_own_feeds_every_template(tmp_path) -> None:
    path = tmp_path / "fewshot.json"
    path.write_text(
        '{"classes": [{"text": "T", "entities": "[E]", "output": "O"}],'
        ' "llm_questions": {"claim": "example claim"}}'
    )
    library = PromptLibrary(fewshot_path=path)
    assert "Example:\nEntities: [E]\nText: T\nOutput: O" in library.render(
        "extract_classes", entities="[]", text="x"
    )
    assert "Example:" not in library.render("extract_entities", text="x")
    assert "example claim" in library.render("llm_questions", claim="c", reports="r")


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{not json", id="not-json"),
        pytest.param('["a list"]', id="not-an-object"),
        pytest.param('{"entities": [{"text": "T"}]}', id="no-output"),
        pytest.param('{"relations": [{"output": "O"}]}', id="no-text"),
        pytest.param('{"classes": ["a string"]}', id="not-an-example"),
        pytest.param('{"llm_questions": []}', id="questions-not-an-object"),
    ],
)
def test_an_unusable_fewshot_file_is_named_at_construction(tmp_path, text) -> None:
    path = tmp_path / "fewshot.json"
    path.write_text(text)
    with pytest.raises(PromptError, match=re.escape(f"unusable few-shot file {path}")):
        PromptLibrary(fewshot_path=path)


@pytest.mark.parametrize(
    "template",
    [
        pytest.param("{claim} {bogus}", id="unknown-placeholder"),
        pytest.param("{claim", id="stray-brace"),
        pytest.param("{0}", id="positional"),
    ],
)
def test_an_unusable_template_names_its_file(tmp_path, template) -> None:
    (tmp_path / "summarise.txt").write_text(template)
    library = PromptLibrary(tmp_path)
    with pytest.raises(PromptError, match=re.escape(str(tmp_path / "summarise.txt"))):
        library.render("summarise", claim="c", **{"qa blocks": "q"})
