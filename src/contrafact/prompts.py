"""Prompt template loading and rendering.

Templates are plain text files with ``{name}`` placeholders. The packaged set
can be overridden by pointing a PromptLibrary at a directory containing files
with the same names. Only this module reads the few-shot file.
"""

from __future__ import annotations

import hashlib
import json
import string
from importlib import resources
from pathlib import Path


class PromptError(ValueError):
    """A template or the few-shot file is missing or unusable, or a template
    was rendered with missing placeholders."""


def render(template: str, values: dict[str, str]) -> str:
    """Pure rendering: identical inputs produce identical prompt bytes."""
    try:
        return template.format_map(values)
    except KeyError as exc:
        raise PromptError(f"missing placeholder value: {exc}") from None
    except (ValueError, IndexError) as exc:  # a stray brace, a positional field
        raise PromptError(f"malformed template: {exc}") from exc


def prompt_sha(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


class PromptLibrary:
    """The templates, each read and checked once, and the few-shot examples,
    read and rendered once at construction (the packaged file by default).
    `render` fills in the examples itself."""

    def __init__(
        self,
        template_dir: Path | str | None = None,
        fewshot_path: Path | str | None = None,
    ) -> None:
        self._dir = Path(template_dir) if template_dir else None
        self._root = self._dir or resources.files("contrafact") / "templates"
        self._cache: dict[str, str] = {}
        self._fewshot = _fewshot_values(fewshot_path)

    def template(self, name: str) -> str:
        """Template `name`, read on its first use; a missing template, or one
        with a stray brace, is a `PromptError` that names it."""
        if name not in self._cache:
            try:
                text = (self._root / f"{name}.txt").read_text(encoding="utf-8")
            except FileNotFoundError:
                raise PromptError(f"{self._where(name)}: no such template") from None
            try:
                list(string.Formatter().parse(text))
            except ValueError as exc:
                raise PromptError(f"{self._where(name)}: malformed template: {exc}") from None
            self._cache[name] = text
        return self._cache[name]

    def render(self, name: str, **values: str) -> str:
        """Template `name` filled with its few-shot values, then `values`."""
        template = self.template(name)
        fewshot = self._fewshot.get(name)
        try:
            return render(template, {**fewshot, **values} if fewshot else values)
        except PromptError as exc:
            raise PromptError(f"{self._where(name)}: {exc}") from None

    def _where(self, name: str) -> Path | str:
        return self._dir / f"{name}.txt" if self._dir else f"template {name!r}"


def render_qa_blocks(pairs: list[tuple[str, str]]) -> str:
    """Numbered question/answer slots for the summarisation prompt."""
    lines = []
    for i, (question, answer) in enumerate(pairs, start=1):
        lines.append(f"* Question {i}: {question}")
        lines.append(f"* Answer {i}: {answer}")
    return "\n".join(lines)


def render_examples(examples: list[dict[str, str]]) -> str:
    """Few-shot block for the extraction phases; empty list renders nothing."""
    blocks = []
    for example in examples:
        if not isinstance(example, dict) or not {"text", "output"} <= example.keys():
            raise PromptError(f"an example needs a text and an output: {example!r}")
        lines = ["Example:"]
        if "entities" in example:
            lines.append(f"Entities: {example['entities']}")
        lines.append(f"Text: {example['text']}")
        lines.append(f"Output: {example['output']}")
        blocks.append("\n".join(lines))
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n\n"


def load_fewshot(path: Path | str | None = None) -> dict:
    """Few-shot example sets; defaults to the packaged file."""
    source = Path(path) if path is not None else resources.files("contrafact") / "fewshot.json"
    return json.loads(source.read_text(encoding="utf-8"))


def _fewshot_values(path: Path | str | None) -> dict[str, dict[str, str]]:
    """Each template's few-shot placeholder values: an extraction phase's
    example block, and the three strings of the `llm_questions` example."""
    try:
        fewshot = load_fewshot(path)
        values = {
            f"extract_{phase}": {"examples": render_examples(fewshot.get(phase, []))}
            for phase in ("entities", "classes", "relations")
        }
        example = fewshot.get("llm_questions", {})
        values["llm_questions"] = {
            "claim example": example.get("claim", ""),
            "reports examples": example.get("reports", ""),
            "contrastive questions examples": example.get("questions", ""),
        }
    except (OSError, ValueError, TypeError, AttributeError) as exc:
        source = path if path is not None else "the packaged fewshot.json"
        raise PromptError(f"unusable few-shot file {source}: {exc}") from exc
    return values
