"""Phased graph extraction from claim and report texts.

Three model calls per text: entity identification, class labeling, relation
extraction. The verbatim output of a phase that never parses travels on its
`ExtractionError`, whose message leads with the failing text's provenance;
the recording keeps every call's output. Each text yields only parsed rows;
`kg.merge` builds the case's one graph from all of them, dropping and
counting unlabeled entities, dangling triples and self-loops rather than
repairing them, so the graph is always well-formed.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any

from .gateway import GatewayError, LlmGateway, ModelRequest
from .kg import CLAIM, KnowledgeGraph, merge
from .prompts import PromptLibrary

if TYPE_CHECKING:
    from .corpus import ClaimCase

PHASE_ENTITIES = "entities"
PHASE_CLASSES = "classes"
PHASE_RELATIONS = "relations"

_FENCE = re.compile(r"```(?:json)?\s*(.*?)\s*```", re.IGNORECASE | re.DOTALL)

# Appended to a phase's prompt from the second attempt on, so that each
# attempt is its own request: a cached or recorded unparseable answer to one
# attempt is never served back to the next.
RETRY_REMINDER = (
    "\n\nReminder (attempt {attempt}): reply with the JSON value asked for "
    "above and nothing else."
)


class ExtractionError(RuntimeError):
    """Unusable model output after the retry budget, or a failed transport."""

    def __init__(self, message: str, phase: str, raw: str):
        super().__init__(message)
        self.phase = phase
        self.raw = raw


class _ParseFailure(ValueError):
    pass


def _strip_to_json(raw: str, opener: str) -> Any:
    """Pull the first JSON value opening with `opener` out of noisy output."""
    candidates = []
    fence = _FENCE.search(raw)
    if fence:
        candidates.append(fence.group(1))
    candidates.append(raw.strip())
    decoder = json.JSONDecoder()
    for candidate in candidates:
        start = candidate.find(opener)
        while start != -1:
            try:
                value, _ = decoder.raw_decode(candidate[start:])
                return value
            except json.JSONDecodeError:
                start = candidate.find(opener, start + 1)
    raise _ParseFailure(f"no JSON value starting with {opener!r} found")


def parse_entities(raw: str) -> list[str]:
    value = _strip_to_json(raw, "[")
    if not isinstance(value, list):
        raise _ParseFailure("entity phase must yield a JSON array")
    return [item.strip() for item in value if isinstance(item, str) and item.strip()]


def parse_classes(raw: str) -> dict[str, str]:
    value = _strip_to_json(raw, "{")
    if not isinstance(value, dict):
        raise _ParseFailure("class phase must yield a JSON object")
    out: dict[str, str] = {}
    for key, cls in value.items():
        if isinstance(key, str) and isinstance(cls, str) and key.strip() and cls.strip():
            out[key.strip()] = cls.strip()
    return out


def parse_relations(raw: str) -> list[tuple[str, str, str]]:
    value = _strip_to_json(raw, "[")
    if not isinstance(value, list):
        raise _ParseFailure("relation phase must yield a JSON array")
    out: list[tuple[str, str, str]] = []
    for item in value:
        if isinstance(item, (list, tuple)) and len(item) == 3:
            head, relation, tail = item
        elif isinstance(item, dict):
            head = item.get("head", item.get("subject"))
            relation = item.get("relation", item.get("predicate"))
            tail = item.get("tail", item.get("object"))
        else:
            continue
        if all(isinstance(part, str) and part.strip() for part in (head, relation, tail)):
            out.append((head.strip(), relation.strip(), tail.strip()))
    return out


_PARSERS = {
    PHASE_ENTITIES: parse_entities,
    PHASE_CLASSES: parse_classes,
    PHASE_RELATIONS: parse_relations,
}


def _run_phase(
    phase: str,
    prompt: str,
    provenance: str,
    gateway: LlmGateway,
    model: str,
    max_tokens: int,
    retries: int,
) -> Any:
    """The phase's parsed output; each unparseable answer is retried with a
    new request, up to `retries` times. An error's message leads with the
    text's `provenance`."""
    parser = _PARSERS[phase]
    raw = ""
    last_error = "no attempt made"
    for attempt in range(retries + 1):
        reminder = RETRY_REMINDER.format(attempt=attempt + 1) if attempt else ""
        request = ModelRequest(model=model, prompt=prompt + reminder, max_tokens=max_tokens)
        try:
            raw = gateway.complete(request)
        except GatewayError as exc:
            message = f"{provenance}: gateway failed during {phase} phase: {exc}"
            raise ExtractionError(message, phase=phase, raw="") from exc
        try:
            return parser(raw)
        except _ParseFailure as exc:
            last_error = str(exc)
    raise ExtractionError(
        f"{provenance}: unparseable {phase} output after "
        f"{retries + 1} attempt(s): {last_error}",
        phase=phase,
        raw=raw,
    )


def extract_case_audited(
    case: "ClaimCase",
    gateway: LlmGateway,
    prompts: PromptLibrary,
    model: str,
    max_tokens: int,
    retries: int,
) -> tuple[KnowledgeGraph, int, int]:
    """One graph per case from the claim and every report, with `merge`'s
    counts of the entities and triples it dropped.

    The claim and every report go through their phases at once through
    `gateway.map`, and `merge` builds the graph from their parsed rows in
    (claim, report 0, report 1, ...) order. A text with no entities makes no
    further call. A failed source does not stop the others, so a failing
    case makes the same calls at every width; the first failure in source
    order is raised once all have run.
    """
    sources = [(CLAIM, case.claim)]
    sources += [(f"report:{report.index}", report.text) for report in case.reports]

    def parse(source: tuple[str, str]) -> tuple | ExtractionError:
        provenance, text = source
        if not text.strip():
            raise ValueError("cannot extract a graph from empty text")
        settings = (provenance, gateway, model, max_tokens, retries)
        try:
            names = _run_phase(
                PHASE_ENTITIES, prompts.render("extract_entities", text=text), *settings
            )
            if not names:
                return provenance, [], {}, []
            class_map = _run_phase(
                PHASE_CLASSES,
                prompts.render("extract_classes", entities=json.dumps(names), text=text),
                *settings,
            )
            rows = _run_phase(
                PHASE_RELATIONS,
                prompts.render("extract_relations", entities=json.dumps(class_map), text=text),
                *settings,
            )
        except ExtractionError as exc:
            return exc
        return provenance, names, class_map, rows

    parsed = gateway.map(parse, sources)
    for result in parsed:
        if isinstance(result, ExtractionError):
            raise result
    return merge(parsed)
