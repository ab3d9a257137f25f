"""Veracity classification: label schemes, output matching, binary mapping.

The verifier sees only the claim and the contrastive summary; its free-text
output is normalized and matched onto the scheme. Ambiguity is surfaced, never
guessed away.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from .gateway import LlmGateway, ModelRequest
from .prompts import PromptLibrary

_PUNCT = re.compile(r"[^\w\s]")
_WS = re.compile(r"\s+")

BUILTIN_SCHEMES = ("liar-raw", "rawfc", "liar-raw-binary")

BINARY_MAP = {
    "pants-fire": "false",
    "false": "false",
    "barely-true": "false",
    "half-true": "true",
    "mostly-true": "true",
    "true": "true",
}


class SchemeError(ValueError):
    """A label scheme is malformed or a label is outside the scheme."""


class UnparseableVerdict(RuntimeError):
    """Model output matched zero or several labels even after the retry."""

    def __init__(self, message: str, raw: str) -> None:
        super().__init__(message)
        self.raw = raw


def normalize_label(text: str) -> str:
    """Trim, case-fold, strip punctuation, collapse whitespace. Idempotent."""
    out = _PUNCT.sub(" ", text.strip().casefold())
    return _WS.sub(" ", out).strip()


@dataclass(frozen=True)
class LabelScheme:
    """Ordered label set with consecutive integer values 1..n."""

    name: str
    labels: tuple[str, ...]
    descriptions: tuple[str, ...]
    # normalized label -> value, in label order; built once, read by every lookup
    _values: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.labels:
            raise SchemeError("scheme needs at least one label")
        if len(self.labels) != len(self.descriptions):
            raise SchemeError("each label needs a description")
        values = {
            normalize_label(label): i for i, label in enumerate(self.labels, start=1)
        }
        if len(values) != len(self.labels):
            raise SchemeError("labels must be unique case-insensitively")
        object.__setattr__(self, "_values", values)

    @property
    def y_min(self) -> int:
        return 1

    @property
    def y_max(self) -> int:
        return len(self.labels)

    def value_of(self, label: str) -> int:
        try:
            return self._values[normalize_label(label)]
        except KeyError:
            raise SchemeError(f"label {label!r} not in scheme {self.name!r}") from None

    def canonical(self, label: str) -> str:
        return self.labels[self.value_of(label) - 1]

    def __contains__(self, label: str) -> bool:
        try:
            self.value_of(label)
            return True
        except SchemeError:
            return False

    def rendered_labels(self) -> str:
        return "\n".join(
            f"- {label}: {desc}" for label, desc in zip(self.labels, self.descriptions)
        )


def load_scheme(name_or_path: str | Path) -> LabelScheme:
    """Load a scheme by builtin name or from a JSON file path. A file that
    cannot be read or does not hold a scheme is a `SchemeError` naming it."""
    if isinstance(name_or_path, str) and name_or_path in BUILTIN_SCHEMES:
        source = resources.files("contrafact") / "schemes" / f"{name_or_path}.json"
    else:
        source = Path(name_or_path)
        if not source.exists():
            raise SchemeError(f"unknown scheme: {name_or_path!r}")
    try:
        payload = json.loads(source.read_text(encoding="utf-8"))
        rows = sorted(payload["labels"], key=lambda row: row["value"])
        values = [row["value"] for row in rows]
        if values != list(range(1, len(rows) + 1)):
            raise SchemeError(f"scheme values must be consecutive 1..n, got {values}")
        return LabelScheme(
            name=payload["name"],
            labels=tuple(row["label"] for row in rows),
            descriptions=tuple(row.get("description", "") for row in rows),
        )
    # AttributeError: a label that is not a string
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise SchemeError(f"malformed scheme file {source}: {exc!r}") from exc


@dataclass(frozen=True)
class Verdict:
    label: str
    value: int
    raw: str


def match_label(output: str, scheme: LabelScheme) -> str | None:
    """Exact match on the normalized output, else unique-substring match.

    Returns the canonical label, or None when zero or several labels match.
    No fuzzy matching: ambiguity is the caller's problem to surface.
    """
    normalized = normalize_label(output)
    if normalized in scheme._values:
        return scheme.labels[scheme._values[normalized] - 1]
    hits = [
        scheme.labels[value - 1]
        for key, value in scheme._values.items()
        if re.search(rf"(?<!\w){re.escape(key)}(?!\w)", normalized)
    ]
    if len(hits) == 1:
        return hits[0]
    return None


RETRY_SUFFIX = (
    "\n\nReminder: respond with exactly one of the listed labels, verbatim, "
    "and nothing else."
)


def verify(
    claim: str,
    summary_text: str,
    scheme: LabelScheme,
    gateway: LlmGateway,
    model: str,
    prompts: PromptLibrary,
    max_tokens: int = 64,
) -> Verdict:
    """Classify the claim from the summary alone; one retry on ambiguity."""
    values = {
        "context": summary_text,
        "claim": claim,
        "veracity labels": scheme.rendered_labels(),
    }
    prompt = prompts.render("verify", **values)
    raw = gateway.complete(ModelRequest(model=model, prompt=prompt, max_tokens=max_tokens))
    label = match_label(raw, scheme)
    if label is None:
        raw = gateway.complete(
            ModelRequest(model=model, prompt=prompt + RETRY_SUFFIX, max_tokens=max_tokens)
        )
        label = match_label(raw, scheme)
    if label is None:
        raise UnparseableVerdict(
            f"output matched zero or several labels of scheme {scheme.name!r}", raw
        )
    return Verdict(label=label, value=scheme.value_of(label), raw=raw)


def map_binary(label: str) -> str:
    """Collapse the six-way political-claim labels onto {false, true}."""
    key = normalize_label(label).replace(" ", "-")
    if key not in BINARY_MAP:
        raise SchemeError(f"label {label!r} is not in the six-label scheme")
    return BINARY_MAP[key]
