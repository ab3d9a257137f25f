"""Dataset ingestion and validation for claim/report corpora.

Two on-disk layouts are accepted per split: a single ``<split>.json`` array,
or a ``<split>/`` directory of per-claim JSON files. Field names of the
published political-claim distributions are mapped onto ClaimCase by a small
alias table; the canonical schema is documented in docs/data-format.md.
Malformed records are skipped with a counted and logged diagnostic, never
silently.
"""

from __future__ import annotations

import itertools
import json
import logging
import re
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .verification import LabelScheme

log = logging.getLogger(__name__)

SPLITS = ("train", "val", "test")
_SPLIT_ALIASES = {"train": ("train",), "val": ("val", "valid"), "test": ("test",)}

_SENTENCE_BOUNDARY = re.compile(r"(?<=[.!?])\s+")

_ID_FIELDS = ("event_id", "id", "claim_id")
_LABEL_FIELDS = ("label", "original_label")
_REPORT_TEXT_FIELDS = ("report_text", "report", "content", "text")
_SENTENCE_FIELDS = ("sentences", "tokenized")


class DatasetError(RuntimeError):
    """Unreadable dataset file or directory; always fatal."""


@dataclass(frozen=True)
class Report:
    index: int
    sentences: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.sentences:
            raise ValueError("a report needs at least one sentence")

    @property
    def text(self) -> str:
        return " ".join(self.sentences)


@dataclass(frozen=True)
class ClaimCase:
    id: str
    claim: str
    reports: tuple[Report, ...] = ()
    gold_label: str | None = None
    evidence: tuple[tuple[int, int], ...] | None = None
    split: str = "test"

    def __post_init__(self) -> None:
        if not self.claim.strip():
            raise ValueError("claim must be non-empty")
        if self.split not in SPLITS:
            raise ValueError(f"unknown split: {self.split!r}")
        for report_index, sentence_index in self.evidence or ():
            if not 0 <= report_index < len(self.reports):
                raise ValueError(f"evidence report index {report_index} out of range")
            if not 0 <= sentence_index < len(self.reports[report_index].sentences):
                raise ValueError(
                    f"evidence sentence index {sentence_index} out of range"
                )

    @property
    def report_texts(self) -> list[str]:
        return [report.text for report in self.reports]


@dataclass(frozen=True)
class LoadDiagnostic:
    where: str
    reason: str


def split_sentences(text: str) -> list[str]:
    """Period/question/exclamation + whitespace; bookkeeping only."""
    return [part.strip() for part in _SENTENCE_BOUNDARY.split(text) if part.strip()]


def _first_field(payload: dict, names: Sequence[str]):
    for name in names:
        if name in payload and payload[name] is not None:
            return payload[name]
    return None


def _parse_report(payload, index: int) -> Report | None:
    if isinstance(payload, str):
        sentences = split_sentences(payload)
        return Report(index, tuple(sentences)) if sentences else None
    if not isinstance(payload, dict):
        return None
    raw_sentences = _first_field(payload, _SENTENCE_FIELDS)
    if isinstance(raw_sentences, list):
        sentences = [s.strip() for s in raw_sentences if isinstance(s, str) and s.strip()]
        if sentences:
            return Report(index, tuple(sentences))
    text = _first_field(payload, _REPORT_TEXT_FIELDS)
    if isinstance(text, str):
        sentences = split_sentences(text)
        if sentences:
            return Report(index, tuple(sentences))
    return None


def _parse_case(
    payload, scheme: LabelScheme, split: str
) -> tuple[ClaimCase | None, list[str]]:
    """The record's case, or None when it is skipped, and the reasons for
    what was dropped: each unusable report, then the skip, in that order."""
    if not isinstance(payload, dict):
        return None, ["record is not a JSON object"]
    case_id = _first_field(payload, _ID_FIELDS)
    claim = payload.get("claim")
    if not isinstance(case_id, (str, int)) or not str(case_id).strip():
        return None, ["missing case id"]
    if not isinstance(claim, str) or not claim.strip():
        return None, ["missing or empty claim"]

    label = _first_field(payload, _LABEL_FIELDS)
    if label is not None:
        if not isinstance(label, str) or label not in scheme:
            return None, [f"gold label {label!r} not in scheme {scheme.name!r}"]
        label = scheme.canonical(label)

    raw_reports = payload.get("reports", [])
    if not isinstance(raw_reports, list):
        return None, ["reports is not a list"]
    reports: list[Report] = []
    reasons: list[str] = []
    for position, raw in enumerate(raw_reports):
        report = _parse_report(raw, index=len(reports))
        if report is None:
            reasons.append(f"unusable report at source position {position}")
        else:
            reports.append(report)

    evidence = None
    if payload.get("evidence") is not None:
        if reasons:
            # positional evidence indices cannot be trusted once a report is gone
            return None, [
                *reasons, f"evidence present but {len(reasons)} report(s) unusable"
            ]
        try:
            evidence = tuple((int(r), int(s)) for r, s in payload["evidence"])
        except (TypeError, ValueError):
            return None, ["malformed evidence indices"]

    try:
        case = ClaimCase(
            id=str(case_id),
            claim=claim.strip(),
            reports=tuple(reports),
            gold_label=label,
            evidence=evidence,
            split=split,
        )
    except ValueError as exc:
        return None, [*reasons, str(exc)]
    return case, reasons


class DatasetLoader:
    """Streams validated cases from a dataset root directory."""

    def __init__(self, root: Path | str, scheme: LabelScheme) -> None:
        self.root = Path(root)
        self.scheme = scheme
        self.diagnostics: list[LoadDiagnostic] = []
        if not self.root.exists():
            raise DatasetError(f"dataset path does not exist: {self.root}")

    def _split_source(self, split: str) -> Path | None:
        for alias in _SPLIT_ALIASES[split]:
            for candidate in (self.root / f"{alias}.json", self.root / alias):
                if candidate.exists():
                    return candidate
        return None

    def iter_split(self, split: str) -> Iterator[ClaimCase]:
        for _, case in self._located_cases(split):
            yield case

    def _located_cases(self, split: str) -> Iterator[tuple[str, ClaimCase]]:
        """Each usable case of `split`, in file order, with where it was read."""
        if split not in SPLITS:
            raise DatasetError(f"unknown split: {split!r}")
        source = self._split_source(split)
        if source is None:
            return
        if source.is_dir():
            files = sorted(source.glob("*.json"))
            for path in files:
                yield from self._iter_file(path, split)
        else:
            yield from self._iter_file(source, split)

    def _iter_file(self, path: Path, split: str) -> Iterator[tuple[str, ClaimCase]]:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
            raise DatasetError(f"unreadable dataset file {path}: {exc}") from exc
        records = payload if isinstance(payload, list) else [payload]
        del payload
        for i, record in enumerate(records):
            records[i] = None  # a parsed record's raw form is not kept
            case, reasons = _parse_case(record, self.scheme, split)
            where = f"{path.name}[{i}]"
            for reason in reasons:
                self._diagnose(where, reason)
            if case is not None:
                yield where, case

    def _diagnose(self, where: str, reason: str) -> None:
        self.diagnostics.append(LoadDiagnostic(where, reason))
        log.warning("dataset %s: %s", where, reason)

    def iter_cases(
        self, splits: Sequence[str] | None = None, ids: Sequence[str] | None = None
    ) -> Iterator[ClaimCase]:
        """The cases of `splits` (all by default), in order, or only those in
        `ids`. A case whose id an earlier case already has is dropped with a
        diagnostic, so each id comes once. A consumer that stops early reads,
        and so logs, no case past the one it stopped at."""
        wanted = set(ids) if ids else None
        seen: set[str] = set()
        for split in splits or SPLITS:
            for where, case in self._located_cases(split):
                if case.id in seen:
                    self._diagnose(where, f"repeats case id {case.id!r}; the first is kept")
                    continue
                seen.add(case.id)
                if wanted is None or case.id in wanted:
                    yield case

    def load(
        self,
        splits: Sequence[str] | None = None,
        limit: int | None = None,
        ids: Sequence[str] | None = None,
    ) -> list[ClaimCase]:
        return list(itertools.islice(self.iter_cases(splits, ids), limit))


@dataclass
class DatasetStats:
    total: int = 0
    per_label: dict[str, int] = field(default_factory=dict)
    per_split: dict[str, int] = field(default_factory=dict)
    total_reports: int = 0
    avg_reports: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def dataset_stats(cases: Iterable[ClaimCase]) -> DatasetStats:
    """Exact counts; average reports per claim reported to one decimal.

    Accepts any iterable (including a streaming loader) so full corpora never
    need to be materialized.
    """
    stats = DatasetStats()
    for case in cases:
        stats.total += 1
        if case.gold_label is not None:
            stats.per_label[case.gold_label] = stats.per_label.get(case.gold_label, 0) + 1
        stats.per_split[case.split] = stats.per_split.get(case.split, 0) + 1
        stats.total_reports += len(case.reports)
    if stats.total:
        stats.avg_reports = round(stats.total_reports / stats.total, 1)
    return stats


def case_to_dict(case: ClaimCase) -> dict:
    """Canonical record shape used for round-tripping and fixtures."""
    payload: dict = {
        "event_id": case.id,
        "claim": case.claim,
        "reports": [{"sentences": list(report.sentences)} for report in case.reports],
    }
    if case.gold_label is not None:
        payload["label"] = case.gold_label
    if case.evidence is not None:
        payload["evidence"] = [list(pair) for pair in case.evidence]
    return payload


def write_canonical(cases: Sequence[ClaimCase], root: Path | str) -> None:
    """Write cases as one canonical <split>.json array per split."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    by_split: dict[str, list[ClaimCase]] = {}
    for case in cases:
        by_split.setdefault(case.split, []).append(case)
    for split, split_cases in by_split.items():
        path = root / f"{split}.json"
        path.write_text(
            json.dumps([case_to_dict(c) for c in split_cases], indent=2),
            encoding="utf-8",
        )
