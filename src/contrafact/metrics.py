"""Classification metrics and distance-weighted external-score transforms.

Macro averaging is an unweighted mean over the labels observed in the
evaluation (gold or predicted), not over every label of the scheme, with the
0/0 -> 0 convention for degenerate precision, recall, and F1. The base
AlignScore/RQUGE scorers live behind ExternalScorer; only the distance
weighting is computed here.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Iterable, Protocol, Sequence

from .verification import LabelScheme, Verdict


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class PrfScores:
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class PrfReport:
    per_label: dict[str, PrfScores]
    macro: PrfScores
    balanced_accuracy: float
    evaluated: int
    excluded: int

    def to_dict(self) -> dict:
        return asdict(self)


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def prf(
    pairs: Sequence[tuple[str, str]], scheme: LabelScheme, excluded: int = 0
) -> PrfReport:
    """Per-label and macro precision/recall/F1 over (gold, predicted) pairs.

    The macro average runs over the labels observed in the evaluation (gold or
    predicted), so a perfect predictor scores 100% even when some scheme
    labels never occur. Balanced accuracy averages recall over gold labels.
    """
    if not pairs:
        raise MetricsError("cannot compute metrics over an empty prediction list")
    tp = dict.fromkeys(scheme.labels, 0)
    fp, fn = dict(tp), dict(tp)
    for gold, predicted in pairs:
        gold, predicted = scheme.canonical(gold), scheme.canonical(predicted)
        if gold == predicted:
            tp[gold] += 1
        else:
            fn[gold] += 1
            fp[predicted] += 1
    gold_labels = sorted(label for label in scheme.labels if tp[label] + fn[label])
    observed = [label for label in scheme.labels if tp[label] + fn[label] + fp[label]]
    per_label: dict[str, PrfScores] = {}
    for label in scheme.labels:
        precision = _safe_div(tp[label], tp[label] + fp[label])
        recall = _safe_div(tp[label], tp[label] + fn[label])
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_label[label] = PrfScores(precision, recall, f1)
    macro = PrfScores(
        precision=sum(per_label[l].precision for l in observed) / len(observed),
        recall=sum(per_label[l].recall for l in observed) / len(observed),
        f1=sum(per_label[l].f1 for l in observed) / len(observed),
    )
    balanced = sum(per_label[l].recall for l in gold_labels) / len(gold_labels)
    return PrfReport(
        per_label=per_label,
        macro=macro,
        balanced_accuracy=balanced,
        evaluated=len(pairs),
        excluded=excluded,
    )


# -- distance weighting ------------------------------------------------------


@dataclass(frozen=True)
class DistanceWeight:
    """1 minus the squared normalized gap between predicted and gold values."""

    value: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise MetricsError(f"weight out of [0, 1]: {self.value}")


def distance_weight(
    predicted: Verdict | str, gold: str, scheme: LabelScheme
) -> DistanceWeight:
    predicted_value = (
        predicted.value if isinstance(predicted, Verdict) else scheme.value_of(predicted)
    )
    gold_value = scheme.value_of(gold)
    span = scheme.y_max - scheme.y_min
    if span == 0:
        return DistanceWeight(1.0)
    gap = (predicted_value - gold_value) ** 2 / span**2
    return DistanceWeight(1.0 - gap)


ALIGN_RANGE = (0.0, 1.0)
RQUGE_RANGE = (1.0, 5.0)


def _check_range(value: float, bounds: tuple[float, float], what: str) -> float:
    lo, hi = bounds
    if not lo <= value <= hi:
        raise MetricsError(f"{what} score {value} outside [{lo}, {hi}]")
    return value


def weighted_alignscore(
    base: float,
    weight: DistanceWeight,
    bounds: tuple[float, float] = ALIGN_RANGE,
) -> float:
    """Scale a summary/claim alignment score by the class-distance weight."""
    return weight.value * _check_range(float(base), bounds, "alignment")


def weighted_rquge(
    scores: Sequence[float],
    weight: DistanceWeight,
    bounds: tuple[float, float] = RQUGE_RANGE,
) -> float:
    """Scale the mean per-question quality score by the class-distance weight."""
    if not scores:
        raise MetricsError("weighted question-quality needs at least one score")
    values = [_check_range(float(s), bounds, "question") for s in scores]
    return weight.value * (sum(values) / len(values))


def aggregate_corpus(per_claim: Sequence[float]) -> dict:
    """Arithmetic mean over the evaluated claims, and their count; the mean
    is None when no claim was evaluated. Exclusions are counted by the
    caller, apart from this row."""
    mean = sum(per_claim) / len(per_claim) if per_claim else None
    return {"mean": mean, "evaluated": len(per_claim)}


# -- external scorers --------------------------------------------------------


class ExternalScorer(Protocol):
    scorer_id: str

    def score(self, text_a: str, text_b: str, answer: str | None = None) -> float: ...


_TOKEN = re.compile(r"\w+")


class TokenOverlapScorer:
    """Deterministic offline stand-in for an external scorer.

    Jaccard overlap of token sets, linearly mapped onto the configured output
    range. This is a plumbing stub for tests and offline runs, not a
    reimplementation of any published scorer.
    """

    def __init__(self, bounds: tuple[float, float] = ALIGN_RANGE, scorer_id: str = "") -> None:
        self.bounds = bounds
        self.scorer_id = scorer_id or f"token-overlap[{bounds[0]},{bounds[1]}]"

    def score(self, text_a: str, text_b: str, answer: str | None = None) -> float:
        parts = [text_b] + ([answer] if answer else [])
        tokens_a = {t.casefold() for t in _TOKEN.findall(text_a)}
        tokens_b = {t.casefold() for part in parts for t in _TOKEN.findall(part)}
        union = tokens_a | tokens_b
        overlap = len(tokens_a & tokens_b) / len(union) if union else 0.0
        lo, hi = self.bounds
        return lo + (hi - lo) * overlap


def weighted_run_report(
    records: Iterable[dict],
    scheme: LabelScheme,
    align_scorer: ExternalScorer,
    rquge_scorer: ExternalScorer,
) -> dict:
    """Macro and distance-weighted external-score rows over run records.

    Records are the stable per-case dicts of a run directory. Alignment scores
    pair the summary with the claim; question-quality scores take (question,
    claim, answer) per successful pair. Cases without the needed stage output
    are counted, not silently dropped.
    """
    align_macro: list[float] = []
    align_weighted: list[float] = []
    rquge_macro: list[float] = []
    rquge_weighted: list[float] = []
    excluded = 0
    without_summary = 0
    without_qa = 0
    for record in records:
        if (
            record.get("status") != "done"
            or not record.get("gold_label")
            or not record.get("verdict")
        ):
            excluded += 1
            continue
        claim = record["claim"]
        weight = distance_weight(
            record["verdict"]["label"], record["gold_label"], scheme
        )
        summary = (record.get("summary") or {}).get("text")
        if summary:
            base = align_scorer.score(summary, claim)
            align_macro.append(base)
            align_weighted.append(weighted_alignscore(base, weight))
        else:
            without_summary += 1
        ok_pairs = [p for p in record.get("qa_pairs") or [] if p.get("answer")]
        if ok_pairs:
            scores = [
                rquge_scorer.score(p["question_text"], claim, p["answer"])
                for p in ok_pairs
            ]
            rquge_macro.append(sum(scores) / len(scores))
            rquge_weighted.append(weighted_rquge(scores, weight))
        else:
            without_qa += 1

    return {
        "alignscore_macro": aggregate_corpus(align_macro),
        "alignscore_weighted": aggregate_corpus(align_weighted),
        "rquge_macro": aggregate_corpus(rquge_macro),
        "rquge_weighted": aggregate_corpus(rquge_weighted),
        "excluded": excluded,
        "without_summary": without_summary,
        "without_qa": without_qa,
        "align_scorer": align_scorer.scorer_id,
        "rquge_scorer": rquge_scorer.scorer_id,
    }


def metrics_markdown(name: str, report: PrfReport) -> str:
    """One-row table in the Pr / Re / F1 percent layout."""
    lines = [
        "| Run | Pr | Re | F1 |",
        "| --- | --- | --- | --- |",
        "| {} | {:.2f} | {:.2f} | {:.2f} |".format(
            name,
            report.macro.precision * 100,
            report.macro.recall * 100,
            report.macro.f1 * 100,
        ),
    ]
    return "\n".join(lines) + "\n"
