"""Seeded corpus generator and the script the benchmark backend answers from.

Every case carries a unique token (its case id, e.g. ``CF000042``) in its
claim and in the first sentence of every report, so any prompt built from the
case names it. The backend uses the token to attribute calls to cases and to
look up the scripted verdict; answers and summaries echo it so the summary and
verify prompts carry it too.

Report counts are drawn by seed from 1-6 with fixed shares, and claim widths,
sentences per report and names per sentence each with even shares (each a
seeded shuffle of a multiset), so every seed does about the same total
extraction work while the order and the per-case graphs differ. The shares put
the median case inside the 4-report group and every tail percentile the
benchmark reports (p80 and up) inside the 6-report group, so neither lands on a
boundary between two groups whose case times differ by three serial calls.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from contrafact.corpus import ClaimCase, Report

SCHEME = "liar-raw"
LABELS = ("pants-fire", "false", "barely-true", "half-true", "mostly-true", "true")
REPORT_COUNT_SHARES = {1: 0.10, 2: 0.10, 3: 0.15, 4: 0.30, 5: 0.05, 6: 0.30}
VERDICT_MATCH_SHARE = 0.7  # scripted verdict equals gold this often

LEXICON = {
    "Person": (
        "Avery", "Blake", "Casey", "Drew", "Ellis", "Frankie",
        "Harper", "Jordan", "Kendall", "Logan", "Morgan", "Parker",
    ),
    "Place": (
        "Ashford", "Brookvale", "Carrow", "Dunmore", "Eastwick", "Fairhaven",
        "Glenrock", "Hollis", "Irondale", "Juniper", "Kestrel", "Lakemont",
    ),
    "Organization": (
        "Acme", "Borealis", "Cobalt", "Dynamo", "Everest", "Fulcrum",
        "Granite", "Helios", "Ionic", "Jasper", "Keystone", "Lumen",
    ),
    "Program": (
        "Aquifer", "Beacon", "Compass", "Delta", "Ember", "Frontier",
        "Gateway", "Harbor", "Insight", "Jubilee", "Kindle", "Lantern",
    ),
}
CLASS_OF = {name: cls for cls, names in LEXICON.items() for name in names}
RELATIONS = ("funded", "visited", "audited", "criticized", "approved", "opened")

# the backend may drop a class label only in texts opened by REPORT_VERB, so the
# claim and report 0 (which guarantees the k=5 candidates) stay intact
REPORT0_VERB = "reports that"
REPORT_VERB = "notes that"

TOKEN = re.compile(r"\bCF\d{6}\b")


def case_token(index: int) -> str:
    return f"CF{index:06d}"


def token_of(text: str) -> str | None:
    match = TOKEN.search(text)
    return match.group(0) if match else None


def relation_for(head: str, tail: str) -> str:
    return RELATIONS[(len(head) * 7 + len(tail) * 3 + ord(head[0])) % len(RELATIONS)]


@dataclass(frozen=True)
class Corpus:
    cases: list[ClaimCase]
    verdicts: dict[str, str]  # case id -> scripted verdict label

    def report_count_shares(self) -> dict[int, float]:
        counts: dict[int, int] = {}
        for case in self.cases:
            counts[len(case.reports)] = counts.get(len(case.reports), 0) + 1
        return {k: counts[k] / len(self.cases) for k in sorted(counts)}


def _exact_counts(n: int, shares: dict[int, float]) -> list[int]:
    """n values in the given shares, largest remainder, in sorted order."""
    raw = {k: n * share for k, share in shares.items()}
    counts = {k: int(v) for k, v in raw.items()}
    by_remainder = sorted(raw, key=lambda k: (counts[k] - raw[k], k))
    for k in by_remainder[: n - sum(counts.values())]:
        counts[k] += 1
    return [k for k in sorted(counts) for _ in range(counts[k])]


def _shuffled(n: int, shares: dict[int, float], rng: random.Random) -> list[int]:
    values = _exact_counts(n, shares)
    rng.shuffle(values)
    return values


def _even(low: int, high: int) -> dict[int, float]:
    return {k: 1 / (high - low + 1) for k in range(low, high + 1)}


def _chain(names: list[str]) -> str:
    return ", and ".join(
        f"{names[i]} {relation_for(names[i], names[i + 1])} {names[i + 1]}"
        for i in range(len(names) - 1)
    )


def _make_case(index: int, n_reports: int, claim_width: int, sentence_counts, widths,
               rng: random.Random) -> tuple[ClaimCase, str]:
    """One case; its sizes come from the seed-wide shuffled multisets
    `sentence_counts` (per report) and `widths` (per sentence)."""
    token = case_token(index)
    classes = list(LEXICON)
    claim_names = [
        rng.choice(LEXICON[cls])
        for cls in rng.sample(classes, claim_width)
    ]
    claim = f"{token} claims that {_chain(claim_names)}."

    case_classes = [CLASS_OF[name] for name in claim_names]

    def fresh(cls: str, taken: set[str]) -> str:
        return rng.choice([n for n in LEXICON[cls] if n not in taken] or LEXICON[cls])

    reports = []
    for r in range(n_reports):
        taken = set(claim_names)
        sentences = []
        if r == 0:
            # three alternatives for the first claim triple's head class and two
            # for its tail class guarantee at least k=5 contrastive candidates
            head_cls, tail_cls = case_classes[0], case_classes[1]
            alternatives = []
            for cls, count in ((head_cls, 3), (tail_cls, 2)):
                for _ in range(count):
                    name = fresh(cls, taken)
                    taken.add(name)
                    alternatives.append(name)
            names = [claim_names[0]] + alternatives
            sentences.append(f"{token} {REPORT0_VERB} {_chain(names)}.")
        for s in range(next(sentence_counts)):
            width = next(widths)
            names = []
            for _ in range(width):
                if rng.random() < 0.4:
                    names.append(rng.choice(claim_names))
                else:
                    name = fresh(rng.choice(case_classes), taken)
                    taken.add(name)
                    names.append(name)
            names = list(dict.fromkeys(names))
            if len(names) < 2:
                names.append(fresh(rng.choice(case_classes), taken))
            if r != 0 and s == 0:
                sentences.append(f"{token} {REPORT_VERB} {_chain(names)}.")
            else:
                sentences.append(f"It adds that {_chain(names)}.")
        reports.append(Report(r, tuple(sentences)))

    gold = rng.choice(LABELS)
    if rng.random() < VERDICT_MATCH_SHARE:
        verdict = gold
    else:
        verdict = rng.choice([label for label in LABELS if label != gold])
    return ClaimCase(id=token, claim=claim, reports=tuple(reports), gold_label=gold), verdict


def generate(seed: int, n_cases: int) -> Corpus:
    """The seed fixes every text, gold label and scripted verdict."""
    rng = random.Random(f"contrafact-bench:{seed}")
    counts = _shuffled(n_cases, REPORT_COUNT_SHARES, rng)
    claim_widths = _shuffled(n_cases, _even(2, 4), rng)
    sentence_counts = _shuffled(sum(counts), _even(1, 3), rng)
    widths = iter(_shuffled(sum(sentence_counts), _even(2, 4), rng))
    sentence_counts = iter(sentence_counts)
    cases, verdicts = [], {}
    for index, (n_reports, claim_width) in enumerate(zip(counts, claim_widths)):
        case, verdict = _make_case(index, n_reports, claim_width, sentence_counts, widths, rng)
        cases.append(case)
        verdicts[case.id] = verdict
    return Corpus(cases, verdicts)


def expected_macro_f1(pairs: list[tuple[str, str]]) -> float:
    """Macro F1 over the labels observed as gold or predicted, 0/0 -> 0.

    Written from the definition, independently of contrafact.metrics.
    """
    observed = {label for pair in pairs for label in pair}
    total = 0.0
    for label in observed:
        tp = sum(1 for g, p in pairs if g == label and p == label)
        fp = sum(1 for g, p in pairs if g != label and p == label)
        fn = sum(1 for g, p in pairs if g == label and p != label)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        total += 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return total / len(observed)
