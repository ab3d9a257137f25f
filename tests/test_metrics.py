from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrafact.metrics import (
    ALIGN_RANGE,
    RQUGE_RANGE,
    DistanceWeight,
    MetricsError,
    TokenOverlapScorer,
    aggregate_corpus,
    distance_weight,
    metrics_markdown,
    prf,
    weighted_alignscore,
    weighted_rquge,
    weighted_run_report,
)
from contrafact.verification import LabelScheme, SchemeError, load_scheme

LIAR_RAW = load_scheme("liar-raw")
TWO_CLASS = LabelScheme(
    name="two", labels=("true", "false"), descriptions=("yes", "no")
)


# -- prf ----------------------------------------------------------------------


def test_perfect_predictions_score_one() -> None:
    pairs = [("true", "true"), ("false", "false"), ("true", "true")]
    report = prf(pairs, TWO_CLASS)
    assert report.macro.precision == 1.0
    assert report.macro.recall == 1.0
    assert report.macro.f1 == 1.0
    assert report.balanced_accuracy == 1.0


def test_worked_two_class_example() -> None:
    pairs = [("true", "true"), ("true", "false"), ("false", "false"), ("false", "false")]
    report = prf(pairs, TWO_CLASS)
    t = report.per_label["true"]
    f = report.per_label["false"]
    assert t.precision == pytest.approx(1.0)
    assert t.recall == pytest.approx(0.5)
    assert t.f1 == pytest.approx(2 / 3)
    assert f.precision == pytest.approx(2 / 3)
    assert f.recall == pytest.approx(1.0)
    assert f.f1 == pytest.approx(0.8)
    assert report.macro.f1 == pytest.approx((2 / 3 + 0.8) / 2)


def test_perfect_predictions_on_label_subset_still_score_one() -> None:
    # only two of the six labels occur; absent labels must not drag macro down
    pairs = [("true", "true"), ("false", "false")]
    report = prf(pairs, LIAR_RAW)
    assert report.macro.precision == 1.0
    assert report.macro.recall == 1.0
    assert report.macro.f1 == 1.0


def test_macro_includes_labels_only_seen_in_predictions() -> None:
    # "half-true" appears only as a (wrong) prediction: P=0 for it, pulls macro down
    pairs = [("true", "half-true"), ("false", "false")]
    report = prf(pairs, LIAR_RAW)
    assert report.per_label["half-true"].precision == 0.0
    assert report.macro.f1 == pytest.approx((0.0 + 1.0 + 0.0) / 3)


def test_degenerate_one_class_predictor_uses_zero_convention() -> None:
    pairs = [("true", "true"), ("false", "true")]
    report = prf(pairs, TWO_CLASS)
    assert report.per_label["false"].precision == 0.0
    assert report.per_label["false"].recall == 0.0
    assert report.per_label["false"].f1 == 0.0


def test_empty_prediction_list_is_an_error() -> None:
    with pytest.raises(MetricsError):
        prf([], TWO_CLASS)


def test_labels_outside_scheme_are_rejected() -> None:
    with pytest.raises(SchemeError):
        prf([("maybe", "true")], TWO_CLASS)


def test_macro_is_permutation_invariant() -> None:
    rng = random.Random(3)
    pairs = [
        (rng.choice(TWO_CLASS.labels), rng.choice(TWO_CLASS.labels)) for _ in range(40)
    ]
    base = prf(pairs, TWO_CLASS)
    for _ in range(5):
        rng.shuffle(pairs)
        again = prf(pairs, TWO_CLASS)
        assert again.macro == base.macro
        assert again.per_label == base.per_label


def test_confusion_table_totals_consistent() -> None:
    rng = random.Random(5)
    pairs = [
        (rng.choice(LIAR_RAW.labels), rng.choice(LIAR_RAW.labels)) for _ in range(200)
    ]
    report = prf(pairs, LIAR_RAW)
    assert report.evaluated == len(pairs)
    gold = Counter(g for g, _ in pairs)
    predicted = Counter(p for _, p in pairs)
    correct = sum(1 for g, p in pairs if g == p)
    # each label's true positives, read back through recall and precision
    labels = LIAR_RAW.labels
    assert sum(round(report.per_label[l].recall * gold[l]) for l in labels) == correct
    assert sum(round(report.per_label[l].precision * predicted[l]) for l in labels) == correct


def test_balanced_accuracy_is_mean_recall() -> None:
    pairs = [("true", "true"), ("true", "false"), ("false", "false"), ("false", "false")]
    report = prf(pairs, TWO_CLASS)
    assert report.balanced_accuracy == pytest.approx((0.5 + 1.0) / 2)


# -- distance weights -------------------------------------------------------------


def test_weight_examples_exact() -> None:
    assert distance_weight("true", "true", LIAR_RAW).value == pytest.approx(1.0, abs=1e-12)
    assert distance_weight("true", "pants-fire", LIAR_RAW).value == pytest.approx(
        0.0, abs=1e-12
    )
    assert distance_weight("half-true", "false", LIAR_RAW).value == pytest.approx(
        0.84, abs=1e-12
    )


def test_weight_bounds_and_symmetry_over_all_pairs() -> None:
    for a in LIAR_RAW.labels:
        for b in LIAR_RAW.labels:
            w_ab = distance_weight(a, b, LIAR_RAW).value
            w_ba = distance_weight(b, a, LIAR_RAW).value
            assert 0.0 <= w_ab <= 1.0
            assert w_ab == w_ba
            if a == b:
                assert w_ab == 1.0


def test_weight_is_zero_only_at_extreme_distance() -> None:
    assert distance_weight("pants-fire", "true", LIAR_RAW).value == 0.0
    assert distance_weight("false", "true", LIAR_RAW).value > 0.0


def test_adjacency_monotonicity() -> None:
    gold = "pants-fire"
    weights = [distance_weight(label, gold, LIAR_RAW).value for label in LIAR_RAW.labels]
    assert weights == sorted(weights, reverse=True)
    assert all(a > b for a, b in zip(weights, weights[1:]))


def test_weight_rejects_out_of_scheme_labels() -> None:
    with pytest.raises(SchemeError):
        distance_weight("maybe", "true", LIAR_RAW)


def test_weight_type_validates_range() -> None:
    with pytest.raises(MetricsError):
        DistanceWeight(1.5)


# -- weighted external scores -------------------------------------------------------


def test_weighted_alignment_examples() -> None:
    assert weighted_alignscore(0.5, DistanceWeight(0.84)) == pytest.approx(0.42)
    assert weighted_alignscore(0.9, DistanceWeight(0.0)) == 0.0
    assert weighted_alignscore(0.7, DistanceWeight(1.0)) == 0.7


def test_weighted_alignment_validates_base_range() -> None:
    with pytest.raises(MetricsError):
        weighted_alignscore(1.2, DistanceWeight(1.0))


def test_weighted_question_quality_examples() -> None:
    assert weighted_rquge([2.0], DistanceWeight(1.0)) == 2.0
    assert weighted_rquge([1.0, 3.0], DistanceWeight(0.5)) == pytest.approx(1.0)
    assert weighted_rquge([4.0, 5.0], DistanceWeight(0.0)) == 0.0


def test_weighted_question_quality_validates_range_and_emptiness() -> None:
    with pytest.raises(MetricsError):
        weighted_rquge([], DistanceWeight(1.0))
    with pytest.raises(MetricsError):
        weighted_rquge([0.5], DistanceWeight(1.0))  # below the published floor
    with pytest.raises(MetricsError):
        weighted_rquge([6.0], DistanceWeight(1.0))


@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=300, deadline=None)
def test_weighted_never_exceeds_macro(pred, gold, base) -> None:
    weight = distance_weight(LIAR_RAW.labels[pred - 1], LIAR_RAW.labels[gold - 1], LIAR_RAW)
    assert weighted_alignscore(base, weight) <= base


# -- aggregation -----------------------------------------------------------------


def test_aggregate_single_claim_is_itself() -> None:
    assert aggregate_corpus([0.3]) == {"mean": 0.3, "evaluated": 1}


def test_aggregate_mean_of_two() -> None:
    result = aggregate_corpus([0.2, 0.6])
    assert result["mean"] == pytest.approx(0.4)
    assert result["evaluated"] == 2


def test_aggregate_counts_exclusions_separately() -> None:
    records = [
        run_record("true", "true", "the budget summary", ["answer one"]),
        run_record("false", "true", "another summary", ["answer two"]),
        {"status": "failed"},
    ]
    report = weighted_run_report(
        records,
        LIAR_RAW,
        align_scorer=TokenOverlapScorer(ALIGN_RANGE),
        rquge_scorer=TokenOverlapScorer(RQUGE_RANGE),
    )
    scores = [
        TokenOverlapScorer(ALIGN_RANGE).score(record["summary"]["text"], record["claim"])
        for record in records[:2]
    ]
    # the excluded record is counted apart and never enters a row's mean
    assert report["excluded"] == 1
    assert report["alignscore_macro"] == aggregate_corpus(scores)


def test_aggregate_empty_has_no_mean() -> None:
    assert aggregate_corpus([]) == {"mean": None, "evaluated": 0}


# -- scorer stub --------------------------------------------------------------------


def test_token_overlap_scorer_bounds_and_determinism() -> None:
    scorer = TokenOverlapScorer(ALIGN_RANGE)
    a = scorer.score("the budget doubled", "the budget grew modestly")
    assert 0.0 <= a <= 1.0
    assert a == scorer.score("the budget doubled", "the budget grew modestly")
    assert scorer.score("same words", "same words") == 1.0
    assert scorer.score("alpha beta", "gamma delta") == 0.0


def test_token_overlap_scorer_maps_to_question_range() -> None:
    scorer = TokenOverlapScorer(RQUGE_RANGE)
    assert scorer.score("identical text", "identical text") == 5.0
    assert scorer.score("aaa", "bbb") == 1.0


def test_token_overlap_uses_answer_when_given() -> None:
    scorer = TokenOverlapScorer(ALIGN_RANGE)
    without = scorer.score("unique tokens", "other words")
    with_answer = scorer.score("unique tokens", "other words", answer="unique tokens")
    assert with_answer > without


# -- run-level weighted report --------------------------------------------------------


def run_record(gold: str, pred: str, summary: str | None, answers: list[str]) -> dict:
    return {
        "status": "done",
        "gold_label": gold,
        "verdict": {"label": pred, "value": LIAR_RAW.value_of(pred)},
        "claim": "the original claim about the budget",
        "summary": {"text": summary} if summary else None,
        "qa_pairs": [
            {"question_text": f"why {i}?", "answer": answer}
            for i, answer in enumerate(answers)
        ],
    }


def test_weighted_run_report_rows() -> None:
    records = [
        run_record("true", "true", "the budget summary", ["answer one"]),
        run_record("false", "true", "another summary", ["answer two", "answer three"]),
        {"status": "failed"},
    ]
    report = weighted_run_report(
        records,
        LIAR_RAW,
        align_scorer=TokenOverlapScorer(ALIGN_RANGE),
        rquge_scorer=TokenOverlapScorer(RQUGE_RANGE),
    )
    assert report["excluded"] == 1
    assert report["alignscore_macro"]["evaluated"] == 2
    assert report["rquge_macro"]["evaluated"] == 2
    assert report["alignscore_weighted"]["mean"] <= report["alignscore_macro"]["mean"]
    assert report["rquge_weighted"]["mean"] <= report["rquge_macro"]["mean"]


def test_weighted_run_report_handles_missing_stages() -> None:
    records = [run_record("true", "true", None, [])]
    report = weighted_run_report(
        records,
        LIAR_RAW,
        align_scorer=TokenOverlapScorer(ALIGN_RANGE),
        rquge_scorer=TokenOverlapScorer(RQUGE_RANGE),
    )
    assert report["without_summary"] == 1
    assert report["without_qa"] == 1
    assert report["alignscore_macro"]["mean"] is None


# -- markdown ------------------------------------------------------------------------


def test_markdown_table_layout() -> None:
    pairs = [("true", "true"), ("false", "false")]
    report = prf(pairs, TWO_CLASS)
    table = metrics_markdown("demo", report)
    lines = table.splitlines()
    assert lines[0] == "| Run | Pr | Re | F1 |"
    assert lines[2] == "| demo | 100.00 | 100.00 | 100.00 |"
