from __future__ import annotations

import json

import pytest

from contrafact.corpus import (
    ClaimCase,
    DatasetError,
    DatasetLoader,
    Report,
    case_to_dict,
    dataset_stats,
    split_sentences,
    write_canonical,
)
from contrafact.verification import load_scheme
from helpers import make_case, write_fixture_dataset

LIAR_RAW = load_scheme("liar-raw")
RAWFC = load_scheme("rawfc")


def write_split(tmp_path, split: str, records: list) -> None:
    (tmp_path / f"{split}.json").write_text(json.dumps(records), encoding="utf-8")


def canonical_record(i: int, label: str = "true") -> dict:
    return {
        "event_id": f"id-{i}",
        "claim": f"Claim number {i}.",
        "label": label,
        "reports": [{"sentences": ["One sentence.", "Two sentences."]}],
    }


# -- domain types --------------------------------------------------------------


def test_report_needs_at_least_one_sentence() -> None:
    with pytest.raises(ValueError):
        Report(0, ())


def test_claim_case_rejects_empty_claim() -> None:
    with pytest.raises(ValueError):
        ClaimCase(id="x", claim="   ")


def test_evidence_must_resolve_into_reports() -> None:
    report = Report(0, ("Only sentence.",))
    ClaimCase(id="x", claim="c", reports=(report,), evidence=((0, 0),))
    with pytest.raises(ValueError):
        ClaimCase(id="x", claim="c", reports=(report,), evidence=((1, 0),))
    with pytest.raises(ValueError):
        ClaimCase(id="x", claim="c", reports=(report,), evidence=((0, 5),))


def test_sentence_splitting_rule() -> None:
    text = "First sentence. Second one? Third! No trailing split"
    assert split_sentences(text) == [
        "First sentence.",
        "Second one?",
        "Third!",
        "No trailing split",
    ]


# -- loading -------------------------------------------------------------------


def test_load_canonical_split_file(tmp_path) -> None:
    write_split(tmp_path, "test", [canonical_record(1), canonical_record(2, "false")])
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert [c.id for c in cases] == ["id-1", "id-2"]
    assert cases[0].gold_label == "true"
    assert cases[1].gold_label == "false"
    assert diagnostics == []


def test_field_aliases_from_published_shapes(tmp_path) -> None:
    records = [
        {
            "event_id": "liar-1",
            "claim": "A political claim.",
            "label": "half-true",
            "reports": [
                {"report": "Flat report text. With two sentences."},
                {"tokenized": ["Pre-split sentence one.", "And two."]},
            ],
        },
        {
            "id": "alt-2",
            "claim": "Another claim.",
            "original_label": "true",
            "reports": [{"content": "Report via content field."}],
        },
    ]
    write_split(tmp_path, "test", records)
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert diagnostics == []
    assert cases[0].reports[0].sentences == (
        "Flat report text.",
        "With two sentences.",
    )
    assert cases[0].reports[1].sentences == ("Pre-split sentence one.", "And two.")
    assert cases[1].id == "alt-2"
    assert cases[1].gold_label == "true"


def test_per_claim_directory_layout(tmp_path) -> None:
    split_dir = tmp_path / "test"
    split_dir.mkdir()
    for i in range(3):
        (split_dir / f"case{i}.json").write_text(
            json.dumps(
                {
                    "event_id": f"raw-{i}",
                    "claim": f"Snopes-style claim {i}.",
                    "label": "half",
                    "reports": [{"content": "A report sentence."}],
                }
            )
        )
    loader = DatasetLoader(tmp_path, RAWFC)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert len(cases) == 3
    assert diagnostics == []
    assert all(c.gold_label == "half" for c in cases)


def test_valid_alias_for_val_split(tmp_path) -> None:
    write_split(tmp_path, "valid", [canonical_record(1)])
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = list(loader.iter_split("val"))
    assert len(cases) == 1
    assert cases[0].split == "val"


def test_mislabeled_record_is_skipped_with_diagnostic(tmp_path) -> None:
    records = [canonical_record(i) for i in range(3)]
    records.append(canonical_record(9, label="not-a-label"))
    write_split(tmp_path, "test", records)
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert len(cases) == 3
    assert len(diagnostics) == 1
    assert "not-a-label" in diagnostics[0].reason


def test_each_diagnostic_is_logged_with_where_and_why(tmp_path, caplog) -> None:
    records = [
        canonical_record(1),
        canonical_record(9, label="not-a-label"),
        {"event_id": "no-claim"},
    ]
    write_split(tmp_path, "test", records)
    with caplog.at_level("WARNING", logger="contrafact.corpus"):
        loader = DatasetLoader(tmp_path, LIAR_RAW)
        loader.load(splits=["test"])
        diagnostics = loader.diagnostics
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == len(diagnostics) == 2
    for diagnostic, message in zip(diagnostics, warnings):
        assert diagnostic.where in message and diagnostic.reason in message
    assert "test.json[1]" in warnings[0] and "not-a-label" in warnings[0]
    assert "test.json[2]" in warnings[1] and "missing or empty claim" in warnings[1]


def test_malformed_records_are_skipped_not_fatal(tmp_path) -> None:
    records = [
        canonical_record(1),
        {"event_id": "no-claim"},
        {"claim": "claim without id"},
        "not even an object",
        {"event_id": "bad-ev", "claim": "c", "evidence": "nope"},
    ]
    write_split(tmp_path, "test", records)
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert [c.id for c in cases] == ["id-1"]
    assert len(diagnostics) == 4


def test_unusable_report_is_counted_but_case_survives(tmp_path) -> None:
    record = canonical_record(1)
    record["reports"].append({"unknown_shape": True})
    write_split(tmp_path, "test", [record])
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert len(cases) == 1
    assert len(cases[0].reports) == 1
    assert len(diagnostics) == 1


def test_unreadable_file_is_fatal(tmp_path) -> None:
    (tmp_path / "test.json").write_text("{ truncated", encoding="utf-8")
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    with pytest.raises(DatasetError):
        list(loader.iter_split("test"))


def test_missing_root_is_fatal(tmp_path) -> None:
    with pytest.raises(DatasetError):
        DatasetLoader(tmp_path / "nope", LIAR_RAW)


def test_limit_and_ids_filters(tmp_path) -> None:
    write_split(tmp_path, "test", [canonical_record(i) for i in range(10)])
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    assert len(loader.load(splits=["test"], limit=4)) == 4
    assert loader.load(splits=["test"], limit=0) == []
    picked = loader.load(splits=["test"], ids=["id-3", "id-7"])
    assert [c.id for c in picked] == ["id-3", "id-7"]


def test_each_case_belongs_to_exactly_one_split(tmp_path) -> None:
    write_split(tmp_path, "train", [canonical_record(1)])
    write_split(tmp_path, "val", [canonical_record(2)])
    write_split(tmp_path, "test", [canonical_record(3)])
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load()
    assert {c.id: c.split for c in cases} == {
        "id-1": "train",
        "id-2": "val",
        "id-3": "test",
    }


def test_evidence_round_trips(tmp_path) -> None:
    record = canonical_record(1)
    record["evidence"] = [[0, 1]]
    write_split(tmp_path, "test", [record])
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert diagnostics == []
    assert cases[0].evidence == ((0, 1),)


def test_evidence_with_dropped_report_skips_record(tmp_path) -> None:
    record = canonical_record(1)
    record["reports"].insert(0, {"unknown_shape": True})
    record["evidence"] = [[1, 0]]  # positional indices now untrustworthy
    write_split(tmp_path, "test", [record])
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert cases == []
    assert any("evidence present" in d.reason for d in diagnostics)


def test_out_of_range_evidence_skips_record(tmp_path) -> None:
    record = canonical_record(1)
    record["evidence"] = [[5, 0]]
    write_split(tmp_path, "test", [record])
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    cases = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert cases == []
    assert len(diagnostics) == 1


# -- round trip -----------------------------------------------------------------


def test_write_canonical_then_reload_is_identity(tmp_path) -> None:
    original = [
        make_case(0, label="half-true", split="test"),
        make_case(1, label="true", split="test"),
        make_case(2, label="false", split="train"),
    ]
    write_canonical(original, tmp_path)
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    reloaded = loader.load()
    diagnostics = loader.diagnostics
    assert diagnostics == []
    key = lambda c: c.id
    assert sorted(reloaded, key=key) == sorted(original, key=key)


def test_case_to_dict_shape() -> None:
    case = make_case(0)
    payload = case_to_dict(case)
    assert payload["event_id"] == case.id
    assert payload["label"] == "half-true"
    assert payload["reports"][0]["sentences"] == list(case.reports[0].sentences)


# -- stats ----------------------------------------------------------------------


def test_stats_counts_and_one_decimal_average(tmp_path) -> None:
    cases = [
        make_case(0, label="true"),
        make_case(1, label="true"),
        make_case(2, label="false"),
    ]
    stats = dataset_stats(cases)
    assert stats.total == 3
    assert stats.per_label == {"true": 2, "false": 1}
    assert stats.total_reports == 6
    assert stats.avg_reports == 2.0


def test_stats_average_rounds_to_one_decimal() -> None:
    cases = [make_case(0), make_case(1)]
    # 2 reports + 1 report -> 1.5; fabricate by trimming one case's reports
    trimmed = ClaimCase(
        id=cases[1].id,
        claim=cases[1].claim,
        reports=cases[1].reports[:1],
        gold_label=cases[1].gold_label,
        split=cases[1].split,
    )
    stats = dataset_stats([cases[0], trimmed])
    assert stats.avg_reports == 1.5


def test_stats_empty_case_list_has_absent_average() -> None:
    stats = dataset_stats([])
    assert stats.total == 0
    assert stats.avg_reports is None


def test_fixture_writer_round_trip(tmp_path) -> None:
    written = write_fixture_dataset(tmp_path, n=3)
    loader = DatasetLoader(tmp_path, LIAR_RAW)
    reloaded = loader.load(splits=["test"])
    diagnostics = loader.diagnostics
    assert diagnostics == []
    assert [c.id for c in reloaded] == [c.id for c in written]
