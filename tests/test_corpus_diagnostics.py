"""Pins what loading one split file reports for every way a record is
rejected: each diagnostic's `where` and `reason`, their order, and the
WARNING line logged for each."""

from __future__ import annotations

import json

from contrafact.corpus import DatasetLoader, LoadDiagnostic
from contrafact.verification import load_scheme

LIAR_RAW = load_scheme("liar-raw")


def record(case_id: str, **fields) -> dict:
    payload = {
        "event_id": case_id,
        "claim": f"Claim {case_id}.",
        "label": "true",
        "reports": [{"sentences": ["One sentence.", "Two sentences."]}],
    }
    payload.update(fields)
    return payload


def test_every_rejection_reason_is_pinned_in_order(tmp_path, caplog) -> None:
    records = [
        record("kept-1"),
        "not an object",
        {"claim": "A claim without an id."},
        {"event_id": "no-claim", "claim": "   "},
        record("bad-label", label="bogus"),
        record("bad-reports", reports={"sentences": ["Not a list."]}),
        record("dropped-report", reports=[{"unknown_shape": True}, "Kept report."]),
        record(
            "evidence-after-drop",
            reports=["Usable report.", 7, "Another usable one."],
            evidence=[[0, 0]],
        ),
        record("malformed-evidence", evidence="nope"),
        record("evidence-out-of-range", evidence=[[3, 0]]),
        record("sentence-out-of-range", evidence=[[0, 9]]),
        record("kept-2", label="half-true", evidence=[[0, 1]]),
    ]
    (tmp_path / "test.json").write_text(json.dumps(records), encoding="utf-8")

    loader = DatasetLoader(tmp_path, LIAR_RAW)
    with caplog.at_level("WARNING", logger="contrafact.corpus"):
        cases = loader.load(splits=["test"])

    assert [c.id for c in cases] == ["kept-1", "dropped-report", "kept-2"]
    assert [r.sentences for r in cases[1].reports] == [("Kept report.",)]
    expected = [
        ("test.json[1]", "record is not a JSON object"),
        ("test.json[2]", "missing case id"),
        ("test.json[3]", "missing or empty claim"),
        ("test.json[4]", "gold label 'bogus' not in scheme 'liar-raw'"),
        ("test.json[5]", "reports is not a list"),
        ("test.json[6]", "unusable report at source position 0"),
        ("test.json[7]", "unusable report at source position 1"),
        ("test.json[7]", "evidence present but 1 report(s) unusable"),
        ("test.json[8]", "malformed evidence indices"),
        ("test.json[9]", "evidence report index 3 out of range"),
        ("test.json[10]", "evidence sentence index 9 out of range"),
    ]
    assert loader.diagnostics == [LoadDiagnostic(w, r) for w, r in expected]
    assert [
        (r.name, r.levelname, r.getMessage()) for r in caplog.records
    ] == [
        ("contrafact.corpus", "WARNING", f"dataset {where}: {reason}")
        for where, reason in expected
    ]


def test_a_repeated_case_id_keeps_the_first_case_and_names_each_repeat(
    tmp_path, caplog
) -> None:
    (tmp_path / "train.json").write_text(json.dumps([record("a")]), encoding="utf-8")
    records = [
        record("a", claim="The repeat of a train case."),
        record("b"),
        record("b", claim="A repeat within the split."),
        record("c"),
    ]
    (tmp_path / "test.json").write_text(json.dumps(records), encoding="utf-8")

    loader = DatasetLoader(tmp_path, LIAR_RAW)
    with caplog.at_level("WARNING", logger="contrafact.corpus"):
        cases = list(loader.iter_cases())

    assert [(c.id, c.split, c.claim) for c in cases] == [
        ("a", "train", "Claim a."), ("b", "test", "Claim b."), ("c", "test", "Claim c.")
    ]
    expected = [
        ("test.json[0]", "repeats case id 'a'; the first is kept"),
        ("test.json[2]", "repeats case id 'b'; the first is kept"),
    ]
    assert loader.diagnostics == [LoadDiagnostic(w, r) for w, r in expected]
    assert [r.getMessage() for r in caplog.records] == [
        f"dataset {where}: {reason}" for where, reason in expected
    ]
    # an --ids filter still drops the repeat, not the first case
    picked = DatasetLoader(tmp_path, LIAR_RAW).load(splits=["test"], ids=["b"])
    assert [c.claim for c in picked] == ["Claim b."]
