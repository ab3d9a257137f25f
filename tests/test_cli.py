from __future__ import annotations

import errno
import json
import os
import shutil
import threading
import time
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from contrafact import cli as cli_module
from contrafact import prompts
from contrafact.cli import main, read_config_file
from contrafact.corpus import write_canonical
from contrafact.gateway import (
    HashEmbedder,
    LlmGateway,
    MockBackend,
    RecordingWriter,
    ReplayBackend,
    ResponseCache,
)
from contrafact.runner import RunConfig, RunDirectory, StageModels, run
from helpers import PipelineScript, make_case, scripted_backend, write_fixture_dataset


@pytest.fixture()
def cli() -> CliRunner:
    return CliRunner()


@pytest.fixture()
def dataset(tmp_path):
    data = tmp_path / "data"
    write_fixture_dataset(data, n=2, labels=["half-true", "true"])
    return data


@pytest.fixture()
def recording(tmp_path, dataset):
    """Record a full-mode session once so CLI commands can replay it offline."""
    path = tmp_path / "session.jsonl"
    config = RunConfig(
        dataset=str(dataset),
        scheme="liar-raw",
        split="test",
        k=3,
        mode="full",
        models=StageModels(embed="hash:16"),
        workers=1,
    )
    with RecordingWriter(path) as recorder:
        gateway = LlmGateway(
            scripted_backend(verdict_for={"Marlow0": "half-true", "Marlow1": "true"}),
            embedder=HashEmbedder(16),
            recorder=recorder,
            sleep=lambda _: None,
        )
        run(config, tmp_path / "recorded-run", gateway)
    return path


def common_args(dataset, recording
                ) -> list[str]:
    return [
        "--dataset",
        str(dataset),
        "--scheme",
        "liar-raw",
        "--split",
        "test",
        "--k",
        "3",
        "--model.embed",
        "hash:16",
        "--replay",
        str(recording),
        "--no-cache",
    ]


def test_stats_command(cli, dataset) -> None:
    result = cli.invoke(
        main, ["stats", "--dataset", str(dataset), "--scheme", "liar-raw"]
    )
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["total"] == 2
    assert payload["per_label"] == {"half-true": 1, "true": 1}
    assert payload["avg_reports"] == 2.0

    limited = cli.invoke(main, ["stats", "--dataset", str(dataset), "--limit", "1"])
    assert limited.exit_code == 0, limited.output
    assert json.loads(limited.output)["per_label"] == {"half-true": 1}


def test_extract_command_replays_offline(cli, dataset, recording) -> None:
    result = cli.invoke(main, ["extract", *common_args(dataset, recording)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert len(lines) == 2
    assert all(line["kg"]["entities"] for line in lines)


def test_questions_command(cli, dataset, recording) -> None:
    result = cli.invoke(main, ["questions", *common_args(dataset, recording)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert all(line["candidate_count"] > 0 for line in lines)
    assert all(line["questions"] for line in lines)
    assert all(line["trace"]["steps"] for line in lines)


def test_answer_command_emits_qa_pairs(cli, dataset, recording) -> None:
    result = cli.invoke(main, ["answer", *common_args(dataset, recording)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert all(line["qa_pairs"] for line in lines)
    assert all(p["answer"] for line in lines for p in line["qa_pairs"])


def test_summarise_command_emits_single_paragraphs(cli, dataset, recording) -> None:
    result = cli.invoke(main, ["summarise", *common_args(dataset, recording)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert all(line["summary"]["word_count"] > 0 for line in lines)
    assert all("\n\n" not in line["summary"]["text"] for line in lines)


def test_verify_command_produces_verdicts(cli, dataset, recording) -> None:
    result = cli.invoke(main, ["verify", *common_args(dataset, recording)])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert [line["verdict"]["label"] for line in lines] == ["half-true", "true"]
    assert [line["gold_label"] for line in lines] == ["half-true", "true"]


@pytest.mark.parametrize(
    ("command", "mode"), [("answer", "kg-augment-only"), ("extract", "naive")]
)
def test_stage_outside_the_mode_is_a_usage_error(
    cli, dataset, recording, monkeypatch, command, mode
) -> None:
    calls: list[str] = []

    class CountingReplay(ReplayBackend):
        def complete(self, request):
            calls.append("complete")
            return super().complete(request)

        def lookup(self, request):
            calls.append("lookup")
            return super().lookup(request)

    monkeypatch.setattr(cli_module, "ReplayBackend", CountingReplay)
    args = [command, *common_args(dataset, recording), "--mode", mode]
    result = cli.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert f"mode {mode!r} has no {command} stage" in result.output
    assert calls == []


def test_stage_command_runs_workers_cases_at_once(cli, dataset, monkeypatch) -> None:
    script = PipelineScript()
    threads: set[int] = set()

    def responder(request):
        threads.add(threading.get_ident())
        time.sleep(0.005)  # long enough for a second case to start
        return script(request)

    monkeypatch.setattr(
        cli_module, "HttpBackend", lambda *_, **__: MockBackend(responder=responder)
    )
    args = [
        "summarise",
        "--dataset",
        str(dataset),
        "--k",
        "3",
        "--model.embed",
        "hash:16",
        "--api-base",
        "https://example.test",
        "--no-cache",
        "--max-inflight",
        "1",  # one thread per case: a case's own calls fan out no further
    ]
    outputs = {}
    for workers in ("1", "2"):
        threads.clear()
        result = cli.invoke(main, [*args, "--workers", workers])
        assert result.exit_code == 0, result.output
        outputs[workers] = result.output
        assert len(threads) == int(workers)
    assert outputs["2"] == outputs["1"]
    assert [json.loads(line)["case_id"] for line in outputs["1"].splitlines()] == [
        "case-000",
        "case-001",
    ]


def test_run_and_eval_commands(cli, dataset, recording, tmp_path) -> None:
    run_dir = tmp_path / "cli-run"
    result = cli.invoke(
        main,
        [
            "run",
            *common_args(dataset, recording),
            "--run-dir",
            str(run_dir),
        ],
    )
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["done"] == 2
    assert summary["failed"] == 0
    assert (run_dir / "metrics.json").exists()

    eval_result = cli.invoke(main, ["eval", "--run-dir", str(run_dir)])
    assert eval_result.exit_code == 0, eval_result.output
    payload = json.loads(eval_result.output.strip().splitlines()[-1])
    assert payload["evaluated"] == 2
    assert payload["report"]["macro"]["f1"] == 1.0
    assert payload["weighted"]["alignscore_macro"]["mean"] is not None
    assert (
        payload["weighted"]["alignscore_weighted"]["mean"]
        <= payload["weighted"]["alignscore_macro"]["mean"]
    )
    assert (run_dir / "evaluation.json").exists()
    assert (run_dir / "metrics.md").read_text().startswith("| Run | Pr | Re | F1 |")


def test_run_closes_its_recording(cli, dataset, recording, tmp_path, monkeypatch) -> None:
    from contrafact import cli as cli_module

    closed: list[str] = []

    class TrackedWriter(RecordingWriter):
        def close(self) -> None:
            closed.append(str(self.path))
            super().close()

    monkeypatch.setattr(cli_module, "RecordingWriter", TrackedWriter)
    run_dir = tmp_path / "cli-run"
    out = tmp_path / "again.jsonl"
    args = ["run", *common_args(dataset, recording), "--record", str(out)]
    result = cli.invoke(main, [*args, "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert closed == [str(out)]
    assert out.read_text().splitlines()  # every call was flushed to the file

    # a run that fails (config digest mismatch) still closes the recording
    result = cli.invoke(main, [*args, "--k", "4", "--run-dir", str(run_dir), "--resume"])
    assert result.exit_code != 0
    assert closed == [str(out)] * 2


def test_run_requires_resume_for_existing_directory(cli, dataset, recording, tmp_path) -> None:
    run_dir = tmp_path / "cli-run"
    args = ["run", *common_args(dataset, recording), "--run-dir", str(run_dir)]
    assert cli.invoke(main, args).exit_code == 0
    blocked = cli.invoke(main, args)
    assert blocked.exit_code != 0
    assert "--resume" in blocked.output
    resumed = cli.invoke(main, [*args, "--resume"])
    assert resumed.exit_code == 0, resumed.output
    summary = json.loads(resumed.output.strip().splitlines()[-1])
    assert summary["skipped"] == 2
    assert summary["executed"] == 0


def test_a_recording_cut_off_mid_line_replays_the_calls_before_the_cut(
    cli, dataset, recording, tmp_path, caplog
) -> None:
    data = recording.read_bytes()
    cut = data[: len(data) // 2]
    assert not cut.endswith(b"\n")
    recording.write_bytes(cut)
    args = common_args(dataset, recording)
    for command in (["run", *args, "--run-dir", str(tmp_path / "r")], ["extract", *args]):
        result = cli.invoke(main, command)
        assert result.exit_code == 0, result.output
    assert "skipping the last line, cut off mid-line" in caplog.text


def test_a_corrupt_recording_line_is_a_cli_error_that_names_it(
    cli, dataset, recording, tmp_path
) -> None:
    lines = recording.read_bytes().splitlines(keepends=True)
    lines[2] = b"not json\n"
    recording.write_bytes(b"".join(lines))
    args = common_args(dataset, recording)
    for command in (["run", *args, "--run-dir", str(tmp_path / "r")], ["extract", *args]):
        result = cli.invoke(main, command)
        assert result.exit_code == 1
        assert f"Error: {recording}:3: not a recorded call" in result.output


def test_a_failed_cache_write_is_a_cli_error(
    cli, dataset, recording, tmp_path, monkeypatch
) -> None:
    def full_disk(self, request, response):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(ResponseCache, "put", full_disk)
    args = [arg for arg in common_args(dataset, recording) if arg != "--no-cache"]
    args += ["--cache-dir", str(tmp_path / "cache")]
    for command in (["run", *args, "--run-dir", str(tmp_path / "r")], ["extract", *args]):
        result = cli.invoke(main, command)
        assert result.exit_code == 1
        assert f"Error: [Errno {errno.ENOSPC}] No space left on device" in result.output


def test_run_without_backend_is_a_config_error(cli, dataset, tmp_path) -> None:
    result = cli.invoke(
        main,
        [
            "run",
            "--dataset",
            str(dataset),
            "--run-dir",
            str(tmp_path / "r"),
        ],
    )
    assert result.exit_code != 0
    assert "--api-base or --replay" in result.output


def test_bad_header_is_a_config_error(cli, dataset, recording, tmp_path) -> None:
    args = [
        "run",
        *common_args(dataset, recording),
        "--api-base",
        "https://example.test",
        "--run-dir",
        str(tmp_path / "r"),
    ]
    result = cli.invoke(main, [*args, "--header", "malformed-no-colon"])
    assert result.exit_code != 0
    assert "Name: value" in result.output

    # the same header from a config file reaches --header too
    config_file = tmp_path / "header.conf"
    config_file.write_text("header = malformed-no-colon\n")
    result = cli.invoke(main, ["--config", str(config_file), *args])
    assert result.exit_code != 0
    assert "Name: value" in result.output


def test_config_file_supplies_defaults(cli, dataset, recording, tmp_path) -> None:
    config_file = tmp_path / "run.conf"
    config_file.write_text(
        "\n".join(
            [
                "# fixture configuration",
                f"dataset={dataset}",
                "scheme=liar-raw",
                "split=test",
                "k=3",
                "model.embed=hash:16",
                f"replay={recording}",
                "no-cache=true",
            ]
        )
    )
    result = cli.invoke(main, ["--config", str(config_file), "verify"])
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in result.output.strip().splitlines()]
    assert len(lines) == 2


def test_config_file_rejects_an_unknown_key(cli, dataset, recording, tmp_path) -> None:
    config_file = tmp_path / "run.conf"
    config_file.write_text("temperature=0.2\n")
    args = ["--config", str(config_file), "verify", *common_args(dataset, recording)]
    result = cli.invoke(main, args)
    assert result.exit_code != 0
    assert "unknown key 'temperature'" in result.output


def test_read_config_file_rejects_garbage(tmp_path) -> None:
    path = tmp_path / "bad.conf"
    path.write_text("this is not a pair")
    with pytest.raises(Exception):
        read_config_file(path)


def test_gateway_tuning_flags_are_accepted(cli, dataset, recording) -> None:
    result = cli.invoke(
        main,
        [
            "verify",
            *common_args(dataset, recording),
            "--http-timeout",
            "5",
            "--gateway-retries",
            "0",
            "--gateway-wall-budget",
            "10",
            "--max-inflight",
            "2",
        ],
    )
    assert result.exit_code == 0, result.output


@pytest.mark.parametrize(
    ("flag", "value"),
    [
        pytest.param(flag, value, id=flag)
        for flag, value in [
            ("--workers", "0"),
            ("--max-inflight", "0"),
            ("--k", "0"),
            ("--extraction-retries", "-1"),
            ("--limit", "-1"),
            ("--candidate-limit", "-1"),
        ]
    ],
)
def test_zero_width_is_a_usage_error(cli, dataset, recording, flag, value) -> None:
    result = cli.invoke(main, ["verify", *common_args(dataset, recording), flag, value])
    assert result.exit_code == 2, result.output
    assert flag in result.output


@pytest.mark.parametrize(
    ("flag", "value"),
    [
        ("--max-tokens", "-7"),
        ("--max-tokens", "0"),
        ("--answer-max-tokens", "0"),
        ("--context-budget", "-5"),
        ("--context-budget", "0"),
        ("--gateway-retries", "-1"),
        ("--http-timeout", "0"),
        ("--http-timeout", "-1"),
        ("--gateway-wall-budget", "-1"),
    ],
)
def test_a_nonsensical_number_is_a_usage_error(
    cli, dataset, recording, flag, value
) -> None:
    result = cli.invoke(main, ["verify", *common_args(dataset, recording), flag, value])
    assert result.exit_code == 2, result.output
    assert flag in result.output


def test_a_missing_template_stops_the_run_and_a_resume_finishes_it(
    cli, dataset, recording, tmp_path
) -> None:
    templates = tmp_path / "templates"
    shutil.copytree(Path(prompts.__file__).parent / "templates", templates)
    missing = templates / "summarise.txt"
    missing.rename(tmp_path / "summarise.txt")
    args = ["run", *common_args(dataset, recording), "--templates", str(templates)]

    cut = cli.invoke(main, [*args, "--run-dir", str(tmp_path / "cut")])
    assert cut.exit_code == 1, cut.output
    assert str(missing) in cut.output
    assert not RunDirectory(tmp_path / "cut").has_record_files()

    (tmp_path / "summarise.txt").rename(missing)
    resumed = cli.invoke(main, [*args, "--run-dir", str(tmp_path / "cut"), "--resume"])
    assert resumed.exit_code == 0, resumed.output
    whole = cli.invoke(main, [*args, "--run-dir", str(tmp_path / "whole")])
    assert whole.exit_code == 0, whole.output
    names = ["records/case-000.json", "records/case-001.json", "metrics.json"]
    for name in names:
        assert (tmp_path / "cut" / name).read_bytes() == (
            tmp_path / "whole" / name
        ).read_bytes()


@pytest.mark.parametrize("broken", ["missing", "stray-brace"])
def test_a_bad_template_stops_the_run_before_any_call(
    cli, dataset, recording, tmp_path, broken
) -> None:
    templates = tmp_path / "templates"
    shutil.copytree(Path(prompts.__file__).parent / "templates", templates)
    bad = templates / "summarise.txt"
    if broken == "missing":
        bad.unlink()
    else:
        bad.write_text(bad.read_text(encoding="utf-8") + "{", encoding="utf-8")
    calls, run_dir = tmp_path / "calls.jsonl", tmp_path / "run"
    result = cli.invoke(
        main,
        ["run", *common_args(dataset, recording), "--templates", str(templates),
         "--record", str(calls), "--run-dir", str(run_dir)],
    )
    assert result.exit_code == 1, result.output
    assert str(bad) in result.output
    assert not calls.exists() or calls.read_text() == ""
    assert not run_dir.exists()


@pytest.mark.parametrize("embed", ["hash:abc", "hash:", "hash:0"])
@pytest.mark.parametrize("command", ["run", "extract"])
def test_a_malformed_hash_embedder_id_is_a_usage_error(
    cli, dataset, recording, tmp_path, command, embed
) -> None:
    args = [command, *common_args(dataset, recording), "--model.embed", embed]
    if command == "run":
        args += ["--run-dir", str(tmp_path / "run")]
    result = cli.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert repr(embed) in result.output
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["run", "extract"])
@pytest.mark.parametrize(
    "text",
    [
        pytest.param("{not json", id="not-json"),
        pytest.param('{"entities": [{"text": "T"}]}', id="no-output"),
    ],
)
def test_a_bad_fewshot_file_is_a_cli_error_that_records_nothing(
    cli, dataset, recording, tmp_path, command, text
) -> None:
    fewshot = tmp_path / "fewshot.json"
    fewshot.write_text(text, encoding="utf-8")
    run_dir = tmp_path / "run"
    extra = ["--run-dir", str(run_dir)] if command == "run" else []
    result = cli.invoke(
        main,
        [command, *common_args(dataset, recording), "--fewshot", str(fewshot), *extra],
    )
    assert result.exit_code == 1, result.output
    assert f"unusable few-shot file {fewshot}" in result.output
    assert not run_dir.exists()


@pytest.mark.parametrize("ids", [",", " , ", ""])
@pytest.mark.parametrize("command", ["run", "verify"])
def test_ids_that_name_no_id_are_a_usage_error(
    cli, dataset, recording, tmp_path, command, ids
) -> None:
    args = [command, *common_args(dataset, recording), "--ids", ids]
    if command == "run":
        args += ["--run-dir", str(tmp_path / "run")]
    result = cli.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "--ids" in result.output
    assert not (tmp_path / "run").exists()


def test_out_flag_writes_jsonl(cli, dataset, recording, tmp_path) -> None:
    out = tmp_path / "verdicts.jsonl"
    result = cli.invoke(
        main, ["verify", *common_args(dataset, recording), "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 2


def _rawfc_run(tmp_path):
    """A three-case rawfc run: half and true right, false called true."""
    data = tmp_path / "rawfc-data"
    write_fixture_dataset(data, n=3, labels=["half", "true", "false"])
    config = RunConfig(
        dataset=str(data), scheme="rawfc", k=3, models=StageModels(embed="hash:16")
    )
    gateway = LlmGateway(
        scripted_backend(
            verdict_for={"Marlow0": "half", "Marlow1": "true", "Marlow2": "true"}
        ),
        embedder=HashEmbedder(16),
        sleep=lambda _: None,
    )
    run(config, tmp_path / "rawfc-run", gateway)
    return tmp_path / "rawfc-run"


def test_eval_takes_the_scheme_of_the_run(cli, tmp_path) -> None:
    run_dir = _rawfc_run(tmp_path)
    result = cli.invoke(main, ["eval", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output.strip().splitlines()[-1])
    assert payload["scheme"] == "rawfc"
    # false: P=R=F1=0; half: 1, 1, 1; true: P=1/2, R=1, F1=2/3
    assert payload["report"]["macro"]["f1"] == pytest.approx(5 / 9)
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert payload["report"] == metrics["report"]
    assert payload["config_digest"] == metrics["config_digest"]

    # a second eval replaces both of its files rather than rewriting them
    for name in ("evaluation.json", "metrics.md"):
        (tmp_path / name).hardlink_to(run_dir / name)
    assert cli.invoke(main, ["eval", "--run-dir", str(run_dir), "--name", "again"]).exit_code == 0
    for name in ("evaluation.json", "metrics.md"):
        assert (run_dir / name).stat().st_ino != (tmp_path / name).stat().st_ino
    assert "| again |" in (run_dir / "metrics.md").read_text()
    assert not list(run_dir.rglob("*.tmp"))


def _tree(root) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def test_eval_without_run_json_or_records_is_an_error(cli, tmp_path) -> None:
    run_dir = _rawfc_run(tmp_path)
    (run_dir / "run.json").unlink()
    before = _tree(run_dir)
    result = cli.invoke(main, ["eval", "--run-dir", str(run_dir)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert "no run.json" in result.output
    assert _tree(run_dir) == before

    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "run.json").write_text(
        json.dumps({"config_digest": "d", "config": {"scheme": "rawfc", "mode": "full"}})
    )
    result = cli.invoke(main, ["eval", "--run-dir", str(empty)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "no finished case" in result.output
    assert _tree(empty) == ["run.json"]

    (empty / "run.json").write_text(
        json.dumps({"config_digest": "d", "config": {"scheme": "no-such", "mode": "full"}})
    )
    result = cli.invoke(main, ["eval", "--run-dir", str(empty)])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "no-such" in result.output


@pytest.mark.parametrize("command", ["stats", "run", "extract"])
def test_unknown_scheme_is_a_usage_error(cli, dataset, recording, tmp_path, command) -> None:
    run_dir = tmp_path / "cli-run"
    if command == "stats":
        args = ["stats", "--dataset", str(dataset)]
    else:
        args = [command, *common_args(dataset, recording)]
    if command == "run":
        args += ["--run-dir", str(run_dir)]
    result = cli.invoke(main, [*args, "--scheme", "bogus"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert "unknown scheme: 'bogus'" in result.output
    assert not run_dir.exists()


def test_a_file_that_is_not_json_is_named_by_eval_and_resume(
    cli, dataset, recording, tmp_path
) -> None:
    run_dir = tmp_path / "cli-run"
    args = ["run", *common_args(dataset, recording), "--run-dir", str(run_dir)]
    assert cli.invoke(main, args).exit_code == 0
    for path in (sorted((run_dir / "records").iterdir())[0], run_dir / "run.json"):
        path.write_text('{"trunc')
        for command in (["eval", "--run-dir", str(run_dir)], [*args, "--resume"]):
            result = cli.invoke(main, command)
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert f"{path} is not JSON" in result.output
        assert not (run_dir / "evaluation.json").exists()


def test_eval_holds_one_parsed_record_at_a_time(cli, tmp_path, monkeypatch) -> None:
    data = tmp_path / "data"
    write_fixture_dataset(data, n=8, labels=["true", "false"])
    config = RunConfig(dataset=str(data), scheme="liar-raw", k=3, models=StageModels(embed="hash:16"))
    gateway = LlmGateway(
        scripted_backend(), embedder=HashEmbedder(16), sleep=lambda _: None
    )
    run(config, tmp_path / "run", gateway)

    class Tracked(dict):  # a plain dict cannot be weakly referenced
        pass

    live: list[weakref.ref] = []  # dicts are unhashable, so no WeakSet
    alive_at_read: list[int] = []
    payloads = RunDirectory.record_payloads

    def tracked(self):
        for payload in payloads(self):
            # what eval still holds when it asks for the next record
            alive_at_read.append(sum(1 for ref in live if ref() is not None))
            record = Tracked(payload)
            del payload
            live.append(weakref.ref(record))
            yield record

    monkeypatch.setattr(RunDirectory, "record_payloads", tracked)
    for flag in ("--weighted", "--no-weighted"):
        alive_at_read.clear()
        result = cli.invoke(main, ["eval", "--run-dir", str(tmp_path / "run"), flag])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output.strip().splitlines()[-1])["cases"] == 8
        assert len(alive_at_read) == 8 and max(alive_at_read) <= 1


def test_config_file_gives_a_repeatable_key_every_value(
    cli, dataset, tmp_path, monkeypatch
) -> None:
    sent: list[dict] = []

    def backend(api_base, headers, timeout):
        sent.append(headers)
        return scripted_backend(verdict_for={"Marlow0": "half-true", "Marlow1": "true"})

    monkeypatch.setattr(cli_module, "HttpBackend", backend)
    config_file = tmp_path / "headers.conf"
    config_file.write_text("header = A: 1\nk = 3\nheader = B: 2\n")
    args = ["--dataset", str(dataset), "--model.embed", "hash:16", "--no-cache"]
    result = cli.invoke(
        main,
        ["--config", str(config_file), "verify", *args, "--api-base", "http://localhost:9"],
    )
    assert result.exit_code == 0, result.output
    assert sent == [{"A": "1", "B": "2"}]


def test_config_file_rejects_a_repeated_single_value_key(
    cli, dataset, recording, tmp_path
) -> None:
    config_file = tmp_path / "run.conf"
    config_file.write_text("# k twice\nk = 3\nsplit = test\nk = 4\n")
    args = ["--config", str(config_file), "verify", *common_args(dataset, recording)]
    result = cli.invoke(main, args)
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    assert "'k'" in result.output and "lines 2 and 4" in result.output


def _cli_args(command: str, dataset, recording, run_dir) -> list[str]:
    if command == "stats":
        return ["stats", "--dataset", str(dataset)]
    return ["run", *common_args(dataset, recording), "--run-dir", str(run_dir)]


@pytest.mark.parametrize("command", ["stats", "run"])
def test_a_dataset_file_that_is_not_utf8_is_a_cli_error_that_names_it(
    cli, recording, tmp_path, command
) -> None:
    data = tmp_path / "latin-1"
    data.mkdir()
    bad = data / "test.json"
    bad.write_bytes(b'[{"event_id": "caf\xe9", "claim": "A claim."}]')
    run_dir = tmp_path / "cli-run"
    result = cli.invoke(main, _cli_args(command, data, recording, run_dir))
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert f"unreadable dataset file {bad}" in result.output
    assert not run_dir.exists()


@pytest.mark.parametrize("command", ["stats", "run"])
@pytest.mark.parametrize(
    "content",
    ['{"name": "x"}', "not json", "[]", '{"name": "x", "labels": [{"label": 1, "value": 1}]}'],
    ids=["no-labels", "not-json", "not-an-object", "label-not-a-string"],
)
def test_a_malformed_scheme_file_is_a_cli_error_that_names_it(
    cli, dataset, recording, tmp_path, command, content
) -> None:
    scheme = tmp_path / "scheme.json"
    scheme.write_text(content)
    run_dir = tmp_path / "cli-run"
    args = _cli_args(command, dataset, recording, run_dir)
    result = cli.invoke(main, [*args, "--scheme", str(scheme)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert f"malformed scheme file {scheme}" in result.output
    assert not run_dir.exists()


def test_a_case_whose_id_starts_with_a_dot_is_evaluated_and_resumed(cli, tmp_path) -> None:
    data = tmp_path / "data"
    write_canonical([replace(make_case(0), id=".hidden"), make_case(2)], data)
    config = RunConfig(dataset=str(data), scheme="liar-raw", k=3, models=StageModels(embed="hash:16"))
    gateway = LlmGateway(
        scripted_backend(verdict_for={"Marlow0": "half-true", "Marlow2": "half-true"}),
        embedder=HashEmbedder(16),
        sleep=lambda _: None,
    )
    run_dir = tmp_path / "run"
    run(config, run_dir, gateway)
    names = sorted(p.name for p in (run_dir / "records").iterdir())
    assert len(names) == 2 and not [n for n in names if n.startswith(".")]
    result = cli.invoke(main, ["eval", "--run-dir", str(run_dir)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output.strip().splitlines()[-1])["cases"] == 2
    assert run(config, run_dir, gateway).skipped == 2


@pytest.mark.parametrize(
    "meta",
    [
        [],
        "run",
        {"config_digest": "d", "config": []},
        {"config_digest": "d", "config": "full"},
        {"config_digest": "d", "config": {"scheme": "rawfc"}},
    ],
    ids=["list", "string", "config-list", "config-string", "config-without-mode"],
)
def test_eval_reports_a_malformed_run_json_as_a_cli_error(cli, tmp_path, meta) -> None:
    run_dir = _rawfc_run(tmp_path)
    (run_dir / "run.json").write_text(json.dumps(meta))
    before = _tree(run_dir)
    result = cli.invoke(main, ["eval", "--run-dir", str(run_dir)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a ClickException, no traceback
    assert f"cannot read the mode and scheme of {run_dir} from its run.json" in result.output
    assert _tree(run_dir) == before


@pytest.mark.parametrize("field", ["digest", "response"])
def test_a_replay_line_whose_digest_or_response_is_not_a_string_is_a_cli_error(
    cli, dataset, recording, tmp_path, field
) -> None:
    lines = recording.read_bytes().splitlines(keepends=True)
    call = json.loads(lines[2])
    call[field] = None
    lines[2] = json.dumps(call).encode("utf-8") + b"\n"
    recording.write_bytes(b"".join(lines))
    args = [arg for arg in common_args(dataset, recording) if arg != "--no-cache"]
    args += ["--cache-dir", str(tmp_path / "cache")]
    run_dir = tmp_path / "r"
    result = cli.invoke(main, ["run", *args, "--run-dir", str(run_dir)])
    assert result.exit_code == 1
    assert f"Error: {recording}:3: not a recorded call" in result.output
    assert not run_dir.exists()
    assert not [p for p in (tmp_path / "cache").rglob("*") if p.is_file()]
