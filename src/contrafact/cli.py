"""Command-line surface: per-stage commands, full runs, evaluation, stats."""

from __future__ import annotations

import json
import logging
from contextlib import contextmanager
from dataclasses import fields
from itertools import islice
from pathlib import Path
from typing import Iterator

import click

from .corpus import SPLITS, DatasetError, DatasetLoader, dataset_stats
from .gateway import (
    HttpBackend,
    HttpEmbedder,
    LlmGateway,
    RecordingWriter,
    ReplayBackend,
    ResponseCache,
    RetryPolicy,
)
from .gateway.embedding import parse_embedder_id
from .metrics import (
    ALIGN_RANGE,
    RQUGE_RANGE,
    TokenOverlapScorer,
    metrics_markdown,
    weighted_run_report,
)
from .prompts import PromptError
from .runner import (
    MODES,
    PIPELINES,
    CaseRunner,
    CaseSummary,
    PipelineRecord,
    RunConfig,
    RunDirectory,
    RunFileError,
    StageModels,
    compute_metrics,
    run,
    stream_cases,
)
from .verification import SchemeError, load_scheme


def read_config_file(path: Path) -> dict[str, list[tuple[int, str]]]:
    """Flat key=value config; keys mirror the long flags (dots allowed).
    Each key maps to its (line number, value) pairs, in file order."""
    values: dict[str, list[tuple[int, str]]] = {}
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise click.ClickException(f"{path}:{i}: expected key=value, got {line!r}")
        key, value = stripped.split("=", 1)
        values.setdefault(key.strip(), []).append((i, value.strip()))
    return values


@click.group()
@click.option(
    "--config",
    "config_path",
    type=click.Path(exists=True, path_type=Path),
    default=None,
    help="key=value file mirroring the flags",
)
@click.option("--verbose", is_flag=True, default=False)
@click.pass_context
def main(ctx: click.Context, config_path: Path | None, verbose: bool) -> None:
    """Claim verification through contrastive questioning over extracted graphs."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    if config_path is not None:
        # a key is a long flag of some subcommand, without its dashes
        params = {
            opt[2:]: param
            for command in main.commands.values()
            for param in command.params
            for opt in param.opts
            if opt.startswith("--")
        }
        values = {}
        for key, lines in read_config_file(config_path).items():
            if key not in params:
                raise click.ClickException(f"{config_path}: unknown key {key!r}")
            param = params[key]
            if param.multiple:
                values[param.name] = tuple(value for _, value in lines)
            elif len(lines) > 1:
                raise click.ClickException(
                    f"{config_path}: key {key!r} is set on lines "
                    f"{lines[0][0]} and {lines[1][0]}"
                )
            else:
                values[param.name] = lines[0][1]
        ctx.default_map = {command: values for command in main.commands}


def dataset_options(f):
    f = click.option("--ids", help="comma-separated case ids")(f)
    f = click.option("--limit", type=click.IntRange(min=0))(f)
    f = click.option(
        "--split", type=click.Choice(SPLITS), default=RunConfig.split, show_default=True
    )(f)
    f = click.option("--scheme", default="liar-raw", show_default=True)(f)
    f = click.option(
        "--dataset", required=True, type=click.Path(exists=True, path_type=Path)
    )(f)
    return f


def model_options(f):
    """One `--model.<stage>` option per `StageModels` field."""
    for model in reversed(fields(StageModels)):
        f = click.option(
            f"--model.{model.name}",
            f"model_{model.name}",
            default=model.default,
            show_default=True,
        )(f)
    return f


def gateway_options(f):
    f = click.option("--gateway-wall-budget", type=click.FloatRange(min=0), default=RetryPolicy.wall_budget, show_default=True, help="max seconds per call incl. retries")(f)
    f = click.option("--gateway-retries", type=click.IntRange(min=0), default=RetryPolicy.max_retries, show_default=True)(f)
    f = click.option("--http-timeout", type=click.FloatRange(min=0, min_open=True), default=60.0, show_default=True)(f)
    f = click.option("--max-inflight", type=click.IntRange(min=1), default=8, show_default=True, help="model calls running at once")(f)
    f = click.option("--no-cache", is_flag=True, default=False)(f)
    f = click.option("--cache-dir", type=click.Path(path_type=Path), default=Path("cache"), show_default=True)(f)
    f = click.option("--replay", "replay_path", type=click.Path(exists=True, path_type=Path), default=None)(f)
    f = click.option("--record", "record_path", type=click.Path(path_type=Path), default=None)(f)
    f = click.option(
        "--header",
        "headers",
        multiple=True,
        help='extra HTTP header, "Name: value"; $VARS expand from the environment',
    )(f)
    f = click.option("--api-base", default=None, help="chat-completions base URL")(f)
    return f


def pipeline_options(f):
    f = click.option("--templates", "template_dir", type=click.Path(exists=True, path_type=Path))(f)
    f = click.option("--fewshot", "fewshot_path", type=click.Path(exists=True, path_type=Path))(f)
    f = click.option("--extraction-retries", type=click.IntRange(min=0), default=RunConfig.extraction_retries, show_default=True)(f)
    f = click.option("--context-budget", "context_char_budget", type=click.IntRange(min=1), default=RunConfig.context_char_budget, show_default=True)(f)
    f = click.option("--answer-max-tokens", type=click.IntRange(min=1), default=RunConfig.answer_max_tokens, show_default=True)(f)
    f = click.option("--max-tokens", type=click.IntRange(min=1), default=RunConfig.max_tokens, show_default=True)(f)
    f = click.option("--candidate-limit", type=click.IntRange(min=0))(f)
    f = click.option(
        "--workers",
        type=click.IntRange(min=1),
        default=RunConfig.workers,
        show_default=True,
        help="most cases running at once; cases go to threads only once a "
        "model call has to wait, so a run the cache answers uses one thread",
    )(f)
    f = click.option(
        "--mode", type=click.Choice(MODES), default=RunConfig.mode, show_default=True
    )(f)
    f = click.option("--k", type=click.IntRange(min=1), default=RunConfig.k, show_default=True)(f)
    return f


def case_options(f):
    """The options of every command that runs cases: `run` and the stages."""
    return dataset_options(model_options(gateway_options(pipeline_options(f))))


def _build_config(kw: dict) -> RunConfig:
    """Each `RunConfig` field from the option of its name, a path as its
    string (the config digest hashes it), plus the split `--ids` and models."""
    values = {
        f.name: str(kw[f.name]) if isinstance(kw[f.name], Path) else kw[f.name]
        for f in fields(RunConfig)
        if f.name in kw
    }
    if kw["ids"] is not None:
        ids = tuple(part.strip() for part in kw["ids"].split(",") if part.strip())
        if not ids:
            raise click.UsageError(f"--ids names no case id: {kw['ids']!r}")
        values["ids"] = ids
    values["models"] = StageModels(
        **{model.name: kw[f"model_{model.name}"] for model in fields(StageModels)}
    )
    return RunConfig(**values)


# The errors a command that runs cases reports as CLI errors: a bad dataset
# or scheme, an unreadable run file or recording (a `RuntimeError`), a failed
# write of a run file, the cache or the recording (an `OSError`), and a
# missing or unusable template or few-shot file.
RUN_ERRORS = (DatasetError, SchemeError, RuntimeError, OSError, PromptError)


def _parse_headers(raw: tuple[str, ...]) -> dict[str, str]:
    headers = {}
    for item in raw:
        if ":" not in item:
            raise click.ClickException(f'header must look like "Name: value": {item!r}')
        name, value = item.split(":", 1)
        headers[name.strip()] = value.strip()
    return headers


@contextmanager
def _open_gateway(kw: dict, config: RunConfig) -> Iterator[LlmGateway]:
    """The configured gateway; its recording file is closed on the way out."""
    try:
        embedder = parse_embedder_id(config.models.embed)
    except ValueError as exc:
        raise click.UsageError(f"--model.embed: {exc}") from None
    headers = _parse_headers(kw["headers"])
    timeout = kw["http_timeout"]
    if kw["replay_path"]:
        backend = ReplayBackend(kw["replay_path"])
    elif kw["api_base"]:
        backend = HttpBackend(kw["api_base"], headers=headers, timeout=timeout)
    else:
        raise click.ClickException(
            "no backend configured: pass --api-base or --replay"
        )
    if embedder is None:
        if kw["api_base"]:
            embedder = HttpEmbedder(
                kw["api_base"],
                model_id=config.models.embed,
                headers=headers,
                timeout=timeout,
            )
        elif not kw["replay_path"]:
            # replay runs serve embeddings from the recording itself
            raise click.ClickException(
                f"embedding model {config.models.embed!r} needs --api-base "
                '(use "hash:<dim>" for the offline embedder)'
            )
    cache = None if kw["no_cache"] else ResponseCache(kw["cache_dir"])
    recorder = RecordingWriter(kw["record_path"]) if kw["record_path"] else None
    try:
        yield LlmGateway(
            backend,
            embedder=embedder,
            cache=cache,
            recorder=recorder,
            retry=RetryPolicy(
                max_retries=kw["gateway_retries"],
                wall_budget=kw["gateway_wall_budget"],
            ),
            max_in_flight=kw["max_inflight"],
        )
    finally:
        if recorder is not None:
            recorder.close()


def _emit(payloads: list[dict], out: Path | None) -> None:
    lines = [json.dumps(p, sort_keys=True) for p in payloads]
    if out is None:
        for line in lines:
            click.echo(line)
    else:
        out.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


# Each stage command: the record fields it prints, and its help line.
STAGE_COMMANDS = {
    "extract": (("kg",), "Extract one merged knowledge graph per selected case."),
    "questions": (
        ("candidate_count", "questions", "trace"),
        "Generate and rank contrastive questions per selected case.",
    ),
    "answer": (("qa_pairs",), "Answer the ranked questions from the reports."),
    "summarise": (
        ("summary",),
        "Summarise the question/answer pairs into one paragraph.",
    ),
    "verify": (
        ("verdict", "gold_label"),
        "Run the pipeline through veracity classification.",
    ),
}


def _stage_command(stage: str, printed: tuple[str, ...], help_text: str) -> None:
    """Register the command that runs each selected case of `--mode` through
    `stage` and prints one JSON line per case, in dataset order."""

    @main.command(name=stage, help=help_text)
    @case_options
    @click.option("--out", type=click.Path(path_type=Path), default=None)
    def command(**kw) -> None:
        config = _build_config(kw)
        stages = [name for name, *_ in PIPELINES[config.mode]]
        if stage not in stages:
            raise click.UsageError(
                f"mode {config.mode!r} has no {stage} stage; "
                f"its stages are {', '.join(stages)}"
            )
        try:
            scheme = load_scheme(config.scheme)
            cases = stream_cases(DatasetLoader(config.dataset, scheme), config)
            with _open_gateway(kw, config) as gateway:
                case_runner = CaseRunner(config, scheme, gateway)
                results = gateway.map(
                    lambda case: case_runner.run_case(case, stop_after=stage),
                    cases,
                    width=config.workers,
                )
        except RUN_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc
        payloads = []
        for record in results:
            payload = {"case_id": record.case_id, "status": record.status}
            if record.failure:
                payload["failure"] = record.failure
            for name in printed:
                payload[name] = getattr(record, name)
            payloads.append(payload)
        _emit(payloads, kw["out"])


for _stage, (_printed, _help) in STAGE_COMMANDS.items():
    _stage_command(_stage, _printed, _help)


@main.command(name="run")
@case_options
@click.option("--run-dir", type=click.Path(path_type=Path), required=True)
@click.option("--resume", is_flag=True, default=False, help="reuse an existing run directory")
@click.option("--retry-failed", is_flag=True, default=False)
def run_command(**kw) -> None:
    """Execute the configured mode over the dataset into a run directory."""
    config = _build_config(kw)
    run_dir: Path = kw["run_dir"]
    if RunDirectory(run_dir).has_record_files() and not kw["resume"]:
        raise click.ClickException(
            f"{run_dir} already holds finished cases; pass --resume to continue it"
        )
    try:
        with _open_gateway(kw, config) as gateway:
            result = run(config, run_dir, gateway)
    except RUN_ERRORS as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(
        json.dumps(
            {
                "run_dir": str(result.run_dir),
                "total": result.total,
                "executed": result.executed,
                "done": result.done,
                "failed": result.failed,
                "skipped": result.skipped,
                "macro_f1": (result.metrics.get("report") or {})
                .get("macro", {})
                .get("f1"),
            },
            sort_keys=True,
        )
    )


@main.command(name="eval")
@click.option("--run-dir", type=click.Path(exists=True, path_type=Path), required=True)
@click.option("--name", default="run", show_default=True, help="row label for the table")
@click.option("--weighted/--no-weighted", default=True, show_default=True)
def eval_command(run_dir: Path, name: str, weighted: bool) -> None:
    """Recompute metrics over a run directory; write its evaluation report
    and Pr/Re/F1 table. Scheme, mode and config digest come from run.json."""
    directory = RunDirectory(run_dir)
    try:
        meta = directory.read_meta()
        if meta is None:
            raise click.ClickException(f"{run_dir} has no run.json; is it a run directory?")
        digest, config = meta["config_digest"], meta["config"]
        mode, scheme = config["mode"], load_scheme(config["scheme"])
    except (LookupError, OSError, TypeError, ValueError, RunFileError) as exc:
        raise click.ClickException(
            f"cannot read the mode and scheme of {run_dir} from its run.json: {exc!r}"
        ) from exc
    directory = RunDirectory(run_dir, scheme)  # a label outside it names its file
    summaries: list[CaseSummary] = []

    def summarised() -> Iterator[dict]:
        for payload in directory.record_payloads():
            summaries.append(CaseSummary.of(PipelineRecord.from_dict(payload)))
            yield payload

    cases = summarised()
    try:
        rows = weighted_run_report(
            cases,
            scheme,
            align_scorer=TokenOverlapScorer(ALIGN_RANGE),
            rquge_scorer=TokenOverlapScorer(RQUGE_RANGE),
        ) if weighted else None
        for _ in cases:  # --no-weighted: the summaries alone
            pass
    except RunFileError as exc:
        raise click.ClickException(str(exc)) from exc
    if not summaries:
        raise click.ClickException(f"{run_dir} holds no finished case")
    payload, report = compute_metrics(summaries, scheme, digest, mode)
    if rows is not None:
        payload["weighted"] = rows
    directory.write_evaluation(
        payload, metrics_markdown(name, report) if report is not None else None
    )
    click.echo(json.dumps(payload, sort_keys=True))


@main.command()
@click.option("--dataset", required=True, type=click.Path(exists=True, path_type=Path))
@click.option("--scheme", default="liar-raw", show_default=True)
@click.option(
    "--split",
    type=click.Choice(SPLITS + ("all",)),
    default="all",
    show_default=True,
)
@click.option("--limit", type=click.IntRange(min=0))
def stats(dataset: Path, scheme: str, split: str, limit: int | None) -> None:
    """Dataset statistics: per-label counts and average reports per claim."""
    try:
        loader = DatasetLoader(dataset, load_scheme(scheme))
        splits = list(SPLITS) if split == "all" else [split]
        payload = dataset_stats(islice(loader.iter_cases(splits), limit)).to_dict()
    except (DatasetError, SchemeError) as exc:
        raise click.ClickException(str(exc)) from exc
    payload["diagnostics"] = len(loader.diagnostics)
    click.echo(json.dumps(payload, sort_keys=True, indent=2))


if __name__ == "__main__":
    main(prog_name="contrafact")
