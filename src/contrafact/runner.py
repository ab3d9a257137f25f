"""Run orchestration: per-case pipeline execution with resumable records.

Layout of a run directory:

    runs/<name>/run.json          config echo + config digest (checked on resume)
    runs/<name>/records/<id>.json stable per-case record (replay-deterministic)
    runs/<name>/manifest.jsonl    per-case status + timings, one line per case:
                                  completion order while a run is going,
                                  dataset order once run() returns
    runs/<name>/metrics.json      classification metrics over completed cases
    runs/<name>/evaluation.json   `eval`'s metrics and weighted rows
    runs/<name>/metrics.md        `eval`'s Pr/Re/F1 table

Record files never contain wall-clock data; timings live in the manifest so
that replayed runs are byte-identical regardless of worker width. Every file
is written to a temp file and renamed over the old one, except for the lines
the manifest gains while a run is going.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import os
import re
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Iterator, Sequence

from .contrastive import formulate
from .corpus import ClaimCase, DatasetLoader
from .extraction import extract_case_audited
from .gateway import LlmGateway, ModelRequest
from .jsontext import indented
from .metrics import PrfReport, prf
from .prompts import PromptError, PromptLibrary
from .reasoning import QAPair, answer_questions, build_context, summarise
from .verification import LabelScheme, load_scheme, verify

log = logging.getLogger(__name__)

MODE_FULL = "full"
MODE_NAIVE = "naive"
MODE_KG_ONLY = "kg-augment-only"
MODE_LLM_QUESTIONS = "llm-questions"

_UNSAFE = re.compile(r"^\.|[^A-Za-z0-9._-]")  # a leading dot would hide the file
_QUESTION_MARKER = re.compile(r"^\s*(?:[-*•]\s*)*(?:\(?\d{1,3}\)?\s*[.):\]]\s*)?")


class QuestionParsingError(RuntimeError):
    """Free-form question output yielded no usable questions; `raw` is that
    output."""

    def __init__(self, message: str, raw: str) -> None:
        super().__init__(message)
        self.raw = raw


class RunFileError(RuntimeError):
    """A run-directory file that is not JSON; the message names the file."""


@dataclass(frozen=True)
class StageModels:
    """Per-stage model ids; extraction may use a cheaper model than the rest."""

    extract: str = "default"
    answer: str = "default"
    summarise: str = "default"
    verify: str = "default"
    embed: str = "hash:32"


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    scheme: str
    split: str = "test"
    k: int = 5
    mode: str = MODE_FULL
    models: StageModels = field(default_factory=StageModels)
    workers: int = 1
    max_tokens: int = 1024
    answer_max_tokens: int = 512
    context_char_budget: int = 30000
    candidate_limit: int | None = None
    extraction_retries: int = 2
    limit: int | None = None
    ids: tuple[str, ...] | None = None
    retry_failed: bool = False
    fewshot_path: str | None = None
    template_dir: str | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        for name in ("max_tokens", "answer_max_tokens", "context_char_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.extraction_retries < 0:
            raise ValueError("extraction_retries must be >= 0")
        if self.candidate_limit is not None and self.candidate_limit < 0:
            raise ValueError("candidate_limit must be >= 0")

    def to_dict(self) -> dict:
        """Semantics-affecting fields only.

        The worker width and retry-failed are deliberately excluded: they must
        never change record bytes.
        """
        payload = asdict(self)
        del payload["workers"], payload["retry_failed"]
        payload["ids"] = list(self.ids) if self.ids else None
        return payload

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


STATUS_PARTIAL = "partial"
STATUS_DONE = "done"
STATUS_FAILED = "failed"


@dataclass
class PipelineRecord:
    """Per-claim audit trail; `done` records contain every stage output."""

    case_id: str
    claim: str
    mode: str
    config_digest: str
    gold_label: str | None = None
    status: str = STATUS_PARTIAL
    last_stage: str | None = None
    failure: dict | None = None
    kg: dict | None = None
    extraction_drops: dict | None = None
    candidate_count: int | None = None
    questions: list | None = None
    trace: dict | None = None
    qa_pairs: list | None = None
    summary: dict | None = None
    verdict: dict | None = None
    timings: dict = field(default_factory=dict)  # volatile, manifest-only

    def stable_dict(self) -> dict:
        """Every field but the volatile `timings`."""
        return {name: getattr(self, name) for name in _STABLE_FIELDS}

    def stable_json(self) -> str:
        """The record file's text: `json.dumps(stable_dict(), sort_keys=True,
        indent=2)` and a newline."""
        return indented(self.stable_dict()) + "\n"

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineRecord":
        return cls(**{k: v for k, v in payload.items() if k in _STABLE_FIELDS})


_STABLE_FIELDS = tuple(f.name for f in fields(PipelineRecord) if f.name != "timings")


@dataclass(frozen=True)
class CaseSummary:
    """What metrics need of a finished case; `run()` keeps this, not the record."""

    status: str
    gold_label: str | None
    verdict_label: str | None

    @classmethod
    def of(cls, record: PipelineRecord) -> "CaseSummary":
        return cls(record.status, record.gold_label, (record.verdict or {}).get("label"))


def record_filename(case_id: str) -> str:
    safe = _UNSAFE.sub("_", case_id)
    if safe != case_id:
        safe = f"{safe}-{hashlib.sha256(case_id.encode('utf-8')).hexdigest()[:8]}"
    return f"{safe}.json"


def parse_llm_questions(raw: str, limit: int = 5) -> list[str]:
    """Line-split free-form question lists, stripping bullets and numbering."""
    out: list[str] = []
    for line in raw.splitlines():
        text = _QUESTION_MARKER.sub("", line.strip(), count=1).strip()
        if text:
            out.append(text)
        if len(out) >= limit:
            break
    return out


class RunDirectory:
    """The one owner of the layout above. Constructing one creates nothing;
    `check_or_write_meta`, the first write of `run()`, creates the directory."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.records_dir = self.root / "records"
        self.manifest_path = self.root / "manifest.jsonl"
        self.metrics_path = self.root / "metrics.json"
        self.run_meta_path = self.root / "run.json"

    def record_path(self, case_id: str) -> Path:
        return self.records_dir / record_filename(case_id)

    def read_record(self, case_id: str) -> PipelineRecord | None:
        try:
            payload = _read_json(self.record_path(case_id))
        except FileNotFoundError:
            return None
        return PipelineRecord.from_dict(payload)

    def has_record_files(self) -> bool:
        return next(self._record_names(), None) is not None

    def record_payloads(self) -> Iterator[dict]:
        """Each record file's payload, in file-name order, parsed one at a
        time."""
        for name in sorted(self._record_names()):
            yield _read_json(self.records_dir / name)

    def _record_names(self) -> Iterator[str]:
        try:
            names = os.listdir(self.records_dir)
        except FileNotFoundError:
            return
        for name in names:
            if name.endswith(".json") and not name.startswith("."):
                yield name

    def _write(self, path: Path | str, text: str) -> None:
        """Write `text` to a temp file, then rename it over `path`, so a
        reader never sees a partial file."""
        tmp = f"{path}.tmp"
        data = memoryview(text.encode("utf-8"))
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)

    def write_record(self, record: PipelineRecord) -> None:
        self._write(
            os.path.join(self.records_dir, record_filename(record.case_id)),
            record.stable_json(),
        )

    def read_meta(self) -> dict | None:
        """`run.json`, or None when the directory has none."""
        try:
            return _read_json(self.run_meta_path)
        except FileNotFoundError:
            return None

    def check_or_write_meta(self, config: RunConfig) -> None:
        self.records_dir.mkdir(parents=True, exist_ok=True)
        digest = config.digest()
        existing = self.read_meta()
        if existing is None:
            meta = {"config_digest": digest, "config": config.to_dict()}
            self._write(self.run_meta_path, indented(meta) + "\n")
        elif existing.get("config_digest") != digest:
            raise RuntimeError(
                "run directory was created with a different configuration "
                f"(digest {existing.get('config_digest')!r} != {digest!r})"
            )

    def read_manifest(self) -> dict[str, dict]:
        """Each id's last manifest entry; a line a crash cut short is skipped."""
        try:
            text = self.manifest_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return {}
        entries = {}
        for line in text.splitlines():
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            entries[entry["id"]] = entry
        return entries

    def write_manifest(self, entries: Sequence[dict]) -> None:
        self._write(
            self.manifest_path,
            "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in entries),
        )

    def append_manifest(self, entry: dict) -> None:
        with self.manifest_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")

    def write_metrics(self, payload: dict) -> None:
        self._write(self.metrics_path, indented(payload) + "\n")

    def write_evaluation(self, payload: dict, table: str | None) -> None:
        """`eval`'s report, and its Pr/Re/F1 table when there is one."""
        self._write(self.root / "evaluation.json", indented(payload) + "\n")
        if table is not None:
            self._write(self.root / "metrics.md", table)


def _read_json(path: Path | str):
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return json.loads(data)
    except ValueError as exc:
        raise RunFileError(f"{path} is not JSON: {exc}") from exc


class CaseRunner:
    """Executes the configured mode for one case at a time. Every template
    the mode's stages render is read and checked at construction, so a
    missing or malformed one costs no model call."""

    def __init__(
        self,
        config: RunConfig,
        scheme: LabelScheme,
        gateway: LlmGateway,
    ) -> None:
        self.config = config
        self.scheme = scheme
        self.gateway = gateway
        self.prompts = PromptLibrary(config.template_dir, config.fewshot_path)
        for _, _, templates in PIPELINES[config.mode]:  # before any model call
            for name in templates:
                self.prompts.template(name)
        self._digest = config.digest()

    def run_case(
        self, case: ClaimCase, stop_after: str | None = None
    ) -> PipelineRecord:
        """Run the mode's stages in order, or up to and including `stop_after`.

        Each stage's wall time goes to `record.timings`, and `last_stage`
        names the last stage that finished. A stage that raises fails the
        case at that stage; the record keeps what the earlier stages filled,
        and the model output that failed it, if the error carries one as
        `raw`. An `OSError`, a failed write of the gateway's own cache or
        recording, and a `PromptError`, a missing or unusable template, are
        raised instead: neither is the fault of the case.
        """
        record = PipelineRecord(
            case_id=case.id,
            claim=case.claim,
            mode=self.config.mode,
            config_digest=self._digest,
            gold_label=case.gold_label,
        )
        output = None
        try:
            for stage, step, _ in PIPELINES[self.config.mode]:
                started = time.perf_counter()
                try:
                    output = step(self, case, record, output)
                finally:
                    record.timings[stage] = time.perf_counter() - started
                record.last_stage = stage
                if stage == stop_after:
                    break
            if record.verdict is not None:
                record.status = STATUS_DONE
        except (OSError, PromptError):
            raise
        except Exception as exc:  # per-case failures are recorded, never fatal
            reason = str(exc)
            record.status = STATUS_FAILED
            record.failure = {"stage": stage, "reason": reason}
            if raw := getattr(exc, "raw", None):
                record.failure["raw"] = raw
            log.warning("case %s failed at %s: %s", case.id, stage, reason)
        return record

    # -- stages: (case, record, previous stage's output) -> this stage's output

    def _extract(self, case: ClaimCase, record: PipelineRecord, _):
        extraction = extract_case_audited(
            case,
            self.gateway,
            self.prompts,
            self.config.models.extract,
            self.config.max_tokens,
            self.config.extraction_retries,
        )
        record.kg = extraction.graph.to_dict()
        record.extraction_drops = {
            "entities": extraction.dropped_entities,
            "triples": extraction.dropped_triples,
        }
        return extraction.graph

    def _formulate(self, case: ClaimCase, record: PipelineRecord, graph):
        result = formulate(
            graph,
            self.config.k,
            functools.partial(self.gateway.embed, model=self.config.models.embed),
            candidate_limit=self.config.candidate_limit,
        )
        record.candidate_count = result.candidate_count
        record.questions = [q.to_dict() for q in result.questions]
        record.trace = result.trace.to_dict()
        return list(result.questions)

    def _llm_questions(self, case: ClaimCase, record: PipelineRecord, _) -> list[str]:
        prompt = self.prompts.render(
            "llm_questions", claim=case.claim, reports=self._reports(case)
        )
        raw = self.gateway.complete(
            ModelRequest(
                model=self.config.models.answer,
                prompt=prompt,
                max_tokens=self.config.max_tokens,
            )
        )
        questions = parse_llm_questions(raw, limit=self.config.k)
        if not questions:
            raise QuestionParsingError("no questions extractable from model output", raw)
        record.candidate_count = len(questions)
        record.questions = [{"text": q} for q in questions]
        return questions

    def _answer(
        self, case: ClaimCase, record: PipelineRecord, questions
    ) -> list[QAPair]:
        pairs = answer_questions(
            questions,
            self._reports(case),
            case.claim,
            self.gateway,
            self.prompts,
            self.config.models.answer,
            self.config.answer_max_tokens,
        )
        record.qa_pairs = [pair.to_dict() for pair in pairs]
        return pairs

    def _summarise(
        self, case: ClaimCase, record: PipelineRecord, pairs: list[QAPair]
    ) -> str:
        summary = summarise(
            case.claim,
            pairs,
            self.gateway,
            self.prompts,
            self.config.models.summarise,
            self.config.answer_max_tokens,
        )
        record.summary = {"text": summary.text, "word_count": summary.word_count}
        return summary.text

    def _verify(self, case: ClaimCase, record: PipelineRecord, context: str) -> None:
        verdict = verify(
            case.claim,
            context,
            self.scheme,
            self.gateway,
            self.config.models.verify,
            self.prompts,
        )
        record.verdict = {
            "label": verdict.label,
            "value": verdict.value,
            "raw": verdict.raw,
        }

    def _verify_on_reports(self, case: ClaimCase, record: PipelineRecord, _) -> None:
        self._verify(case, record, self._reports(case))

    def _verify_on_reports_and_graph(
        self, case: ClaimCase, record: PipelineRecord, graph
    ) -> None:
        graph_json = graph.canonical_json()
        context = f"{self._reports(case)}\n\n--- Knowledge graph ---\n{graph_json}"
        self._verify(case, record, context)

    def _reports(self, case: ClaimCase) -> str:
        return build_context(case.report_texts, self.config.context_char_budget)


# Each mode's stages, in order, with the templates each renders: the paper's
# full pipeline and its ablations.
EXTRACT_TEMPLATES = ("extract_entities", "extract_classes", "extract_relations")
PIPELINES = {
    MODE_FULL: (
        ("extract", CaseRunner._extract, EXTRACT_TEMPLATES),
        ("questions", CaseRunner._formulate, ()),
        ("answer", CaseRunner._answer, ("answer",)),
        ("summarise", CaseRunner._summarise, ("summarise",)),
        ("verify", CaseRunner._verify, ("verify",)),
    ),
    MODE_NAIVE: (("verify", CaseRunner._verify_on_reports, ("verify",)),),
    MODE_KG_ONLY: (
        ("extract", CaseRunner._extract, EXTRACT_TEMPLATES),
        ("verify", CaseRunner._verify_on_reports_and_graph, ("verify",)),
    ),
    MODE_LLM_QUESTIONS: (
        ("questions", CaseRunner._llm_questions, ("llm_questions",)),
        ("answer", CaseRunner._answer, ("answer",)),
        ("summarise", CaseRunner._summarise, ("summarise",)),
        ("verify", CaseRunner._verify, ("verify",)),
    ),
}
MODES = tuple(PIPELINES)


def _manifest_entry(record: PipelineRecord) -> dict:
    return {
        "id": record.case_id,
        "status": record.status,
        "stage": record.last_stage,
        "error": (record.failure or {}).get("reason"),
        "timings": {k: round(v, 6) for k, v in record.timings.items()},
    }


@dataclass
class RunResult:
    run_dir: Path
    total: int
    executed: int
    done: int
    failed: int
    skipped: int
    metrics: dict


def compute_metrics(
    cases: Sequence[CaseSummary], scheme: LabelScheme, config_digest: str, mode: str
) -> tuple[dict, PrfReport | None]:
    """The payload of `metrics.json` (and of `eval`'s `evaluation.json`), and
    the P/R/F report it holds, None when no done case has a gold label."""
    pairs = [
        (c.gold_label, c.verdict_label)
        for c in cases
        if c.status == STATUS_DONE
        and c.gold_label is not None
        and c.verdict_label is not None
    ]
    failed = sum(1 for c in cases if c.status == STATUS_FAILED)
    unlabeled = sum(
        1 for c in cases if c.status == STATUS_DONE and c.gold_label is None
    )
    report = prf(pairs, scheme, excluded=failed) if pairs else None
    payload: dict = {
        "config_digest": config_digest,
        "mode": mode,
        "scheme": scheme.name,
        "cases": len(cases),
        "evaluated": len(pairs),
        "excluded_failed": failed,
        "excluded_unlabeled": unlabeled,
        "report": report.to_dict() if report is not None else None,
    }
    return payload, report


def _finished_case(
    directory: RunDirectory, case_id: str, previous: dict[str, dict], retry_failed: bool
) -> tuple[CaseSummary, dict] | None:
    """The summary and manifest entry of a case an earlier run finished (done,
    or failed unless `retry_failed`), or None when the case has to run."""
    record = directory.read_record(case_id)
    if record is None or not (
        record.status == STATUS_DONE
        or (record.status == STATUS_FAILED and not retry_failed)
    ):
        return None
    # Records hold no timings, so carry the entry over, unless it no longer
    # matches the record (a run cut off between the two writes).
    entry = previous.get(case_id)
    if entry is None or entry.get("status") != record.status:
        entry = _manifest_entry(record)
    return CaseSummary.of(record), entry


def run(config: RunConfig, run_dir: Path | str, gateway: LlmGateway) -> RunResult:
    """Execute the configured mode over the selected cases, resumably.

    Cases go through `gateway.map` at width `config.workers`, which is an
    upper bound: they run one after another on the calling thread until a
    model call has to wait (a cache miss), and only then do up to `workers`
    cases run at once, on threads. The gateway's `max_in_flight` caps the
    model calls they make between them. If a case's bookkeeping raises (say,
    a full disk under `write_record`, or under the gateway's cache or
    recording, or a template placeholder its stage does not fill), no
    further case starts: the cases already running end, and the first such
    error in dataset order propagates. A missing or malformed template stops
    the run before its directory is made: `CaseRunner` reads every template
    of the mode first. Each case's record is written once, when the case ends, so a
    case cut off mid-run leaves no record and runs again from scratch on
    resume. Completed (and, unless retry_failed, failed) cases are skipped on
    rerun, and keep their manifest entries, timings included. The manifest
    starts with those entries alone, gains one line per case as it ends, in
    completion order, and is rewritten once in dataset order before `run()`
    returns, so no id ever appears twice.
    """
    scheme = load_scheme(config.scheme)
    loader = DatasetLoader(config.dataset, scheme)
    cases = loader.load(
        splits=[config.split], limit=config.limit, ids=config.ids
    )
    case_runner = CaseRunner(config, scheme, gateway)
    directory = RunDirectory(run_dir)
    directory.check_or_write_meta(config)

    previous = directory.read_manifest()
    summaries: dict[str, CaseSummary] = {}
    entries: dict[str, dict] = {}
    todo: list[ClaimCase] = []
    for case in cases:
        finished = _finished_case(directory, case.id, previous, config.retry_failed)
        if finished is None:
            todo.append(case)
        else:
            summaries[case.id], entries[case.id] = finished
    skipped = len(cases) - len(todo)
    directory.write_manifest(list(entries.values()))

    manifest_lock = threading.Lock()

    def process(case: ClaimCase) -> None:
        record = case_runner.run_case(case)
        directory.write_record(record)
        entry = _manifest_entry(record)
        with manifest_lock:
            summaries[record.case_id] = CaseSummary.of(record)
            entries[record.case_id] = entry
            directory.append_manifest(entry)

    gateway.map(process, todo, width=config.workers)

    case_order = [case.id for case in cases]
    directory.write_manifest(
        [entries[case_id] for case_id in case_order if case_id in entries]
    )
    ordered = [summaries[case_id] for case_id in case_order if case_id in summaries]
    metrics, _ = compute_metrics(ordered, scheme, config.digest(), config.mode)
    metrics["load_diagnostics"] = len(loader.diagnostics)
    directory.write_metrics(metrics)

    done = sum(1 for c in ordered if c.status == STATUS_DONE)
    failed = sum(1 for c in ordered if c.status == STATUS_FAILED)
    return RunResult(
        run_dir=Path(run_dir),
        total=len(cases),
        executed=len(todo),
        done=done,
        failed=failed,
        skipped=skipped,
        metrics=metrics,
    )
