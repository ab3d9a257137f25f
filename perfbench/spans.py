"""In-memory spans recorded around calls into contrafact's public functions.

Wrappers are installed from here, never inside ``src/``. A function is patched
under the name its caller looks it up by: ``runner`` binds
``extract_case_audited``, ``formulate``, ``answer_questions``, ``summarise``
and ``verify`` at import, and ``extraction`` binds ``merge``, so patching
``contrafact.extraction.extract_case_audited`` would time nothing. Methods are
wrapped on their classes. A target that a later refactor removes is listed in
``Tracer.missing`` and its metrics are reported as missing.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from corpus_gen import token_of

CASE_SPAN = "runner.run_case"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    case: str | None
    result: object = None  # kept only where a metric needs it (cache hits)


def case_of(args: tuple, kwargs: dict) -> str | None:
    """Case id from a call's arguments: a case, a record, a request or text."""
    for value in itertools.chain(args, kwargs.values()):
        for attr in ("case_id", "id"):
            found = getattr(value, attr, None)
            if isinstance(found, str) and token_of(found) == found:
                return found
        text = getattr(value, "prompt", value)
        if isinstance(text, str):
            found = token_of(text)
            if found:
                return found
    return None


class Tracer:
    """Spans of name, start, end, parent and case id, kept until `dump`.

    A span's parent is the innermost open span on its thread. On a thread
    with no open span, such as a per-case answer pool, it is the innermost
    open span of the same case on the case's own thread, else the root.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.root: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._case_stacks: dict[str, list[Span]] = {}

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, keep_result: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent, case = stack[-1], stack[-1].case
                case = case or case_of(args, kwargs)
            else:
                case = case_of(args, kwargs)
                owner = self._case_stacks.get(case) if case else None
                parent = owner[-1] if owner else None
                if name == CASE_SPAN and case:
                    self._case_stacks[case] = stack
            span = Span(next(self._ids), name, 0.0, 0.0,
                        parent.id if parent else self.root, case)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if keep_result:
                    span.result = result
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
                if name == CASE_SPAN and self._case_stacks.get(case) is stack:
                    del self._case_stacks[case]

        return traced

    def patch(self, owner, attr: str, name: str, keep_result: bool = False) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        setattr(owner, attr, self.wrap(name, original, keep_result))

    def open_root(self, name: str) -> Span:
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, None, None)
        self.root = span.id
        return span

    def close_root(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.spans.append(span)

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps(
                    {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
                     "parent": s.parent, "case": s.case}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in by_id:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        out[s.id] = (s.end - s.start) - covered
    return out


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from contrafact import extraction, runner
    from contrafact.corpus import DatasetLoader
    from contrafact.gateway import LlmGateway, RecordingWriter, ResponseCache
    from contrafact.prompts import PromptLibrary

    tracer.patch(runner.CaseRunner, "run_case", CASE_SPAN)
    tracer.patch(runner, "extract_case_audited", "extraction.extract_case")
    tracer.patch(runner, "formulate", "contrastive.formulate")
    tracer.patch(runner, "answer_questions", "reasoning.answer")
    tracer.patch(runner, "summarise", "reasoning.summarise")
    tracer.patch(runner, "verify", "verification.verify")
    tracer.patch(extraction, "merge", "kg.merge")
    tracer.patch(LlmGateway, "complete_record", "gateway.complete_record")
    tracer.patch(LlmGateway, "embed", "gateway.embed")
    tracer.patch(ResponseCache, "get", "cache.get", keep_result=True)
    tracer.patch(ResponseCache, "put", "cache.put")
    tracer.patch(RecordingWriter, "append", "recorder.append")
    tracer.patch(runner.RunDirectory, "write_record", "runner.write_record")
    tracer.patch(runner.RunDirectory, "write_manifest", "runner.write_manifest")
    tracer.patch(runner.RunDirectory, "write_metrics", "runner.write_metrics")
    tracer.patch(PromptLibrary, "render", "prompts.render")
    tracer.patch(DatasetLoader, "load", "corpus.load")
