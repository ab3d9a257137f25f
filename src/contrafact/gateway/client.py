"""The gateway facade: caching, retries with backoff, logging, record/replay."""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from .backends import CompletionBackend, RecordingWriter, ReplayBackend
from .cache import ResponseCache
from .embedding import Embedder, QuestionEmbedding
from .types import (
    CallRecord,
    GatewayError,
    ModelRequest,
    RefusalError,
    ReplayMiss,
    embed_digest,
)

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff capped by a wall-clock budget."""

    max_retries: int = 2
    base_delay: float = 0.5
    max_delay: float = 8.0
    wall_budget: float = 60.0

    def delay(self, attempt: int) -> float:
        return min(self.base_delay * (2**attempt), self.max_delay)


class _Fanout:
    """The items of one `LlmGateway.map` call, taken in order by its calling
    thread until one of that thread's calls is about to wait on a model; the
    items it has not reached then go to a pool that lives only for the call."""

    def __init__(self, fn: Callable[[T], R], items: list[T], width: int) -> None:
        self.fn = fn
        self.items = items
        self.width = width
        self.next = 0
        self.pool: ThreadPoolExecutor | None = None
        self.futures: list[Future[R]] = []

    def spill(self) -> None:
        rest = self.items[self.next :]
        if rest:
            self.next = len(self.items)
            self.pool = ThreadPoolExecutor(min(self.width, len(rest)))
            self.futures = [self.pool.submit(self.fn, item) for item in rest]


class LlmGateway:
    """Uniform client over a completion backend and an embedding client.

    The cache is consulted before the backend; hits return the exact bytes
    originally stored. Every logical call appends one CallRecord to the call
    log (and to the recording file when recording is on). `max_in_flight`
    caps the backend and embedder calls running at once, across all threads.
    """

    def __init__(
        self,
        backend: CompletionBackend,
        embedder: Embedder | None = None,
        cache: ResponseCache | None = None,
        recorder: RecordingWriter | None = None,
        retry: RetryPolicy | None = None,
        max_in_flight: int = 8,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.backend = backend
        self.embedder = embedder
        self.cache = cache
        self.recorder = recorder
        self.retry = retry or RetryPolicy()
        self._sleep = sleep
        self._clock = clock
        self.max_in_flight = max_in_flight
        self._semaphore = threading.Semaphore(max_in_flight)
        self._log_lock = threading.Lock()
        self._local = threading.local()  # the calling thread's unfinished maps
        self.call_log: list[CallRecord] = []

    # -- fan-out -------------------------------------------------------------

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """`fn(item)` for each item, returned in input order.

        The calling thread runs the items in order until one of its calls
        misses the cache and is about to wait on a model. The items it has not
        reached then start at once on a pool that lives only for this call,
        so calls that wait, wait together, while calls the cache answers
        start no thread. One item, or a width of one, always runs on the
        calling thread. Every call still queues on the gateway's one in-flight
        cap. The first exception in input order propagates; items not yet
        started are dropped and the call returns once the running ones have
        ended.
        """
        items = list(items)
        if len(items) <= 1 or self.max_in_flight == 1:
            return [fn(item) for item in items]
        fanout = _Fanout(fn, items, self.max_in_flight)
        unfinished = self._local.__dict__.setdefault("fanouts", [])
        unfinished.append(fanout)
        try:
            results = []
            try:
                while fanout.next < len(items):
                    fanout.next += 1
                    results.append(fn(items[fanout.next - 1]))
            finally:
                unfinished.pop()
            return results + [future.result() for future in fanout.futures]
        finally:
            if fanout.pool is not None:
                fanout.pool.shutdown(cancel_futures=True)

    def _before_wait(self) -> None:
        """The calling thread is about to wait on a model: start the items
        its unfinished maps have not reached, so they wait alongside it."""
        for fanout in getattr(self._local, "fanouts", ()):
            fanout.spill()

    # -- completions --------------------------------------------------------

    def complete(self, request: ModelRequest) -> str:
        return self.complete_record(request).response

    def complete_record(self, request: ModelRequest) -> CallRecord:
        started = self._clock()
        cached = self.cache.get(request) if self.cache is not None else None
        if cached is not None:
            record = CallRecord(
                kind="complete",
                digest=request.digest,
                model=request.model,
                prompt=request.prompt,
                response=cached,
                latency=self._clock() - started,
                retries=0,
                timestamp=time.time(),
                cache_hit=True,
            )
            self._append(record)
            return record

        self._before_wait()
        response, retries = self._call_with_retries(request, started)
        if self.cache is not None:
            self.cache.put(request, response)
        record = CallRecord(
            kind="complete",
            digest=request.digest,
            model=request.model,
            prompt=request.prompt,
            response=response,
            latency=self._clock() - started,
            retries=retries,
            timestamp=time.time(),
            cache_hit=False,
        )
        self._append(record)
        return record

    def _call_with_retries(self, request: ModelRequest, started: float) -> tuple[str, int]:
        attempt = 0
        while True:
            try:
                with self._semaphore:
                    return self.backend.complete(request), attempt
            except (RefusalError, ReplayMiss):
                raise  # neither is a transport fault; retrying cannot help
            except Exception as exc:
                elapsed = self._clock() - started
                delay = self.retry.delay(attempt)
                out_of_budget = elapsed + delay > self.retry.wall_budget
                if attempt >= self.retry.max_retries or out_of_budget:
                    raise GatewayError(
                        f"backend failed after {attempt + 1} attempt(s): {exc}"
                    ) from exc
                self._sleep(delay)
                attempt += 1

    # -- embeddings ----------------------------------------------------------

    def embed(
        self, texts: Sequence[str], model: str | None = None
    ) -> list[QuestionEmbedding]:
        if not texts:
            return []
        for text in texts:
            if not text:
                raise ValueError("cannot embed an empty text")
        model_id = model or (self.embedder.model_id if self.embedder else "")
        digest = embed_digest(model_id, list(texts))

        replayed = self._replayed_embeddings(digest)
        if replayed is not None:
            vectors = replayed
        else:
            if self.embedder is None:
                raise GatewayError("no embedder configured")
            self._before_wait()
            with self._semaphore:
                embeddings = self.embedder.embed(texts)
            vectors = [list(e.values) for e in embeddings]

        if len(vectors) != len(texts):
            raise GatewayError(
                f"embedding count mismatch: {len(vectors)} != {len(texts)}"
            )
        dims = {len(v) for v in vectors}
        if len(dims) != 1:
            raise GatewayError(f"dimension drift across batch: {sorted(dims)}")

        response = json.dumps(vectors)
        record = CallRecord(
            kind="embed",
            digest=digest,
            model=model_id,
            prompt="",
            response=response,
            timestamp=time.time(),
            cache_hit=replayed is not None,
            extra={"count": len(texts)},
        )
        self._append(record)
        return [QuestionEmbedding(tuple(v)) for v in vectors]

    def embedding_client(self, model: str) -> "GatewayEmbedder":
        """Embedding view bound to one model id (stable across record/replay)."""
        return GatewayEmbedder(self, model)

    def _replayed_embeddings(self, digest: str) -> list[list[float]] | None:
        if isinstance(self.backend, ReplayBackend):
            response = self.backend.embedding_response(digest)
            if response is None:
                raise ReplayMiss(
                    f"no recorded embeddings for digest {digest[:12]}..."
                )
            return json.loads(response)
        return None

    # -- logging -------------------------------------------------------------

    def _append(self, record: CallRecord) -> None:
        with self._log_lock:
            self.call_log.append(record)
        if self.recorder is not None:
            self.recorder.append(record)


class GatewayEmbedder:
    """Adapter satisfying the embedding-client protocol for one model id."""

    def __init__(self, gateway: LlmGateway, model: str) -> None:
        self._gateway = gateway
        self.model_id = model

    def embed(self, texts: Sequence[str]) -> list[QuestionEmbedding]:
        return self._gateway.embed(texts, model=self.model_id)
