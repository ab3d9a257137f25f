"""The gateway facade: caching, retries with backoff, record/replay."""

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
    EmbeddingRequest,
    GatewayError,
    ModelRequest,
    RefusalError,
    ReplayMiss,
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


def _is_client_error(exc: Exception) -> bool:
    """An HTTP 4xx other than 408 (request timeout) and 429 (too many
    requests): sending the same request again would fail the same way."""
    status = exc.status if isinstance(exc, GatewayError) else None
    return status is not None and 400 <= status < 500 and status not in (408, 429)


class _Fanout:
    """The items of one `LlmGateway.map` call, shared by up to `width` threads.

    The calling thread takes items in order. At its first wait on a model, at
    most `width - 1` helpers join it from a pool that lives only for the call,
    and each thread takes the next item nobody has taken. A failure stops the
    taking of new items; the items already taken run to their end.
    """

    def __init__(self, fn: Callable[[T], R], items: list[T], width: int) -> None:
        self.fn = fn
        self.items = items
        self.width = width
        self.results: list = [None] * len(items)
        self.errors: dict[int, Exception] = {}
        self.pool: ThreadPoolExecutor | None = None
        self.helpers: list[Future[None]] = []
        self._next = 0
        self._lock = threading.Lock()

    def _take(self) -> int | None:
        with self._lock:
            if self._next == len(self.items):
                return None
            self._next += 1
            return self._next - 1

    def work(self) -> None:
        while (index := self._take()) is not None:
            try:
                self.results[index] = self.fn(self.items[index])
            except Exception as exc:
                with self._lock:
                    self.errors[index] = exc
                    self._next = len(self.items)

    def stop(self) -> None:
        """Leave the items nobody has taken yet untaken."""
        with self._lock:
            self._next = len(self.items)

    def spill(self) -> None:
        """Start the helpers, once. Only the owning thread calls this, and
        until the helpers exist only it moves `_next`, so no lock is needed."""
        if self.pool is None:
            count = min(self.width - 1, len(self.items) - self._next)
            if count > 0:
                self.pool = ThreadPoolExecutor(count)
                self.helpers = [self.pool.submit(self.work) for _ in range(count)]

    def join(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
            for helper in self.helpers:
                helper.result()


class LlmGateway:
    """Uniform client over a completion backend and an embedding client.

    The cache is consulted before the backend and the embedder; hits return
    the exact bytes originally stored. When recording is on, every logical
    call, cache hits included, appends one CallRecord to the recording file;
    the gateway itself keeps no log. `max_in_flight` caps the backend and
    embedder calls running at once, across all threads.
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
        self._local = threading.local()  # the calling thread's unfinished maps

    # -- fan-out -------------------------------------------------------------

    def map(
        self, fn: Callable[[T], R], items: Iterable[T], width: int | None = None
    ) -> list[R]:
        """`fn(item)` for each item, returned in input order.

        At most `width` items (default `max_in_flight`) run at once. The
        calling thread runs the items in order until one of its calls misses
        the cache and is about to wait on a model. Then up to `width - 1`
        helper threads join it, from a pool that lives only for this call, and
        each thread takes the next item nobody has taken; so calls that wait,
        wait together, while items the cache answers start no thread. One
        item, or a width of one, always runs on the calling thread. Every
        model call still queues on the gateway's one in-flight cap. The first
        exception in input order propagates; items not yet started are
        dropped and the call returns once the running ones have ended.
        """
        items = list(items)
        width = self.max_in_flight if width is None else width
        if len(items) <= 1 or width == 1:
            return [fn(item) for item in items]
        fanout = _Fanout(fn, items, width)
        unfinished = self._local.__dict__.setdefault("fanouts", [])
        unfinished.append(fanout)
        try:
            fanout.work()
        finally:
            unfinished.pop()
            fanout.stop()
            fanout.join()
        if fanout.errors:
            raise fanout.errors[min(fanout.errors)]
        return fanout.results

    def _before_wait(self) -> None:
        """The calling thread is about to wait on a model: let helpers take
        the items its unfinished maps have not reached, so they wait
        alongside it."""
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

        if not isinstance(self.backend, ReplayBackend):
            self._before_wait()  # a replayed response is a dict lookup
        response, retries = self._call_with_retries(
            lambda: self.backend.complete(request), started
        )
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

    def _call_with_retries(self, call: Callable[[], T], started: float) -> tuple[T, int]:
        """`call()` under the in-flight cap, retried with backoff; returns its
        result and the number of retries it took. A refusal, a replay miss and
        an HTTP client error (4xx but 408 and 429) are raised at once."""
        attempt = 0
        while True:
            try:
                with self._semaphore:
                    return call(), attempt
            except (RefusalError, ReplayMiss):
                raise  # neither is a transport fault; retrying cannot help
            except Exception as exc:
                if _is_client_error(exc):
                    raise
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
        request = EmbeddingRequest(model_id, tuple(texts))

        response = self._replayed_embeddings(request.digest)
        if response is None and self.cache is not None:
            response = self.cache.get(request)
        hit = response is not None
        retries = 0
        if hit:
            vectors = json.loads(response)
        else:
            embedder = self.embedder
            if embedder is None:
                raise GatewayError("no embedder configured")
            self._before_wait()
            embeddings, retries = self._call_with_retries(
                lambda: embedder.embed(texts), self._clock()
            )
            vectors = [list(e.values) for e in embeddings]

        if len(vectors) != len(texts):
            raise GatewayError(
                f"embedding count mismatch: {len(vectors)} != {len(texts)}"
            )
        dims = {len(v) for v in vectors}
        if len(dims) != 1:
            raise GatewayError(f"dimension drift across batch: {sorted(dims)}")

        if not hit:
            response = json.dumps(vectors)
            if self.cache is not None:
                self.cache.put(request, response)
        record = CallRecord(
            kind="embed",
            digest=request.digest,
            model=model_id,
            prompt="",
            response=response,
            retries=retries,
            timestamp=time.time(),
            cache_hit=hit,
            extra={"count": len(texts)},
        )
        self._append(record)
        return [QuestionEmbedding(tuple(v)) for v in vectors]

    def embedding_client(self, model: str) -> "GatewayEmbedder":
        """Embedding view bound to one model id (stable across record/replay)."""
        return GatewayEmbedder(self, model)

    def _replayed_embeddings(self, digest: str) -> str | None:
        if isinstance(self.backend, ReplayBackend):
            response = self.backend.embedding_response(digest)
            if response is None:
                raise ReplayMiss(
                    f"no recorded embeddings for digest {digest[:12]}..."
                )
            return response
        return None

    # -- recording -----------------------------------------------------------

    def _append(self, record: CallRecord) -> None:
        if self.recorder is not None:
            self.recorder.append(record)


class GatewayEmbedder:
    """Adapter satisfying the embedding-client protocol for one model id."""

    def __init__(self, gateway: LlmGateway, model: str) -> None:
        self._gateway = gateway
        self.model_id = model

    def embed(self, texts: Sequence[str]) -> list[QuestionEmbedding]:
        return self._gateway.embed(texts, model=self.model_id)
