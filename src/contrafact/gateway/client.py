"""The gateway facade: caching, retries with backoff, record/replay."""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
import random
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Sized, TypeVar

from .backends import CompletionBackend, RecordingWriter, ReplayBackend
from .cache import ResponseCache
from .embedding import Embedder
from .types import (
    CallRecord,
    EmbeddingRequest,
    GatewayError,
    ModelRequest,
    RefusalError,
    ReplayMiss,
)

log = logging.getLogger(__name__)

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff capped by a wall-clock budget.
    `delay(attempt)` is the ceiling of a retry's wait; the gateway waits a
    uniformly random share of it ("full jitter")."""

    max_retries: int = 2
    base_delay: float = 0.5
    max_delay: float = 8.0
    wall_budget: float = 60.0

    def delay(self, attempt: int) -> float:
        return min(self.base_delay * (2**attempt), self.max_delay)


def _as_is(response: str) -> str:
    return response


def _vectors_json(embedder: Embedder, texts: Sequence[str]) -> str:
    return json.dumps(embedder.embed(texts))


def _parse_vectors(response: str, count: int) -> list[list[float]]:
    """The vectors of an embedding batch response: a JSON list of `count`
    lists of one length, every value a finite number."""
    try:
        vectors = json.loads(response)
    except ValueError as exc:
        raise GatewayError(f"embedding batch is not JSON: {exc}") from exc
    if not (isinstance(vectors, list) and all(isinstance(v, list) for v in vectors)):
        raise GatewayError("embedding batch is not a list of vectors")
    if len(vectors) != count:
        raise GatewayError(f"embedding count mismatch: {len(vectors)} != {count}")
    dims = {len(v) for v in vectors}
    if len(dims) != 1:
        raise GatewayError(f"dimension drift across batch: {sorted(dims)}")
    values = list(itertools.chain.from_iterable(vectors))
    if not set(map(type, values)) <= {float, int} or not all(map(math.isfinite, values)):
        raise GatewayError("embedding batch holds a value that is not a finite number")
    return vectors


def _is_client_error(exc: Exception) -> bool:
    """An HTTP 4xx other than 408 (request timeout) and 429 (too many
    requests): sending the same request again would fail the same way."""
    status = exc.status if isinstance(exc, GatewayError) else None
    return status is not None and 400 <= status < 500 and status not in (408, 429)


class _Fanout:
    """The items of one `LlmGateway.map` call, shared by up to `width` threads.

    The calling thread takes items in order. At its first wait on a model, at
    most `width - 1` helpers join it from a pool that lives only for the call,
    and each thread takes the next item nobody has taken. Items come from an
    iterator that only `_take` advances, under the lock, so a generator is
    never entered by two threads. A failure, of an item or of the iterator,
    stops the taking of new items; the items already taken run to their end.
    """

    def __init__(self, fn: Callable[[T], R], items: Iterable[T], width: int) -> None:
        self.fn = fn
        self.width = width
        self.size = len(items) if isinstance(items, Sized) else None
        self.results: list = []
        self.errors: dict[int, Exception] = {}
        self.pool: ThreadPoolExecutor | None = None
        self.helpers: list[Future[None]] = []
        self._items: Iterator[T] | None = iter(items)
        self._lock = threading.Lock()

    def _take(self) -> tuple[int, T] | None:
        """The next item and its index, or None once the items have ended or
        a failure has stopped the taking."""
        with self._lock:
            if self._items is None:
                return None
            index = len(self.results)
            try:
                item = next(self._items)
            except StopIteration:
                self._items = None
                return None
            except Exception as exc:  # the iterator's own failure, at its position
                self.errors[index] = exc
                self._items = None
                return None
            self.results.append(None)
            return index, item

    def work(self) -> None:
        while (taken := self._take()) is not None:
            index, item = taken
            try:
                self.results[index] = self.fn(item)
            except Exception as exc:
                with self._lock:
                    self.errors[index] = exc
                    self._items = None

    def stop(self) -> None:
        """Leave the items nobody has taken yet untaken."""
        with self._lock:
            self._items = None

    def spill(self) -> None:
        """Start the helpers, once: `width - 1`, or fewer when a sized input
        has fewer items left. Only the owning thread calls this, and until
        the helpers exist only it takes items, so no lock is needed."""
        if self.pool is None and self._items is not None:
            count = self.width - 1
            if self.size is not None:
                count = min(count, self.size - len(self.results))
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

    Completions and embedding batches take one call path. When the backend
    is a `ReplayBackend`, the recording answers every call and the cache is
    only written, so the recorded order is served whatever the cache holds.
    Otherwise the cache is consulted first, and hits return the exact bytes
    originally stored; a miss goes to the backend or the embedder. When
    recording is on, every logical call, cache hits included, appends one
    CallRecord to the recording file; the gateway itself keeps no log.
    `max_in_flight` caps the backend and embedder calls running at once,
    across all threads.
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
        random: Callable[[], float] = random.random,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.backend = backend
        self._replay = backend if isinstance(backend, ReplayBackend) else None
        self.embedder = embedder
        self.cache = cache
        self.recorder = recorder
        self.retry = retry or RetryPolicy()
        self._sleep = sleep
        self._clock = clock
        self._random = random
        self.max_in_flight = max_in_flight
        self._semaphore = threading.Semaphore(max_in_flight)
        self._local = threading.local()  # the calling thread's unfinished maps

    # -- fan-out -------------------------------------------------------------

    def map(
        self, fn: Callable[[T], R], items: Iterable[T], width: int | None = None
    ) -> list[R]:
        """`fn(item)` for each item, returned in input order.

        `items` may be any iterable, a generator included: it is advanced one
        item at a time as a thread takes the next item, never by two threads
        at once, so a lazy stream is read only as far as the items run. At
        most `width` items (default `max_in_flight`) run at once. The calling
        thread runs the items in order until one of its calls misses the
        cache and is about to wait on a model. Then helper threads join it,
        from a pool that lives only for this call: `width - 1`, or fewer when
        `items` is sized and has fewer left. Each thread takes the next item
        nobody has taken; so calls that wait, wait together, while items the
        cache answers start no thread. One item, or a width of one, always
        runs on the calling thread. Every model call still queues on the
        gateway's one in-flight cap. The first exception in input order
        propagates, one raised by the iterator counting as the failure at the
        position it was to fill; items not yet taken are dropped and the call
        returns once the running ones have ended.
        """
        width = self.max_in_flight if width is None else width
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

    # -- the call path -------------------------------------------------------

    def complete(self, request: ModelRequest) -> str:
        return self.complete_record(request).response

    def complete_record(self, request: ModelRequest) -> CallRecord:
        fetch = functools.partial(self.backend.complete, request)
        return self._call("complete", request, fetch, _as_is, prompt=request.prompt)[0]

    def embed(
        self, texts: Sequence[str], model: str | None = None
    ) -> list[list[float]]:
        """One vector per text, under `model` (default: the embedder's id)."""
        if not texts:
            return []
        for text in texts:
            if not text:
                raise ValueError("cannot embed an empty text")
        embedder = self.embedder
        model_id = model or (embedder.model_id if embedder else "")
        request = EmbeddingRequest(model_id, tuple(texts))
        if self._replay is not None:
            fetch = functools.partial(self._replay.lookup, request)
        elif embedder is not None:
            fetch = functools.partial(_vectors_json, embedder, texts)
        else:
            raise GatewayError("no embedder configured")
        parse = functools.partial(_parse_vectors, count=len(texts))
        _, vectors = self._call("embed", request, fetch, parse, extra={"count": len(texts)})
        return vectors

    def _call(
        self,
        kind: str,
        request: ModelRequest | EmbeddingRequest,
        fetch: Callable[[], str],
        parse: Callable[[str], T],
        prompt: str = "",
        extra: dict | None = None,
    ) -> tuple[CallRecord, T]:
        """One logical call of either kind: the recording under replay, else
        the cache, else `fetch` (retried, under the in-flight cap); then
        `parse`, the cache write and one recording line. A cached response
        that `parse` rejects is logged and read as a miss, so the fresh
        response replaces it."""
        started = self._clock()
        response = None
        if self.cache is not None and self._replay is None:
            response = self.cache.get(request)
        if response is not None:
            try:
                value = parse(response)
            except GatewayError as exc:
                log.warning(
                    "cached %s response %s does not parse (%s); reading it as a miss",
                    kind,
                    request.digest,
                    exc,
                )
                response = None
        hit = response is not None
        retries = 0
        if not hit:
            if self._replay is not None:
                response = fetch()  # a table lookup: it waits on no model
            else:
                self._before_wait()
                response, retries = self._call_with_retries(fetch, started)
            value = parse(response)
            if self.cache is not None:
                self.cache.put(request, response)
        record = CallRecord(
            kind=kind,
            digest=request.digest,
            model=request.model,
            prompt=prompt,
            response=response,
            latency=self._clock() - started,
            retries=retries,
            timestamp=time.time(),
            cache_hit=hit,
            extra=extra or {},
        )
        if self.recorder is not None:
            self.recorder.append(record)
        return record, value

    def _call_with_retries(self, call: Callable[[], T], started: float) -> tuple[T, int]:
        """`call()` under the in-flight cap, retried with backoff; returns its
        result and the number of retries it took. A refusal, a replay miss and
        an HTTP client error (4xx but 408 and 429) are raised at once. Each
        retry waits a random share of the backoff delay (full jitter), or the
        error's `Retry-After` when that is longer; a wait that would overrun
        the wall budget raises instead."""
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
                delay = self._random() * self.retry.delay(attempt)
                if isinstance(exc, GatewayError) and exc.retry_after is not None:
                    delay = max(delay, exc.retry_after)
                out_of_budget = elapsed + delay > self.retry.wall_budget
                if attempt >= self.retry.max_retries or out_of_budget:
                    raise GatewayError(
                        f"backend failed after {attempt + 1} attempt(s): {exc}"
                    ) from exc
                self._sleep(delay)
                attempt += 1
