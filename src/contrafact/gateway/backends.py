"""Completion backends: HTTP adapter, scripted mock, and record/replay."""

from __future__ import annotations

import json
import logging
import os
import threading
from collections import deque
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Protocol

from .types import (
    CallRecord,
    EmbeddingRequest,
    GatewayError,
    ModelRequest,
    RefusalError,
    ReplayMiss,
)

log = logging.getLogger(__name__)

_TAIL_CHUNK = 1 << 16  # bytes read per step back through a recording's end


class CompletionBackend(Protocol):
    def complete(self, request: ModelRequest) -> str: ...


class HttpEndpoint:
    """A base URL, one `requests` session and a header template, shared by
    the HTTP adapters. Header values may reference environment variables as
    ``$NAME``, so credentials stay out of config files."""

    def __init__(
        self,
        base_url: str,
        headers: dict[str, str] | None = None,
        timeout: float = 60.0,
        session=None,
    ) -> None:
        if session is None:
            import requests

            session = requests.Session()
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._session = session
        self._headers = {
            key: os.path.expandvars(value) for key, value in (headers or {}).items()
        }

    def _post(self, path: str, body: dict):
        """The endpoint's 200 response; any other status raises a
        `GatewayError` that carries it."""
        response = self._session.post(
            f"{self.base_url}/{path}",
            json=body,
            headers=self._headers,
            timeout=self.timeout,
        )
        if response.status_code != 200:
            raise GatewayError(
                f"{path} returned {response.status_code}: {response.text[:200]}",
                status=response.status_code,
                retry_after=_delta_seconds(response.headers.get("Retry-After")),
            )
        return response


def _delta_seconds(value: str | None) -> float | None:
    """A `Retry-After` header's delay in seconds; None for no header, an
    HTTP-date or anything else that is not a whole number of seconds."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else None


class HttpBackend(HttpEndpoint):
    """Thin adapter for any chat-completions-shaped HTTP endpoint."""

    def complete(self, request: ModelRequest) -> str:
        body = {
            "model": request.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        payload = self._post("chat/completions", body).json()
        try:
            choice = payload["choices"][0]
            if choice.get("finish_reason") == "content_filter":
                raise RefusalError("backend refused the request")
            content = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed backend payload: {exc}") from exc
        if not isinstance(content, str):
            raise GatewayError(f"malformed backend payload: message content {content!r}")
        return content


class MockBackend:
    """Scripted backend for tests: a FIFO queue, a responder function, or both.

    The responder (a function of the request) wins when set; otherwise
    responses pop off the queue. Exceptions placed in the queue are raised,
    which makes fault injection one-line.
    """

    def __init__(
        self,
        queue: Iterable[str | Exception] = (),
        responder: Callable[[ModelRequest], str] | None = None,
    ) -> None:
        self._queue: deque[str | Exception] = deque(queue)
        self._responder = responder
        self._lock = threading.Lock()
        self.requests: list[ModelRequest] = []

    def complete(self, request: ModelRequest) -> str:
        with self._lock:
            self.requests.append(request)
            if self._responder is None:
                if not self._queue:
                    raise GatewayError("mock queue exhausted")
                item = self._queue.popleft()
        if self._responder is not None:
            return self._responder(request)  # outside the lock: calls overlap
        if isinstance(item, Exception):
            raise item
        return item


class ReplayBackend:
    """Serves responses from a recording file with zero network activity.

    Each request digest, completion or embedding batch, keeps its recorded
    responses in recording order and serves them first in, first out; the
    last one repeats once it is all that is left, so a replay that makes
    extra calls still gets an answer. The recording is read one line at a
    time, and only the responses are kept. A last line that a crash cut off
    (no newline, not a recorded call) is skipped with a warning; any other
    line that is not a recorded call raises a `GatewayError` naming it.
    """

    def __init__(self, recording: Path | str) -> None:
        self._responses: dict[str, list[str]] = {}
        self._lock = threading.Lock()
        with open(recording, encoding="utf-8") as lines:
            for number, line in enumerate(lines, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    digest, response = record["digest"], record["response"]
                    if not isinstance(digest, str) or not isinstance(response, str):
                        raise TypeError("digest and response must be strings")
                except (ValueError, KeyError, TypeError) as exc:
                    if not line.endswith("\n"):
                        log.warning(
                            "%s:%d: skipping the last line, cut off mid-line",
                            recording,
                            number,
                        )
                        break
                    raise GatewayError(
                        f"{recording}:{number}: not a recorded call: {exc!r}"
                    ) from exc
                self._responses.setdefault(digest, []).append(response)

    def lookup(self, request: ModelRequest | EmbeddingRequest) -> str:
        """The next recorded response to `request`; `ReplayMiss` if it was
        never recorded."""
        with self._lock:
            responses = self._responses.get(request.digest)
            if responses is not None:
                return responses.pop(0) if len(responses) > 1 else responses[0]
        raise ReplayMiss(
            f"no recorded response for request digest {request.digest[:12]}... "
            f"(model={request.model})"
        )

    def complete(self, request: ModelRequest) -> str:
        return self.lookup(request)


class RecordingWriter:
    """Appends CallRecords as JSON Lines through one unbuffered binary handle,
    opened at the first append and kept until `close()`. Each line goes to
    the file in one write under a lock (looping only on a short write), so a
    reader of the file sees every finished call. A last line that a crash
    cut off is cut away at the open, so the first new line does not extend
    it into a corrupt line in the middle of the file."""

    def __init__(self, path: Path | str) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._handle: BinaryIO | None = None

    def append(self, record: CallRecord) -> None:
        line = memoryview((record.to_json() + "\n").encode("utf-8"))
        with self._lock:
            if self._handle is None:
                _cut_torn_tail(self.path)
                self._handle = open(self.path, "ab", buffering=0)
            while line:
                line = line[self._handle.write(line):]

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "RecordingWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _cut_torn_tail(path: Path) -> None:
    """Truncate the file at `path`, if there is one, after its last newline
    when it does not end in one."""
    try:
        fd = os.open(path, os.O_RDWR)
    except FileNotFoundError:
        return
    try:
        end = keep = os.fstat(fd).st_size
        while keep > 0:
            start = max(0, keep - _TAIL_CHUNK)
            newline = os.pread(fd, keep - start, start).rfind(b"\n")
            if newline != -1:
                keep = start + newline + 1
                break
            keep = start
        if keep != end:
            log.warning(
                "%s: cutting off a last line of %d byte(s) that has no newline",
                path,
                end - keep,
            )
            os.ftruncate(fd, keep)
    finally:
        os.close(fd)
