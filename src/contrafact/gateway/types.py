"""Request/record types shared by every gateway backend."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

from ..jsontext import compact

# Sorted keys, no spaces: `json.dumps(..., sort_keys=True, separators=(",", ":"))`
# of each request's fields, spelled directly.
_REQUEST_JSON = '{"max_tokens":%s,"model":%s,"prompt":%s,"temperature":%s}'
_EMBEDDING_JSON = '{"model":%s,"texts":[%s]}'
_LINE_ENCODER = json.JSONEncoder(sort_keys=True)


class GatewayError(RuntimeError):
    """Transport or backend failure after the retry budget is exhausted.

    `status` is the HTTP status code when an endpoint answered with an error,
    and `retry_after` the seconds its `Retry-After` header asked the client
    to wait, if it gave a delta-seconds value.
    """

    def __init__(
        self, message: str, status: int | None = None, retry_after: float | None = None
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class RefusalError(GatewayError):
    """The backend reported a content refusal rather than a transport fault."""


class ReplayMiss(GatewayError):
    """A replay backend was asked for a request it never recorded."""


@dataclass(frozen=True)
class ModelRequest:
    """One completion request; temperature defaults to 0.0 for determinism."""

    model: str
    prompt: str
    temperature: float = 0.0
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if not self.model:
            raise ValueError("model id must be non-empty")

    def canonical(self) -> str:
        return _REQUEST_JSON % (
            compact(self.max_tokens),
            compact(self.model),
            compact(self.prompt),
            compact(self.temperature),
        )

    @functools.cached_property
    def digest(self) -> str:
        """Computed on first use and kept: the fields are frozen."""
        return request_digest(self)


def request_digest(request: ModelRequest) -> str:
    """Content hash keying the cache and the replay index."""
    return hashlib.sha256(request.canonical().encode("utf-8")).hexdigest()


def embed_digest(model: str, texts: list[str] | tuple[str, ...]) -> str:
    payload = _EMBEDDING_JSON % (compact(model), ",".join(map(compact, texts)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class EmbeddingRequest:
    """One embedding batch, keyed in the cache and the recording by model and
    texts, as a `ModelRequest` is by its fields."""

    model: str
    texts: tuple[str, ...]

    @functools.cached_property
    def digest(self) -> str:
        return embed_digest(self.model, self.texts)


@dataclass
class CallRecord:
    """Audit entry for one logical gateway call (completion or embedding)."""

    kind: str  # "complete" | "embed"
    digest: str
    model: str
    prompt: str
    response: str
    latency: float = 0.0
    retries: int = 0
    timestamp: float = 0.0
    cache_hit: bool = False
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The recording line. A cache hit's line carries `prompt_chars`, the
        prompt's length, in place of the prompt: no model saw it in this run,
        and the digest already fixes its text."""
        line = {
            "kind": self.kind,
            "digest": self.digest,
            "model": self.model,
            "response": self.response,
            "latency": self.latency,
            "retries": self.retries,
            "timestamp": self.timestamp,
            "cache_hit": self.cache_hit,
            "extra": self.extra,
        }
        if self.cache_hit:
            line["prompt_chars"] = len(self.prompt)
        else:
            line["prompt"] = self.prompt
        return _LINE_ENCODER.encode(line)
