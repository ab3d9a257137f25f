"""Request/record types shared by every gateway backend."""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field


class GatewayError(RuntimeError):
    """Transport or backend failure after the retry budget is exhausted."""


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
        return json.dumps(
            {
                "max_tokens": self.max_tokens,
                "model": self.model,
                "prompt": self.prompt,
                "temperature": self.temperature,
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    @functools.cached_property
    def digest(self) -> str:
        """Computed on first use and kept: the fields are frozen."""
        return request_digest(self)


def request_digest(request: ModelRequest) -> str:
    """Content hash keying the cache and the replay index."""
    return hashlib.sha256(request.canonical().encode("utf-8")).hexdigest()


def embed_digest(model: str, texts: list[str] | tuple[str, ...]) -> str:
    payload = json.dumps(
        {"model": model, "texts": list(texts)}, sort_keys=True, separators=(",", ":")
    )
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
        return json.dumps(
            {
                "kind": self.kind,
                "digest": self.digest,
                "model": self.model,
                "prompt": self.prompt,
                "response": self.response,
                "latency": self.latency,
                "retries": self.retries,
                "timestamp": self.timestamp,
                "cache_hit": self.cache_hit,
                "extra": self.extra,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, line: str) -> "CallRecord":
        payload = json.loads(line)
        return cls(
            kind=payload["kind"],
            digest=payload["digest"],
            model=payload["model"],
            prompt=payload.get("prompt", ""),
            response=payload["response"],
            latency=payload.get("latency", 0.0),
            retries=payload.get("retries", 0),
            timestamp=payload.get("timestamp", 0.0),
            cache_hit=payload.get("cache_hit", False),
            extra=payload.get("extra", {}),
        )
