"""Uniform client layer over chat-completion and embedding backends."""

from .backends import (
    CompletionBackend,
    HttpBackend,
    RecordingWriter,
    ReplayBackend,
)
from .cache import ResponseCache
from .client import LlmGateway, RetryPolicy
from .embedding import Embedder, HashEmbedder, HttpEmbedder
from .types import (
    CallRecord,
    GatewayError,
    ModelRequest,
    RefusalError,
    ReplayMiss,
    request_digest,
)

__all__ = [
    "CallRecord",
    "CompletionBackend",
    "Embedder",
    "GatewayError",
    "HashEmbedder",
    "HttpBackend",
    "HttpEmbedder",
    "LlmGateway",
    "ModelRequest",
    "RecordingWriter",
    "RefusalError",
    "ReplayBackend",
    "ReplayMiss",
    "ResponseCache",
    "RetryPolicy",
    "request_digest",
]
