"""Embedding clients: deterministic hash embedder and HTTP adapter."""

from __future__ import annotations

import hashlib
from typing import Protocol, Sequence

import numpy as np

from .backends import HttpEndpoint
from .types import GatewayError


class Embedder(Protocol):
    """One vector per text, each a plain list of floats of one length."""

    model_id: str

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


class HashEmbedder:
    """Deterministic test embedder: hash-seeded pseudo-random unit vectors.

    Identical text always maps to the identical vector, across runs and
    platforms, which keeps offline pipelines reproducible.
    """

    def __init__(self, dim: int = 32, model_id: str | None = None) -> None:
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        self.dim = dim
        self.model_id = model_id or f"hash:{dim}"

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        out = []
        for text in texts:
            seed = int.from_bytes(
                hashlib.sha256(text.encode("utf-8")).digest()[:8], "big"
            )
            rng = np.random.default_rng(seed)
            vec = rng.standard_normal(self.dim)
            vec = vec / np.linalg.norm(vec)
            out.append(vec.tolist())
        return out


class HttpEmbedder(HttpEndpoint):
    """Adapter for an embeddings endpoint shaped like POST /embeddings."""

    def __init__(
        self,
        base_url: str,
        model_id: str,
        headers: dict[str, str] | None = None,
        timeout: float = 60.0,
        session=None,
    ) -> None:
        super().__init__(base_url, headers=headers, timeout=timeout, session=session)
        self.model_id = model_id

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        payload = self._post(
            "embeddings", {"model": self.model_id, "input": list(texts)}
        ).json()
        try:
            rows = sorted(payload["data"], key=lambda item: item["index"])
            return [[float(v) for v in row["embedding"]] for row in rows]
        except (KeyError, TypeError) as exc:
            raise GatewayError(f"malformed embedding payload: {exc}") from exc


def parse_embedder_id(model_id: str) -> Embedder | None:
    """Resolve built-in embedder ids; `hash:<dim>` is the offline embedder."""
    if model_id.startswith("hash:"):
        return HashEmbedder(dim=int(model_id.split(":", 1)[1]))
    if model_id == "hash":
        return HashEmbedder()
    return None
