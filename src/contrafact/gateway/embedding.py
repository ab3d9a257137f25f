"""Embedding clients: deterministic hash embedder and HTTP adapter."""

from __future__ import annotations

import hashlib
import math
import struct
from typing import Protocol, Sequence

from .backends import HttpEndpoint
from .types import GatewayError


class Embedder(Protocol):
    """One vector per text, each a plain list of floats of one length."""

    model_id: str

    def embed(self, texts: Sequence[str]) -> list[list[float]]: ...


class HashEmbedder:
    """Deterministic test embedder: each text's vector is read off its hash.

    `shake_256` of the UTF-8 text gives `8 * dim` bytes, read as `dim`
    big-endian signed 64-bit integers and divided by their Euclidean norm.
    Integer-to-float conversion, `math.fsum`, `math.sqrt` and division are
    all correctly rounded, so identical text maps to the bit-identical unit
    vector on every IEEE-754 platform, which keeps offline pipelines
    reproducible.
    """

    def __init__(self, dim: int = 32, model_id: str | None = None) -> None:
        if dim < 1:
            raise ValueError("embedding dimension must be >= 1")
        self.dim = dim
        self.model_id = model_id or f"hash:{dim}"

    def embed(self, texts: Sequence[str]) -> list[list[float]]:
        out = []
        for text in texts:
            digest = hashlib.shake_256(text.encode("utf-8")).digest(8 * self.dim)
            values = [float(v) for v in struct.unpack(f">{self.dim}q", digest)]
            norm = math.sqrt(math.fsum(v * v for v in values))
            out.append([v / norm for v in values])
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
            return [[_number(v) for v in row["embedding"]] for row in rows]
        except (KeyError, TypeError, OverflowError) as exc:
            raise GatewayError(f"malformed embedding payload: {exc}") from exc


def _number(value: object) -> float:
    """A JSON number as a float; `true`, `"2"` and the like are no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def parse_embedder_id(model_id: str) -> Embedder | None:
    """Resolve built-in embedder ids; `hash:<dim>` is the offline embedder.
    A `hash:` id whose dimension is not a whole number >= 1 is a ValueError."""
    if model_id.startswith("hash:"):
        try:
            return HashEmbedder(dim=int(model_id.split(":", 1)[1]))
        except ValueError:
            raise ValueError(
                f"embedding model {model_id!r}: hash:<dim> needs a whole number >= 1"
            ) from None
    if model_id == "hash":
        return HashEmbedder()
    return None
