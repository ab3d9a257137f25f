"""Contrastive question generation and diversity-aware ranking.

Candidates substitute type-consistent alternative entities into claim triples
(head side and tail side independently). Ranking is greedy marginal-relevance
over cosine similarities: the anchor is the candidate with the highest average
similarity to all others, each later pick maximizes similarity-to-anchor minus
maximum similarity to anything already selected. Ties always break to the
lowest original index, so the permutation is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .kg import Entity, KnowledgeGraph, Triple

HEAD = "head"
TAIL = "tail"


class RankingError(ValueError):
    pass


class FormulationError(RuntimeError):
    """Embedding failure, carrying the question texts that were in flight."""

    def __init__(self, message: str, texts: Sequence[str]) -> None:
        super().__init__(message)
        self.texts = tuple(texts)


@dataclass(frozen=True)
class ContrastiveQuestion:
    """A why-question contrasting one claim triple with an alternative entity."""

    text: str
    source: Triple
    side: str  # HEAD | TAIL
    alternative: str  # entity id of the substituted-in alternative

    def to_dict(self) -> dict:
        return {
            "text": self.text,
            "triple": self.source.to_dict(),
            "side": self.side,
            "alternative": self.alternative,
        }


def render_question(
    graph: KnowledgeGraph, triple: Triple, side: str, alternative: Entity
) -> str:
    head = graph.entity(triple.head).surface
    tail = graph.entity(triple.tail).surface
    relation = triple.relation.label
    if side == HEAD:
        return (
            f"Why did {head} {relation} {tail}, "
            f"rather than {alternative.surface} {relation} {tail}?"
        )
    if side == TAIL:
        return (
            f"Why did {head} {relation} {tail}, "
            f"rather than {head} {relation} {alternative.surface}?"
        )
    raise ValueError(f"unknown substitution side: {side!r}")


def generate_candidates(
    graph: KnowledgeGraph, limit: int | None = None
) -> list[ContrastiveQuestion]:
    """All type-consistent substitution questions over the claim triples.

    Head and tail alternatives are iterated independently per triple (heads
    first), deduplicated by question text keeping the first occurrence. The
    optional limit caps the pool in generation order; default is unlimited.
    """
    questions: list[ContrastiveQuestion] = []
    seen: set[str] = set()
    for triple in graph.claim_triples:
        head_entity = graph.entity(triple.head)
        tail_entity = graph.entity(triple.tail)
        sides = (
            (HEAD, graph.entities_of_class(head_entity.entity_class, exclude=triple.head)),
            (TAIL, graph.entities_of_class(tail_entity.entity_class, exclude=triple.tail)),
        )
        for side, alternatives in sides:
            for alternative in alternatives:
                if limit is not None and len(questions) >= limit:
                    return questions
                text = render_question(graph, triple, side, alternative)
                if text in seen:
                    continue
                seen.add(text)
                questions.append(
                    ContrastiveQuestion(
                        text=text, source=triple, side=side, alternative=alternative.id
                    )
                )
    return questions


# -- ranking -------------------------------------------------------------------


@dataclass(frozen=True)
class RankingTrace:
    """Anchor index plus (selected index, marginal score) per step."""

    initial_index: int | None
    steps: tuple[tuple[int, float], ...] = ()

    @property
    def order(self) -> list[int]:
        return [index for index, _ in self.steps]

    def to_dict(self) -> dict:
        return {
            "initial_index": self.initial_index,
            "steps": [{"index": i, "score": s} for i, s in self.steps],
        }


def _unit_matrix(embeddings: Sequence[Sequence[float]]) -> np.ndarray:
    if not embeddings:
        raise RankingError("need at least one embedding")
    dims = {len(e) for e in embeddings}
    if len(dims) != 1:
        raise RankingError(f"embedding dimension mismatch: {sorted(dims)}")
    matrix = np.array(embeddings, dtype=np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmin(norms))
        raise RankingError(f"zero-norm embedding at index {bad}")
    return matrix / norms[:, None]


def _similarity_matrix(unit: np.ndarray) -> np.ndarray:
    # mirror the upper triangle so sims[i, j] == sims[j, i] bit-for-bit;
    # otherwise rounding can break exact ties that the tie rule relies on
    sims = unit @ unit.T
    upper = np.triu(sims)
    return upper + np.triu(sims, 1).T


def _anchor_index(sims: np.ndarray) -> int:
    n = sims.shape[0]
    if n == 1:
        return 0
    off_diagonal = sims.copy()
    np.fill_diagonal(off_diagonal, 0.0)
    means = off_diagonal.sum(axis=1) / (n - 1)
    return int(np.argmax(means))


def mmr_rank(embeddings: Sequence[Sequence[float]]) -> RankingTrace:
    """Greedy marginal-relevance permutation of all candidates.

    The anchor (`initial_index`) is the candidate with the highest mean cosine
    similarity to all others; ties break to the lowest index, and a single
    candidate is its own anchor. The redundancy term over an empty selected
    set is 0, so the first pick is the anchor itself (or an identical vector
    at a lower index).
    """
    unit = _unit_matrix(embeddings)
    n = unit.shape[0]
    sims = _similarity_matrix(unit)
    theta = _anchor_index(sims)
    relevance = sims[:, theta].copy()

    steps: list[tuple[int, float]] = []
    selected_mask = np.zeros(n, dtype=bool)
    redundancy = np.zeros(n)
    for step in range(n):
        scores = relevance - (redundancy if step else 0.0)
        scores = np.where(selected_mask, -np.inf, scores)
        pick = int(np.argmax(scores))
        steps.append((pick, float(scores[pick])))
        selected_mask[pick] = True
        redundancy = np.maximum(redundancy, sims[:, pick]) if step else sims[:, pick].copy()
    return RankingTrace(initial_index=theta, steps=tuple(steps))


@dataclass(frozen=True)
class FormulationResult:
    questions: tuple[ContrastiveQuestion, ...]
    trace: RankingTrace
    candidate_count: int


def formulate(
    graph: KnowledgeGraph,
    k: int,
    embed: Callable[[Sequence[str]], Sequence[Sequence[float]]],
    candidate_limit: int | None = None,
) -> FormulationResult:
    """Top-k contrastive questions in marginal-relevance order; `embed` maps
    the candidate texts to one vector each."""
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = generate_candidates(graph, limit=candidate_limit)
    if not candidates:
        return FormulationResult(
            questions=(), trace=RankingTrace(initial_index=None), candidate_count=0
        )
    texts = [q.text for q in candidates]
    try:
        embeddings = embed(texts)
    except OSError:
        raise  # a failed write of the gateway's own files stops the run
    except Exception as exc:
        raise FormulationError(
            f"embedding {len(texts)} question(s) failed: {exc}", texts
        ) from exc
    trace = mmr_rank(embeddings)
    ranked = [candidates[i] for i in trace.order]
    return FormulationResult(
        questions=tuple(ranked[:k]), trace=trace, candidate_count=len(candidates)
    )
