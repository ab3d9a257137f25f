"""Contrastive question generation and diversity-aware ranking.

Candidates substitute type-consistent alternative entities into claim triples
(head side and tail side independently). Ranking is greedy marginal-relevance
over cosine similarities: the anchor is the candidate with the highest average
similarity to all others, each later pick maximizes similarity-to-anchor minus
maximum similarity to anything already selected. Ties always break to the
lowest original index, so the permutation is reproducible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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
    relation = triple.relation.text
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


def _unit_rows(embeddings: Sequence[Sequence[float]]) -> list[tuple[float, ...]]:
    if not embeddings:
        raise RankingError("need at least one embedding")
    dims = {len(e) for e in embeddings}
    if len(dims) != 1:
        raise RankingError(f"embedding dimension mismatch: {sorted(dims)}")
    rows = []
    for index, embedding in enumerate(embeddings):
        norm = math.hypot(*embedding)
        if norm == 0.0:
            raise RankingError(f"zero-norm embedding at index {index}")
        if not math.isfinite(norm):
            raise RankingError(f"embedding at index {index} has no finite norm")
        # tuples, which math.dist reads faster than lists
        rows.append(tuple([x / norm for x in embedding]))
    return rows


def _similarity_matrix(unit: list[tuple[float, ...]]) -> list[list[float]]:
    # The cosine of unit vectors u and v is 1 - |u - v|^2 / 2, and
    # `math.dist` takes |u - v| in one C loop with no float object per value.
    # One distance per pair i <= j, read both ways, so sims[i][j] is
    # sims[j][i] bit-for-bit; the tie rule relies on exact ties surviving.
    upper = [
        [1.0 - d * d / 2.0 for d in map(math.dist, itertools.repeat(row), unit[i:])]
        for i, row in enumerate(unit)
    ]
    return [[upper[j][i - j] for j in range(i)] + upper[i] for i in range(len(unit))]


def _anchor_index(sims: list[list[float]]) -> int:
    n = len(sims)
    if n == 1:
        return 0
    # the sum over the others, not the row's sum less its diagonal, whose
    # rounding can break the exact tie of two symmetric candidates
    means = [math.fsum(row[:i] + row[i + 1:]) / (n - 1) for i, row in enumerate(sims)]
    return means.index(max(means))


def mmr_rank(embeddings: Sequence[Sequence[float]]) -> RankingTrace:
    """Greedy marginal-relevance permutation of all candidates.

    The anchor (`initial_index`) is the candidate with the highest mean cosine
    similarity to all others; ties break to the lowest index, and a single
    candidate is its own anchor. The redundancy term over an empty selected
    set is 0, so the first pick is the anchor itself (or a vector at a lower
    index whose similarity to it also rounds to 1).

    Norms come from `math.hypot`, distances from `math.dist` and the anchor's
    sums from `math.fsum`, each a fixed sequence of IEEE-754 operations, so
    the scores do not depend on a BLAS build or a CPU's vector unit.
    """
    sims = _similarity_matrix(_unit_rows(embeddings))
    theta = _anchor_index(sims)
    relevance = sims[theta]  # sims is symmetric: row theta is column theta
    redundancy = [0.0] * len(sims)
    remaining = list(range(len(sims)))
    steps: list[tuple[int, float]] = []
    while remaining:
        scores = [relevance[i] - redundancy[i] for i in remaining]
        score = max(scores)
        pick = remaining.pop(scores.index(score))  # the first maximum
        similarity = sims[pick]
        if steps:
            for i in remaining:
                if similarity[i] > redundancy[i]:
                    redundancy[i] = similarity[i]
        else:  # over one pick, redundancy is its similarity, negative or not
            redundancy = list(similarity)
        steps.append((pick, score))
    return RankingTrace(initial_index=theta, steps=tuple(steps))


def formulate(
    graph: KnowledgeGraph,
    k: int,
    embed: Callable[[Sequence[str]], Sequence[Sequence[float]]],
    candidate_limit: int | None = None,
) -> tuple[list[ContrastiveQuestion], RankingTrace]:
    """Top-k contrastive questions in marginal-relevance order, and the
    ranking's trace, one step per candidate; `embed` maps the candidate texts
    to one vector each."""
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = generate_candidates(graph, limit=candidate_limit)
    if not candidates:
        return [], RankingTrace(initial_index=None)
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
    return [candidates[i] for i in trace.order[:k]], trace
