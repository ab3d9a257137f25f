"""Shared test utilities: independent oracles, random graphs, scripted backends.

The oracles here deliberately re-derive everything from first principles
(plain-Python loops, their own cosine, their own question template copy) so
they stay independent of the code paths they check.
"""

from __future__ import annotations

import json
import math
import random
import threading
from collections import deque
from typing import Callable, Iterable

from contrafact.corpus import ClaimCase, Report, write_canonical
from contrafact.gateway import GatewayError, ModelRequest
from contrafact.kg import Entity, KnowledgeGraph, Term, Triple

# -- brute-force oracle for candidate generation -------------------------------

# frozen copy of the question wording; intentionally not imported from the package
HEAD_TEMPLATE = "Why did {h} {r} {t}, rather than {alt} {r} {t}?"
TAIL_TEMPLATE = "Why did {h} {r} {t}, rather than {h} {r} {alt}?"


def brute_force_candidate_texts(graph: KnowledgeGraph) -> set[str]:
    """Set-union enumeration of every type-consistent substitution question."""
    entities = {e.id: e for e in graph.entities}
    texts: set[str] = set()
    for triple in graph.triples:
        if not triple.provenance == "claim":
            continue
        head = entities[triple.head]
        tail = entities[triple.tail]
        head_class = head.entity_class
        tail_class = tail.entity_class
        head_alternatives = [
            e for e in graph.entities if e.entity_class == head_class and e.id != head.id
        ]
        tail_alternatives = [
            e for e in graph.entities if e.entity_class == tail_class and e.id != tail.id
        ]
        for alt in head_alternatives:
            texts.add(
                HEAD_TEMPLATE.format(
                    h=head.surface, r=triple.relation.text, t=tail.surface, alt=alt.surface
                )
            )
        for alt in tail_alternatives:
            texts.add(
                TAIL_TEMPLATE.format(
                    h=head.surface, r=triple.relation.text, t=tail.surface, alt=alt.surface
                )
            )
    return texts


# -- brute-force oracle for marginal-relevance ranking --------------------------


def _cosine(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(y * y for y in b))
    return dot / (norm_a * norm_b)


def brute_force_mmr(vectors: list[list[float]]) -> tuple[int, list[int], list[float]]:
    """Step-by-step recomputation of the ranking rule from the similarity matrix.

    Returns (anchor index, selection order, per-step scores). Ties break to the
    lowest index via strict > scans.
    """
    n = len(vectors)
    sims = [[_cosine(vectors[i], vectors[j]) for j in range(n)] for i in range(n)]

    if n == 1:
        theta = 0
    else:
        best_mean = None
        theta = 0
        for i in range(n):
            mean = sum(sims[i][j] for j in range(n) if j != i) / (n - 1)
            if best_mean is None or mean > best_mean:
                best_mean = mean
                theta = i

    order: list[int] = []
    scores: list[float] = []
    remaining = list(range(n))
    while remaining:
        best_score = None
        best_index = None
        for i in remaining:
            relevance = sims[i][theta]
            redundancy = max((sims[i][s] for s in order), default=0.0)
            score = relevance - (redundancy if order else 0.0)
            if best_score is None or score > best_score:
                best_score = score
                best_index = i
        order.append(best_index)
        scores.append(best_score)
        remaining.remove(best_index)
    return theta, order, scores


# -- random inputs ---------------------------------------------------------------

SURFACE_POOL = ("Avery", "Blake", "Casey", "Drew", "Ellis", "Frankie")
CLASS_POOL = ("Person", "Place", "Organization")
RELATION_POOL = ("visited", "founded", "criticized", "funded")


def random_source(rng: random.Random, provenance: str) -> tuple:
    """Random parsed rows of one source, the shape `kg.merge` takes: names
    in varied spellings, some unlabeled, and rows that may dangle or loop."""
    names = [rng.choice(SURFACE_POOL) for _ in range(rng.randint(1, 5))]
    names = [rng.choice((n, n.upper(), f" {n.lower()}")) for n in names]
    class_map = {n: rng.choice(CLASS_POOL) for n in names if rng.random() < 0.85}
    rows = [
        (rng.choice(names + ["Ghost"]), rng.choice(RELATION_POOL), rng.choice(names))
        for _ in range(rng.randint(0, 5))
    ]
    return provenance, names, class_map, rows


def random_graph(rng: random.Random, max_entities: int = 6, max_claim_triples: int = 4) -> KnowledgeGraph:
    """Small random graph; surfaces may repeat across classes to stress dedup."""
    n_entities = rng.randint(2, max_entities)
    entities = []
    seen_identities = set()
    for i in range(n_entities):
        surface = rng.choice(SURFACE_POOL)
        cls = rng.choice(CLASS_POOL)
        identity = (surface.casefold(), cls.casefold())
        if identity in seen_identities:
            continue
        seen_identities.add(identity)
        entities.append(Entity(f"e{i + 1}", surface, Term(cls)))
    if len(entities) < 2:
        entities.append(Entity("x1", "Fallback", Term("Person")))
        entities.append(Entity("x2", "Backstop", Term("Person")))

    triples = []
    seen_triples = set()
    for provenance in ["claim"] * rng.randint(0, max_claim_triples) + [
        "report:0"
    ] * rng.randint(0, 2):
        head, tail = rng.sample(entities, 2)
        relation = Term(rng.choice(RELATION_POOL))
        triple = Triple(head.id, relation, tail.id, provenance)
        if triple.key in seen_triples:
            continue
        seen_triples.add(triple.key)
        triples.append(triple)
    return KnowledgeGraph(tuple(entities), tuple(triples))


def random_vectors(rng: random.Random, n: int, dim: int) -> list[list[float]]:
    return [[rng.uniform(-1.0, 1.0) for _ in range(dim)] for _ in range(n)]


# -- scripted backends -----------------------------------------------------------


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


def _payload_after(prompt: str, marker: str) -> str:
    index = prompt.rfind(marker)
    return prompt[index + len(marker):].strip() if index != -1 else ""


class PipelineScript:
    """Rule-based responder covering every pipeline prompt.

    Extraction output is generated deterministically from the input text:
    each word of four or more letters becomes an entity; classes alternate
    over a small set; relations chain consecutive entities. Stage-specific
    overrides inject junk or fixed outputs for chosen texts. It holds no
    state that a call changes, so several threads may call it at once.
    """

    def __init__(
        self,
        verdict_for: dict[str, str] | None = None,
        default_verdict: str = "half-true",
        entity_override: dict[str, str] | None = None,
        class_override: dict[str, str] | None = None,
        relation_override: dict[str, str] | None = None,
        answer_override: dict[str, str] | None = None,
        summary_override: dict[str, str] | None = None,
        verify_override: dict[str, str] | None = None,
    ) -> None:
        self.verdict_for = verdict_for or {}
        self.default_verdict = default_verdict
        self.entity_override = entity_override or {}
        self.class_override = class_override or {}
        self.relation_override = relation_override or {}
        self.answer_override = answer_override or {}
        self.summary_override = summary_override or {}
        self.verify_override = verify_override or {}

    @staticmethod
    def entities_of(text: str) -> list[str]:
        seen = []
        for word in text.replace(",", " ").replace(".", " ").split():
            token = word.strip("\"'()?!")
            if len(token) >= 4 and token not in seen:
                seen.append(token)
        return seen[:5]

    @classmethod
    def classes_of(cls, text: str) -> dict[str, str]:
        names = cls.entities_of(text)
        return {name: CLASS_POOL[i % len(CLASS_POOL)] for i, name in enumerate(names)}

    @classmethod
    def relations_of(cls, text: str) -> list[list[str]]:
        names = cls.entities_of(text)
        return [
            [names[i], RELATION_POOL[i % len(RELATION_POOL)], names[i + 1]]
            for i in range(len(names) - 1)
        ]

    def _match(self, overrides: dict[str, str], prompt: str) -> str | None:
        for snippet, response in overrides.items():
            if snippet in prompt:
                return response
        return None

    def __call__(self, request: ModelRequest) -> str:
        prompt = request.prompt
        if "1. Extract nodes" in prompt:
            hit = self._match(self.entity_override, prompt)
            if hit is not None:
                return hit
            return json.dumps(self.entities_of(_payload_after(prompt, "Text: ")))
        if "2. Label nodes" in prompt:
            hit = self._match(self.class_override, prompt)
            if hit is not None:
                return hit
            return json.dumps(self.classes_of(_payload_after(prompt, "Text: ")))
        if "3. Extract relationships" in prompt:
            hit = self._match(self.relation_override, prompt)
            if hit is not None:
                return hit
            return json.dumps(self.relations_of(_payload_after(prompt, "Text: ")))
        if "expert answering questions" in prompt:
            hit = self._match(self.answer_override, prompt)
            if hit is not None:
                return hit
            question = _payload_after(prompt, "* Question: ").split("\n")[0]
            return f"The reports indicate the premise of '{question[:60]}' is partially supported."
        if "summarizing information from pairs" in prompt:
            hit = self._match(self.summary_override, prompt)
            if hit is not None:
                return hit
            return "Across the questions, the reports partially support the central assertion while contradicting its scale."
        if "expert fact-checking claims" in prompt:
            hit = self._match(self.verify_override, prompt)
            if hit is not None:
                return hit
            claim = _payload_after(prompt, "* Claim: ").split("\n")[0]
            for snippet, verdict in self.verdict_for.items():
                if snippet in claim:
                    return verdict
            return self.default_verdict
        if "generating contrastive questions" in prompt:
            return "\n".join(
                f"{i}. Why outcome {i} rather than alternative {i}?" for i in range(1, 6)
            )
        raise AssertionError(f"unexpected prompt: {prompt[:120]!r}")


def scripted_backend(**kwargs) -> MockBackend:
    return MockBackend(responder=PipelineScript(**kwargs))


# -- fixture datasets -------------------------------------------------------------


def make_case(i: int, label: str | None = "half-true", split: str = "test") -> ClaimCase:
    claim = (
        f"Senator Marlow{i} claimed the Riverton{i} budget doubled after "
        f"Auditor Quinn{i} reviewed the Harbor{i} accounts."
    )
    reports = (
        Report(
            0,
            (
                f"Auditor Quinn{i} reported the Riverton{i} budget grew by twelve percent.",
                f"The Harbor{i} accounts were reviewed last spring.",
            ),
        ),
        Report(
            1,
            (
                f"Records from Riverton{i} show spending rose modestly.",
                f"Senator Marlow{i} repeated the claim at a rally.",
            ),
        ),
    )
    return ClaimCase(
        id=f"case-{i:03d}",
        claim=claim,
        reports=reports,
        gold_label=label,
        split=split,
    )


def write_fixture_dataset(root, n: int = 3, labels: list[str] | None = None, split: str = "test") -> list[ClaimCase]:
    labels = labels or ["half-true"] * n
    cases = [make_case(i, label=labels[i % len(labels)], split=split) for i in range(n)]
    write_canonical(cases, root)
    return cases


def run_bytes(run_dir) -> dict[str, bytes]:
    """The bytes of a run directory's record files and `metrics.json`: what a
    replay must reproduce."""
    out = {path.name: path.read_bytes() for path in sorted((run_dir / "records").glob("*.json"))}
    out["metrics.json"] = (run_dir / "metrics.json").read_bytes()
    return out
