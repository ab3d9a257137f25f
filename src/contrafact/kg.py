"""Knowledge-graph domain types with claim/report provenance, and `merge`,
the one builder of a case's graph from every source's parsed rows.

Graphs are immutable after construction and safe to share across pipeline
workers. Entity identity is the pair (case-folded whitespace-normalized
surface, class), which makes the build deterministic.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

_WS = re.compile(r"\s+")

CLAIM = "claim"  # the provenance of a triple extracted from the claim


class GraphError(ValueError):
    """Raised when a graph invariant is violated at construction time."""


def normalize_surface(text: str) -> str:
    """Case-fold and collapse whitespace; the normalized form drives identity."""
    return _WS.sub(" ", text.strip()).casefold()


@dataclass(frozen=True)
class Term:
    """An open-vocabulary label: an entity's class (e.g. "Person") or a
    relation. `text` is the spelling it was built with; terms compare and
    hash by their normalized spelling, `key`."""

    text: str = field(compare=False)
    key: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise GraphError("a class or relation must be non-empty")
        object.__setattr__(self, "key", normalize_surface(self.text))


@dataclass(frozen=True)
class Entity:
    id: str
    surface: str
    entity_class: Term

    def __post_init__(self) -> None:
        if not self.id.strip():
            raise GraphError("entity id must be non-empty")
        if not self.surface.strip():
            raise GraphError("entity surface must be non-empty")


@dataclass(frozen=True)
class Triple:
    """Directed labeled edge; head/tail are entity ids in the owning graph.

    `provenance` names the source text: `CLAIM` or `"report:<index>"`.
    """

    head: str
    relation: Term
    tail: str
    provenance: str

    def __post_init__(self) -> None:
        if self.head == self.tail:
            raise GraphError(f"self-loop triple rejected: {self.head!r}")

    @property
    def key(self) -> tuple[str, str, str, str]:
        return (self.head, self.relation.key, self.tail, self.provenance)

    def to_dict(self) -> dict:
        return {
            "head": self.head,
            "relation": self.relation.text,
            "tail": self.tail,
            "provenance": self.provenance,
        }


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable set of entities and provenance-tagged triples.

    Entities and triples keep insertion order so every downstream ordering
    (candidate generation, ranking tie-breaks) is reproducible.
    """

    entities: tuple[Entity, ...] = ()
    triples: tuple[Triple, ...] = ()
    _by_id: dict[str, Entity] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        by_id: dict[str, Entity] = {}
        for entity in self.entities:
            if entity.id in by_id:
                raise GraphError(f"duplicate entity id: {entity.id!r}")
            by_id[entity.id] = entity
        seen: set[tuple[str, str, str, str]] = set()
        for triple in self.triples:
            if triple.head not in by_id:
                raise GraphError(f"triple head does not resolve: {triple.head!r}")
            if triple.tail not in by_id:
                raise GraphError(f"triple tail does not resolve: {triple.tail!r}")
            key = triple.key
            if key in seen:
                raise GraphError(f"duplicate triple: {key}")
            seen.add(key)
        object.__setattr__(self, "_by_id", by_id)

    def entity(self, entity_id: str) -> Entity:
        return self._by_id[entity_id]

    @property
    def claim_triples(self) -> tuple[Triple, ...]:
        return tuple(t for t in self.triples if t.provenance == CLAIM)

    def entities_of_class(
        self, entity_class: Term, exclude: str | None = None
    ) -> list[Entity]:
        """All entities of the given class except `exclude`, in insertion order.

        An unknown class yields an empty list rather than an error.
        """
        return [
            e
            for e in self.entities
            if e.entity_class == entity_class and e.id != exclude
        ]

    def to_dict(self) -> dict:
        return {
            "entities": [
                {"id": e.id, "surface": e.surface, "class": e.entity_class.text}
                for e in self.entities
            ],
            "triples": [t.to_dict() for t in self.triples],
        }

    def canonical_json(self) -> str:
        """Stable serialization (sorted keys, compact separators)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def merge(
    sources: Iterable[tuple[str, Sequence[str], dict[str, str], Sequence[tuple[str, str, str]]]],
) -> tuple[KnowledgeGraph, int, int]:
    """The graph of a case, built in one pass from each source's parsed rows.

    A source is (provenance, entity names, name -> class map, (head,
    relation, tail) rows), in source order. Within a source a name is known
    by its normalized surface and its first spelling is kept; each listing
    of a name the class map does not label is a dropped entity, and a row
    whose head or tail is not a kept name, or whose head is its tail, a
    dropped triple. A repeated row is dropped silently. Across sources,
    entities are unified by (normalized surface, class), so the same surface
    under two classes stays as two entities; ids are e1, e2, ... in
    first-seen order. Returns the graph and its entity and triple drops.
    """
    terms: dict[str, Term] = {}  # exact spelling -> its Term, classes and relations alike
    id_of: dict[tuple[str, str], str] = {}
    entities: list[Entity] = []
    triples: list[Triple] = []
    seen: set[tuple[str, str, str, str]] = set()
    dropped_entities = dropped_triples = 0
    for provenance, names, class_map, rows in sources:
        class_of = {normalize_surface(k): v for k, v in class_map.items()}
        local: dict[str, str] = {}  # normalized surface -> id, this source's names
        for name in names:
            norm = normalize_surface(name)
            if norm in local:
                continue
            cls = class_of.get(norm)
            if cls is None:
                dropped_entities += 1
                continue
            if cls not in terms:
                terms[cls] = Term(cls)
            key = (norm, terms[cls].key)
            if key not in id_of:
                id_of[key] = f"e{len(id_of) + 1}"
                entities.append(Entity(id_of[key], name, terms[cls]))
            local[norm] = id_of[key]
        for head, label, tail in rows:
            head_id = local.get(normalize_surface(head))
            tail_id = local.get(normalize_surface(tail))
            if head_id is None or tail_id is None or head_id == tail_id:
                dropped_triples += 1
                continue
            if label not in terms:
                terms[label] = Term(label)
            triple = Triple(head_id, terms[label], tail_id, provenance)
            if triple.key not in seen:
                seen.add(triple.key)
                triples.append(triple)
    return KnowledgeGraph(tuple(entities), tuple(triples)), dropped_entities, dropped_triples
