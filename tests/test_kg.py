from __future__ import annotations

import random

import pytest

from contrafact.kg import (
    Entity,
    GraphError,
    KnowledgeGraph,
    Term,
    Triple,
    merge,
    normalize_surface,
)
from helpers import random_source


def person(entity_id: str, surface: str) -> Entity:
    return Entity(entity_id, surface, Term("Person"))


def place(entity_id: str, surface: str) -> Entity:
    return Entity(entity_id, surface, Term("Place"))


def graph_signature(graph: KnowledgeGraph):
    """Id-free structural signature for isomorphism-up-to-relabeling checks."""
    entities = {e.id: (normalize_surface(e.surface), e.entity_class.key) for e in graph.entities}
    return (
        frozenset(entities.values()),
        frozenset(
            (entities[t.head], t.relation.key, entities[t.tail], t.provenance)
            for t in graph.triples
        ),
    )


# -- basic invariants ------------------------------------------------------------


def test_entity_class_is_case_insensitive() -> None:
    assert Term("Person") == Term("  person ")
    assert hash(Term("PERSON")) == hash(Term("person"))


def test_empty_names_rejected() -> None:
    with pytest.raises(GraphError):
        Term("   ")
    with pytest.raises(GraphError):
        Term("")
    with pytest.raises(GraphError):
        Entity("e1", " ", Term("Person"))


def test_self_loop_triples_rejected() -> None:
    with pytest.raises(GraphError):
        Triple("e1", Term("knows"), "e1", "claim")


def test_duplicate_entity_ids_rejected() -> None:
    with pytest.raises(GraphError):
        KnowledgeGraph(entities=(person("e1", "A"), person("e1", "B")))


def test_unresolved_triple_endpoints_rejected() -> None:
    with pytest.raises(GraphError):
        KnowledgeGraph(
            entities=(person("e1", "A"),),
            triples=(Triple("e1", Term("knows"), "e9", "claim"),),
        )


def test_duplicate_triples_rejected() -> None:
    triple = Triple("e1", Term("knows"), "e2", "claim")
    with pytest.raises(GraphError):
        KnowledgeGraph(
            entities=(person("e1", "A"), person("e2", "B")),
            triples=(triple, Triple("e1", Term("KNOWS"), "e2", "claim")),
        )


def test_claim_triples_are_subset_of_triples() -> None:
    graph = KnowledgeGraph(
        entities=(person("e1", "A"), person("e2", "B")),
        triples=(
            Triple("e1", Term("knows"), "e2", "claim"),
            Triple("e2", Term("cites"), "e1", "report:0"),
        ),
    )
    assert set(t.key for t in graph.claim_triples) <= set(t.key for t in graph.triples)
    assert len(graph.claim_triples) == 1


# -- entities_of_class ---------------------------------------------------------


def test_entities_of_class_excludes_given_entity() -> None:
    graph = KnowledgeGraph(entities=(person("a1", "A1"), person("a2", "A2")))
    result = graph.entities_of_class(Term("Person"), exclude="a1")
    assert [e.id for e in result] == ["a2"]


def test_entities_of_class_singleton_exclusion() -> None:
    graph = KnowledgeGraph(entities=(person("a1", "A1"),))
    assert graph.entities_of_class(Term("Person"), exclude="a1") == []


def test_entities_of_class_filters_by_class() -> None:
    graph = KnowledgeGraph(
        entities=(person("a1", "A1"), place("p1", "P1"), place("p2", "P2"))
    )
    result = graph.entities_of_class(Term("Place"), exclude="p1")
    assert [e.id for e in result] == ["p2"]


def test_entities_of_class_unknown_class_is_empty() -> None:
    graph = KnowledgeGraph(entities=(person("a1", "A1"),))
    assert graph.entities_of_class(Term("Asteroid")) == []


def test_entities_of_class_preserves_insertion_order() -> None:
    graph = KnowledgeGraph(
        entities=(person("z", "Z"), person("a", "A"), person("m", "M"))
    )
    assert [e.id for e in graph.entities_of_class(Term("Person"))] == [
        "z",
        "a",
        "m",
    ]


# -- merge ----------------------------------------------------------------------


def build(*sources) -> KnowledgeGraph:
    return merge(sources)[0]


def test_merge_unifies_same_surface_and_class() -> None:
    merged = build(
        ("claim", ["Obama", "Hawaii"], {"Obama": "Person", "Hawaii": "Place"},
         [("Obama", "born_in", "Hawaii")]),
        ("report:0", ["obama", "Chicago"], {"obama": "Person", "Chicago": "Place"},
         [("obama", "worked_in", "Chicago")]),
    )
    obama = [e for e in merged.entities if normalize_surface(e.surface) == "obama"]
    assert [(e.id, e.surface) for e in obama] == [("e1", "Obama")]
    assert len(merged.triples) == 2
    assert {t.provenance for t in merged.triples} == {"claim", "report:0"}


def test_merge_empty_list_gives_empty_graph() -> None:
    graph, dropped_entities, dropped_triples = merge([])
    assert graph.entities == ()
    assert graph.triples == ()
    assert (dropped_entities, dropped_triples) == (0, 0)


def test_merge_keeps_same_surface_under_two_classes_distinct() -> None:
    merged = build(
        ("claim", ["Paris"], {"Paris": "Place"}, []),
        ("report:0", ["Paris"], {"Paris": "Person"}, []),
    )
    assert len(merged.entities) == 2
    assert {e.entity_class.text for e in merged.entities} == {"Place", "Person"}


def test_merge_is_idempotent() -> None:
    rng = random.Random(7)
    for _ in range(25):
        source = random_source(rng, "claim")
        assert graph_signature(build(source)) == graph_signature(build(source, source))


def test_merge_is_order_insensitive_up_to_relabeling() -> None:
    rng = random.Random(11)
    for _ in range(25):
        s1, s2 = random_source(rng, "claim"), random_source(rng, "report:0")
        assert graph_signature(build(s1, s2)) == graph_signature(build(s2, s1))


def test_merge_assigns_deterministic_ids() -> None:
    merged = build(
        ("claim", ["B", "A"], {"A": "Person", "B": "Person"}, []),
        ("report:0", ["C", "a"], {"C": "Person", "a": "Person"}, []),
    )
    assert [(e.id, e.surface) for e in merged.entities] == [
        ("e1", "B"), ("e2", "A"), ("e3", "C"),
    ]


def test_merge_drops_triples_that_collapse_to_self_loops() -> None:
    graph, _, dropped_triples = merge(
        [("claim", ["A", "a "], {"A": "Person"}, [("A", "knows", "a ")])]
    )
    assert len(graph.entities) == 1
    assert graph.triples == ()
    assert dropped_triples == 1


def test_building_and_merging_normalize_each_class_and_relation_once(monkeypatch) -> None:
    from contrafact import kg

    calls: list[str] = []
    real = kg.normalize_surface

    def counting(text: str) -> str:
        calls.append(text)
        return real(text)

    monkeypatch.setattr(kg, "normalize_surface", counting)

    def source(provenance: str, names: list[str]) -> tuple:
        classes = {name: "Person" for name in names} | {"Paris": "Place"}
        rows = [(name, "lives in", "Paris") for name in names]
        rows += [(a, "knows", b) for a, b in zip(names, names[1:])]
        return provenance, names + ["Paris"], classes, rows

    merged = build(source("claim", ["Ann", "Bo", "Cy"]), source("report:0", ["Ann", "Di"]))
    for entity in merged.entities:
        merged.entities_of_class(entity.entity_class, exclude=entity.id)
    assert len({e.entity_class for e in merged.entities}) == 2
    assert len(merged.triples) == 8
    for name in ("Person", "Place", "knows", "lives in"):
        assert calls.count(name) == 1, name


def test_claim_subset_holds_after_merge() -> None:
    rng = random.Random(13)
    for _ in range(25):
        merged = build(random_source(rng, "claim"), random_source(rng, "report:0"))
        assert set(t.key for t in merged.claim_triples) <= set(
            t.key for t in merged.triples
        )


# -- serialization ---------------------------------------------------------------


def test_canonical_json_is_stable() -> None:
    def build() -> KnowledgeGraph:
        return KnowledgeGraph(
            entities=(person("e1", "A"), place("e2", "B")),
            triples=(Triple("e1", Term("visited"), "e2", "report:2"),),
        )

    blob = build().canonical_json()
    assert build().canonical_json() == blob
    assert blob == (
        '{"entities":[{"class":"Person","id":"e1","surface":"A"},'
        '{"class":"Place","id":"e2","surface":"B"}],'
        '"triples":[{"head":"e1","provenance":"report:2","relation":"visited","tail":"e2"}]}'
    )
