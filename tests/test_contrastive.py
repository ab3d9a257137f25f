from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contrafact.contrastive import (
    HEAD,
    TAIL,
    FormulationError,
    RankingError,
    formulate,
    generate_candidates,
    mmr_rank,
)
from contrafact.gateway import HashEmbedder
from contrafact.kg import Entity, KnowledgeGraph, Term, Triple
from helpers import brute_force_candidate_texts, brute_force_mmr, random_graph


def example_graph() -> KnowledgeGraph:
    person = Term("Person")
    place = Term("Place")
    return KnowledgeGraph(
        entities=(
            Entity("a1", "A1", person),
            Entity("a2", "A2", person),
            Entity("p1", "P1", place),
            Entity("p2", "P2", place),
            Entity("p3", "P3", place),
        ),
        triples=(Triple("a1", Term("visited"), "p1", "claim"),),
    )


# -- candidate generation ---------------------------------------------------------


def test_no_claim_triples_means_no_candidates() -> None:
    graph = KnowledgeGraph(
        entities=(
            Entity("a1", "A1", Term("Person")),
            Entity("a2", "A2", Term("Person")),
        ),
        triples=(Triple("a1", Term("knows"), "a2", "report:0"),),
    )
    assert generate_candidates(graph) == []


def test_hand_enumerated_example() -> None:
    candidates = generate_candidates(example_graph())
    assert [(c.side, c.alternative) for c in candidates] == [
        (HEAD, "a2"),
        (TAIL, "p2"),
        (TAIL, "p3"),
    ]
    assert candidates[0].text == "Why did A1 visited P1, rather than A2 visited P1?"
    assert candidates[1].text == "Why did A1 visited P1, rather than A1 visited P2?"


def test_head_without_alternatives_still_yields_tail_questions() -> None:
    # head class is a singleton; tail class has two alternatives
    graph = KnowledgeGraph(
        entities=(
            Entity("a1", "A1", Term("Person")),
            Entity("p1", "P1", Term("Place")),
            Entity("p2", "P2", Term("Place")),
            Entity("p3", "P3", Term("Place")),
        ),
        triples=(Triple("a1", Term("visited"), "p1", "claim"),),
    )
    candidates = generate_candidates(graph)
    assert [c.side for c in candidates] == [TAIL, TAIL]
    assert {c.alternative for c in candidates} == {"p2", "p3"}


def test_duplicate_question_texts_are_deduplicated() -> None:
    # two alternatives with identical surfaces under the same class name casing
    graph = KnowledgeGraph(
        entities=(
            Entity("a1", "A1", Term("Person")),
            Entity("p1", "P1", Term("Place")),
            Entity("p2", "Same", Term("Place")),
            Entity("p3", "Same", Term("place ")),
        ),
        triples=(Triple("a1", Term("visited"), "p1", "claim"),),
    )
    candidates = generate_candidates(graph)
    texts = [c.text for c in candidates]
    assert len(texts) == len(set(texts)) == 1


def test_candidate_limit_caps_pool() -> None:
    assert len(generate_candidates(example_graph(), limit=2)) == 2
    assert generate_candidates(example_graph(), limit=0) == []


def test_candidates_match_brute_force_on_random_graphs() -> None:
    rng = random.Random(23)
    for _ in range(50):
        graph = random_graph(rng)
        texts = [c.text for c in generate_candidates(graph)]
        assert set(texts) == brute_force_candidate_texts(graph)
        assert len(texts) == len(set(texts))


def test_type_consistency_on_random_graphs() -> None:
    rng = random.Random(29)
    for _ in range(50):
        graph = random_graph(rng)
        for candidate in generate_candidates(graph):
            replaced = (
                candidate.source.head if candidate.side == HEAD else candidate.source.tail
            )
            assert candidate.alternative != replaced
            assert (
                graph.entity(candidate.alternative).entity_class
                == graph.entity(replaced).entity_class
            )


# -- anchor selection ---------------------------------------------------------------


def test_initial_query_singleton() -> None:
    assert mmr_rank([[1, 0]]).initial_index == 0


def test_initial_query_hand_example_with_tie() -> None:
    # avg sims: 0.5, 0.5, 0.0 -> tie between 0 and 1 breaks low
    assert mmr_rank([[1, 0], [1, 0], [0, 1]]).initial_index == 0


def test_initial_query_two_identical_vectors() -> None:
    assert mmr_rank([[3, 4], [3, 4]]).initial_index == 0


def test_initial_query_prefers_central_vector() -> None:
    embeddings = [[1, 0], [1, 1], [0, 1]]
    assert mmr_rank(embeddings).initial_index == 1


def test_zero_vector_rejected() -> None:
    with pytest.raises(RankingError):
        mmr_rank([[0, 0], [1, 0]])


def test_dimension_mismatch_rejected() -> None:
    with pytest.raises(RankingError):
        mmr_rank([[1, 0], [1, 0, 0]])


# -- ranking --------------------------------------------------------------------------


def test_mmr_hand_example_order_and_scores() -> None:
    trace = mmr_rank([[1, 0], [1, 0], [0, 1]])
    assert trace.initial_index == 0
    assert trace.order == [0, 1, 2]
    scores = [s for _, s in trace.steps]
    assert scores[0] == pytest.approx(1.0)
    assert scores[1] == pytest.approx(0.0)
    assert scores[2] == pytest.approx(0.0)


def test_mmr_single_element() -> None:
    trace = mmr_rank([[2, 2]])
    assert trace.initial_index == 0
    assert trace.order == [0]


def test_mmr_orthonormal_set_keeps_index_order() -> None:
    embeddings = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    trace = mmr_rank(embeddings)
    assert trace.order == [trace.initial_index] + [
        i for i in range(3) if i != trace.initial_index
    ]
    assert trace.order == [0, 1, 2]


def test_mmr_matches_brute_force_on_random_sets() -> None:
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 8)
        dim = rng.randint(2, 16)
        vectors = [[rng.uniform(-1, 1) for _ in range(dim)] for _ in range(n)]
        theta, order, scores = brute_force_mmr(vectors)
        trace = mmr_rank(vectors)
        assert trace.initial_index == theta
        assert trace.order == order
        for (_, got), expected in zip(trace.steps, scores):
            assert got == pytest.approx(expected, abs=1e-9)


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-10, max_value=10).filter(lambda v: abs(v) > 1e-6),
            min_size=3,
            max_size=3,
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=200, deadline=None)
def test_mmr_outputs_a_permutation(vectors) -> None:
    trace = mmr_rank(vectors)
    assert sorted(trace.order) == list(range(len(vectors)))


@given(
    st.lists(
        st.lists(
            st.floats(min_value=-8, max_value=8).filter(lambda v: abs(v) > 1e-3),
            min_size=4,
            max_size=4,
        ),
        min_size=2,
        max_size=8,
    ),
    st.sampled_from([2.0**k for k in range(-10, 11) if k != 0]),
)
@settings(max_examples=150, deadline=None)
def test_mmr_is_scale_invariant(vectors, scale) -> None:
    # power-of-two scales keep the arithmetic exact in binary floating point
    base = mmr_rank(vectors)
    scaled = mmr_rank([[scale * x for x in v] for v in vectors])
    assert scaled.order == base.order
    assert scaled.initial_index == base.initial_index


# -- formulate ---------------------------------------------------------------------


def test_formulate_returns_all_when_k_exceeds_pool() -> None:
    questions, trace = formulate(example_graph(), k=5, embed=HashEmbedder(16).embed)
    assert len(questions) == 3
    assert len(trace.steps) == 3


def test_formulate_empty_pool() -> None:
    graph = KnowledgeGraph(
        entities=(Entity("a1", "A1", Term("Person")),), triples=()
    )
    questions, trace = formulate(graph, k=5, embed=HashEmbedder(16).embed)
    assert questions == []
    assert trace.initial_index is None
    assert trace.steps == ()


def test_formulate_k_must_be_positive() -> None:
    with pytest.raises(ValueError):
        formulate(example_graph(), k=0, embed=HashEmbedder(4).embed)


def test_formulate_prefix_consistency() -> None:
    embedder = HashEmbedder(16)
    graph = example_graph()
    full, full_trace = formulate(graph, k=3, embed=embedder.embed)
    for k in (1, 2, 3):
        prefix, trace = formulate(graph, k=k, embed=embedder.embed)
        assert prefix == full[:k]
        assert trace == full_trace


def test_formulate_top_k_is_prefix_of_full_permutation() -> None:
    # ten candidates via nine alternative tails
    place = Term("Place")
    entities = [Entity("a1", "A1", Term("Person")), Entity("p0", "P0", place)]
    entities += [Entity(f"p{i}", f"P{i}", place) for i in range(1, 11)]
    graph = KnowledgeGraph(
        entities=tuple(entities),
        triples=(Triple("a1", Term("visited"), "p0", "claim"),),
    )
    embedder = HashEmbedder(16)
    full, trace = formulate(graph, k=10, embed=embedder.embed)
    assert len(trace.steps) == 10
    top5, _ = formulate(graph, k=5, embed=embedder.embed)
    assert top5 == full[:5]


def test_formulate_embedder_failure_carries_texts() -> None:
    def exploding(texts):
        raise RuntimeError("backend down")

    with pytest.raises(FormulationError) as excinfo:
        formulate(example_graph(), k=2, embed=exploding)
    assert len(excinfo.value.texts) == 3
    assert "Why did A1" in excinfo.value.texts[0]


def test_ranking_scales_to_large_pools() -> None:
    import time

    rng = random.Random(41)
    embeddings = [[rng.uniform(-1, 1) for _ in range(64)] for _ in range(300)]
    started = time.perf_counter()
    trace = mmr_rank(embeddings)
    elapsed = time.perf_counter() - started
    assert sorted(trace.order) == list(range(300))
    assert elapsed < 5.0  # vectorized path, generous bound for slow CI


def test_formulate_ranks_by_marginal_relevance_not_generation_order() -> None:
    graph = example_graph()
    candidates = generate_candidates(graph)
    mapping = {
        candidates[0].text: [1.0, 0.0],   # anchor-ish
        candidates[1].text: [0.9, 0.1],   # close to anchor: relevant but redundant
        candidates[2].text: [0.0, 1.0],   # orthogonal: diverse
    }
    questions, trace = formulate(graph, k=3, embed=lambda texts: [mapping[t] for t in texts])
    theta, order, _ = brute_force_mmr([mapping[c.text] for c in candidates])
    assert trace.initial_index == theta
    assert [q.text for q in questions] == [candidates[i].text for i in order]
