import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import starpg.rdf
from starpg import (
    XSD_INTEGER,
    XSD_STRING,
    BNode,
    Integer,
    Iri,
    Literal,
    Property,
    PropertyGraph,
    RdfStarGraph,
    Text,
    Triple,
    blank_node_labels,
    canonicalize_bnodes,
    embedded_triples,
    is_metadata_triple,
    is_minimal,
    isomorphic,
    mentioned_terms,
    metadata_triples,
    minimize,
    nesting_depth,
    ordinary_triples,
    pg_to_rdf_star,
    redundant_triples,
    relabel_bnodes,
    subject_object_nodes,
    subject_object_terms,
    term_key,
)
from conftest import (
    AGE_CERTAINTY,
    AGE_TRIPLE,
    ALICE,
    BOB,
    CERTAINTY,
    KNOWS,
    KNOWS_CERTAINTY,
    KNOWS_TRIPLE,
    NAME,
    NAME_ALICE,
    NAME_BOB,
)
import randgen

S = Iri("http://example.org/s")
P = Iri("http://example.org/p")
O = Iri("http://example.org/o")
Q = Iri("http://example.org/q")
R = Iri("http://example.org/r")
INNER = Triple(S, P, O)
META = Triple(INNER, Q, Literal("x"))
DOUBLY = Triple(META, R, Literal("y"))


class TestTermConstruction:
    def test_iri_requires_scheme_separator(self):
        with pytest.raises(ValueError):
            Iri("no-colon-here")

    @pytest.mark.parametrize("bad", ["http://x.org/a b", "http://x.org/<", ""])
    def test_iri_rejects_forbidden_characters(self, bad):
        with pytest.raises(ValueError):
            Iri(bad)

    @pytest.mark.parametrize("bad", ["", "1abc", "has space", "has_underscore"])
    def test_bnode_label_restricted(self, bad):
        with pytest.raises(ValueError):
            BNode(bad)

    def test_literal_defaults_to_string_datatype(self):
        assert Literal("Alice").datatype == Iri(XSD_STRING)

    def test_language_tag_forces_langstring(self):
        l = Literal("chat", language="fr")
        assert l.datatype.value.endswith("langString")

    def test_langstring_without_tag_rejected(self):
        with pytest.raises(ValueError):
            Literal("chat", Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"))

    def test_bad_language_tag_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", language="not a tag")

    def test_triple_rejects_literal_subject(self):
        with pytest.raises(TypeError):
            Triple(Literal("x"), P, O)

    def test_triple_rejects_non_iri_predicate(self):
        with pytest.raises(TypeError):
            Triple(S, BNode("b1"), O)


class TestNesting:
    def test_plain_triple_is_zero_nested(self):
        assert nesting_depth(NAME_ALICE) == 0

    def test_single_embedding_is_one_nested(self):
        assert nesting_depth(AGE_CERTAINTY) == 1

    def test_double_embedding_is_two_nested(self):
        assert nesting_depth(DOUBLY) == 2

    def test_metadata_means_depth_above_zero(self):
        assert not is_metadata_triple(NAME_ALICE)
        assert is_metadata_triple(KNOWS_CERTAINTY)
        assert is_metadata_triple(DOUBLY)


class TestClassification:
    def test_mentioned_terms_of_annotated_pair(self, alice_bob):
        expected = {
            ALICE, KNOWS, BOB, KNOWS_TRIPLE, CERTAINTY,
            Literal("0.5", Iri("http://www.w3.org/2001/XMLSchema#decimal")),
            NAME, Literal("Alice"), Literal("Bob"),
            Iri("http://xmlns.com/foaf/0.1/age"),
            Literal("23", Iri(XSD_INTEGER)),
            AGE_TRIPLE,
            Literal("0.9", Iri("http://www.w3.org/2001/XMLSchema#decimal")),
        }
        assert mentioned_terms(alice_bob) == expected
        assert len(mentioned_terms(alice_bob)) == 13

    def test_mentioned_terms_of_empty_graph(self):
        assert mentioned_terms(RdfStarGraph()) == frozenset()

    def test_mentioned_terms_of_plain_triple(self):
        assert mentioned_terms(Triple(S, P, O)) == {S, P, O}

    def test_embedded_triples(self, alice_bob):
        assert embedded_triples(alice_bob) == {KNOWS_TRIPLE, AGE_TRIPLE}

    def test_embedded_triples_of_plain_graph(self):
        assert embedded_triples(RdfStarGraph([NAME_ALICE, NAME_BOB])) == frozenset()

    def test_embedded_triples_recurse_through_levels(self):
        assert embedded_triples(RdfStarGraph([DOUBLY])) == {META, INNER}

    def test_metadata_triples(self, alice_bob):
        assert metadata_triples(alice_bob) == {KNOWS_CERTAINTY, AGE_CERTAINTY}
        assert metadata_triples(RdfStarGraph([NAME_ALICE])) == frozenset()

    def test_metadata_triples_of_reduced_graph(self, alice_bob_reduced):
        assert metadata_triples(alice_bob_reduced) == {KNOWS_CERTAINTY}

    def test_ordinary_triples_include_embedded_ones(self, alice_bob):
        assert ordinary_triples(alice_bob) == {
            KNOWS_TRIPLE, NAME_ALICE, NAME_BOB, AGE_TRIPLE,
        }

    def test_ordinary_triples_of_reduced_graph(self, alice_bob_reduced):
        assert ordinary_triples(alice_bob_reduced) == {
            KNOWS_TRIPLE, NAME_ALICE, NAME_BOB,
        }

    def test_subject_object_terms(self, alice_bob):
        assert subject_object_terms(alice_bob) == {
            ALICE, BOB, Literal("Alice"), Literal("Bob"),
            Literal("23", Iri(XSD_INTEGER)),
        }

    def test_subject_object_nodes(self, alice_bob_reduced):
        assert subject_object_nodes(alice_bob_reduced) == {ALICE, BOB}


class TestMinimality:
    def test_annotated_pair_is_minimal(self, alice_bob):
        assert redundant_triples(alice_bob) == frozenset()
        assert is_minimal(alice_bob)
        assert minimize(alice_bob) == alice_bob

    def test_reasserted_embedded_triple_is_redundant(self):
        g = RdfStarGraph([INNER, META])
        assert redundant_triples(g) == {INNER}
        assert not is_minimal(g)
        assert minimize(g) == RdfStarGraph([META])

    def test_empty_graph_is_minimal(self):
        assert is_minimal(RdfStarGraph())
        assert minimize(RdfStarGraph()) == RdfStarGraph()

    def test_minimize_runs_to_fixpoint(self):
        # removing a metadata triple may expose nothing new: one pass suffices,
        # but the postcondition must hold on chained redundancy too
        g = RdfStarGraph([INNER, META, DOUBLY])
        assert is_minimal(minimize(g))
        assert minimize(g) == RdfStarGraph([DOUBLY])

    def test_minimize_random_graphs_reach_fixpoint(self):
        rng = random.Random(7)
        for _ in range(200):
            g = randgen.random_rdf_star_graph(rng)
            m = minimize(g)
            assert is_minimal(m)
            assert m.triples <= g.triples


class TestTermOrder:
    def test_ranks_separate_kinds(self):
        terms = [Literal("a"), BNode("b1"), Iri("http://x.org/a"), Triple(S, P, O)]
        ordered = sorted(terms, key=term_key)
        assert [type(t).__name__ for t in ordered] == [
            "Iri", "BNode", "Literal", "Triple",
        ]

    def test_sort_is_total_on_mixed_terms(self):
        rng = random.Random(11)
        terms = []
        for _ in range(300):
            terms.extend(mentioned_terms(randgen.random_triple(rng, 2)))
        ordered = sorted(terms, key=term_key)
        assert sorted(ordered, key=term_key) == ordered

    @given(st.text(min_size=1))
    def test_literal_order_consistent_with_equality(self, s):
        a, b = Literal(s), Literal(s)
        assert term_key(a) == term_key(b)


class TestGraphContainer:
    def test_iteration_is_sorted_and_deterministic(self, alice_bob):
        listed = list(alice_bob)
        assert listed == sorted(listed, key=term_key)
        assert listed == list(RdfStarGraph(reversed(listed)))

    def test_set_semantics(self):
        g = RdfStarGraph([NAME_ALICE, NAME_ALICE])
        assert len(g) == 1
        assert NAME_ALICE in g

    def test_union_difference(self, alice_bob):
        only_names = RdfStarGraph([NAME_ALICE, NAME_BOB])
        assert only_names.union([KNOWS_CERTAINTY, AGE_CERTAINTY]) == alice_bob
        assert alice_bob.difference([KNOWS_CERTAINTY, AGE_CERTAINTY]) == only_names


class TestBlankNodeHandling:
    def test_relabel_is_simultaneous(self):
        g = RdfStarGraph([Triple(BNode("a"), P, BNode("b"))])
        swapped = relabel_bnodes(g, {"a": "b", "b": "a"})
        assert swapped == RdfStarGraph([Triple(BNode("b"), P, BNode("a"))])

    def test_canonicalize_numbers_by_first_appearance(self):
        g = RdfStarGraph([
            Triple(BNode("zz"), P, BNode("qq")),
            Triple(BNode("qq"), Q, Literal("x")),
        ])
        canon = canonicalize_bnodes(g)
        assert blank_node_labels(canon) == {"b1", "b2"}

    def test_canonicalize_is_idempotent_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(300):
            g = randgen.random_rdf_star_graph(rng)
            once = canonicalize_bnodes(g)
            assert canonicalize_bnodes(once) == once

    def test_canonicalize_reaches_into_embedded_triples(self):
        g = RdfStarGraph([Triple(Triple(BNode("k"), P, O), Q, Literal("v"))])
        canon = canonicalize_bnodes(g)
        assert blank_node_labels(canon) == {"b1"}


def _fixpoint_oracle(g: RdfStarGraph) -> tuple[RdfStarGraph, int]:
    """canonicalize_bnodes as first written, rebuilding the graph on every
    pass; returns the result and the length of the cycle the passes ended
    on (1 when they reached a fixpoint)."""

    def renumber_pass(h: RdfStarGraph) -> RdfStarGraph:
        order: list[str] = []
        seen: set[str] = set()

        def walk(x) -> None:
            if isinstance(x, BNode):
                if x.label not in seen:
                    seen.add(x.label)
                    order.append(x.label)
            elif isinstance(x, Triple):
                walk(x.subject)
                walk(x.object)

        for t in h:
            walk(t)
        return relabel_bnodes(h, {label: f"b{i}" for i, label in enumerate(order, start=1)})

    if not blank_node_labels(g):
        return g, 1
    visited: dict[frozenset, int] = {}
    states: list[frozenset] = []
    current = g
    while current.triples not in visited:
        visited[current.triples] = len(states)
        states.append(current.triples)
        renumbered = renumber_pass(current)
        if renumbered == current:
            return current, 1
        current = renumbered
    cycle = states[visited[current.triples]:]
    smallest = min((RdfStarGraph(c) for c in cycle),
                   key=lambda h: tuple(term_key(t) for t in h))
    return smallest, len(cycle)


def _bnode_dense_graph(rng: random.Random) -> RdfStarGraph:
    """5-15 blank nodes wired at random, a fifth of the triples annotated."""
    nodes = [BNode(f"n{i}") for i in range(rng.randint(5, 15))]
    objects = nodes + [O, Literal("v")]
    triples = set()
    for _ in range(rng.randint(len(nodes), 2 * len(nodes))):
        t = Triple(rng.choice(nodes), rng.choice((P, Q)), rng.choice(objects))
        if rng.random() < 0.2:
            t = Triple(t, R, rng.choice(nodes + [Literal("w")]))
        triples.add(t)
    return RdfStarGraph(triples)


def _circulant_pg(n: int) -> PropertyGraph:
    """n vertices, each knowing the next two; the edge to the second
    carries a property.  pg_to_rdf_star gives each vertex a blank node."""
    vertices = [f"v{i:03d}" for i in range(n)]
    edges: list[str] = []
    src, tgt, lbl = {}, {}, {}
    props = {v: [Property("name", Text(v))] for v in vertices}
    for i, v in enumerate(vertices):
        for step in (1, 2):
            e = f"e{len(edges) + 1}"
            edges.append(e)
            src[e], tgt[e], lbl[e] = v, vertices[(i + step) % n], "knows"
            props[e] = [Property("since", Integer(1990 + i))] if step == 2 else []
    return PropertyGraph(vertices, edges, src, tgt, lbl, props)


class TestCanonicalizationOracle:
    def test_matches_oracle_on_random_corpus(self):
        rng = random.Random(29)
        for _ in range(1000):
            g = randgen.random_rdf_star_graph(rng)
            assert canonicalize_bnodes(g) == _fixpoint_oracle(g)[0]

    def test_matches_oracle_on_bnode_dense_graphs(self):
        rng = random.Random(31)
        cycles = 0
        for _ in range(400):
            g = _bnode_dense_graph(rng)
            want, cycle = _fixpoint_oracle(g)
            assert canonicalize_bnodes(g) == want
            cycles += cycle > 1
        # the smallest-state branch must be exercised, not just the fixpoint
        assert cycles >= 100

    def test_matches_oracle_on_circulant_pg2rdf_output(self):
        g = pg_to_rdf_star(_circulant_pg(24))
        assert canonicalize_bnodes(g) == _fixpoint_oracle(g)[0]

    def test_one_relabel_call_per_canonicalization(self, monkeypatch):
        calls = []
        relabel = starpg.rdf.relabel_bnodes

        def counting(g, mapping):
            calls.append(len(g))
            return relabel(g, mapping)

        monkeypatch.setattr(starpg.rdf, "relabel_bnodes", counting)
        for g in (pg_to_rdf_star(_circulant_pg(32)), _bnode_dense_graph(random.Random(3)),
                  RdfStarGraph([Triple(BNode("b1"), P, O)])):
            calls.clear()
            canonicalize_bnodes(g)
            assert len(calls) == 1


class TestIsomorphism:
    def test_equal_graphs_are_isomorphic(self, alice_bob):
        assert isomorphic(alice_bob, alice_bob)

    def test_renamed_bnodes_are_isomorphic(self):
        rng = random.Random(17)
        for _ in range(200):
            g = randgen.random_rdf_star_graph(rng)
            renamed = relabel_bnodes(
                g, {l: f"z{i}" for i, l in enumerate(sorted(blank_node_labels(g)), 1)}
            )
            assert isomorphic(g, renamed)

    def test_different_sizes_not_isomorphic(self, alice_bob, alice_bob_reduced):
        assert not isomorphic(alice_bob, alice_bob_reduced)

    def test_ground_difference_not_isomorphic(self):
        a = RdfStarGraph([Triple(S, P, Literal("x"))])
        b = RdfStarGraph([Triple(S, P, Literal("y"))])
        assert not isomorphic(a, b)

    def test_structure_difference_beats_label_counts(self):
        # same label multiset, different wiring
        a = RdfStarGraph([
            Triple(BNode("a"), P, BNode("b")),
            Triple(BNode("b"), P, BNode("c")),
        ])
        b = RdfStarGraph([
            Triple(BNode("a"), P, BNode("b")),
            Triple(BNode("c"), P, BNode("b")),
        ])
        assert not isomorphic(a, b)

    def test_symmetric_cycle_isomorphic_under_rotation(self):
        cycle = lambda x, y, z: RdfStarGraph([
            Triple(BNode(x), P, BNode(y)),
            Triple(BNode(y), P, BNode(z)),
            Triple(BNode(z), P, BNode(x)),
        ])
        assert isomorphic(cycle("a", "b", "c"), cycle("m", "n", "o"))

    def test_bnodes_inside_embeddings_must_correspond(self):
        a = RdfStarGraph([
            Triple(Triple(BNode("a"), P, O), Q, Literal("v")),
            Triple(BNode("a"), R, Literal("w")),
        ])
        b = RdfStarGraph([
            Triple(Triple(BNode("a"), P, O), Q, Literal("v")),
            Triple(BNode("other"), R, Literal("w")),
        ])
        assert not isomorphic(a, b)


def _rescanning_isomorphic(a: RdfStarGraph, b: RdfStarGraph) -> bool:
    """isomorphic as first written: after each assignment it rescans every
    source triple and checks all the fully assigned ones."""
    if a.triples == b.triples:
        return True
    if len(a) != len(b):
        return False
    la = sorted(blank_node_labels(a))
    lb = sorted(blank_node_labels(b))
    if len(la) != len(lb) or not la:
        return False
    skeleton = starpg.rdf._skeleton
    if Counter(skeleton(t) for t in a.triples) != Counter(skeleton(t) for t in b.triples):
        return False
    siga = starpg.rdf._bnode_signatures(a)
    sigb = starpg.rdf._bnode_signatures(b)
    if sorted(siga.values()) != sorted(sigb.values()):
        return False
    candidates = {x: [y for y in lb if sigb[y] == siga[x]] for x in la}
    order = sorted(la, key=lambda x: len(candidates[x]))
    source = list(a.triples)
    labels_of = {t: frozenset(x.label for x in mentioned_terms(t) if isinstance(x, BNode))
                 for t in source}
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent() -> bool:
        return all(starpg.rdf._map_triple(t, mapping) in b.triples
                   for t in source if labels_of[t] and labels_of[t] <= mapping.keys())

    def extend(i: int) -> bool:
        if i == len(order):
            return relabel_bnodes(a, mapping).triples == b.triples
        x = order[i]
        for y in candidates[x]:
            if y in used:
                continue
            mapping[x] = y
            used.add(y)
            if consistent() and extend(i + 1):
                return True
            del mapping[x]
            used.discard(y)
        return False

    return extend(0)


def _shuffled_labels(g: RdfStarGraph, rng: random.Random) -> RdfStarGraph:
    labels = sorted(blank_node_labels(g))
    renamed = [f"z{i}" for i in range(len(labels))]
    rng.shuffle(renamed)
    return relabel_bnodes(g, dict(zip(labels, renamed)))


class TestIsomorphismOracle:
    def graphs(self, seed: int):
        rng = random.Random(seed)
        for i in range(600):
            g = _bnode_dense_graph(rng) if i % 2 else randgen.random_rdf_star_graph(rng)
            yield g, _shuffled_labels(g, rng), rng

    def test_matches_oracle_on_relabelled_copies(self):
        for g, h, _ in self.graphs(37):
            assert isomorphic(g, h) is _rescanning_isomorphic(g, h) is True

    def test_matches_oracle_with_one_triple_changed(self):
        for g, h, rng in self.graphs(41):
            if not h:
                continue
            triples = sorted(h.triples, key=term_key)
            t = triples.pop(rng.randrange(len(triples)))
            triples.append(Triple(t.subject, Q if t.predicate != Q else P, t.object))
            changed = RdfStarGraph(triples)
            assert isomorphic(g, changed) == _rescanning_isomorphic(g, changed)

    def test_matches_oracle_with_two_blank_nodes_rewired(self):
        outcomes = set()
        for g, h, rng in self.graphs(43):
            triples = sorted(h.triples, key=term_key)
            hosts = [t for t in triples if len(blank_node_labels(RdfStarGraph([t]))) >= 2]
            if not hosts:
                continue
            t = rng.choice(hosts)
            x, y = rng.sample(sorted(blank_node_labels(RdfStarGraph([t]))), 2)
            rewired = h.difference([t]).union(relabel_bnodes(RdfStarGraph([t]), {x: y, y: x}))
            result = isomorphic(g, rewired)
            assert result == _rescanning_isomorphic(g, rewired)
            outcomes.add(result)
        assert outcomes == {False, True}

    def test_map_triple_calls_bounded_by_degree(self, monkeypatch):
        # 2,000 blank nodes, each with a unique name and one knows edge:
        # every label has one candidate, and each triple is checked once
        # when its last label is assigned, plus once in the final relabel.
        n = 2000
        name, knows = Iri("http://example.org/name"), Iri("http://example.org/knows")
        a = RdfStarGraph(
            [Triple(BNode(f"x{i}"), name, Literal(f"person {i}")) for i in range(n)]
            + [Triple(BNode(f"x{i}"), knows, BNode(f"x{(i * 7 + 1) % n}")) for i in range(n)]
        )
        b = _shuffled_labels(a, random.Random(47))
        calls = []
        map_triple = starpg.rdf._map_triple

        def counting(t, mapping):
            calls.append(t)
            return map_triple(t, mapping)

        monkeypatch.setattr(starpg.rdf, "_map_triple", counting)
        assert isomorphic(a, b)
        assert len(calls) <= 3 * len(a)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_canonical_form_stable_under_order_preserving_relabeling(seed):
    rng = random.Random(seed)
    g = randgen.random_rdf_star_graph(rng, max_triples=8)
    # the pool holds six labels, so w1..w6 keeps their relative order
    relabeled = relabel_bnodes(
        g, {l: f"w{i}" for i, l in enumerate(sorted(blank_node_labels(g)), 1)}
    )
    canon = canonicalize_bnodes(g)
    assert isomorphic(g, canon)
    assert canonicalize_bnodes(relabeled) == canon
