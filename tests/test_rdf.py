import random
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import starpg.rdf
from starpg import (
    DEFAULT_PROPERTY_KEY_PREFIX,
    XSD_DECIMAL,
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
    serialize_turtle_star,
    subject_object_nodes,
    subject_object_terms,
    term_key,
    unfold_to_rdf,
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

    def test_minimal_graph_is_returned_itself(self, alice_bob):
        assert minimize(alice_bob) is alice_bob
        g = minimize(RdfStarGraph([INNER, META]))
        assert minimize(g) is g

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


def _nested_term_key(term):
    """term_key as first written: a (tag, fields) tuple per term, a triple's
    fields being the nested keys of its three terms."""
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, BNode):
        return (1, term.label)
    if isinstance(term, Literal):
        return (2, (term.lexical_form, term.datatype.value, term.language or ""))
    return (3, (_nested_term_key(term.subject), _nested_term_key(term.predicate),
                _nested_term_key(term.object)))


def _nested_skeleton(x, labels: list[str]):
    """rdf._skeleton as first written, on the nested keys."""
    if isinstance(x, BNode):
        labels.append(x.label)
        return (1, "")
    if isinstance(x, Triple):
        return (3, (_nested_skeleton(x.subject, labels), _nested_term_key(x.predicate),
                    _nested_skeleton(x.object, labels)))
    return _nested_term_key(x)


def _assert_same_order(items, key, oracle) -> None:
    """key orders items as oracle does, and two keys are equal exactly
    when the oracle's are."""
    ranked = sorted(((oracle(x), key(x)) for x in items), key=lambda pair: pair[0])
    for (n1, k1), (n2, k2) in zip(ranked, ranked[1:]):
        assert k1 <= k2
        assert (k1 == k2) == (n1 == n2)


def _assert_pair_ordered_alike(a, b) -> None:
    ka, kb, na, nb = term_key(a), term_key(b), _nested_term_key(a), _nested_term_key(b)
    assert (ka < kb, ka == kb, ka > kb) == (na < nb, na == nb, na > nb)


def _chain(depth: int, inner: Triple, side: str = "subject") -> Triple:
    """inner embedded depth levels deep, in subject or object position."""
    t = inner
    for _ in range(depth):
        t = Triple(t, P, O) if side == "subject" else Triple(S, P, t)
    return t


class TestFlatKeyOracle:
    """The flat term_key and skeletons against the nested forms they
    replaced: the same order and the same equal keys."""

    def test_random_terms(self):
        rng = random.Random(61)
        terms = []
        for _ in range(400):
            terms.extend(mentioned_terms(randgen.random_triple(rng, 2)))
        for _ in range(100):
            terms.extend(randgen.random_rdf_star_graph(rng).triples)
        terms += [randgen.random_literal(rng) for _ in range(200)]
        _assert_same_order(terms, term_key, _nested_term_key)

    def test_random_skeletons(self):
        rng = random.Random(67)
        for i in range(200):
            g = _bnode_dense_graph(rng) if i % 2 else randgen.random_rdf_star_graph(rng)
            flat: dict[Triple, list[str]] = {t: [] for t in g.triples}
            nested: dict[Triple, list[str]] = {t: [] for t in g.triples}
            _assert_same_order(g.triples, lambda t: starpg.rdf._skeleton(t, flat[t]),
                               lambda t: _nested_skeleton(t, nested[t]))
            assert flat == nested

    @pytest.mark.parametrize("a,b", [
        (O, INNER),
        (Iri("http://example.org/zzz"), Triple(S, P, O)),
        (BNode("z"), INNER),
        (Literal("zz"), INNER),
        (Literal("a", language="en"), Literal("a")),
        (Literal("a", language="en"), Literal("a", language="en-GB")),
        (Literal("a", language="de"), Literal("b")),
        (Literal("", language="en"), Literal("")),
        (Literal("1", Iri(XSD_INTEGER)), Literal("1", Iri(XSD_DECIMAL))),
        (Literal("1", Iri(XSD_INTEGER)), Literal("1")),
        (META, INNER),
        (META, Triple(S, Q, INNER)),
        (Triple(INNER, P, O), Triple(S, P, INNER)),
        (Triple(INNER, P, O), Triple(Iri("http://example.org/zzz"), P, O)),
        (Triple(BNode("a"), P, O), Triple(INNER, P, O)),
        (Triple(S, P, Literal("x")), Triple(S, P, INNER)),
        (Triple(S, P, Literal("x", language="en")), Triple(S, P, Literal("x"))),
        (Triple(S, P, O), Triple(S, Q, O)),
        (DOUBLY, META),
        (INNER, Triple(S, P, O)),
    ])
    def test_cross_kind_pairs(self, a, b):
        _assert_pair_ordered_alike(a, b)
        _assert_pair_ordered_alike(b, a)

    def test_chains_nested_to_the_limit(self):
        depth = starpg.rdf.MAX_NESTING_DEPTH
        leaves = [INNER, Triple(S, P, Literal("x")), Triple(S, P, Literal("x", language="en")),
                  Triple(BNode("b"), P, O)]
        terms = [_chain(d, leaf, side) for leaf in leaves for side in ("subject", "object")
                 for d in (0, 1, depth - 1, depth)]
        assert max(map(nesting_depth, terms)) == depth
        _assert_same_order(terms, term_key, _nested_term_key)
        for a in terms:
            for b in terms:
                _assert_pair_ordered_alike(a, b)
        labels: list[str] = []
        deepest = _chain(depth, Triple(BNode("b"), P, O))
        assert starpg.rdf._skeleton(deepest, labels) == (
            (3,) * (depth + 1) + (1, "") + (0, P.value, 0, O.value) * (depth + 1))
        assert labels == ["b"]


class TestGraphContainer:
    def test_iteration_is_sorted_and_deterministic(self, alice_bob):
        listed = list(alice_bob)
        assert listed == sorted(listed, key=term_key)
        assert listed == list(RdfStarGraph(reversed(listed)))

    def test_set_semantics(self):
        g = RdfStarGraph([NAME_ALICE, NAME_ALICE])
        assert len(g) == 1
        assert NAME_ALICE in g


class TestBlankNodeHandling:
    def test_relabel_is_simultaneous(self):
        g = RdfStarGraph([Triple(BNode("a"), P, BNode("b"))])
        swapped = relabel_bnodes(g, {"a": "b", "b": "a"})
        assert swapped == RdfStarGraph([Triple(BNode("b"), P, BNode("a"))])

    def test_relabel_keeps_triples_it_does_not_change(self):
        # A triple with no renamed blank node is kept as the same object,
        # embedded ones included; only the others are built anew.
        kept = [Triple(S, P, O), Triple(Triple(BNode("c"), P, O), Q, Literal("x"))]
        renamed = Triple(Triple(BNode("a"), P, O), Q, Literal("x"))
        out = relabel_bnodes(RdfStarGraph([*kept, renamed]), {"a": "b"})
        assert all(any(t is u for u in out.triples) for t in kept)
        new = next(t for t in out.triples if t not in kept)
        assert new.subject.subject == BNode("b")
        assert new.object is renamed.object and new.subject.object is O

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


def _assert_canonical(g: RdfStarGraph, want: RdfStarGraph, rng: random.Random) -> None:
    """canonicalize_bnodes(g) is isomorphic to want, and a random
    relabelling of g gives the same result."""
    got = canonicalize_bnodes(g)
    assert isomorphic(got, want)
    assert canonicalize_bnodes(_shuffled_labels(g, rng)) == got


class TestCanonicalizationOracle:
    # The canonical labelling numbers blank nodes differently from the
    # renumbering fixpoint it replaced, so the oracle's result is compared
    # up to isomorphism, and the numbering is checked to ignore input labels.

    def test_matches_oracle_on_random_corpus(self):
        rng = random.Random(29)
        for _ in range(1000):
            g = randgen.random_rdf_star_graph(rng)
            _assert_canonical(g, _fixpoint_oracle(g)[0], rng)

    def test_matches_oracle_on_bnode_dense_graphs(self):
        rng = random.Random(31)
        cycles = 0
        for _ in range(400):
            g = _bnode_dense_graph(rng)
            want, cycle = _fixpoint_oracle(g)
            _assert_canonical(g, want, rng)
            cycles += cycle > 1
        # the smallest-state branch must be exercised, not just the fixpoint
        assert cycles >= 100

    def test_matches_oracle_on_circulant_pg2rdf_output(self):
        g = pg_to_rdf_star(_circulant_pg(24))
        _assert_canonical(g, _fixpoint_oracle(g)[0], random.Random(33))

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


def _cycle(labels: list[str], p: Iri = P) -> list[Triple]:
    """Blank nodes linked in a directed cycle, the last back to the first."""
    return [Triple(BNode(x), p, BNode(y)) for x, y in zip(labels, labels[1:] + labels[:1])]


def _hexagon_and_triangles(labels: list[str]) -> RdfStarGraph:
    """A 6-cycle and two 3-cycles over twelve labels.  Every node has one
    in-edge and one out-edge, so refinement cannot tell the cycles apart."""
    return RdfStarGraph(_cycle(labels[:6]) + _cycle(labels[6:9]) + _cycle(labels[9:]))


def _nameless_circulant() -> RdfStarGraph:
    """pg2rdf output of _circulant_pg without its name triples."""
    name = Iri(DEFAULT_PROPERTY_KEY_PREFIX + "name")
    return RdfStarGraph(t for t in pg_to_rdf_star(_circulant_pg(24)) if t.predicate != name)


def _tie_heavy_corpus() -> dict[str, RdfStarGraph]:
    """Symmetric graphs.  Colour refinement alone separates the blank nodes
    of none of them but the nameless circulant."""
    corpus = {f"cycle-{n}": RdfStarGraph(_cycle([f"c{i}" for i in range(n)]))
              for n in (2, 3, 7, 12)}
    corpus["self-loops"] = RdfStarGraph(_cycle([f"l{i}"])[0] for i in range(4))
    corpus["hexagon-and-triangles"] = _hexagon_and_triangles([f"b{i}" for i in range(2, 14)])
    corpus["two-hexagons"] = RdfStarGraph(
        _cycle([f"h{i}" for i in range(6)]) + _cycle([f"k{i}" for i in range(6)]))
    corpus["disjoint-edges"] = RdfStarGraph(
        Triple(BNode(f"s{i}"), P, BNode(f"o{i}")) for i in range(15))
    corpus["disjoint-annotated-pairs"] = RdfStarGraph(
        t for i in range(11)
        for t in (Triple(Triple(BNode(f"a{i}"), P, BNode(f"b{i}")), Q, Literal("v")),
                  Triple(BNode(f"b{i}"), R, O)))
    corpus["disjoint-triangles-with-annotations"] = RdfStarGraph(
        t for i in range(5) for t in _cycle([f"t{i}x", f"t{i}y", f"t{i}z"])
        + [Triple(Triple(BNode(f"t{i}x"), Q, BNode(f"t{i}z")), R, Literal("w"))])
    corpus["circulant-pg2rdf-without-names"] = _nameless_circulant()
    corpus["bnode-circulant"] = RdfStarGraph(
        t for i in range(20)
        for t in (Triple(BNode(f"v{i}"), P, BNode(f"v{(i + 1) % 20}")),
                  Triple(Triple(BNode(f"v{i}"), Q, BNode(f"v{(i + 2) % 20}")), R, Literal("w"))))
    return corpus


def _nested_chain(depth: int) -> RdfStarGraph:
    """One triple nesting depth levels of << >> over IRIs only."""
    t = Triple(S, P, O)
    for _ in range(depth):
        t = Triple(t, P, O)
    return RdfStarGraph([t])


def _anon_shaped(persons: int) -> RdfStarGraph:
    """The unfolded Turtle-star graph of the anon-1k workload, scaled: named
    persons who know each other and an anonymous person each, a chain of
    two anonymous nodes per person, and certainty annotations that repeat
    a few values on half the knows triples."""
    name, knows = Iri("http://xmlns.com/foaf/0.1/name"), Iri("http://xmlns.com/foaf/0.1/knows")
    certainty = Iri("http://example.org/certainty")
    people = [Iri(f"http://example.org/p{i}") for i in range(persons)]
    triples: list[Triple] = []
    for i, p in enumerate(people):
        x, y = BNode(f"x{i}"), BNode(f"y{i}")
        triples += [Triple(p, name, Literal(f"person {i}")), Triple(p, knows, x),
                    Triple(x, knows, y), Triple(y, name, Literal("anonymous"))]
        friend = Triple(p, knows, people[(7 * i + 1) % persons])
        if i % 2:
            friend = Triple(friend, certainty, Literal(f"0.{i % 10}", Iri(XSD_DECIMAL)))
        triples.append(friend)
    return unfold_to_rdf(RdfStarGraph(triples))


def _refined(g: RdfStarGraph):
    """The blank node labels of g and their partition after refinement."""
    labels, rows = starpg.rdf._host_rows(g)
    return labels, starpg.rdf._refined(labels, rows)


@pytest.fixture
def refine_rounds(monkeypatch) -> list[int]:
    """Records the number of touched nodes of every colour-refinement round."""
    rounds: list[int] = []
    refine_round = starpg.rdf._refine_round

    def counting(partition, touched):
        rounds.append(len(touched))
        return refine_round(partition, touched)

    monkeypatch.setattr(starpg.rdf, "_refine_round", counting)
    return rounds


@pytest.fixture
def individualizations(monkeypatch) -> list[int]:
    """Records every node individualized, by tie-breaks or by a search."""
    nodes: list[int] = []
    individualize = starpg.rdf._individualize

    def counting(partition, n):
        nodes.append(n)
        return individualize(partition, n)

    monkeypatch.setattr(starpg.rdf, "_individualize", counting)
    return nodes


class TestCanonicalLabelling:
    def test_few_rounds_on_anon_shaped_graphs_with_2000_blank_nodes(self, refine_rounds):
        for g in (_anon_shaped(800), pg_to_rdf_star(_circulant_pg(2000))):
            assert len(blank_node_labels(g)) >= 2000
            refine_rounds.clear()
            canon = canonicalize_bnodes(g)
            assert len(refine_rounds) <= 2
            n = len(blank_node_labels(g))
            assert blank_node_labels(canon) == {f"b{i}" for i in range(1, n + 1)}

    def test_rounds_on_a_100_level_reification_chain(self, refine_rounds):
        g = unfold_to_rdf(_nested_chain(100))
        n = len(blank_node_labels(g))
        assert n == 100
        canon = canonicalize_bnodes(g)
        assert len(refine_rounds) <= n + 1
        assert canonicalize_bnodes(canon) == canon
        assert isomorphic(g, canon)

    @pytest.mark.parametrize("name", sorted(_tie_heavy_corpus()))
    def test_tie_heavy_corpus(self, name):
        g = _tie_heavy_corpus()[name]
        canon = canonicalize_bnodes(g)
        n = len(blank_node_labels(g))
        assert blank_node_labels(canon) == {f"b{i}" for i in range(1, n + 1)}
        assert canonicalize_bnodes(canon) == canon
        assert serialize_turtle_star(g) == serialize_turtle_star(g)
        assert isomorphic(g, canon)
        assert isomorphic(canon, g)

    def test_corpus_needs_tie_breaks(self):
        # Only the since annotations, which differ per vertex, let refinement
        # alone separate the nodes of the nameless circulant.
        for name, g in _tie_heavy_corpus().items():
            labels, partition = _refined(g)
            assert partition.discrete() == (name == "circulant-pg2rdf-without-names"), name
            starpg.rdf._break_ties(partition)
            assert sorted(partition.colours()) == list(range(1, len(labels) + 1))

    def test_ties_break_on_natural_label_order(self):
        # b2..b7 form the hexagon and b8..b13 the triangles.  Under natural
        # order b2 is the smallest label, so a hexagon node is
        # individualized first and is numbered b1; under string order b10,
        # a triangle node, would come first.
        canon = canonicalize_bnodes(_hexagon_and_triangles([f"b{i}" for i in range(2, 14)]))
        successor = {t.subject.label: t.object.label for t in canon}
        x, steps = successor["b1"], 1
        while x != "b1":
            x, steps = successor[x], steps + 1
        assert steps == 6


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


def _oracle_skeleton(x):
    """Structure key with every blank node erased."""
    if isinstance(x, Iri):
        return ("iri", x.value)
    if isinstance(x, BNode):
        return ("bnode", "")
    if isinstance(x, Literal):
        return ("lit", (x.lexical_form, x.datatype.value, x.language or ""))
    return ("triple", (_oracle_skeleton(x.subject), _oracle_skeleton(x.predicate),
                       _oracle_skeleton(x.object)))


def _oracle_signatures(g: RdfStarGraph) -> dict[str, tuple]:
    """Label -> sorted occurrence contexts (position path, host skeleton)."""
    occ: dict[str, list] = {}

    def walk(x, path: tuple, skel) -> None:
        if isinstance(x, BNode):
            occ.setdefault(x.label, []).append((path, skel))
        elif isinstance(x, Triple):
            walk(x.subject, path + ("s",), skel)
            walk(x.object, path + ("o",), skel)

    for t in g.triples:
        walk(t, (), _oracle_skeleton(t))
    return {label: tuple(sorted(entries)) for label, entries in occ.items()}


def _oracle_map_term(x, mapping: dict[str, str]):
    """x with its blank nodes renamed by mapping, as first written."""
    if isinstance(x, BNode):
        new = mapping.get(x.label)
        return BNode(new) if new is not None else x
    if isinstance(x, Triple):
        return Triple(_oracle_map_term(x.subject, mapping), x.predicate,
                      _oracle_map_term(x.object, mapping))
    return x


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
    if Counter(map(_oracle_skeleton, a.triples)) != Counter(map(_oracle_skeleton, b.triples)):
        return False
    siga = _oracle_signatures(a)
    sigb = _oracle_signatures(b)
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
        return all(_oracle_map_term(t, mapping) in b.triples
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
            swapped = relabel_bnodes(RdfStarGraph([t]), {x: y, y: x})
            rewired = RdfStarGraph((h.triples - {t}) | swapped.triples)
            result = isomorphic(g, rewired)
            assert result == _rescanning_isomorphic(g, rewired)
            outcomes.add(result)
        assert outcomes == {False, True}

    def test_decides_tie_heavy_graphs(self):
        # The corpus graphs are pairwise not isomorphic, by construction, and
        # each is isomorphic to its relabelled copy.  The rescanning oracle
        # takes seconds per pair here, so the construction is the oracle.
        rng = random.Random(53)
        corpus = [(name, g) for name, g in _tie_heavy_corpus().items()]
        corpus += [(name, _shuffled_labels(g, rng)) for name, g in corpus]
        same_size = 0
        for name_g, g in corpus:
            for name_h, h in corpus:
                assert isomorphic(g, h) == (name_g == name_h)
                same_size += len(g) == len(h) and name_g != name_h
        assert same_size >= 20

    @pytest.mark.parametrize("hubs, extra", [
        pytest.param(0, (), id="0"),
        pytest.param(2, (), id="2"),
        pytest.param(2, (Triple(BNode("z"), P, O),), id="2-fixed-node"),
    ])
    def test_search_decides_when_tie_breaks_differ(self, hubs, extra):
        # Refinement cannot tell a 6-cycle from a 3-cycle.  The smallest
        # label lies on the hexagon in one copy and on a triangle in the
        # other, so their canonical forms differ and isomorphic must look
        # past them; two hexagons are not isomorphic to either.  Two tied
        # blank hubs joined to every cycle node make each graph one
        # component with no node fixed, so isomorphic must branch on a hub
        # before the cycles split apart.  A blank node of its own class
        # beside them is fixed, so the hubbed component becomes a
        # subproblem whose canonical forms differ between the copies, and
        # the subproblems must be paired by search.
        def hubbed(g: RdfStarGraph) -> RdfStarGraph:
            return RdfStarGraph(g.triples | {Triple(BNode(f"hub{h}"), Q, BNode(x))
                                             for h in range(hubs) for x in blank_node_labels(g)}
                                | set(extra))

        on_hexagon = hubbed(_hexagon_and_triangles([f"b{i}" for i in range(2, 14)]))
        on_triangle = hubbed(
            _hexagon_and_triangles([f"b{i}" for i in (*range(8, 14), *range(2, 8))]))
        assert canonicalize_bnodes(on_hexagon) != canonicalize_bnodes(on_triangle)
        assert isomorphic(on_hexagon, on_triangle)
        assert _rescanning_isomorphic(on_hexagon, on_triangle)
        two_hexagons = hubbed(_tie_heavy_corpus()["two-hexagons"])
        assert not isomorphic(on_hexagon, two_hexagons)
        assert not isomorphic(two_hexagons, on_triangle)

    def test_ground_difference_next_to_symmetric_components(self, individualizations):
        # Twelve disjoint blank-node edges tie in two classes of twelve.
        edges = [Triple(BNode(f"s{i}"), P, BNode(f"o{i}")) for i in range(12)]
        a = RdfStarGraph(edges + [Triple(S, P, O)])
        b = RdfStarGraph(edges + [Triple(S, P, S)])
        assert not isomorphic(a, b)
        assert not isomorphic(b, a)
        assert individualizations == []

    @pytest.mark.parametrize("hubs", [0, 1, 2])
    @pytest.mark.parametrize("pairs", [1, 6])
    @pytest.mark.parametrize("loop", [P, R])
    def test_self_loops_against_two_cycles_next_to_symmetric_parts(
            self, individualizations, hubs, pairs, loop):
        # Refinement cannot tell 2 * pairs self-loops from pairs 2-cycles.
        # Twelve disjoint edges lie beside them, or hang with them off one or
        # two blank hubs, so the graphs are a single component.  With loops
        # on R, the loops' class comes after the edges' classes in colour
        # order, so a search that took the first tied class would try every
        # order of the edges first.
        edges = [Triple(BNode(f"s{i}"), P, BNode(f"o{i}")) for i in range(12)]
        loops = [f"l{i}" for i in range(2 * pairs)]
        spokes = [Triple(BNode(f"hub{h}"), Q, BNode(x))
                  for h in range(hubs) for x in [f"s{i}" for i in range(12)] + loops]
        a = RdfStarGraph(edges + spokes + [t for x in loops for t in _cycle([x], loop)])
        b = RdfStarGraph(edges + spokes + [t for x, y in zip(loops[::2], loops[1::2])
                                           for t in _cycle([x, y], loop)])
        assert not isomorphic(a, b)
        assert not isomorphic(b, a)
        if pairs == 1:
            assert not _rescanning_isomorphic(a, b)
        if hubs < 2:
            # The loops are parts of their own, beside the edges or split off
            # at the hub, which refinement fixes, so the part counts differ.
            assert not individualizations
        else:
            # Two hubs tie, so nothing is fixed until a branch fixes one hub
            # in b and tries both in a; that fixes both hubs, and the parts
            # split off.  Three steps per call.
            assert len(individualizations) <= 2 * 3
        rng = random.Random(pairs)
        assert isomorphic(a, _shuffled_labels(a, rng))
        assert isomorphic(b, _shuffled_labels(b, rng))

    def test_one_skeleton_per_triple(self, monkeypatch):
        # 2,000 blank nodes, each with a unique name and one knows edge:
        # refinement separates every node, so isomorphic builds the rows
        # of each graph once, one skeleton per triple, and compares them
        # once by colour.
        n = 2000
        name, knows = Iri("http://example.org/name"), Iri("http://example.org/knows")
        a = RdfStarGraph(
            [Triple(BNode(f"x{i}"), name, Literal(f"person {i}")) for i in range(n)]
            + [Triple(BNode(f"x{i}"), knows, BNode(f"x{(i * 7 + 1) % n}")) for i in range(n)]
        )
        b = _shuffled_labels(a, random.Random(47))
        triples = []
        skeleton = starpg.rdf._skeleton

        def counting(x, labels):
            if isinstance(x, Triple):  # embedded triples would count too; there are none
                triples.append(x)
            return skeleton(x, labels)

        monkeypatch.setattr(starpg.rdf, "_skeleton", counting)
        assert isomorphic(a, b)
        assert len(triples) <= len(a) + len(b)


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
    # When refinement alone separates every node, labels play no part.
    labels = blank_node_labels(g)
    if labels and _refined(g)[1].discrete():
        assert canonicalize_bnodes(_shuffled_labels(g, rng)) == canon
