import random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import starpg.transforms
from starpg.transforms import _literal_note
from starpg import (
    RDF_LANG_STRING,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BNode,
    Double,
    Integer,
    Iri,
    Literal,
    MalformedRdfLikePgError,
    MappingConfig,
    NotConvertibleError,
    NotEdgeUniqueError,
    NotPropertyUniqueError,
    NotStronglyConvertibleError,
    Property,
    PropertyGraph,
    RdfStarGraph,
    TemplateIriMapping,
    Text,
    Triple,
    attribute_triples,
    Violation,
    canonicalize_values,
    check_pg_convertible,
    embedded_triples,
    check_strongly_pg_convertible,
    from_rdf_like_pg,
    is_metadata_triple,
    is_minimal,
    is_property_unique,
    isomorphic,
    mentioned_terms,
    ordinary_triples,
    parse_turtle_star,
    pg_to_rdf_star,
    relationship_triples,
    term_key,
    to_rdf_like_pg,
    to_simple_pg,
    value_from_literal,
    value_to_literal,
)
from conftest import (
    AGE_CERTAINTY,
    AGE_TRIPLE,
    DATA_DIR,
    KNOWS_TRIPLE,
    NAME_ALICE,
    NAME_BOB,
    assert_ordered_properties,
)
import randgen

EX = "http://example.org/"
S = Iri(EX + "s")
P = Iri(EX + "p")
O = Iri(EX + "o")
Q = Iri(EX + "q")
R = Iri(EX + "r")


def conditions(report):
    return [v.condition for v in report.violations]


def _rescan_oracle(g, mode):
    """The strong check as first written: conditions 1-4 per triple, with
    every mentioned term sorted, then one rescan of g per embedded
    attribute triple.  Quadratic; the reference the one-pass check must
    match violation for violation, order included."""
    out = []
    for t in g:
        if isinstance(t.subject, Triple):
            if is_metadata_triple(t.subject):
                out.append(Violation(t, "1", "embedded subject is itself a metadata triple"))
            if not isinstance(t.object, Literal):
                out.append(Violation(t, "3", "metadata triple object is not a literal"))
        if isinstance(t.object, Triple):
            out.append(Violation(t, "2", "triple embedded in object position"))
        for x in sorted(mentioned_terms(t), key=term_key):
            if isinstance(x, Literal) and value_from_literal(x, mode) is None:
                out.append(Violation(t, "4", f"literal {_literal_note(x)} has no property value"))
    for e in sorted(embedded_triples(g), key=term_key):
        if isinstance(e.object, Literal):
            reason = f"embeds attribute triple with object {_literal_note(e.object)}"
            out += [Violation(t, "strong", reason) for t in g if e in mentioned_terms(t)]
    return tuple(out)


_NODES = st.sampled_from([S, O, BNode("x1")])
_LITERALS = st.sampled_from([
    Literal("v"), Literal("5", Iri(XSD_INTEGER)), Literal("abc", Iri(XSD_INTEGER)),
    Literal("chat", language="fr"),
])
_PREDICATES = st.sampled_from([P, Q])
_TRIPLES = st.recursive(
    st.builds(Triple, _NODES, _PREDICATES, _NODES | _LITERALS),
    lambda inner: st.builds(Triple, _NODES | inner, _PREDICATES, _NODES | _LITERALS | inner),
    max_leaves=6,
)


class TestConvertibility:
    def test_annotated_pair_is_convertible(self, alice_bob):
        assert check_pg_convertible(alice_bob).convertible

    def test_empty_graph_is_convertible(self):
        assert check_pg_convertible(RdfStarGraph()).convertible

    def test_object_embedding_violates_condition_2(self):
        g = RdfStarGraph([Triple(S, P, Triple(O, Q, Literal("x")))])
        report = check_pg_convertible(g)
        assert conditions(report) == ["2"]

    def test_nested_metadata_subject_violates_condition_1(self):
        inner_meta = Triple(Triple(S, P, O), Q, Literal("x"))
        g = RdfStarGraph([Triple(inner_meta, R, Literal("y"))])
        report = check_pg_convertible(g)
        assert conditions(report) == ["1"]
        assert report.violations[0].triple == Triple(inner_meta, R, Literal("y"))

    def test_non_literal_metadata_object_violates_condition_3(self):
        g = RdfStarGraph([Triple(Triple(S, P, O), Q, O)])
        report = check_pg_convertible(g)
        assert conditions(report) == ["3"]

    def test_unmappable_literal_violates_condition_4(self):
        g = RdfStarGraph([Triple(S, P, Literal("abc", Iri(XSD_INTEGER)))])
        report = check_pg_convertible(g)
        assert conditions(report) == ["4"]

    def test_language_tagged_literal_violates_condition_4(self):
        g = RdfStarGraph([Triple(S, P, Literal("chat", language="fr"))])
        assert conditions(check_pg_convertible(g)) == ["4"]
        with pytest.raises(NotConvertibleError):
            to_rdf_like_pg(g)

    def test_strict_mode_narrows_the_literal_domain(self):
        g = RdfStarGraph([Triple(S, P, Literal("0.50", Iri(XSD_DOUBLE)))])
        assert check_pg_convertible(g, "lenient").convertible
        assert conditions(check_pg_convertible(g, "strict")) == ["4"]

    def test_multiple_violations_are_all_reported(self):
        g = RdfStarGraph([
            Triple(S, P, Triple(O, Q, Literal("x"))),
            Triple(S, P, Literal("chat", language="fr")),
        ])
        assert sorted(conditions(check_pg_convertible(g))) == ["2", "4"]


class TestStrongConvertibility:
    def test_annotated_attribute_blocks_strong_form(self, alice_bob):
        report = check_strongly_pg_convertible(alice_bob)
        assert not report.convertible
        assert conditions(report) == ["strong"]
        assert report.violations[0].triple == AGE_CERTAINTY

    def test_reduced_graph_is_strongly_convertible(self, alice_bob_reduced):
        assert check_strongly_pg_convertible(alice_bob_reduced).convertible

    def test_empty_graph_is_strongly_convertible(self):
        assert check_strongly_pg_convertible(RdfStarGraph()).convertible

    def test_matches_rescan_oracle_on_random_corpora(self):
        rng = random.Random(37)
        graphs = [randgen.random_rdf_star_graph(rng) for _ in range(300)]
        graphs += [randgen.random_convertible_graph(rng) for _ in range(200)]
        graphs += [randgen.random_convertible_graph(rng, strong=True) for _ in range(100)]
        for g in graphs:
            for mode in ("lenient", "strict"):
                want = _rescan_oracle(g, mode)
                assert check_strongly_pg_convertible(g, mode).violations == want
                base = tuple(v for v in want if v.condition != "strong")
                assert check_pg_convertible(g, mode).violations == base

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_TRIPLES, max_size=12))
    def test_matches_rescan_oracle_on_hypothesis_graphs(self, triples):
        g = RdfStarGraph(triples)
        assert check_strongly_pg_convertible(g).violations == _rescan_oracle(g, "lenient")

    def test_one_mentioned_terms_call_per_triple(self, monkeypatch):
        # 2,000 annotated attribute triples: the rescan would call
        # mentioned_terms about 2,000 times per top-level triple.
        people = [Iri(f"{EX}person/{i}") for i in range(2000)]
        g = RdfStarGraph(
            [Triple(Triple(x, P, Literal(str(i))), Q, Literal("registry"))
             for i, x in enumerate(people)]
            + [Triple(x, R, y) for x, y in zip(people, people[1:])]
        )
        calls = 0
        original = starpg.transforms.mentioned_terms

        def counting(x):
            nonlocal calls
            calls += 1
            return original(x)

        monkeypatch.setattr(starpg.transforms, "mentioned_terms", counting)
        report = check_strongly_pg_convertible(g)
        assert conditions(report) == ["strong"] * 2000
        assert calls <= len(g) + 2


class TestTripleClassification:
    def test_attribute_vs_relationship_split(self, alice_bob):
        assert attribute_triples(alice_bob) == {NAME_ALICE, NAME_BOB, AGE_TRIPLE}
        assert relationship_triples(alice_bob) == {KNOWS_TRIPLE}


class TestToRdfLikePg:
    def test_annotated_pair_golden_output(self, alice_bob):
        result = to_rdf_like_pg(alice_bob)
        g = result.graph
        assert g.vertices == {"v1", "v2", "v3", "v4", "v5"}
        assert g.edges == {"e1", "e2", "e3", "e4"}

        assert g.properties("v1") == (
            Property("IRI", Text(EX + "alice")),
            Property("kind", Text("IRI")),
        )
        assert g.properties("v2") == (
            Property("IRI", Text(EX + "bob")),
            Property("kind", Text("IRI")),
        )
        # literal vertices carry the value plus its datatype
        assert g.properties("v3") == (
            Property("datatype", Text(XSD_INTEGER)),
            Property("kind", Text("literal")),
            Property("literal", Integer(23)),
        )
        assert g.properties("v4") == (
            Property("datatype", Text(XSD_STRING)),
            Property("kind", Text("literal")),
            Property("literal", Text("Alice")),
        )
        assert g.properties("v5") == (
            Property("datatype", Text(XSD_STRING)),
            Property("kind", Text("literal")),
            Property("literal", Text("Bob")),
        )

        assert (g.source("e1"), g.target("e1")) == ("v1", "v2")
        assert g.label("e1") == "http://xmlns.com/foaf/0.1/knows"
        assert g.properties("e1") == (Property(EX + "certainty", Double(0.5)),)
        assert (g.source("e2"), g.target("e2")) == ("v1", "v4")
        assert g.properties("e2") == ()
        assert (g.source("e3"), g.target("e3")) == ("v2", "v3")
        assert g.properties("e3") == (Property(EX + "certainty", Double(0.9)),)
        assert (g.source("e4"), g.target("e4")) == ("v2", "v5")
        assert g.properties("e4") == ()

    def test_witness_maps_cover_everything(self, alice_bob):
        result = to_rdf_like_pg(alice_bob)
        assert set(result.vertex_map.values()) == result.graph.vertices
        assert set(result.edge_map.values()) == result.graph.edges
        assert result.edge_map[KNOWS_TRIPLE] == "e1"

    def test_empty_graph(self):
        assert to_rdf_like_pg(RdfStarGraph()).graph == PropertyGraph()

    def test_non_convertible_input_raises(self):
        g = RdfStarGraph([Triple(S, P, Triple(O, Q, Literal("x")))])
        with pytest.raises(NotConvertibleError) as exc:
            to_rdf_like_pg(g)
        assert conditions(exc.value.report) == ["2"]

    def test_two_annotations_same_key_break_property_uniqueness(self):
        t = Triple(S, P, Literal("x"))
        g = RdfStarGraph([
            Triple(t, Q, Literal("u")),
            Triple(t, Q, Literal("w")),
        ])
        out = to_rdf_like_pg(g).graph
        assert not is_property_unique(out)
        edge = next(iter(out.edges))
        assert out.properties(edge) == (
            Property(EX + "q", Text("u")),
            Property(EX + "q", Text("w")),
        )


def _rdf_like(vertices, edges=()):
    """A property graph from {vertex id: properties} and (id, src, tgt,
    label, properties) edges."""
    return PropertyGraph(
        vertices, [e[0] for e in edges], {e[0]: e[1] for e in edges},
        {e[0]: e[2] for e in edges}, {e[0]: e[3] for e in edges},
        props={**vertices, **{e[0]: e[4] for e in edges}},
    )


def _kind(kind):
    return Property("kind", Text(kind))


_IRI_S = [_kind("IRI"), Property("IRI", Text(EX + "s"))]
_LITERAL_X = [_kind("literal"), Property("literal", Text("x")),
              Property("datatype", Text(XSD_STRING))]

# One row per raise of from_rdf_like_pg and its helpers: the graph and the
# exact message of its MalformedRdfLikePgError.
MALFORMED_RDF_LIKE = [
    pytest.param(_rdf_like({"v1": []}),
                 "vertex 'v1' needs exactly one 'kind' property, has 0", id="kind-missing"),
    pytest.param(_rdf_like({"v1": [_kind("IRI"), _kind("literal")]}),
                 "vertex 'v1' needs exactly one 'kind' property, has 2", id="kind-twice"),
    pytest.param(_rdf_like({"v1": [Property("kind", Integer(1))]}),
                 "vertex 'v1' property 'kind' must be Text", id="kind-not-text"),
    pytest.param(_rdf_like({"v1": [_kind("unicorn")]}),
                 "vertex 'v1' has unknown kind 'unicorn'", id="kind-unknown"),
    pytest.param(_rdf_like({f"v{i}": [_kind(f"kind{i}")] for i in range(2, 201)}),
                 "vertex 'v10' has unknown kind 'kind10'", id="first-vertex-by-id"),
    pytest.param(_rdf_like({"v1": [_kind("IRI")]}),
                 "vertex 'v1' needs exactly one 'IRI' property, has 0", id="iri-missing"),
    pytest.param(_rdf_like({"v1": [*_IRI_S, Property("note", Text("x"))]}),
                 "IRI vertex 'v1' has unexpected properties", id="iri-extra-key"),
    pytest.param(_rdf_like({"v1": [*_IRI_S, Property("IRI", Text(EX + "y"))]}),
                 "vertex 'v1' needs exactly one 'IRI' property, has 2", id="iri-twice"),
    pytest.param(_rdf_like({"v1": [_kind("IRI"), Property("IRI", Integer(5))]}),
                 "vertex 'v1' property 'IRI' must be Text", id="iri-not-text"),
    pytest.param(_rdf_like({"v1": [_kind("IRI"), Property("IRI", Text("not an iri"))]}),
                 "vertex 'v1' IRI is not a valid IRI: 'not an iri'", id="iri-invalid"),
    pytest.param(_rdf_like({"v1": [_kind("blank node"), Property("IRI", Text(EX + "x"))]}),
                 "blank node vertex 'v1' has unexpected properties", id="bnode-extra-key"),
    pytest.param(_rdf_like({"v1": _LITERAL_X[:2]}),
                 "vertex 'v1' needs exactly one 'datatype' property, has 0",
                 id="literal-datatype-missing"),
    pytest.param(_rdf_like({"v1": [_kind("literal"), _LITERAL_X[2]]}),
                 "vertex 'v1' needs exactly one 'literal' property, has 0",
                 id="literal-value-missing"),
    pytest.param(_rdf_like({"v1": [*_LITERAL_X, Property("note", Text("x"))]}),
                 "literal vertex 'v1' has unexpected properties", id="literal-extra-key"),
    pytest.param(_rdf_like({"v1": [*_LITERAL_X[:2], Property("datatype", Integer(1))]}),
                 "vertex 'v1' property 'datatype' must be Text", id="datatype-not-text"),
    pytest.param(_rdf_like({"v1": [*_LITERAL_X[:2], Property("datatype", Text("no iri"))]}),
                 "vertex 'v1' datatype is not a valid IRI: 'no iri'", id="datatype-invalid"),
    pytest.param(_rdf_like({"v1": [*_LITERAL_X[:2], Property("datatype", Text(RDF_LANG_STRING))]}),
                 "vertex 'v1': rdf:langString literal requires a language tag",
                 id="literal-unbuildable"),
    # The encoding has no language key: to_rdf_like_pg never writes one,
    # because condition 4 rejects every language-tagged literal.
    pytest.param(_rdf_like({"v1": [_kind("literal"), Property("literal", Text("chat")),
                                   Property("datatype", Text(RDF_LANG_STRING)),
                                   Property("language", Text("fr"))]}),
                 "literal vertex 'v1' has unexpected properties", id="language"),
    pytest.param(_rdf_like({"v1": [*_LITERAL_X, Property("language", Text("fr"))]}),
                 "literal vertex 'v1' has unexpected properties", id="language-on-string"),
    pytest.param(_rdf_like({"v1": [*_LITERAL_X, Property("language", Integer(1))]}),
                 "literal vertex 'v1' has unexpected properties", id="language-not-text"),
    pytest.param(_rdf_like({"v1": _LITERAL_X, "v2": _IRI_S}, [("e1", "v1", "v2", EX + "p", [])]),
                 "edge 'e1' starts at a literal vertex", id="edge-from-literal"),
    pytest.param(_rdf_like({"v1": _IRI_S}, [("e1", "v1", "v1", "knows", [])]),
                 "edge 'e1' label is not a valid IRI: 'knows'", id="label-invalid"),
    pytest.param(_rdf_like({"v1": _IRI_S},
                           [("e1", "v1", "v1", EX + "p", [Property("note", Text("x"))])]),
                 "edge 'e1' property key is not a valid IRI: 'note'", id="edge-key-invalid"),
    pytest.param(_rdf_like({"v1": _IRI_S}, [(f"e{i}", "v1", "v1", f"bad{i}", [])
                                           for i in range(2, 201)]),
                 "edge 'e10' label is not a valid IRI: 'bad10'", id="first-edge-by-id"),
]


class TestFromRdfLikePg:
    @pytest.mark.parametrize("graph, message", MALFORMED_RDF_LIKE)
    def test_malformed_rdf_like_message(self, graph, message):
        with pytest.raises(MalformedRdfLikePgError) as exc:
            from_rdf_like_pg(graph)
        assert str(exc.value) == message

    def test_inverts_forward_transform(self, alice_bob):
        back = from_rdf_like_pg(to_rdf_like_pg(alice_bob).graph)
        assert back == canonicalize_values(alice_bob)
        assert isomorphic(back, canonicalize_values(alice_bob))

    def test_empty(self):
        assert from_rdf_like_pg(PropertyGraph()) == RdfStarGraph()

    def test_blank_node_vertices_get_fresh_labels(self):
        g = RdfStarGraph([Triple(BNode("weird"), P, BNode("other"))])
        back = from_rdf_like_pg(to_rdf_like_pg(g).graph)
        assert isomorphic(back, g)

    def test_edge_triple_reasserted_embedded_is_removed(self):
        p = PropertyGraph(
            ["v1", "v2"], ["e1", "e2"],
            {"e1": "v1", "e2": "v1"}, {"e1": "v2", "e2": "v2"},
            {"e1": EX + "p", "e2": EX + "p"},
            props={
                "v1": [Property("kind", Text("IRI")), Property("IRI", Text(EX + "s"))],
                "v2": [Property("kind", Text("IRI")), Property("IRI", Text(EX + "o"))],
                "e2": [Property(EX + "q", Text("note"))],
            },
        )
        plain = Triple(S, P, O)
        annotated = Triple(plain, Q, Literal("note"))
        assert from_rdf_like_pg(p) == RdfStarGraph([annotated])

    @pytest.mark.parametrize(
        "props, message",
        [
            ([], "vertex 'v1' needs exactly one 'kind' property, has 0"),  # kind missing
            ([Property("kind", Text("unicorn"))], "vertex 'v1' has unknown kind 'unicorn'"),
            ([Property("kind", Text("IRI"))],  # IRI text missing
             "vertex 'v1' needs exactly one 'IRI' property, has 0"),
            ([Property("kind", Text("IRI")), Property("IRI", Text("not an iri"))],
             "vertex 'v1' IRI is not a valid IRI: 'not an iri'"),
            ([Property("kind", Text("literal")), Property("literal", Text("x"))],
             "vertex 'v1' needs exactly one 'datatype' property, has 0"),
            ([Property("kind", Text("blank node")), Property("IRI", Text(EX + "x"))],
             "blank node vertex 'v1' has unexpected properties"),
            (
                [
                    Property("kind", Text("IRI")),
                    Property("IRI", Text(EX + "x")),
                    Property("IRI", Text(EX + "y")),
                ],
                "vertex 'v1' needs exactly one 'IRI' property, has 2",
            ),
        ],
    )
    def test_malformed_vertex_shapes_rejected(self, props, message):
        with pytest.raises(MalformedRdfLikePgError) as exc:
            from_rdf_like_pg(PropertyGraph(["v1"], props={"v1": props}))
        assert str(exc.value) == message

    def test_literal_source_rejected(self):
        p = PropertyGraph(
            ["v1", "v2"], ["e1"], {"e1": "v1"}, {"e1": "v2"}, {"e1": EX + "p"},
            props={
                "v1": [
                    Property("kind", Text("literal")),
                    Property("literal", Text("x")),
                    Property("datatype", Text(XSD_STRING)),
                ],
                "v2": [Property("kind", Text("IRI")), Property("IRI", Text(EX + "o"))],
            },
        )
        with pytest.raises(MalformedRdfLikePgError):
            from_rdf_like_pg(p)

    def test_non_iri_edge_label_rejected(self):
        p = PropertyGraph(
            ["v1"], ["e1"], {"e1": "v1"}, {"e1": "v1"}, {"e1": "knows"},
            props={"v1": [Property("kind", Text("IRI")), Property("IRI", Text(EX + "s"))]},
        )
        with pytest.raises(MalformedRdfLikePgError):
            from_rdf_like_pg(p)


class TestToSimplePg:
    def test_reduced_graph_golden_output(self, alice_bob_reduced):
        result = to_simple_pg(alice_bob_reduced)
        g = result.graph
        assert g.vertices == {"v1", "v2"}
        assert g.edges == {"e1"}
        assert g.properties("v1") == (
            Property("IRI", Text(EX + "alice")),
            Property("http://xmlns.com/foaf/0.1/name", Text("Alice")),
        )
        assert g.properties("v2") == (
            Property("IRI", Text(EX + "bob")),
            Property("http://xmlns.com/foaf/0.1/name", Text("Bob")),
        )
        assert (g.source("e1"), g.target("e1")) == ("v1", "v2")
        assert g.label("e1") == "http://xmlns.com/foaf/0.1/knows"
        assert g.properties("e1") == (Property(EX + "certainty", Double(0.5)),)

    def test_annotated_attribute_rejected(self, alice_bob):
        with pytest.raises(NotStronglyConvertibleError):
            to_simple_pg(alice_bob)

    def test_empty(self):
        assert to_simple_pg(RdfStarGraph()).graph == PropertyGraph()

    def test_blank_node_vertices_have_no_iri_property(self):
        g = RdfStarGraph([Triple(BNode("n"), P, O)])
        out = to_simple_pg(g).graph
        vertex_props = [out.properties(v) for v in sorted(out.vertices)]
        assert () in vertex_props

    def test_duplicate_attribute_keys_break_property_uniqueness(self):
        g = RdfStarGraph([
            Triple(S, P, Literal("x")),
            Triple(S, P, Literal("y")),
        ])
        out = to_simple_pg(g).graph
        assert not is_property_unique(out)


class TestPgToRdfStar:
    def test_kubrick_golden_output(self, kubrick_pg):
        g = pg_to_rdf_star(kubrick_pg)
        pk = Iri("http://example.org/property/")
        b1, b2 = BNode("b1"), BNode("b2")
        assert g == RdfStarGraph([
            Triple(b1, Iri(pk.value + "name"), Literal("Stanley Kubrick")),
            Triple(b1, Iri(pk.value + "birthyear"), Literal("1928", Iri(XSD_INTEGER))),
            Triple(b2, Iri(pk.value + "name"), Literal("Orson Welles")),
            Triple(b2, Iri("http://example.org/relationship/mentioned"), b1),
            Triple(
                Triple(b1, Iri("http://example.org/relationship/influencedBy"), b2),
                Iri(pk.value + "certainty"),
                Literal("0.8E0", Iri(XSD_DOUBLE)),
            ),
        ])
        assert is_minimal(g)

    def test_edge_without_properties_stays_plain(self, kubrick_pg):
        g = pg_to_rdf_star(kubrick_pg)
        plain = Triple(
            BNode("b2"), Iri("http://example.org/relationship/mentioned"), BNode("b1")
        )
        assert plain in g

    def test_empty(self):
        assert pg_to_rdf_star(PropertyGraph()) == RdfStarGraph()

    def test_iri_vertex_strategy(self, kubrick_pg):
        cfg = MappingConfig(vertex_id_strategy=TemplateIriMapping("http://example.org/v/"))
        g = pg_to_rdf_star(kubrick_pg, cfg)
        kub = Iri("http://example.org/v/Kubrick")
        assert Triple(kub, Iri("http://example.org/property/birthyear"),
                      Literal("1928", Iri(XSD_INTEGER))) in g

    def test_non_property_unique_rejected(self):
        g = PropertyGraph(
            ["v"], props={"v": [Property("a", Integer(1)), Property("a", Integer(2))]}
        )
        with pytest.raises(NotPropertyUniqueError) as exc:
            pg_to_rdf_star(g)
        assert exc.value.violations == [("v", "a")]

    def test_non_edge_unique_rejected(self):
        g = PropertyGraph(
            ["v1", "v2"], ["e1", "e2"],
            {"e1": "v1", "e2": "v1"}, {"e1": "v2", "e2": "v2"},
            {"e1": "knows", "e2": "knows"},
        )
        with pytest.raises(NotEdgeUniqueError) as exc:
            pg_to_rdf_star(g)
        assert exc.value.violations == [("e1", "e2")]

    def test_triple_count_formula(self):
        rng = random.Random(23)
        for _ in range(200):
            p = randgen.random_property_graph(rng)
            g = pg_to_rdf_star(p)
            expected = sum(len(p.properties(v)) for v in p.vertices)
            expected += sum(
                len(p.properties(e)) for e in p.edges if p.properties(e)
            )
            expected += sum(1 for e in p.edges if not p.properties(e))
            assert len(g) == expected
            assert is_minimal(g)


class TestTrustedConstruction:
    """The transforms hand their graph over unchecked; it must be the graph
    the checked constructor builds from the same fields."""

    @staticmethod
    def assert_as_if_checked(g: PropertyGraph) -> None:
        assert g == PropertyGraph(g.vertices, g.edges, g.src, g.tgt, g.lbl, g.props)
        assert_ordered_properties(g)

    @pytest.mark.parametrize("strong", [False, True], ids=["rdf-like", "simple"])
    def test_random_corpora(self, strong):
        transform = to_simple_pg if strong else to_rdf_like_pg
        rng = random.Random(203)
        for _ in range(300):
            self.assert_as_if_checked(
                transform(randgen.random_convertible_graph(rng, strong=strong)).graph)

    @pytest.mark.parametrize("name, transforms", [
        ("alice_bob.ttls", [to_rdf_like_pg]),
        ("alice_bob_reduced.ttls", [to_rdf_like_pg, to_simple_pg]),
        ("kubrick.ttls", [to_rdf_like_pg, to_simple_pg]),
    ])
    def test_data_files(self, name, transforms):
        g, _ = parse_turtle_star((DATA_DIR / name).read_text(encoding="utf-8"))
        for transform in transforms:
            self.assert_as_if_checked(transform(g).graph)

    def test_two_literals_of_one_value_give_one_property(self):
        one, again = Literal("1", Iri(XSD_INTEGER)), Literal("01", Iri(XSD_INTEGER))
        annotated = Triple(S, P, O)
        g = RdfStarGraph([Triple(annotated, Q, one), Triple(annotated, Q, again),
                          Triple(annotated, Q, Literal("x"))])
        rdf_like = to_rdf_like_pg(g).graph
        self.assert_as_if_checked(rdf_like)
        assert rdf_like.properties("e1") == (Property(EX + "q", Text("x")),
                                             Property(EX + "q", Integer(1)))
        simple = to_simple_pg(RdfStarGraph([Triple(S, P, one), Triple(S, P, again), annotated]))
        self.assert_as_if_checked(simple.graph)
        assert simple.graph.properties(simple.vertex_map[S]) == (
            Property("IRI", Text(S.value)), Property(P.value, Integer(1)))


class TestCanonicalizeValues:
    def test_canonical_graph_is_returned_itself(self, alice_bob):
        once = canonicalize_values(alice_bob)
        assert once is not alice_bob
        assert canonicalize_values(once) is once
        empty = RdfStarGraph()
        assert canonicalize_values(empty) is empty

    def test_decimals_become_canonical_doubles(self, alice_bob):
        g = canonicalize_values(alice_bob)
        values = {
            t.object.lexical_form for t in g if isinstance(t.object, Literal)
        }
        assert "0.5E0" in values and "0.9E0" in values

    def test_reaches_embedded_literals(self):
        g = RdfStarGraph([
            Triple(Triple(S, P, Literal("05", Iri(XSD_INTEGER))), Q, Literal("x"))
        ])
        out = canonicalize_values(g)
        inner = next(iter(out)).subject
        assert inner.object == Literal("5", Iri(XSD_INTEGER))

    def test_leaves_unmappable_literals_alone(self):
        weird = Literal("abc", Iri("http://example.org/dt/custom"))
        g = RdfStarGraph([Triple(S, P, weird)])
        assert canonicalize_values(g) == g

    def test_idempotent(self, alice_bob):
        once = canonicalize_values(alice_bob)
        assert canonicalize_values(once) == once


def _canonical_per_occurrence(x):
    """canonicalize_values as first written: every literal occurrence valued."""
    if isinstance(x, Literal):
        value = value_from_literal(x)
        return value_to_literal(value) if value is not None else x
    if isinstance(x, Triple):
        return Triple(_canonical_per_occurrence(x.subject), x.predicate,
                      _canonical_per_occurrence(x.object))
    return x


class TestLiteralValuing:
    """Each distinct literal is valued once per pass, not once per occurrence."""

    # k literals, two of them outside the value mapping, each the object of
    # m plain triples; ten of those triples are annotated.
    LITERALS = [Literal("x"), Literal("7", Iri(XSD_INTEGER)), Literal("0.50", Iri(XSD_DOUBLE)),
                Literal("abc", Iri(XSD_INTEGER)), Literal("chat", language="fr")]
    M = 40

    @pytest.mark.parametrize(
        "run",
        [check_pg_convertible, check_strongly_pg_convertible, canonicalize_values],
        ids=["check_pg_convertible", "check_strongly_pg_convertible", "canonicalize_values"],
    )
    def test_value_from_literal_runs_once_per_distinct_literal(self, monkeypatch, run):
        subjects = [Iri(f"{EX}s/{i}") for i in range(self.M)]
        plain = [Triple(x, P, lit) for x in subjects for lit in self.LITERALS]
        metadata = [Triple(t, Q, Literal("registry")) for t in plain[:10]]
        g = RdfStarGraph(plain + metadata)
        # A metadata triple mentions two literals: its object and the
        # object of its embedded triple.
        bound = len(self.LITERALS) + 2 * len(metadata)
        calls = 0
        original = starpg.transforms.value_from_literal

        def counting(l, mode="lenient"):
            nonlocal calls
            calls += 1
            return original(l, mode)

        monkeypatch.setattr(starpg.transforms, "value_from_literal", counting)
        result = run(g)
        assert calls <= bound
        monkeypatch.undo()
        if run is canonicalize_values:
            assert result == RdfStarGraph(_canonical_per_occurrence(t) for t in g)
        else:
            want = _rescan_oracle(g, "lenient")
            if run is check_pg_convertible:
                want = tuple(v for v in want if v.condition != "strong")
            assert result.violations == want


def _pg_oracle(g, simple, mode="lenient"):
    """to_rdf_like_pg (simple=False) or to_simple_pg (simple=True) as a
    per-occurrence construction: every literal is valued where it occurs."""
    ordinary = sorted(ordinary_triples(g), key=term_key)
    kinds = (Iri, BNode) if simple else (Iri, BNode, Literal)
    terms = sorted({x for t in ordinary for x in (t.subject, t.object) if isinstance(x, kinds)},
                   key=term_key)
    vid = {x: f"v{i}" for i, x in enumerate(terms, start=1)}
    edges = [t for t in ordinary if not simple or not isinstance(t.object, Literal)]
    eid = {t: f"e{i}" for i, t in enumerate(edges, start=1)}
    props = {v: [] for v in [*vid.values(), *eid.values()]}
    for x, v in vid.items():
        if simple:
            props[v] += [Property("IRI", Text(x.value))] if isinstance(x, Iri) else []
        elif isinstance(x, Iri):
            props[v] += [Property("kind", Text("IRI")), Property("IRI", Text(x.value))]
        elif isinstance(x, BNode):
            props[v] += [Property("kind", Text("blank node"))]
        else:
            props[v] += [Property("kind", Text("literal")),
                         Property("literal", value_from_literal(x, mode)),
                         Property("datatype", Text(x.datatype.value))]
            props[v] += [Property("language", Text(x.language))] if x.language else []
    for t in ordinary:
        if simple and isinstance(t.object, Literal):
            props[vid[t.subject]].append(Property(t.predicate.value,
                                                  value_from_literal(t.object, mode)))
    for m in g:
        if is_metadata_triple(m):
            props[eid[m.subject]].append(Property(m.predicate.value,
                                                  value_from_literal(m.object, mode)))
    return PropertyGraph(vid.values(), eid.values(), {eid[t]: vid[t.subject] for t in edges},
                         {eid[t]: vid[t.object] for t in edges},
                         {eid[t]: t.predicate.value for t in edges}, props)


class TestTransformValuing:
    """The check and the transform value each distinct literal once between
    them: the transform reuses the check's cached values."""

    LITERALS = [Literal("x"), Literal("7", Iri(XSD_INTEGER)), Literal("0.50", Iri(XSD_DOUBLE)),
                Literal("chat", Iri(XSD_STRING))]
    M = 40

    @pytest.mark.parametrize("simple", [False, True], ids=["to_rdf_like_pg", "to_simple_pg"])
    def test_each_distinct_literal_valued_once(self, monkeypatch, simple):
        # Each of M subjects has every literal and knows the next subject;
        # ten knows triples are annotated with one more literal.
        subjects = [Iri(f"{EX}s/{i}") for i in range(self.M)]
        plain = [Triple(x, P, lit) for x in subjects for lit in self.LITERALS]
        knows = [Triple(x, Q, y) for x, y in zip(subjects, subjects[1:])]
        metadata = [Triple(t, R, Literal("registry")) for t in knows[:10]]
        g = RdfStarGraph(plain + knows + metadata)
        calls = []
        original = starpg.transforms.value_from_literal

        def counting(l, mode="lenient"):
            calls.append(l)
            return original(l, mode)

        monkeypatch.setattr(starpg.transforms, "value_from_literal", counting)
        result = (to_simple_pg if simple else to_rdf_like_pg)(g)
        assert len(calls) == len(set(calls)) == len(self.LITERALS) + 1
        monkeypatch.undo()
        assert result.graph == _pg_oracle(g, simple)

    def test_oracle_agrees_on_random_corpora(self):
        # Each randgen graph is minimal, so its embedded triples are
        # ordinary without being asserted; the second input asserts them.
        rng = random.Random(61)
        for i in range(200):
            g = randgen.random_convertible_graph(rng, strong=bool(i % 2))
            for h in (g, RdfStarGraph(g.triples | embedded_triples(g))):
                assert to_rdf_like_pg(h).graph == _pg_oracle(h, simple=False)
                if i % 2:
                    assert to_simple_pg(h).graph == _pg_oracle(h, simple=True)


class TestRoundTripProperty:
    def test_random_minimal_convertible_graphs_round_trip(self):
        rng = random.Random(29)
        for _ in range(200):
            g = randgen.random_convertible_graph(rng)
            assert is_minimal(g)
            assert check_pg_convertible(g).convertible
            back = from_rdf_like_pg(to_rdf_like_pg(g).graph)
            assert isomorphic(back, g)

    def test_strong_graphs_survive_simple_transform(self):
        rng = random.Random(31)
        for _ in range(100):
            g = randgen.random_convertible_graph(rng, strong=True)
            result = to_simple_pg(g)
            assert len(result.graph.edges) == len(relationship_triples(g))
