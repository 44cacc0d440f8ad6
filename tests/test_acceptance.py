"""End-to-end acceptance gate.

Each test covers one numbered criterion at its stated tolerance and prints
a single PASS or FAIL line.  Run with

    python3 -m pytest tests/test_acceptance.py -v -s

to see the lines as they print; without -s pytest shows them on failure.
"""

import random
import time
from contextlib import contextmanager

from starpg import (
    DEFAULT_EDGE_LABEL_PREFIX,
    DEFAULT_PROPERTY_KEY_PREFIX,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BNode,
    Double,
    Integer,
    Iri,
    Literal,
    MappingConfig,
    Property,
    PropertyGraph,
    RdfStarGraph,
    TemplateIriMapping,
    Text,
    Triple,
    assign_vertex_identities,
    attribute_triples,
    canonicalize_bnodes,
    canonicalize_values,
    check_pg_convertible,
    check_strongly_pg_convertible,
    embedded_triples,
    from_rdf_like_pg,
    is_edge_unique,
    is_minimal,
    is_property_unique,
    isomorphic,
    metadata_triples,
    ordinary_triples,
    parse_pg_json,
    parse_turtle_star,
    pg_to_rdf_star,
    relationship_triples,
    serialize_turtle_star,
    subject_object_nodes,
    subject_object_terms,
    term_key,
    to_rdf_like_pg,
    to_simple_pg,
    unfold_to_rdf,
    value_to_literal,
)
from starpg.cli import main
from conftest import (
    AGE_CERTAINTY,
    DATA_DIR,
    EX,
    FOAF,
    KNOWS_TRIPLE,
    NAME_ALICE,
    NAME_BOB,
    build_alice_bob,
    build_alice_bob_reduced,
    build_kubrick_pg,
)
import randgen

KEYP = DEFAULT_PROPERTY_KEY_PREFIX
LBLP = DEFAULT_EDGE_LABEL_PREFIX

S = Iri(EX + "s")
P = Iri(EX + "p")
O = Iri(EX + "o")
Q = Iri(EX + "q")


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:>2}: {label}")
        raise
    print(f"PASS  criterion {number:>2}: {label}")


def expected_rdf_like_pair() -> PropertyGraph:
    """The frozen rdf-like image of the annotated alice/bob graph."""
    return PropertyGraph(
        vertices=["v1", "v2", "v3", "v4", "v5"],
        edges=["e1", "e2", "e3", "e4"],
        src={"e1": "v1", "e2": "v1", "e3": "v2", "e4": "v2"},
        tgt={"e1": "v2", "e2": "v4", "e3": "v3", "e4": "v5"},
        lbl={
            "e1": FOAF + "knows",
            "e2": FOAF + "name",
            "e3": FOAF + "age",
            "e4": FOAF + "name",
        },
        props={
            "v1": [Property("kind", Text("IRI")), Property("IRI", Text(EX + "alice"))],
            "v2": [Property("kind", Text("IRI")), Property("IRI", Text(EX + "bob"))],
            "v3": [
                Property("kind", Text("literal")),
                Property("literal", Integer(23)),
                Property("datatype", Text(XSD_INTEGER)),
            ],
            "v4": [
                Property("kind", Text("literal")),
                Property("literal", Text("Alice")),
                Property("datatype", Text(XSD_STRING)),
            ],
            "v5": [
                Property("kind", Text("literal")),
                Property("literal", Text("Bob")),
                Property("datatype", Text(XSD_STRING)),
            ],
            "e1": [Property(EX + "certainty", Double(0.5))],
            "e3": [Property(EX + "certainty", Double(0.9))],
        },
    )


def expected_simple_pair() -> PropertyGraph:
    """The frozen simple image of the reduced alice/bob graph."""
    return PropertyGraph(
        vertices=["v1", "v2"],
        edges=["e1"],
        src={"e1": "v1"},
        tgt={"e1": "v2"},
        lbl={"e1": FOAF + "knows"},
        props={
            "v1": [
                Property("IRI", Text(EX + "alice")),
                Property(FOAF + "name", Text("Alice")),
            ],
            "v2": [
                Property("IRI", Text(EX + "bob")),
                Property(FOAF + "name", Text("Bob")),
            ],
            "e1": [Property(EX + "certainty", Double(0.5))],
        },
    )


def expected_kubrick_rdf() -> RdfStarGraph:
    """The frozen RDF-star image of the kubrick property graph."""
    b1, b2 = BNode("b1"), BNode("b2")
    influenced = Triple(b1, Iri(LBLP + "influencedBy"), b2)
    return RdfStarGraph([
        Triple(b1, Iri(KEYP + "name"), Literal("Stanley Kubrick")),
        Triple(b1, Iri(KEYP + "birthyear"), Literal("1928", Iri(XSD_INTEGER))),
        Triple(b2, Iri(KEYP + "name"), Literal("Orson Welles")),
        Triple(b2, Iri(LBLP + "mentioned"), b1),
        Triple(influenced, Iri(KEYP + "certainty"), Literal("0.8E0", Iri(XSD_DOUBLE))),
    ])


def pg_corpus() -> list[PropertyGraph]:
    rng = random.Random(107)
    return [randgen.random_property_graph(rng) for _ in range(1000)]


def shared_annotation_slot(g: RdfStarGraph) -> bool:
    """Two distinct metadata triples agree on embedded triple and predicate."""
    ms = metadata_triples(g)
    return len({(m.subject, m.predicate) for m in ms}) < len(ms)


def shared_attribute_slot(g: RdfStarGraph) -> bool:
    """Two distinct attribute triples agree on subject and predicate."""
    ats = attribute_triples(g)
    return len({(t.subject, t.predicate) for t in ats}) < len(ats)


def with_duplicate_annotation(rng: random.Random, g: RdfStarGraph) -> RdfStarGraph:
    """Add a second annotation on an existing slot, value changed."""
    ms = sorted(metadata_triples(g), key=term_key)
    if not ms:
        return g
    m = rng.choice(ms)
    for _ in range(50):
        lit = value_to_literal(randgen.random_value(rng))
        twin = Triple(m.subject, m.predicate, lit)
        if lit != m.object and twin not in g:
            return RdfStarGraph(set(g) | {twin})
    return g


def with_duplicate_attribute(rng: random.Random, g: RdfStarGraph) -> RdfStarGraph:
    """Add a second literal object on an existing attribute slot."""
    ats = sorted(attribute_triples(g), key=term_key)
    if not ats:
        return g
    t = rng.choice(ats)
    for _ in range(50):
        lit = value_to_literal(randgen.random_value(rng))
        twin = Triple(t.subject, t.predicate, lit)
        if lit != t.object and twin not in g:
            return RdfStarGraph(set(g) | {twin})
    return g


def test_criterion_01_rdf_like_golden(tmp_path):
    with criterion(1, "rdf-like transformation reproduces the 5-vertex/4-edge graph"):
        out = tmp_path / "alice_bob.pg.json"
        start = time.perf_counter()
        code = main([
            "rdf2pg", "--mode", "rdf-like",
            str(DATA_DIR / "alice_bob.ttls"), "-o", str(out),
        ])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert parse_pg_json(out.read_text()) == expected_rdf_like_pair()
        assert elapsed < 1.0


def test_criterion_02_simple_golden(tmp_path):
    with criterion(2, "simple transformation reproduces the 2-vertex/1-edge graph"):
        out = tmp_path / "reduced.pg.json"
        start = time.perf_counter()
        code = main([
            "rdf2pg", "--mode", "simple",
            str(DATA_DIR / "alice_bob_reduced.ttls"), "-o", str(out),
        ])
        elapsed = time.perf_counter() - start
        assert code == 0
        assert parse_pg_json(out.read_text()) == expected_simple_pair()
        assert elapsed < 1.0


def test_criterion_03_pg_to_rdf_golden(tmp_path):
    with criterion(3, "property graph export emits exactly the 5 kubrick triples"):
        out = tmp_path / "kubrick.ttls"
        start = time.perf_counter()
        code = main(["pg2rdf", str(DATA_DIR / "kubrick.pg.json"), "-o", str(out)])
        elapsed = time.perf_counter() - start
        assert code == 0
        got, _ = parse_turtle_star(out.read_text())
        assert len(got) == 5
        assert isomorphic(got, expected_kubrick_rdf())
        # blank node assignment is deterministic, so equality holds too
        assert got == expected_kubrick_rdf()
        assert elapsed < 1.0


def test_criterion_04_classifications():
    with criterion(4, "convertibility and uniqueness classifications are exact"):
        annotated = build_alice_bob()
        assert check_pg_convertible(annotated).convertible is True
        strong = check_strongly_pg_convertible(annotated)
        assert strong.convertible is False
        assert AGE_CERTAINTY in {v.triple for v in strong.violations}
        assert check_strongly_pg_convertible(build_alice_bob_reduced()).convertible is True
        assert is_property_unique(build_kubrick_pg()) is True
        assert is_edge_unique(build_kubrick_pg()) is True


def test_criterion_05_round_trip_corpus():
    with criterion(5, "1000 random minimal convertible graphs round-trip"):
        rng = random.Random(101)
        start = time.perf_counter()
        for _ in range(1000):
            g = randgen.random_convertible_graph(rng)
            assert is_minimal(g)
            assert check_pg_convertible(g).convertible
            back = from_rdf_like_pg(to_rdf_like_pg(g).graph)
            assert isomorphic(back, g)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0


def test_criterion_06_cardinality_invariants():
    with criterion(6, "cardinality invariants hold on all three random corpora"):
        rng = random.Random(101)
        for _ in range(1000):
            g = randgen.random_convertible_graph(rng)
            out = to_rdf_like_pg(g).graph
            assert len(out.vertices) == len(subject_object_terms(g))
            assert len(out.edges) == len(ordinary_triples(g))
        rng = random.Random(103)
        for _ in range(1000):
            g = randgen.random_convertible_graph(rng, strong=True)
            out = to_simple_pg(g).graph
            assert len(out.vertices) == len(subject_object_nodes(g))
            assert len(out.edges) == len(relationship_triples(g))
        for p in pg_corpus():
            vertex_props = sum(len(p.properties(v)) for v in p.vertices)
            edge_props = sum(len(p.properties(e)) for e in p.edges if p.properties(e))
            bare_edges = sum(1 for e in p.edges if not p.properties(e))
            assert len(pg_to_rdf_star(p)) == vertex_props + edge_props + bare_edges


def test_criterion_07_uniqueness_characterization():
    with criterion(7, "duplicate annotations break uniqueness exactly as predicted"):
        inner = Triple(S, P, O)
        conflicting = RdfStarGraph([
            Triple(inner, Q, Literal("u")),
            Triple(inner, Q, Literal("w")),
        ])
        assert check_pg_convertible(conflicting).convertible
        assert not is_property_unique(to_rdf_like_pg(conflicting).graph)

        twin_attrs = RdfStarGraph([
            Triple(S, P, Literal("u")),
            Triple(S, P, Literal("w")),
        ])
        assert check_strongly_pg_convertible(twin_attrs).convertible
        assert not is_property_unique(to_simple_pg(twin_attrs).graph)

        # rdf-like outputs: property-unique iff no annotation slot is shared
        rng = random.Random(127)
        sides = {True: 0, False: 0}
        for i in range(1000):
            g = randgen.random_convertible_graph(rng)
            if i % 3 == 0:
                g = with_duplicate_annotation(rng, g)
            unique = not shared_annotation_slot(g)
            assert is_property_unique(to_rdf_like_pg(g).graph) is unique
            sides[unique] += 1
        assert min(sides.values()) >= 50

        # simple outputs: attribute slots count as well
        rng = random.Random(131)
        sides = {True: 0, False: 0}
        for i in range(1000):
            g = randgen.random_convertible_graph(rng, strong=True)
            if i % 3 == 1:
                g = with_duplicate_annotation(rng, g)
            elif i % 3 == 2:
                g = with_duplicate_attribute(rng, g)
            unique = not (shared_annotation_slot(g) or shared_attribute_slot(g))
            assert is_property_unique(to_simple_pg(g).graph) is unique
            sides[unique] += 1
        assert min(sides.values()) >= 50


def test_criterion_08_parser_round_trip():
    with criterion(8, "parser and serializer invert each other"):
        rng = random.Random(109)
        for _ in range(1000):
            g = randgen.random_rdf_star_graph(rng)
            reparsed, _ = parse_turtle_star(serialize_turtle_star(g))
            assert reparsed == canonicalize_bnodes(g)
            assert isomorphic(reparsed, g)
        for name in ("alice_bob.ttls", "alice_bob_reduced.ttls", "kubrick.ttls"):
            raw = (DATA_DIR / name).read_text()
            g1, prefixes1 = parse_turtle_star(raw)
            once = serialize_turtle_star(g1, prefixes1)
            g2, prefixes2 = parse_turtle_star(once)
            assert serialize_turtle_star(g2, prefixes2) == once
        parsed, _ = parse_turtle_star((DATA_DIR / "alice_bob.ttls").read_text())
        assert parsed == build_alice_bob()
        # the document writes certainty as a bare decimal; the reference
        # graph carries the double 0.8, so compare after value canonicalization
        doc, _ = parse_turtle_star((DATA_DIR / "kubrick.ttls").read_text())
        assert canonicalize_values(doc) == pg_to_rdf_star(build_kubrick_pg())


def test_criterion_09_reification_unfolding():
    with criterion(9, "reification unfolding counts and identities hold"):
        unfolded = unfold_to_rdf(build_alice_bob())
        assert len(unfolded) == 12
        assert not embedded_triples(unfolded)
        plain = RdfStarGraph([KNOWS_TRIPLE, NAME_ALICE, NAME_BOB])
        assert unfold_to_rdf(plain) == plain
        rng = random.Random(113)
        for _ in range(1000):
            g = randgen.random_convertible_graph(rng)
            assert len(unfold_to_rdf(g)) == len(g) + 4 * len(embedded_triples(g))


def test_criterion_10_export_minimality():
    with criterion(10, "property graph export always yields minimal graphs"):
        for p in pg_corpus():
            assert is_minimal(pg_to_rdf_star(p))


def test_criterion_11_pg_to_rdf_star_to_pg():
    with criterion(11, "PG to RDF-star to PG keeps every vertex with a property or an edge"):
        rng = random.Random(137)
        vertex_ids = TemplateIriMapping("http://example.org/vertex/")
        configs = [MappingConfig(), MappingConfig(vertex_id_strategy=vertex_ids)]
        dropped = 0
        start = time.perf_counter()
        for _ in range(1000):
            p = randgen.random_property_graph(rng)
            for config in configs:
                q = to_simple_pg(pg_to_rdf_star(p, config))
                key, label = config.key_map.invert, config.label_map.invert

                def unmapped(props):
                    return {Property(key(Iri(x.key)), x.value) for x in props if x.key != "IRI"}

                # The witness: each vertex's node term, then its vertex in q.
                node_of = assign_vertex_identities(config.vertex_id_strategy, p)
                incident = {p.source(e) for e in p.edges} | {p.target(e) for e in p.edges}
                image = {}
                for v in sorted(p.vertices):
                    if not p.properties(v) and v not in incident:
                        assert node_of[v] not in q.vertex_map
                        dropped += 1
                        continue
                    w = image[v] = q.vertex_map[node_of[v]]
                    assert unmapped(q.graph.properties(w)) == set(p.properties(v))
                    iri = [x.value for x in q.graph.properties(w) if x.key == "IRI"]
                    assert iri == ([Text(node_of[v].value)] if isinstance(node_of[v], Iri) else [])
                assert len(set(image.values())) == len(image)
                assert set(image.values()) == q.graph.vertices

                edges = set()
                for e in p.edges:
                    f = q.edge_map[Triple(node_of[p.source(e)], config.label_map.apply(p.label(e)),
                                          node_of[p.target(e)])]
                    edges.add(f)
                    assert (q.graph.source(f), q.graph.target(f)) == (
                        image[p.source(e)], image[p.target(e)])
                    assert label(Iri(q.graph.label(f))) == p.label(e)
                    assert unmapped(q.graph.properties(f)) == set(p.properties(e))
                assert len(edges) == len(p.edges)
                assert edges == q.graph.edges
        elapsed = time.perf_counter() - start
        assert dropped > 0
        assert elapsed < 60.0
