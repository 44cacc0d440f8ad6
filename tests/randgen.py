"""Seeded random generators for the property and acceptance suites.

Three families:
  random_convertible_graph   minimal, convertible, nesting depth <= 1
  random_rdf_star_graph      arbitrary shape, for parser round-trips
  random_property_graph      property-unique and edge-unique
"""

import random

from starpg import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BNode,
    Boolean,
    Double,
    Integer,
    Iri,
    Literal,
    Property,
    PropertyGraph,
    PropertyValue,
    RdfStarGraph,
    Text,
    Triple,
    value_to_literal,
)

NODE_IRIS = [Iri(f"http://example.org/n{i}") for i in range(8)]
PREDICATES = [Iri(f"http://example.org/p{i}") for i in range(6)]
BNODES = [BNode(f"x{i}") for i in range(1, 7)]

_WORDS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
_DOUBLES = [0.5, -2.25, 3.0, 0.125, 10.0, -0.75, 1e16]

_STRINGS = [
    "",
    "plain",
    "with space",
    'quote"inside',
    "back\\slash",
    "line\nbreak",
    "tab\there",
    "carriage\rreturn",
    "héllo ☃",
]
_LANGS = ["en", "en-US", "fr", "de-DE-1996"]
_ODD_LEXICALS = ["042", "+5", "1e3", "0.50", "TRUE", "abc", "5 apples"]
_DATATYPES = [
    XSD_STRING,
    XSD_INTEGER,
    XSD_DOUBLE,
    XSD_DECIMAL,
    XSD_BOOLEAN,
    "http://example.org/dt/custom",
]


def random_value(rng: random.Random) -> PropertyValue:
    kind = rng.randrange(5)
    if kind == 0:
        return Text(rng.choice(_WORDS))
    if kind == 1:
        return Integer(rng.randrange(-1000, 1000))
    if kind == 2:
        return Integer(2**60 + rng.randrange(100))
    if kind == 3:
        return Double(rng.choice(_DOUBLES))
    return Boolean(rng.random() < 0.5)


def _node(rng: random.Random):
    return rng.choice(NODE_IRIS) if rng.random() < 0.7 else rng.choice(BNODES)


def _plain_object(rng: random.Random):
    r = rng.random()
    if r < 0.4:
        return value_to_literal(random_value(rng))
    return _node(rng)


def random_convertible_graph(
    rng: random.Random, max_triples: int = 30, strong: bool = False
) -> RdfStarGraph:
    """A minimal graph every transformation precondition accepts.

    Embedded triples carry canonical literals only, never appear at the
    top level, and are never nested below depth 1.  With strong=True the
    embedded triples get node objects only.
    """
    n_ordinary = rng.randrange(0, max(1, max_triples - 9))
    n_metadata = rng.randrange(0, 10)
    ordinary = set()
    for _ in range(n_ordinary):
        ordinary.add(Triple(_node(rng), rng.choice(PREDICATES), _plain_object(rng)))
    metadata = set()
    attempts = 0
    while len(metadata) < n_metadata and attempts < 200:
        attempts += 1
        inner_object = _node(rng) if strong else _plain_object(rng)
        inner = Triple(_node(rng), rng.choice(PREDICATES), inner_object)
        if inner in ordinary:
            continue
        annotation = value_to_literal(random_value(rng))
        metadata.add(Triple(inner, rng.choice(PREDICATES), annotation))
    return RdfStarGraph(ordinary | metadata)


def random_literal(rng: random.Random) -> Literal:
    r = rng.random()
    if r < 0.35:
        return Literal(rng.choice(_STRINGS))
    if r < 0.5:
        return Literal(rng.choice(_STRINGS), language=rng.choice(_LANGS))
    if r < 0.75:
        return value_to_literal(random_value(rng))
    return Literal(rng.choice(_ODD_LEXICALS), Iri(rng.choice(_DATATYPES)))


def _random_subject(rng: random.Random, depth: int):
    if depth > 0 and rng.random() < 0.3:
        return random_triple(rng, depth - 1)
    return _node(rng)


def _random_object(rng: random.Random, depth: int):
    if depth > 0 and rng.random() < 0.2:
        return random_triple(rng, depth - 1)
    if rng.random() < 0.45:
        return random_literal(rng)
    return _node(rng)


def random_triple(rng: random.Random, depth: int = 0) -> Triple:
    return Triple(
        _random_subject(rng, depth),
        rng.choice(PREDICATES),
        _random_object(rng, depth),
    )


def random_one_level_graph(rng: random.Random, max_triples: int = 20) -> RdfStarGraph:
    """A graph of nodes, plain strings and numbers alone, whose subjects
    nest at most one level and whose objects never do: the statements the
    Turtle-star parser reads with one match."""
    def node_object():
        r = rng.random()
        if r < 0.25:
            return Literal(rng.choice(_STRINGS))
        if r < 0.4:
            return value_to_literal(Integer(rng.randrange(-1000, 1000)))
        if r < 0.5:
            return value_to_literal(Double(rng.choice(_DOUBLES)))
        return _node(rng)

    def subject():
        if rng.random() < 0.3:
            return Triple(_node(rng), rng.choice(PREDICATES), _node(rng))
        return _node(rng)

    n = rng.randrange(0, max_triples + 1)
    return RdfStarGraph(Triple(subject(), rng.choice(PREDICATES), node_object()) for _ in range(n))


def random_rdf_star_graph(rng: random.Random, max_triples: int = 20) -> RdfStarGraph:
    n = rng.randrange(0, max_triples + 1)
    return RdfStarGraph(random_triple(rng, rng.randrange(0, 3)) for _ in range(n))


_KEYS = ["name", "age", "certainty", "active", "note", "rank"]
_LABELS = ["knows", "likes", "mentioned", "influencedBy", "sees"]


def random_property_graph(
    rng: random.Random, max_vertices: int = 6, max_edges: int = 8
) -> PropertyGraph:
    """Always property-unique and edge-unique."""
    n_vertices = rng.randrange(1, max_vertices + 1)
    vertices = [f"v{i}" for i in range(1, n_vertices + 1)]
    slots = [(s, t, l) for s in vertices for t in vertices for l in _LABELS]
    rng.shuffle(slots)
    n_edges = min(rng.randrange(0, max_edges + 1), len(slots))
    src, tgt, lbl = {}, {}, {}
    edges = []
    for i, (s, t, l) in enumerate(slots[:n_edges], start=1):
        edge = f"e{i}"
        edges.append(edge)
        src[edge], tgt[edge], lbl[edge] = s, t, l
    props = {
        x: [Property(k, random_value(rng)) for k in rng.sample(_KEYS, rng.randrange(0, 4))]
        for x in vertices + edges
    }
    return PropertyGraph(vertices, edges, src, tgt, lbl, props)
