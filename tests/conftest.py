"""Shared fixtures: golden graphs and paths to the data files."""

from pathlib import Path

import pytest

from starpg import (
    XSD_DECIMAL,
    XSD_INTEGER,
    BNode,
    Double,
    Integer,
    Iri,
    Literal,
    Property,
    PropertyGraph,
    RdfStarGraph,
    Text,
    Triple,
)
from starpg.pg import property_sort_key

DATA_DIR = Path(__file__).parent / "data"

EX = "http://example.org/"
FOAF = "http://xmlns.com/foaf/0.1/"

ALICE = Iri(EX + "alice")
BOB = Iri(EX + "bob")
KNOWS = Iri(FOAF + "knows")
NAME = Iri(FOAF + "name")
AGE = Iri(FOAF + "age")
CERTAINTY = Iri(EX + "certainty")

KNOWS_TRIPLE = Triple(ALICE, KNOWS, BOB)
AGE_TRIPLE = Triple(BOB, AGE, Literal("23", Iri(XSD_INTEGER)))
NAME_ALICE = Triple(ALICE, NAME, Literal("Alice"))
NAME_BOB = Triple(BOB, NAME, Literal("Bob"))
KNOWS_CERTAINTY = Triple(KNOWS_TRIPLE, CERTAINTY, Literal("0.5", Iri(XSD_DECIMAL)))
AGE_CERTAINTY = Triple(AGE_TRIPLE, CERTAINTY, Literal("0.9", Iri(XSD_DECIMAL)))


def build_alice_bob() -> RdfStarGraph:
    """Two annotated statements about alice and bob, as parsed from the
    .ttls fixture: two metadata triples plus the two name triples."""
    return RdfStarGraph([KNOWS_CERTAINTY, NAME_ALICE, NAME_BOB, AGE_CERTAINTY])


def build_alice_bob_reduced() -> RdfStarGraph:
    """The strongly convertible subgraph: the age annotation dropped."""
    return RdfStarGraph([KNOWS_CERTAINTY, NAME_ALICE, NAME_BOB])


def _ex(local: str) -> Iri:
    return Iri(EX + local)


# Embedded attribute triples, each hosted by several metadata triples.
MULTI_HOST_ATTRIBUTES = (
    Triple(ALICE, AGE, Literal("31", Iri(XSD_INTEGER))),
    Triple(BOB, NAME, Literal("Bob")),
    Triple(BNode("x1"), _ex("score"), Literal("0.25", Iri(XSD_DECIMAL))),
)

# One violator of each of conditions 1-4, in that order.
MULTI_HOST_VIOLATORS = (
    Triple(Triple(MULTI_HOST_ATTRIBUTES[0], _ex("by"), Literal("census")), _ex("seen"),
           Literal("twice")),
    Triple(ALICE, _ex("says"), Triple(BOB, NAME, Literal("Robert"))),
    Triple(KNOWS_TRIPLE, _ex("via"), BOB),
    Triple(ALICE, NAME, Literal("Alicia", language="es")),
)


def build_multi_host() -> RdfStarGraph:
    """Three embedded attribute triples with three or four hosts each
    (the violator of condition 1 is the fourth host of the first), an
    annotated relationship, plain triples, and one violator of each of
    conditions 1-4: the order of the "strong" violations depends on how
    each attribute triple's hosts are sorted."""
    hosts = [
        Triple(e, _ex(f"h{j}"), Literal(f"{i}.{j}", Iri(XSD_DECIMAL)))
        for i, e in enumerate(MULTI_HOST_ATTRIBUTES)
        for j in range(3 + i % 2)
    ]
    plain = [KNOWS_TRIPLE, NAME_ALICE, Triple(BNode("x1"), KNOWS, ALICE)]
    return RdfStarGraph([*hosts, *plain, KNOWS_CERTAINTY, *MULTI_HOST_VIOLATORS])


def build_kubrick_pg() -> PropertyGraph:
    return PropertyGraph(
        vertices=["Kubrick", "Welles"],
        edges=["e1", "e2"],
        src={"e1": "Welles", "e2": "Kubrick"},
        tgt={"e1": "Kubrick", "e2": "Welles"},
        lbl={"e1": "mentioned", "e2": "influencedBy"},
        props={
            "Kubrick": [
                Property("name", Text("Stanley Kubrick")),
                Property("birthyear", Integer(1928)),
            ],
            "Welles": [Property("name", Text("Orson Welles"))],
            "e2": [Property("certainty", Double(0.8))],
        },
    )


def assert_ordered_properties(g: PropertyGraph) -> None:
    """Every element's properties are a tuple, strictly ascending by
    property_sort_key, and every element without properties has the
    empty tuple itself."""
    empty = ()
    for x in g.vertices | g.edges:
        ps = g.properties(x)
        assert type(ps) is tuple
        keys = [property_sort_key(p) for p in ps]
        assert all(a < b for a, b in zip(keys, keys[1:])), x
        assert ps or ps is empty


@pytest.fixture
def alice_bob() -> RdfStarGraph:
    return build_alice_bob()


@pytest.fixture
def alice_bob_reduced() -> RdfStarGraph:
    return build_alice_bob_reduced()


@pytest.fixture
def kubrick_pg() -> PropertyGraph:
    return build_kubrick_pg()


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR
