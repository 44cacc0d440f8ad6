"""Seeded input generator for the starpg benchmark (standard library only).

Each workload builds its input files from a seed; the same seed gives the
same bytes.  Alongside every file the generator records what it planted,
computed from its own model of the graph (plain tuples, never starpg):
these counts are the reference the output checks compare against.

Terms are tuples: ("iri", text), ("bnode", label), ("lit", lexical,
datatype) and ("triple", s, p, o).  Planted literals are written in their
canonical lexical form, and two different planted literals never carry
the same property value, so value canonicalization cannot merge them.

The seed varies identifiers, names, values and which persons are linked
or annotated.  It never varies the counts, nor the blank-node topology of
the anon-1k inputs: today's blank-node renumbering does a number of passes
that depends on that topology alone, so fixing it keeps the cost of a run
the same across seeds while the renumbering still does all its passes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

EX = "http://example.org/"
FOAF = "http://xmlns.com/foaf/0.1/"
XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = XSD + "string"
XSD_INTEGER = XSD + "integer"
XSD_DECIMAL = XSD + "decimal"

_FIRST = ("Ada", "Bo", "Chen", "Dana", "Emil", "Fatima", "Gus", "Hana", "Ivo", "Jun",
          "Kai", "Lena", "Milo", "Nia", "Omar", "Pia", "Quinn", "Rosa", "Sven", "Tara")
_LAST = ("Abe", "Berg", "Costa", "Diaz", "Eze", "Fox", "Gray", "Horvat", "Ito", "Jensen",
         "Kim", "Lopez", "Moreau", "Novak", "Okafor", "Park", "Rossi", "Silva", "Tan", "Wolf")


def iri(text: str) -> tuple:
    return ("iri", text)


def lit(lexical: str, datatype: str = XSD_STRING) -> tuple:
    return ("lit", lexical, datatype)


def triple(s: tuple, p: tuple, o: tuple) -> tuple:
    return ("triple", s, p, o)


@dataclass
class Planted:
    """What one input file holds, as counted by the generator."""

    triples: int = 0
    embedded_triples: int = 0
    blank_nodes: int = 0
    annotated_attribute_triples: int = 0
    vertices: int = 0
    edges: int = 0
    properties: int = 0


@dataclass
class InputFile:
    name: str
    text: str
    planted: Planted
    # Expected observations of each command run on this file, keyed by command.
    expect: dict = field(default_factory=dict)


# -- the generator's own model of the starpg semantics ---------------------


def _embedded(t: tuple, out: set) -> None:
    for x in (t[1], t[3]):
        if x[0] == "triple":
            out.add(x)
            _embedded(x, out)


def embedded_of(graph: set) -> set:
    out: set = set()
    for t in graph:
        _embedded(t, out)
    return out


def _is_metadata(t: tuple) -> bool:
    return t[1][0] == "triple" or t[3][0] == "triple"


def _render(x: tuple, prefixes: dict) -> str:
    kind = x[0]
    if kind == "iri":
        for label, ns in prefixes.items():
            if x[1].startswith(ns):
                return f"{label}:{x[1][len(ns):]}"
        return f"<{x[1]}>"
    if kind == "bnode":
        return f"_:{x[1]}"
    if kind == "lit":
        if x[2] in (XSD_INTEGER, XSD_DECIMAL):
            return x[1]
        return '"' + x[1].replace("\\", "\\\\").replace('"', '\\"') + '"'
    return f"<<{_render(x[1], prefixes)} {_render(x[2], prefixes)} {_render(x[3], prefixes)}>>"


def _turtle(prefixes: dict, statements: list[tuple]) -> str:
    lines = [f"@prefix {label}: <{ns}> ." for label, ns in prefixes.items()]
    lines.append("")
    for t in statements:
        lines.append(f"{_render(t[1], prefixes)} {_render(t[2], prefixes)} "
                     f"{_render(t[3], prefixes)} .")
    return "\n".join(lines) + "\n"


def _turtle_expectations(graph: set) -> dict:
    """Expected observations of every Turtle-star command on `graph`."""
    embedded = embedded_of(graph)
    metadata = {t for t in graph if _is_metadata(t)}
    ordinary = (graph | embedded) - metadata

    def vertex_props(x: tuple) -> int:
        return {"iri": 2, "bnode": 1, "lit": 3}[x[0]]

    terms = {x for t in ordinary for x in (t[1], t[3]) if x[0] != "triple"}
    rdf_like = {
        "vertices": len(terms),
        "edges": len(ordinary),
        "properties": sum(vertex_props(x) for x in terms) + len(metadata),
    }
    nodes = {x for t in ordinary for x in (t[1], t[3]) if x[0] in ("iri", "bnode")}
    relations = [t for t in ordinary if t[3][0] in ("iri", "bnode")]
    attributes = [t for t in ordinary if t[3][0] == "lit"]
    simple = {
        "vertices": len(nodes),
        "edges": len(relations),
        "properties": sum(1 for x in nodes if x[0] == "iri") + len(attributes) + len(metadata),
    }
    # One violation per (embedded attribute triple, top-level triple hosting it).
    strong_violations = sum(
        1 for t in graph for e in _mentions(t) if e[3][0] == "lit"
    )
    return {
        "check": {"exit": 1 if strong_violations else 0, "violations": strong_violations},
        "rdf2pg-rdf-like": {"exit": 0, **rdf_like},
        "rdf2pg-simple": {"exit": 0, **simple},
        "roundtrip": {"exit": 0, "triples": len(graph - embedded)},
        "unfold": {"exit": 0, "statements": len(graph) + 4 * len(embedded), "embedded_lines": 0},
    }


def _mentions(t: tuple) -> set:
    out: set = set()
    _embedded(t, out)
    return out


def _planted_rdf(graph: set) -> Planted:
    embedded = embedded_of(graph)
    bnodes = set()
    for t in graph | embedded:
        for x in (t[1], t[3]):
            if x[0] == "bnode":
                bnodes.add(x)
    attributes = sum(1 for e in embedded if e[3][0] == "lit")
    return Planted(triples=len(graph), embedded_triples=len(embedded),
                   blank_nodes=len(bnodes), annotated_attribute_triples=attributes)


# -- workloads --------------------------------------------------------------


def _unique_tokens(rng: random.Random, n: int) -> list[str]:
    tokens: set[str] = set()
    while len(tokens) < n:
        tokens.add("".join(rng.choice("0123456789abcdef") for _ in range(8)))
    return sorted(tokens)


def _name(rng: random.Random, k: int) -> str:
    return f"{rng.choice(_FIRST)} {rng.choice(_LAST)} {k}"


def _persons(rng: random.Random, n: int) -> tuple[list[tuple], list[tuple], list[tuple]]:
    """n person IRIs, each with a name, an age and one `knows` edge to
    another person; returns (persons, name and age triples, knows triples)."""
    persons = [iri(f"{EX}p{token}") for token in _unique_tokens(rng, n)]
    rng.shuffle(persons)
    attributes, knows = [], []
    for k, p in enumerate(persons):
        attributes.append(triple(p, iri(FOAF + "name"), lit(_name(rng, k))))
        attributes.append(triple(p, iri(FOAF + "age"), lit(str(rng.randint(18, 90)), XSD_INTEGER)))
        j = rng.randrange(n - 1)
        knows.append(triple(p, iri(FOAF + "knows"), persons[j + (j >= k)]))
    return persons, attributes, knows


def _certainties(rng: random.Random, edges: list[tuple], n: int) -> list[tuple]:
    """A certainty annotation on each of n of the edges.  Values repeat
    across edges, which is still one property per edge."""
    return [triple(t, iri(EX + "certainty"), lit(f"0.{rng.randrange(1, 1000):03d}", XSD_DECIMAL))
            for t in rng.sample(edges, n)]


def social(seed: int, persons: int = 3300, provenance: int = 30) -> list[InputFile]:
    """Annotated social graph: IRIs only, about half the knows edges carry
    a certainty annotation, and `provenance` age triples carry a source."""
    rng = random.Random(f"social/{seed}")
    _, attributes, knows = _persons(rng, persons)
    statements = attributes + knows + _certainties(rng, knows, persons // 2)
    ages = [t for t in attributes if t[2] == iri(FOAF + "age")]
    for t in rng.sample(ages, provenance):
        statements.append(triple(t, iri(EX + "source"), lit("registry")))
    rng.shuffle(statements)
    graph = set(statements)
    prefixes = {"ex": EX, "foaf": FOAF}
    return [InputFile("social.ttls", _turtle(prefixes, statements),
                      _planted_rdf(graph), _turtle_expectations(graph))]


def _pg_json(vertices: list[dict], edges: list[dict]) -> str:
    return json.dumps({"vertices": vertices, "edges": edges}, indent=1, ensure_ascii=False) + "\n"


def _pg_expectations(vertices: list[dict], edges: list[dict]) -> tuple[Planted, dict]:
    props = sum(len(v["properties"]) for v in vertices) + sum(len(e["properties"]) for e in edges)
    annotated = sum(1 for e in edges if e["properties"])
    statements = (sum(len(v["properties"]) for v in vertices)
                  + sum(max(1, len(e["properties"])) for e in edges))
    planted = Planted(triples=statements, embedded_triples=annotated,
                      vertices=len(vertices), edges=len(edges), properties=props)
    return planted, {"pg2rdf": {"exit": 0, "statements": statements,
                                "embedded_lines": sum(len(e["properties"]) for e in edges)}}


def _value(kind: str, value) -> dict:
    return {"type": kind, "value": value}


def pg(seed: int, vertices: int = 2500) -> list[InputFile]:
    """Property-unique, edge-unique property graph; half the edges carry
    one property.  Vertex ids hold spaces and '#', so IRI templating has
    to percent-encode them."""
    rng = random.Random(f"pg/{seed}")
    ids = [f"{rng.choice(_FIRST)} {rng.choice(_LAST)} #{token}"
           for token in _unique_tokens(rng, vertices)]
    vs = [{"id": v, "properties": [
        {"key": "name", "value": _value("string", v.split(" #")[0])},
        {"key": "age", "value": _value("integer", rng.randint(18, 90))},
    ]} for v in ids]
    es = []
    labels = ("knows", "follows", "works with")
    for i, v in enumerate(ids):
        # Two out-edges per vertex: 5,000 edges and 10,000 triples out.
        for j in rng.sample(range(vertices - 1), 2):
            edge = {"id": f"e{len(es) + 1}", "src": v, "tgt": ids[j + (j >= i)],
                    "label": rng.choice(labels), "properties": []}
            es.append(edge)
    for edge in rng.sample(es, len(es) // 2):
        if rng.random() < 0.5:
            value = {"key": "since", "value": _value("integer", rng.randint(1990, 2024))}
        else:
            value = {"key": "weight", "value": _value("double", rng.randint(1, 99) / 8)}
        edge["properties"].append(value)
    rng.shuffle(vs)
    rng.shuffle(es)
    planted, expect = _pg_expectations(vs, es)
    return [InputFile("graph.pg.json", _pg_json(vs, es), planted, expect)]


def anon(seed: int, persons: int = 300, anonymous: int = 90, annotations: int = 150,
         pg_vertices: int = 32) -> list[InputFile]:
    """Strongly convertible Turtle-star dense in blank nodes, plus a small
    PG-JSON graph whose vertices become blank nodes in pg2rdf."""
    rng = random.Random(f"anon/{seed}")
    people, statements, knows = _persons(rng, persons)
    for k, p in enumerate(rng.sample(people, anonymous), start=1):
        x = ("bnode", f"x{k}")
        knows.append(triple(p, iri(FOAF + "knows"), x))
        statements.append(triple(x, iri(FOAF + "name"), lit(_name(rng, persons + k))))
    statements += knows + _certainties(rng, knows, annotations)
    rng.shuffle(statements)
    graph = set(statements)
    ttl = InputFile("anon.ttls", _turtle({"ex": EX, "foaf": FOAF}, statements),
                    _planted_rdf(graph), _turtle_expectations(graph))

    # pg2rdf numbers blank nodes in vertex-id order, so the edges are laid
    # out on that order: each vertex knows the next two, and the edge to
    # the second carries a property.
    ids = sorted(_name(rng, k) for k in range(pg_vertices))
    vs = [{"id": v, "properties": [
        {"key": "name", "value": _value("string", v)},
        {"key": "age", "value": _value("integer", rng.randint(18, 90))},
    ]} for v in ids]
    es = []
    for i, v in enumerate(ids):
        for step in (1, 2):
            edge = {"id": f"e{len(es) + 1}", "src": v, "tgt": ids[(i + step) % pg_vertices],
                    "label": "knows", "properties": []}
            if step == 2:
                edge["properties"].append(
                    {"key": "since", "value": _value("integer", rng.randint(1990, 2024))})
            es.append(edge)
    rng.shuffle(vs)
    rng.shuffle(es)
    planted, expect = _pg_expectations(vs, es)
    return [ttl, InputFile("anon.pg.json", _pg_json(vs, es), planted, expect)]


GENERATORS = {"social-10k": social, "pg-10k": pg, "anon-1k": anon}


def generate(workload: str, seed: int) -> list[InputFile]:
    return GENERATORS[workload](seed)
