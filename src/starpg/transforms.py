"""Transformations between RDF-star graphs and property graphs.

Three directions: an RDF-like property graph that keeps every term
distinction, a simple property graph that folds attribute triples into
vertex properties, and the reverse direction from a property graph into
RDF-star.  Each transformation checks its preconditions and raises with a
violation report instead of producing garbage.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Union

from .mappings import (
    MappingConfig,
    assign_vertex_identities,
    string_to_iri,
    value_from_literal,
    value_to_literal,
)
from .pg import (
    Property,
    PropertyGraph,
    PropertyValue,
    Text,
    edge_uniqueness_violations,
    property_sort_key,
    property_uniqueness_violations,
)
from .rdf import (
    BNode,
    Iri,
    Literal,
    RdfStarGraph,
    Term,
    Triple,
    _rewrite,
    is_metadata_triple,
    mentioned_terms,
    minimize,
    term_key,
)

# Reserved vertex property keys of the RDF-like encoding.  None of them is
# a valid absolute IRI, so they cannot collide with mapped predicate keys.
KIND_KEY = "kind"
IRI_KEY = "IRI"
LITERAL_KEY = "literal"
DATATYPE_KEY = "datatype"
LANGUAGE_KEY = "language"

KIND_IRI = "IRI"
KIND_BLANK_NODE = "blank node"
KIND_LITERAL = "literal"

# The kind tags as properties, one object each for every vertex to share.
_KIND_IRI = Property(KIND_KEY, Text(KIND_IRI))
_KIND_BLANK_NODE = Property(KIND_KEY, Text(KIND_BLANK_NODE))
_KIND_LITERAL = Property(KIND_KEY, Text(KIND_LITERAL))


@dataclass(frozen=True)
class Violation:
    """One failed convertibility condition, anchored at a top-level triple.

    condition is "1" (embedded subject is a metadata triple), "2" (embedded
    object), "3" (metadata object not a literal), "4" (literal outside the
    value mapping), or "strong" (embedded attribute triple).
    """

    triple: Triple
    condition: str
    reason: str


@dataclass(frozen=True)
class ConvertibilityReport:
    violations: tuple[Violation, ...]

    @property
    def convertible(self) -> bool:
        return not self.violations


class ConvertibilityError(ValueError):
    """A transformation precondition failed; carries the full report."""

    def __init__(self, report: ConvertibilityReport) -> None:
        self.report = report
        first = report.violations[0]
        super().__init__(
            f"{len(report.violations)} convertibility violation(s); "
            f"first: condition {first.condition}, {first.reason}"
        )


class NotConvertibleError(ConvertibilityError):
    pass


class NotStronglyConvertibleError(ConvertibilityError):
    pass


class MalformedRdfLikePgError(ValueError):
    """Input property graph does not follow the RDF-like encoding."""


class NotPropertyUniqueError(ValueError):
    def __init__(self, violations: list[tuple[str, str]]) -> None:
        self.violations = violations
        super().__init__(f"duplicate property keys on: {violations!r}")


class NotEdgeUniqueError(ValueError):
    def __init__(self, violations: list[tuple[str, str]]) -> None:
        self.violations = violations
        super().__init__(f"edges sharing source, target, and label: {violations!r}")


def _literal_note(l: Literal) -> str:
    if l.language is not None:
        return f'"{l.lexical_form}"@{l.language}'
    return f'"{l.lexical_form}"^^<{l.datatype.value}>'


Valuer = Callable[[Literal], Union[PropertyValue, None]]


def literal_valuer(mode: str) -> Valuer:
    """value_from_literal in the given mode, run once per distinct literal."""
    return cache(partial(value_from_literal, mode=mode))


def _check(g: RdfStarGraph, strong: bool,
           value: Valuer) -> tuple[ConvertibilityReport, list[Triple], list[Triple]]:
    """Both convertibility checks in one pass over g in term order, which
    also classifies g: returns the report, g's embedding-free triples and
    g's metadata triples, both lists in term order.

    The pass records, for each embedded triple with a literal object, the
    top-level triples that host it, so the strong condition costs no
    second pass.  Each literal is valued through value, which caches.
    """
    violations: list[Violation] = []
    plain: list[Triple] = []
    metadata: list[Triple] = []
    hosts: dict[Triple, list[Triple]] = defaultdict(list)
    for t in g:
        if not is_metadata_triple(t):
            plain.append(t)
            # Its only possible literal is its object; it embeds nothing.
            if isinstance(t.object, Literal) and value(t.object) is None:
                violations.append(
                    Violation(t, "4", f"literal {_literal_note(t.object)} has no property value")
                )
            continue
        metadata.append(t)
        if isinstance(t.subject, Triple):
            if is_metadata_triple(t.subject):
                violations.append(
                    Violation(t, "1", "embedded subject is itself a metadata triple")
                )
            if not isinstance(t.object, Literal):
                violations.append(Violation(t, "3", "metadata triple object is not a literal"))
        if isinstance(t.object, Triple):
            violations.append(Violation(t, "2", "triple embedded in object position"))
        mentioned = mentioned_terms(t)
        literals = [x for x in mentioned if isinstance(x, Literal)]
        if len(literals) > 1:
            literals.sort(key=term_key)
        for term in literals:
            if value(term) is None:
                violations.append(
                    Violation(t, "4", f"literal {_literal_note(term)} has no property value")
                )
        if strong:
            for e in mentioned:
                if isinstance(e, Triple) and isinstance(e.object, Literal):
                    hosts[e].append(t)
    for e in sorted(hosts, key=term_key):
        reason = f"embeds attribute triple with object {_literal_note(e.object)}"
        violations.extend(Violation(t, "strong", reason) for t in hosts[e])
    return ConvertibilityReport(tuple(violations)), plain, metadata


def check_pg_convertible(g: RdfStarGraph, mode: str = "lenient") -> ConvertibilityReport:
    """Check the four conditions under which an RDF-star graph maps to a
    property graph: embedded triples only as subjects of metadata triples,
    no nested metadata, metadata objects are literals, and every mentioned
    literal carries a property value in the given mode.

    One pass over g, linear in its size.  Violations come in graph order;
    per triple, conditions 1, 3, 2, then 4 per literal in term order.
    Each distinct literal is valued once.
    """
    return _check(g, False, literal_valuer(mode))[0]


def check_strongly_pg_convertible(g: RdfStarGraph, mode: str = "lenient") -> ConvertibilityReport:
    """As check_pg_convertible, plus: no embedded triple has a literal
    object (metadata may only annotate relationship triples).

    The same single pass, n log n overall.  The violations of
    check_pg_convertible come first; then one "strong" violation per
    hosting top-level triple, by term order of the embedded attribute
    triple and, for each, by host in graph order.
    """
    return _check(g, True, literal_valuer(mode))[0]


def _classify(g: RdfStarGraph, mode: str,
              strong: bool) -> tuple[Valuer, list[Triple], list[Triple]]:
    """The prologue of both RDF-to-PG transforms: one checked pass over g.

    Returns the valuer the pass filled, g's ordinary triples and g's
    metadata triples, both in term order, or raises with the report.  By
    conditions 1-3 every metadata triple is <<plain>> p literal, so the
    ordinary triples are the embedding-free ones plus the embedded
    subjects g does not assert; only those need merging in.
    """
    value = literal_valuer(mode)
    report, plain, metadata = _check(g, strong, value)
    if not report.convertible:
        raise (NotStronglyConvertibleError if strong else NotConvertibleError)(report)
    unasserted = {m.subject for m in metadata} - g.triples
    ordinary = sorted([*plain, *unasserted], key=term_key) if unasserted else plain
    return value, ordinary, metadata


@dataclass(frozen=True)
class PgResult:
    """A transformed graph plus the witness maps from source terms/triples
    to the vertex and edge ids chosen for them."""

    graph: PropertyGraph
    vertex_map: dict[Term, str]
    edge_map: dict[Triple, str]


def _text_property(key: str, text: str) -> Property:
    return Property(key, Text(text))


def _literal_vertex_properties(l: Literal, value: PropertyValue | None,
                               text_property: Callable[[str, str], Property]) -> set[Property]:
    # Condition 4 rejects language-tagged literals, so none reaches here.
    if value is None:
        raise AssertionError(f"literal outside value mapping slipped past the check: {l!r}")
    return {_KIND_LITERAL, Property(LITERAL_KEY, value),
            text_property(DATATYPE_KEY, l.datatype.value)}


def _property_table(value: Valuer) -> Callable[[Iri, Literal], Property]:
    """The property of a predicate and a literal, built once per distinct
    pair, so equal properties share one object."""
    return cache(lambda predicate, l: Property(predicate.value, value(l)))


def _assemble(metadata: list[Triple], edges: list[Triple], vertex_map: dict, edge_map: dict,
              props: dict[str, set[Property]],
              property_of: Callable[[Iri, Literal], Property]) -> PropertyGraph:
    """The property graph both RDF-to-PG transforms share: one edge per
    triple of edges, and the metadata triples as properties of the edge
    of their embedded subject."""
    src = {edge_map[t]: vertex_map[t.subject] for t in edges}
    tgt = {edge_map[t]: vertex_map[t.object] for t in edges}
    lbl = {edge_map[t]: t.predicate.value for t in edges}
    edge_props: dict[str, set[Property]] = defaultdict(set)
    for m in metadata:
        # m.object is a literal by condition 3.
        edge_props[edge_map[m.subject]].add(property_of(m.predicate, m.object))
    props.update(edge_props)
    return PropertyGraph(vertex_map.values(), edge_map.values(), src, tgt, lbl, props)


def to_rdf_like_pg(g: RdfStarGraph, mode: str = "lenient") -> PgResult:
    """Transform a convertible graph into the RDF-like property graph.

    One vertex per subject/object term of the ordinary triples, tagged with
    its kind (and IRI text, or literal value/datatype); one edge per
    ordinary triple, labeled with the predicate IRI text; metadata triples
    become properties of the edge for their embedded subject.  The check
    runs in the same pass over g as the classification.
    """
    value, ordinary, metadata = _classify(g, mode, strong=False)
    terms = {x for t in ordinary for x in (t.subject, t.object) if not isinstance(x, Triple)}
    vertex_map = {term: f"v{i}" for i, term in enumerate(sorted(terms, key=term_key), start=1)}
    edge_map = {t: f"e{i}" for i, t in enumerate(ordinary, start=1)}

    text_property = cache(_text_property)  # datatypes repeat
    props: dict[str, set[Property]] = {}
    for term, vid in vertex_map.items():
        if isinstance(term, Iri):
            props[vid] = {_KIND_IRI, _text_property(IRI_KEY, term.value)}
        elif isinstance(term, BNode):
            props[vid] = {_KIND_BLANK_NODE}
        else:
            props[vid] = _literal_vertex_properties(term, value(term), text_property)

    graph = _assemble(metadata, ordinary, vertex_map, edge_map, props, _property_table(value))
    return PgResult(graph, vertex_map, edge_map)


def _single(props_by_key: dict[str, list], key: str, vertex: str):
    values = props_by_key.get(key, [])
    if len(values) != 1:
        raise MalformedRdfLikePgError(
            f"vertex {vertex!r} needs exactly one {key!r} property, has {len(values)}"
        )
    return values[0]


def _text_value(value, key: str, vertex: str) -> str:
    if not isinstance(value, Text):
        raise MalformedRdfLikePgError(f"vertex {vertex!r} property {key!r} must be Text")
    return value.value


def from_rdf_like_pg(p: PropertyGraph) -> RdfStarGraph:
    """Rebuild the RDF-star graph encoded by an RDF-like property graph.

    Blank-node vertices get fresh labels b1, b2, ... in vertex id order.
    Literal vertices rebuild their literal from the recorded value with the
    recorded datatype/language overriding the value's own canonical
    datatype, so reconstruction is exact for canonical inputs.  The result
    is minimal: an edge's triple is kept at top level only when no
    metadata reasserts it embedded.
    """
    term_map: dict[str, Term] = {}
    counter = 0
    iri_of = cache(string_to_iri)  # labels, keys and datatypes repeat
    literal_of = cache(value_to_literal)  # and so do edge property values
    for v in sorted(p.vertices):
        by_key: dict[str, list] = defaultdict(list)
        for prop in p.properties(v):
            by_key[prop.key].append(prop.value)
        kind = _text_value(_single(by_key, KIND_KEY, v), KIND_KEY, v)
        if kind == KIND_IRI:
            if set(by_key) != {KIND_KEY, IRI_KEY}:
                raise MalformedRdfLikePgError(f"IRI vertex {v!r} has unexpected properties")
            text = _text_value(_single(by_key, IRI_KEY, v), IRI_KEY, v)
            iri = string_to_iri(text)
            if iri is None:
                raise MalformedRdfLikePgError(f"vertex {v!r} IRI is not a valid IRI: {text!r}")
            term_map[v] = iri
        elif kind == KIND_BLANK_NODE:
            if set(by_key) != {KIND_KEY}:
                raise MalformedRdfLikePgError(f"blank node vertex {v!r} has unexpected properties")
            counter += 1
            term_map[v] = BNode(f"b{counter}")
        elif kind == KIND_LITERAL:
            if not set(by_key) <= {KIND_KEY, LITERAL_KEY, DATATYPE_KEY, LANGUAGE_KEY}:
                raise MalformedRdfLikePgError(f"literal vertex {v!r} has unexpected properties")
            value = _single(by_key, LITERAL_KEY, v)
            datatype = _text_value(_single(by_key, DATATYPE_KEY, v), DATATYPE_KEY, v)
            dt_iri = iri_of(datatype)
            if dt_iri is None:
                raise MalformedRdfLikePgError(
                    f"vertex {v!r} datatype is not a valid IRI: {datatype!r}"
                )
            language = None
            if LANGUAGE_KEY in by_key:
                language = _text_value(_single(by_key, LANGUAGE_KEY, v), LANGUAGE_KEY, v)
            try:
                term_map[v] = Literal(value_to_literal(value).lexical_form, dt_iri, language)
            except ValueError as exc:
                raise MalformedRdfLikePgError(f"vertex {v!r}: {exc}") from exc
        else:
            raise MalformedRdfLikePgError(f"vertex {v!r} has unknown kind {kind!r}")

    triples: set[Triple] = set()
    for e in sorted(p.edges):
        subject = term_map[p.source(e)]
        if isinstance(subject, Literal):
            raise MalformedRdfLikePgError(f"edge {e!r} starts at a literal vertex")
        predicate = iri_of(p.label(e))
        if predicate is None:
            raise MalformedRdfLikePgError(f"edge {e!r} label is not a valid IRI: {p.label(e)!r}")
        t = Triple(subject, predicate, term_map[p.target(e)])
        triples.add(t)
        for prop in sorted(p.properties(e), key=property_sort_key):
            key_iri = iri_of(prop.key)
            if key_iri is None:
                raise MalformedRdfLikePgError(
                    f"edge {e!r} property key is not a valid IRI: {prop.key!r}"
                )
            triples.add(Triple(t, key_iri, literal_of(prop.value)))

    return minimize(RdfStarGraph(triples))


def to_simple_pg(g: RdfStarGraph, mode: str = "lenient") -> PgResult:
    """Transform a strongly convertible graph into the simple property graph.

    Vertices are the IRI/blank subject-object nodes; attribute triples fold
    into vertex properties (IRI vertices also record their IRI text under
    the reserved "IRI" key); relationship triples become edges; metadata
    triples become edge properties.  The strong check runs in the same
    pass over g as the classification.
    """
    value, ordinary, metadata = _classify(g, mode, strong=True)
    nodes = {x for t in ordinary for x in (t.subject, t.object) if isinstance(x, (Iri, BNode))}
    vertex_map = {n: f"v{i}" for i, n in enumerate(sorted(nodes, key=term_key), start=1)}
    relations = [t for t in ordinary if isinstance(t.object, (Iri, BNode))]
    edge_map = {t: f"e{i}" for i, t in enumerate(relations, start=1)}

    property_of = _property_table(value)
    props: dict[str, set[Property]] = {vid: set() for vid in vertex_map.values()}
    for node, vid in vertex_map.items():
        if isinstance(node, Iri):
            props[vid].add(_text_property(IRI_KEY, node.value))
    for a in ordinary:
        if isinstance(a.object, Literal):
            props[vertex_map[a.subject]].add(property_of(a.predicate, a.object))

    graph = _assemble(metadata, relations, vertex_map, edge_map, props, property_of)
    return PgResult(graph, vertex_map, edge_map)


def pg_to_rdf_star(p: PropertyGraph, config: MappingConfig | None = None) -> RdfStarGraph:
    """Represent a property-unique, edge-unique property graph in RDF-star.

    Vertex properties become plain triples about the vertex's node term;
    an edge with properties contributes one metadata triple per property
    about its embedded edge triple; a propertyless edge contributes its
    edge triple directly.  The output is always minimal.
    """
    config = config or MappingConfig()
    pv = property_uniqueness_violations(p)
    if pv:
        raise NotPropertyUniqueError(pv)
    ev = edge_uniqueness_violations(p)
    if ev:
        raise NotEdgeUniqueError(ev)

    node_of = assign_vertex_identities(config.vertex_id_strategy, p)
    # The term tables: one IRI per distinct key and label, one literal per
    # distinct value.  The triples go into a set, so no order is needed.
    key_iri, label_iri = cache(config.key_map.apply), cache(config.label_map.apply)
    literal_of = cache(value_to_literal)
    triples: set[Triple] = set()
    for v in p.vertices:
        for prop in p.properties(v):
            triples.add(Triple(node_of[v], key_iri(prop.key), literal_of(prop.value)))
    for e in p.edges:
        edge_triple = Triple(node_of[p.source(e)], label_iri(p.label(e)), node_of[p.target(e)])
        edge_properties = p.properties(e)
        for prop in edge_properties:
            triples.add(Triple(edge_triple, key_iri(prop.key), literal_of(prop.value)))
        if not edge_properties:
            triples.add(edge_triple)
    return RdfStarGraph(triples)


def canonicalize_values(g: RdfStarGraph, mode: str = "lenient") -> RdfStarGraph:
    """Rewrite every literal that carries a property value to that value's
    canonical literal; literals outside the value mapping stay unchanged.
    Idempotent, and the identity on graphs that are already canonical."""

    @cache
    def canonical(l: Literal) -> Literal:
        value = value_from_literal(l, mode)
        if value is None:
            return l
        c = value_to_literal(value)
        return l if c == l else c

    def canonical_leaf(x: Term) -> Term:
        return canonical(x) if isinstance(x, Literal) else x

    return RdfStarGraph(_rewrite(t, canonical_leaf) for t in g.triples)
