"""Transformations between RDF-star graphs and property graphs.

Three directions: an RDF-like property graph that keeps every term
distinction, a simple property graph that folds attribute triples into
vertex properties, and the reverse direction from a property graph into
RDF-star.  Each transformation checks its preconditions and raises with a
violation report instead of producing garbage.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache, partial
from typing import Callable, Union

from .frozen import Frozen, set_field
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
    ordered_properties,
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
    term_key,
)
from .turtle import _quote

# Reserved vertex property keys of the RDF-like encoding.  None of them is
# a valid absolute IRI, so they cannot collide with mapped predicate keys.
KIND_KEY = "kind"
IRI_KEY = "IRI"
LITERAL_KEY = "literal"
DATATYPE_KEY = "datatype"

KIND_IRI = "IRI"
KIND_BLANK_NODE = "blank node"
KIND_LITERAL = "literal"

# The kind tags as properties, one object each for every vertex to share.
_KIND_IRI = Property(KIND_KEY, Text(KIND_IRI))
_KIND_BLANK_NODE = Property(KIND_KEY, Text(KIND_BLANK_NODE))
_KIND_LITERAL = Property(KIND_KEY, Text(KIND_LITERAL))
# The properties to_rdf_like_pg writes for a blank node.
_BLANK_NODE_PROPERTIES = (_KIND_BLANK_NODE,)

# The property keys a vertex of each kind may carry.
_VERTEX_KEYS = {
    KIND_IRI: {KIND_KEY, IRI_KEY},
    KIND_BLANK_NODE: {KIND_KEY},
    KIND_LITERAL: {KIND_KEY, LITERAL_KEY, DATATYPE_KEY},
}


class Violation(Frozen):
    """One failed convertibility condition, anchored at a top-level triple.

    condition is "1" (embedded subject is a metadata triple), "2" (embedded
    object), "3" (metadata object not a literal), "4" (literal outside the
    value mapping), or "strong" (embedded attribute triple).
    """

    __slots__ = __match_args__ = ("triple", "condition", "reason")

    def __init__(self, triple: Triple, condition: str, reason: str) -> None:
        set_field(self, "triple", triple)
        set_field(self, "condition", condition)
        set_field(self, "reason", reason)


class ConvertibilityReport(Frozen):
    __slots__ = __match_args__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...]) -> None:
        set_field(self, "violations", violations)

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
    """l in typed form, its lexical form quoted as the writer quotes it."""
    if l.language is not None:
        return f"{_quote(l.lexical_form)}@{l.language}"
    return f"{_quote(l.lexical_form)}^^<{l.datatype.value}>"


Valuer = Callable[[Literal], Union[PropertyValue, None]]


def literal_valuer(mode: str) -> Valuer:
    """value_from_literal in the given mode, run once per distinct literal."""
    return cache(partial(value_from_literal, mode=mode))


def _check(g: RdfStarGraph, strong: bool,
           value: Valuer) -> tuple[ConvertibilityReport, list[Triple], list[Triple]]:
    """Both convertibility checks in one pass over the set of g's triples,
    which also classifies g: returns the report, whose violations alone
    are sorted, and g's embedding-free and metadata triples, in no order.

    The pass records, for each embedded triple with a literal object, the
    top-level triples that host it, so the strong condition costs no
    second pass.  Each literal is valued through value, which caches.
    """
    violations: list[Violation] = []
    plain: list[Triple] = []
    metadata: list[Triple] = []
    hosts: dict[Triple, list[Triple]] = defaultdict(list)
    for t in g.triples:
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
    violations.sort(key=lambda v: term_key(v.triple))  # stable, so 1, 3, 2, 4 per triple
    for e in sorted(hosts, key=term_key):
        reason = f"embeds attribute triple with object {_literal_note(e.object)}"
        violations.extend(Violation(t, "strong", reason) for t in sorted(hosts[e], key=term_key))
    return ConvertibilityReport(tuple(violations)), plain, metadata


def check_pg_convertible(g: RdfStarGraph, mode: str = "lenient") -> ConvertibilityReport:
    """Check the four conditions under which an RDF-star graph maps to a
    property graph: embedded triples only as subjects of metadata triples,
    no nested metadata, metadata objects are literals, and every mentioned
    literal carries a property value in the given mode.

    One pass over g, linear in its size, then a sort of the violations
    into the term order of their triples; per triple, conditions 1, 3, 2,
    then 4 per literal in term order.  Each distinct literal is valued once.
    """
    return _check(g, False, literal_valuer(mode))[0]


def check_strongly_pg_convertible(g: RdfStarGraph, mode: str = "lenient") -> ConvertibilityReport:
    """As check_pg_convertible, plus: no embedded triple has a literal
    object (metadata may only annotate relationship triples).

    The same pass, then a sort of the violations and of each attribute
    triple's hosts.  The violations of check_pg_convertible come first;
    then one "strong" violation per hosting top-level triple, by term
    order of the embedded attribute triple, then of the host.
    """
    return _check(g, True, literal_valuer(mode))[0]


def _classify(g: RdfStarGraph, mode: str,
              strong: bool) -> tuple[Valuer, list[Triple], list[Triple], dict[Term, int]]:
    """The prologue of both RDF-to-PG transforms: one checked pass over g,
    and the one term sort of the transform.

    Returns the valuer the pass filled; g's ordinary triples in term
    order, which fixes the edge ids; g's metadata triples in no particular
    order; and the subject and object terms of the ordinary triples, each
    mapped to its rank 1, 2, ... in term order and held in that order,
    which fixes the vertex ids.  Or it raises with the report.

    By conditions 1-3 every metadata triple is <<plain>> p literal, so the
    ordinary triples are the embedding-free ones plus the embedded
    subjects g does not assert, and none of their terms is a triple.  So
    the triples sort by (rank of subject, predicate, rank of object),
    which is term order: an ordinary triple's term key is its subject's
    key, its predicate and its object's key run together, and each term
    key is self-delimiting.
    """
    value = literal_valuer(mode)
    report, plain, metadata = _check(g, strong, value)
    if not report.convertible:
        raise (NotStronglyConvertibleError if strong else NotConvertibleError)(report)
    ordinary = plain
    ordinary += {m.subject for m in metadata} - g.triples  # the unasserted ones
    terms = sorted({x for t in ordinary for x in (t.subject, t.object)}, key=term_key)
    rank = dict(zip(terms, range(1, len(terms) + 1)))
    del terms  # rank alone holds the terms, in order, from here on
    ordinary.sort(key=lambda t: (rank[t.subject], t.predicate.value, rank[t.object]))
    return value, ordinary, metadata, rank


class PgResult(Frozen):
    """A transformed graph plus the witness maps from source terms/triples
    to the vertex and edge ids chosen for them."""

    __slots__ = __match_args__ = ("graph", "vertex_map", "edge_map")
    __hash__ = None  # type: ignore[assignment]

    def __init__(self, graph: PropertyGraph, vertex_map: dict[Term, str],
                 edge_map: dict[Triple, str]) -> None:
        set_field(self, "graph", graph)
        set_field(self, "vertex_map", vertex_map)
        set_field(self, "edge_map", edge_map)


def _text_property(key: str, text: str) -> Property:
    return Property(key, Text(text))


def _property_table(value: Valuer) -> Callable[[Iri, Literal], Property]:
    """The property of a predicate and a literal, built once per distinct
    pair, so equal properties share one object."""
    return cache(lambda predicate, l: Property(predicate.value, value(l)))


def _assemble(metadata: list[Triple], edges: list[Triple], vertex_map: dict[Term, str],
              props: dict[str, tuple[Property, ...]],
              property_of: Callable[[Iri, Literal], Property]
              ) -> tuple[PropertyGraph, dict[Triple, str]]:
    """The property graph both RDF-to-PG transforms share, and its edge
    map: one edge per triple of edges, numbered e1, e2, ... in their
    order, and the metadata triples as properties of the edge of their
    embedded subject.  props holds every vertex's properties and gains
    every edge's; the graph takes the containers without a copy.

    One pass over the edges fills the edge map, the endpoints, the labels
    and the empty tuple of properties; then only the edges that carry
    metadata collect and order theirs."""
    edge_map: dict[Triple, str] = {}
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    lbl: dict[str, str] = {}
    for i, t in enumerate(edges, start=1):
        e = edge_map[t] = f"e{i}"
        src[e] = vertex_map[t.subject]
        tgt[e] = vertex_map[t.object]
        lbl[e] = t.predicate.value
        props[e] = ()
    edge_props: dict[str, set[Property]] = defaultdict(set)
    for m in metadata:
        # m.object is a literal by condition 3.
        edge_props[edge_map[m.subject]].add(property_of(m.predicate, m.object))
    for e, ps in edge_props.items():
        props[e] = ordered_properties(ps)
    graph = PropertyGraph._trusted(frozenset(vertex_map.values()), frozenset(lbl), src, tgt,
                                   lbl, props)
    return graph, edge_map


def to_rdf_like_pg(g: RdfStarGraph, mode: str = "lenient") -> PgResult:
    """Transform a convertible graph into the RDF-like property graph.

    One vertex per subject/object term of the ordinary triples, tagged with
    its kind (and IRI text, or literal value/datatype); one edge per
    ordinary triple, labeled with the predicate IRI text; metadata triples
    become properties of the edge for their embedded subject.  The check
    runs in the same pass over g as the classification, and the terms are
    sorted once there: vertex ids v1, v2, ... and edge ids e1, e2, ...
    follow the term order of the terms and of the ordinary triples.
    """
    value, ordinary, metadata, vertex_map = _classify(g, mode, strong=False)

    # Each term's rank becomes its vertex id in place, so no second table
    # of the terms is built.  Each vertex's properties are written in
    # property_sort_key order: the keys IRI < datatype < kind < literal
    # are all distinct.
    text_property = cache(_text_property)  # datatypes repeat
    props: dict[str, tuple[Property, ...]] = {}
    for term, rank in vertex_map.items():
        vid = vertex_map[term] = f"v{rank}"
        if isinstance(term, Iri):
            props[vid] = (_text_property(IRI_KEY, term.value), _KIND_IRI)
        elif isinstance(term, BNode):
            props[vid] = _BLANK_NODE_PROPERTIES
        else:  # condition 4 gave the literal a value, so it has no language tag
            props[vid] = (text_property(DATATYPE_KEY, term.datatype.value), _KIND_LITERAL,
                          Property(LITERAL_KEY, value(term)))

    graph, edge_map = _assemble(metadata, ordinary, vertex_map, props, _property_table(value))
    return PgResult(graph, vertex_map, edge_map)


def _one(v: str, props: tuple[Property, ...], keys: list[str], key: str) -> PropertyValue:
    """The value of vertex v's one property under key, where keys lists
    the keys of props in order; raises unless exactly one is key."""
    n = keys.count(key)
    if n != 1:
        raise MalformedRdfLikePgError(f"vertex {v!r} needs exactly one {key!r} property, has {n}")
    return props[keys.index(key)].value


def _text(v: str, props: tuple[Property, ...], keys: list[str], key: str) -> str:
    """As _one, for a property whose value must be Text; returns its text."""
    value = _one(v, props, keys, key)
    if not isinstance(value, Text):
        raise MalformedRdfLikePgError(f"vertex {v!r} property {key!r} must be Text")
    return value.value


def _vertex_term(v: str, props: tuple[Property, ...],
                 iri_of: Callable[[str], Iri | None]) -> Iri | Literal | None:
    """The term vertex v's properties encode, None for a blank node.

    Raises MalformedRdfLikePgError at the first rule they break, in this
    order: one Text kind, a known kind, only the keys of that kind, then
    one valid IRI, or one literal value and one valid datatype that
    together build a literal."""
    keys = [prop.key for prop in props]
    kind = _text(v, props, keys, KIND_KEY)
    allowed = _VERTEX_KEYS.get(kind)
    if allowed is None:
        raise MalformedRdfLikePgError(f"vertex {v!r} has unknown kind {kind!r}")
    if not allowed.issuperset(keys):
        raise MalformedRdfLikePgError(f"{kind} vertex {v!r} has unexpected properties")
    if kind == KIND_BLANK_NODE:
        return None
    if kind == KIND_IRI:
        text = _text(v, props, keys, IRI_KEY)
        iri = string_to_iri(text)
        if iri is None:
            raise MalformedRdfLikePgError(f"vertex {v!r} IRI is not a valid IRI: {text!r}")
        return iri
    value = _one(v, props, keys, LITERAL_KEY)
    datatype = _text(v, props, keys, DATATYPE_KEY)
    dt_iri = iri_of(datatype)
    if dt_iri is None:
        raise MalformedRdfLikePgError(f"vertex {v!r} datatype is not a valid IRI: {datatype!r}")
    try:
        return Literal(value_to_literal(value).lexical_form, dt_iri)
    except ValueError as exc:
        raise MalformedRdfLikePgError(f"vertex {v!r}: {exc}") from exc


def from_rdf_like_pg(p: PropertyGraph) -> RdfStarGraph:
    """Rebuild the RDF-star graph encoded by an RDF-like property graph.

    Blank-node vertices get fresh labels b1, b2, ... in vertex id order.
    Literal vertices rebuild their literal from the recorded value with the
    recorded datatype overriding the value's own canonical datatype, so
    reconstruction is exact for canonical inputs.  A vertex may carry only
    the keys that to_rdf_like_pg writes for its kind, so a "language"
    property is rejected.  The result is minimal: an edge's triple is kept
    at top level only when no metadata reasserts it embedded.

    Every vertex goes through one checked decoder, which raises at the
    first rule it breaks.  The triples are built from the terms made here.
    """
    term_map: dict[str, Term] = {}
    counter = 0
    iri_of = cache(string_to_iri)  # labels, keys and datatypes repeat
    literal_of = cache(value_to_literal)  # and so do edge property values
    for v in sorted(p.vertices):
        term = _vertex_term(v, p.properties(v), iri_of)
        if term is None:  # a blank node
            counter += 1
            term = BNode(f"b{counter}")
        term_map[v] = term

    of = Triple._of
    triples: list[Triple] = []
    annotated: set[Triple] = set()
    for e in sorted(p.edges):
        subject = term_map[p.source(e)]
        if isinstance(subject, Literal):
            raise MalformedRdfLikePgError(f"edge {e!r} starts at a literal vertex")
        predicate = iri_of(p.label(e))
        if predicate is None:
            raise MalformedRdfLikePgError(f"edge {e!r} label is not a valid IRI: {p.label(e)!r}")
        t = of(subject, predicate, term_map[p.target(e)])
        props = p.properties(e)
        if props:
            annotated.add(t)
        else:
            triples.append(t)
        for prop in props:
            key_iri = iri_of(prop.key)
            if key_iri is None:
                raise MalformedRdfLikePgError(
                    f"edge {e!r} property key is not a valid IRI: {prop.key!r}"
                )
            triples.append(of(t, key_iri, literal_of(prop.value)))

    # Metadata embeds only the triples of edges with properties, so leaving
    # those out at top level, also where a parallel bare edge asserts one,
    # makes the result minimal as it is built.  A list, not a set, holds
    # the triples until then: the graph's frozenset is the only table of
    # them, not a copy of another at the peak of a round trip.
    return RdfStarGraph._of(frozenset(t for t in triples if t not in annotated))


def to_simple_pg(g: RdfStarGraph, mode: str = "lenient") -> PgResult:
    """Transform a strongly convertible graph into the simple property graph.

    Vertices are the IRI/blank subject-object nodes; attribute triples fold
    into vertex properties (IRI vertices also record their IRI text under
    the reserved "IRI" key); relationship triples become edges; metadata
    triples become edge properties.  The strong check runs in the same
    pass over g as the classification, and the terms are sorted once
    there: vertex ids v1, v2, ... follow the term order of the nodes, and
    edge ids e1, e2, ... that of the relationship triples.
    """
    value, ordinary, metadata, vertex_map = _classify(g, mode, strong=True)
    # The literals rank after every IRI and blank node, so once they are
    # gone the nodes keep the ranks 1, 2, ..., which become their ids in
    # place.
    for literal in [x for x in vertex_map if isinstance(x, Literal)]:
        del vertex_map[literal]
    relations = [t for t in ordinary if isinstance(t.object, (Iri, BNode))]

    property_of = _property_table(value)
    # Two literals may give one property, as "1" and "01" do as integers,
    # so each vertex collects a set and orders it once.
    props: dict = {}
    for node, rank in vertex_map.items():
        vid = vertex_map[node] = f"v{rank}"
        props[vid] = {_text_property(IRI_KEY, node.value)} if isinstance(node, Iri) else set()
    for a in ordinary:
        if isinstance(a.object, Literal):
            props[vertex_map[a.subject]].add(property_of(a.predicate, a.object))
    for vid, ps in props.items():
        props[vid] = ordered_properties(ps)

    graph, edge_map = _assemble(metadata, relations, vertex_map, props, property_of)
    return PgResult(graph, vertex_map, edge_map)


def pg_to_rdf_star(p: PropertyGraph, config: MappingConfig | None = None) -> RdfStarGraph:
    """Represent a property-unique, edge-unique property graph in RDF-star.

    Vertex properties become plain triples about the vertex's node term;
    an edge with properties contributes one metadata triple per property
    about its embedded edge triple; a propertyless edge contributes its
    edge triple directly.  A vertex with no properties and no edges
    produces no triple, so it has no image.  The output is always minimal.
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
    # distinct value.  The triples go into a list, in no order, so that the
    # graph's frozenset is the only table of them.
    key_iri, label_iri = cache(config.key_map.apply), cache(config.label_map.apply)
    literal_of = cache(value_to_literal)
    of = Triple._of  # every term comes from these tables or from node_of
    triples: list[Triple] = []
    for v in p.vertices:
        for prop in p.properties(v):
            triples.append(of(node_of[v], key_iri(prop.key), literal_of(prop.value)))
    for e in p.edges:
        edge_triple = of(node_of[p.source(e)], label_iri(p.label(e)), node_of[p.target(e)])
        edge_properties = p.properties(e)
        for prop in edge_properties:
            triples.append(of(edge_triple, key_iri(prop.key), literal_of(prop.value)))
        if not edge_properties:
            triples.append(edge_triple)
    return RdfStarGraph._of(frozenset(triples))


def canonicalize_values(g: RdfStarGraph, mode: str = "lenient") -> RdfStarGraph:
    """Rewrite every literal that carries a property value to that value's
    canonical literal; literals outside the value mapping stay unchanged.
    Idempotent, and returns g itself when g is already canonical."""

    @cache
    def canonical(l: Literal) -> Literal:
        value = value_from_literal(l, mode)
        if value is None:
            return l
        c = value_to_literal(value)
        return l if c == l else c

    def canonical_leaf(x: Term) -> Term:
        return canonical(x) if isinstance(x, Literal) else x

    changed = {}
    for t in g.triples:
        if is_metadata_triple(t):
            c = _rewrite(t, canonical_leaf)
        elif isinstance(t.object, Literal):  # a plain triple's only possible literal
            o = canonical(t.object)
            c = t if o is t.object else Triple._of(t.subject, t.predicate, o)
        else:
            continue
        if c is not t:
            changed[t] = c
    if not changed:
        return g  # graphs are immutable, so g itself is the result
    return RdfStarGraph._of(frozenset(changed.get(t, t) for t in g.triples))
