"""RDF-star data model: terms, triples, graphs, and structural operations.

Triples can occur in the subject or object position of other triples.
Everything here is immutable and hashable, so a graph is a plain frozenset
of triples underneath and structural sharing is free.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Union

from .namespaces import RDF_LANG_STRING, XSD_STRING

# Shallow IRI validation: reject characters RFC 3987 excludes outright,
# not a full grammar check.  On str patterns \s matches exactly the code
# points for which str.isspace() is true.
_IRI_BAD_CHAR_RE = re.compile(r'[<>"{}|^`\\\s]')
_BNODE_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")
_LANG_TAG_RE = re.compile(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*\Z")


@dataclass(frozen=True)
class Iri:
    """An absolute IRI."""

    value: str

    def __post_init__(self) -> None:
        if not isinstance(self.value, str):
            raise TypeError(f"IRI value must be str, got {type(self.value).__name__}")
        if not self.value:
            raise ValueError("IRI must be non-empty")
        if ":" not in self.value:
            raise ValueError(f"IRI must contain a scheme separator ':': {self.value!r}")
        bad = _IRI_BAD_CHAR_RE.search(self.value)
        if bad is not None:
            raise ValueError(
                f"IRI contains forbidden character {bad.group()!r}: {self.value!r}"
            )


# The default datatypes of Literal, built once.
_XSD_STRING_IRI = Iri(XSD_STRING)
_LANG_STRING_IRI = Iri(RDF_LANG_STRING)


@dataclass(frozen=True)
class BNode:
    """A blank node with a local label."""

    label: str

    def __post_init__(self) -> None:
        if not isinstance(self.label, str) or not _BNODE_LABEL_RE.fullmatch(self.label):
            raise ValueError(
                f"blank node label must match [A-Za-z][A-Za-z0-9]*: {self.label!r}"
            )


@dataclass(frozen=True)
class Literal:
    """A literal with a lexical form, datatype IRI, and optional language tag.

    The datatype defaults to xsd:string, or to rdf:langString when a
    language tag is given; after construction it is never None.  A language
    tag is present iff the datatype is rdf:langString.
    """

    lexical_form: str
    datatype: Iri | None = None
    language: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.lexical_form, str):
            raise TypeError("literal lexical form must be str")
        if self.datatype is None:
            resolved = _LANG_STRING_IRI if self.language is not None else _XSD_STRING_IRI
            object.__setattr__(self, "datatype", resolved)
        elif not isinstance(self.datatype, Iri):
            raise TypeError(f"literal datatype must be Iri, got {type(self.datatype).__name__}")
        if self.language is not None:
            if not _LANG_TAG_RE.fullmatch(self.language):
                raise ValueError(f"malformed language tag: {self.language!r}")
            if self.datatype.value != RDF_LANG_STRING:
                raise ValueError("language-tagged literal must have datatype rdf:langString")
        elif self.datatype.value == RDF_LANG_STRING:
            raise ValueError("rdf:langString literal requires a language tag")


@dataclass(frozen=True)
class Triple:
    """An RDF-star triple; subject and object may embed other triples."""

    subject: "SubjectTerm"
    predicate: Iri
    object: "ObjectTerm"

    def __post_init__(self) -> None:
        if not isinstance(self.subject, (Iri, BNode, Triple)):
            raise TypeError(
                f"triple subject must be Iri, BNode, or Triple, got {type(self.subject).__name__}"
            )
        if not isinstance(self.predicate, Iri):
            raise TypeError(f"triple predicate must be Iri, got {type(self.predicate).__name__}")
        if not isinstance(self.object, (Iri, BNode, Literal, Triple)):
            raise TypeError(
                "triple object must be Iri, BNode, Literal, or Triple, "
                f"got {type(self.object).__name__}"
            )


SubjectTerm = Union[Iri, BNode, Triple]
ObjectTerm = Union[Iri, BNode, Literal, Triple]
Term = Union[Iri, BNode, Literal, Triple]


def term_key(term: Term):
    """Total order key over terms: Iri < BNode < Literal < Triple.

    Within a kind the order is lexicographic; triples compare position by
    position, recursively.  Used everywhere determinism matters.
    """
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, BNode):
        return (1, term.label)
    if isinstance(term, Literal):
        return (2, (term.lexical_form, term.datatype.value, term.language or ""))
    if isinstance(term, Triple):
        return (3, (term_key(term.subject), term_key(term.predicate), term_key(term.object)))
    raise TypeError(f"not an RDF-star term: {term!r}")


class RdfStarGraph:
    """An immutable set of RDF-star triples.

    Iteration yields triples in the deterministic term order, so derived
    listings and serializations are stable across runs.  The order is
    sorted on first iteration and kept, so later iterations cost O(n).
    """

    __slots__ = ("_triples", "_order")

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        tset = frozenset(triples)
        for t in tset:
            if not isinstance(t, Triple):
                raise TypeError(f"graph element is not a Triple: {t!r}")
        self._triples = tset
        self._order: tuple[Triple, ...] | None = None

    @property
    def triples(self) -> frozenset[Triple]:
        return self._triples

    def __iter__(self) -> Iterator[Triple]:
        if self._order is None:
            self._order = tuple(sorted(self._triples, key=term_key))
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._triples)

    def __contains__(self, t: object) -> bool:
        return t in self._triples

    def __bool__(self) -> bool:
        return bool(self._triples)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RdfStarGraph):
            return NotImplemented
        return self._triples == other._triples

    def __hash__(self) -> int:
        return hash(self._triples)

    def __repr__(self) -> str:
        return f"RdfStarGraph({len(self._triples)} triples)"

    def union(self, other: "RdfStarGraph" | Iterable[Triple]) -> "RdfStarGraph":
        return RdfStarGraph(self._triples | _as_tripleset(other))

    def difference(self, other: "RdfStarGraph" | Iterable[Triple]) -> "RdfStarGraph":
        return RdfStarGraph(self._triples - _as_tripleset(other))


def _as_tripleset(x: RdfStarGraph | Iterable[Triple]) -> frozenset[Triple]:
    return x.triples if isinstance(x, RdfStarGraph) else frozenset(x)


def nesting_depth(t: Triple) -> int:
    """Depth of triple embedding; 0 for a plain RDF triple."""
    depth = 0
    if isinstance(t.subject, Triple):
        depth = nesting_depth(t.subject) + 1
    if isinstance(t.object, Triple):
        depth = max(depth, nesting_depth(t.object) + 1)
    return depth


def is_metadata_triple(t: Triple) -> bool:
    """True iff the triple embeds another triple in subject or object."""
    return isinstance(t.subject, Triple) or isinstance(t.object, Triple)


def _triple_terms(t: Triple) -> set[Term]:
    out: set[Term] = {t.subject, t.predicate, t.object}
    if isinstance(t.subject, Triple):
        out |= _triple_terms(t.subject)
    if isinstance(t.object, Triple):
        out |= _triple_terms(t.object)
    return out


def mentioned_terms(x: Triple | RdfStarGraph) -> frozenset[Term]:
    """Every term reachable from x, descending through embedded triples.

    For a triple: its three components plus, recursively, the components
    of embedded triples (embedded triples themselves count as terms, the
    triple x itself does not).  For a graph: the union over its triples,
    so a top-level triple is a member only if it is also embedded somewhere.
    """
    if isinstance(x, RdfStarGraph):
        out: set[Term] = set()
        for t in x.triples:
            out |= _triple_terms(t)
        return frozenset(out)
    return frozenset(_triple_terms(x))


def embedded_triples(x: Triple | RdfStarGraph) -> frozenset[Triple]:
    """The triples occurring in embedded position somewhere in x."""
    return frozenset(e for e in mentioned_terms(x) if isinstance(e, Triple))


def metadata_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Top-level triples of g that embed another triple."""
    return frozenset(t for t in g.triples if is_metadata_triple(t))


def ordinary_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Every triple asserted or embedded in g, minus g's metadata triples.

    One walk over g: only metadata triples embed anything, so only they
    are descended into.
    """
    metadata: set[Triple] = set()
    embedded: set[Triple] = set()
    for t in g.triples:
        if is_metadata_triple(t):
            metadata.add(t)
            embedded.update(x for x in _triple_terms(t) if isinstance(x, Triple))
    return (g.triples | embedded) - metadata


def redundant_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Top-level triples that also occur embedded in some triple of g.

    A triple never embeds itself (embedding strictly decreases size), so
    membership in the embedded set is the whole condition.
    """
    return g.triples & embedded_triples(g)


def is_minimal(g: RdfStarGraph) -> bool:
    return not redundant_triples(g)


def minimize(g: RdfStarGraph) -> RdfStarGraph:
    """Drop every top-level triple that is also embedded somewhere in g.

    One pass suffices: removing a top-level assertion never removes the
    embedded occurrence that made it redundant, so the result is minimal
    and minimize is idempotent.
    """
    return RdfStarGraph(g.triples - redundant_triples(g))


def subject_object_terms(g: RdfStarGraph) -> frozenset[Term]:
    """Non-triple terms in subject or object position of ordinary triples."""
    out: set[Term] = set()
    for t in ordinary_triples(g):
        for x in (t.subject, t.object):
            if not isinstance(x, Triple):
                out.add(x)
    return frozenset(out)


def attribute_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Ordinary triples whose object is a literal."""
    return frozenset(t for t in ordinary_triples(g) if isinstance(t.object, Literal))


def relationship_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Ordinary triples whose object is an IRI or blank node."""
    return frozenset(t for t in ordinary_triples(g) if isinstance(t.object, (Iri, BNode)))


def subject_object_nodes(g: RdfStarGraph) -> frozenset[Iri | BNode]:
    """IRIs and blank nodes in subject or object position of ordinary triples."""
    out: set[Iri | BNode] = set()
    for t in ordinary_triples(g):
        for x in (t.subject, t.object):
            if isinstance(x, (Iri, BNode)):
                out.add(x)
    return frozenset(out)


def blank_node_labels(g: RdfStarGraph) -> frozenset[str]:
    """Labels of every blank node occurring anywhere in g."""
    return frozenset(x.label for x in mentioned_terms(g) if isinstance(x, BNode))


def _holds_bnode(x: Term) -> bool:
    """True iff x is a blank node or embeds one; stops at the first."""
    if isinstance(x, Triple):
        return _holds_bnode(x.subject) or _holds_bnode(x.object)
    return isinstance(x, BNode)


def _map_term(x: Term, mapping: dict[str, str]) -> Term:
    if isinstance(x, BNode):
        new = mapping.get(x.label)
        return BNode(new) if new is not None else x
    if isinstance(x, Triple):
        return Triple(_map_term(x.subject, mapping), x.predicate, _map_term(x.object, mapping))
    return x


def _map_triple(t: Triple, mapping: dict[str, str]) -> Triple:
    return Triple(_map_term(t.subject, mapping), t.predicate, _map_term(t.object, mapping))


def relabel_bnodes(g: RdfStarGraph, mapping: dict[str, str]) -> RdfStarGraph:
    """Rename blank node labels simultaneously; unmapped labels stay as-is."""
    return RdfStarGraph(_map_triple(t, mapping) for t in g.triples)


def _flatten(x: Term, key: list, slots: list[tuple[int, str]]) -> None:
    """Append term_key(x) to key with its nesting flattened away.

    Each kind tag is followed by a fixed shape, so flat keys of terms
    compare exactly as their nested term_keys do.  The position of every
    blank node label in key is appended to slots with the label, in
    first-appearance order: subject before object, embedded triples
    descended into.
    """
    if isinstance(x, Iri):
        key += (0, x.value)
    elif isinstance(x, BNode):
        slots.append((len(key) + 1, x.label))
        key += (1, x.label)
    elif isinstance(x, Literal):
        key += (2, x.lexical_form, x.datatype.value, x.language or "")
    else:
        key.append(3)
        _flatten(x.subject, key, slots)
        _flatten(x.predicate, key, slots)
        _flatten(x.object, key, slots)


def canonicalize_bnodes(g: RdfStarGraph) -> RdfStarGraph:
    """Deterministically renumber blank nodes to b1, b2, ...

    One pass numbers blank nodes in first-appearance order: triples in
    term order, each triple subject before object, descending into
    embedded triples.  Renumbering can shift triple order, which in turn
    can shift the numbering, so a single pass need not be stable.  The
    pass is repeated until the graph stops changing; should it ever
    revisit a state instead, the smallest graph on that cycle (in term
    order) is the result.  Either way the function is idempotent.

    Passes run on flat sort keys of the b triples that hold a blank node,
    built once, so a pass costs O(b log b) key comparisons and the whole
    call O(passes * b log b) plus one relabel_bnodes to build the result.
    The number of passes is not bounded by this scheme: it depends on the
    blank-node topology and can reach thousands on a few dozen nodes.
    """
    if not any(map(_holds_bnode, g.triples)):
        return g
    ids: dict[str, int] = {}
    rows: list[tuple[list, list[tuple[int, int]]]] = []  # flat key, (position, node id) per slot
    for t in g.triples:
        key: list = []
        slots: list[tuple[int, str]] = []
        _flatten(t, key, slots)
        if slots:
            rows.append((key, [(p, ids.setdefault(label, len(ids))) for p, label in slots]))
    # vals[n] is the current label of node id n; the rest holds every key
    # element, so one itemgetter call per row builds its key tuple.
    vals: list = list(ids)
    getters = []
    nodes: list[list[int]] = []  # node ids of each row in slot order
    for key, slots in rows:
        index = list(range(len(vals), len(vals) + len(key)))
        vals += key
        for p, n in slots:
            index[p] = n
        getters.append(itemgetter(*index))
        nodes.append([n for _, n in slots])
    names = [f"b{i}" for i in range(1, len(ids) + 1)]
    node_ids = range(len(ids))
    # A state is the sorted tuple of the keys; triples without blank nodes
    # are the same in every state and never change which state is smaller.
    visited: dict[tuple, int] = {}
    states: list[tuple[tuple, list[str]]] = []
    while True:
        keys = [get(vals) for get in getters]
        order = sorted(range(len(keys)), key=keys.__getitem__)
        state = tuple(map(keys.__getitem__, order))
        if state in visited:
            break
        visited[state] = len(states)
        states.append((state, vals[:len(ids)]))
        first = dict.fromkeys(chain.from_iterable(map(nodes.__getitem__, order)))
        vals[:len(ids)] = map(dict(zip(first, names)).__getitem__, node_ids)
    # An unchanged pass is a cycle of length one.
    _, labels = min(states[visited[state]:], key=itemgetter(0))
    return relabel_bnodes(g, dict(zip(ids, labels)))


def _skeleton(x: Term):
    """Structure key with every blank node erased."""
    if isinstance(x, Iri):
        return ("iri", x.value)
    if isinstance(x, BNode):
        return ("bnode", "")
    if isinstance(x, Literal):
        return ("lit", (x.lexical_form, x.datatype.value, x.language or ""))
    return ("triple", (_skeleton(x.subject), _skeleton(x.predicate), _skeleton(x.object)))


def _bnode_occurrences(x: Term, path: tuple, skel, occ: dict[str, list]) -> None:
    if isinstance(x, BNode):
        occ[x.label].append((path, skel))
    elif isinstance(x, Triple):
        _bnode_occurrences(x.subject, path + ("s",), skel, occ)
        _bnode_occurrences(x.object, path + ("o",), skel, occ)


def _bnode_signatures(g: RdfStarGraph) -> dict[str, tuple]:
    """Label -> sorted occurrence contexts (position path, host skeleton)."""
    occ: dict[str, list] = defaultdict(list)
    for t in g.triples:
        _bnode_occurrences(t, (), _skeleton(t), occ)
    return {label: tuple(sorted(entries)) for label, entries in occ.items()}


def isomorphic(a: RdfStarGraph, b: RdfStarGraph) -> bool:
    """Graph equality up to a bijective renaming of blank node labels.

    Backtracking search over label assignments, most constrained label
    first, with candidates restricted to labels of equal occurrence
    signature.  Each source triple is checked once it is fully assigned,
    by the assignment that completed it, so a search step costs the degree
    of the label assigned, not len(a).  The number of steps is not
    bounded: graphs with many automorphic labels may backtrack a lot.
    """
    if a.triples == b.triples:
        return True
    if len(a) != len(b):
        return False
    la = sorted(blank_node_labels(a))
    lb = sorted(blank_node_labels(b))
    if len(la) != len(lb) or not la:
        return False
    if Counter(_skeleton(t) for t in a.triples) != Counter(_skeleton(t) for t in b.triples):
        return False
    siga = _bnode_signatures(a)
    sigb = _bnode_signatures(b)
    if sorted(siga.values()) != sorted(sigb.values()):
        return False

    by_signature: dict[tuple, list[str]] = defaultdict(list)
    for y in lb:
        by_signature[sigb[y]].append(y)
    candidates = {x: by_signature[siga[x]] for x in la}
    order = sorted(la, key=lambda x: len(candidates[x]))
    target = b.triples
    labels_of: dict[Triple, frozenset[str]] = {}
    hosts: dict[str, list[Triple]] = defaultdict(list)  # label -> source triples holding it
    for t in a.triples:
        labels = frozenset(x.label for x in _triple_terms(t) if isinstance(x, BNode))
        labels_of[t] = labels
        for x in labels:
            hosts[x].append(t)
    mapping: dict[str, str] = {}
    used: set[str] = set()

    def consistent(x: str) -> bool:
        # Every source triple that assigning x completed must map into the
        # target; triples completed earlier were checked then.
        for t in hosts[x]:
            if labels_of[t] <= mapping.keys():
                if _map_triple(t, mapping) not in target:
                    return False
        return True

    # Depth-first over order without recursion, which would overflow the
    # stack beyond about a thousand labels; tried[i] is the index of the
    # next candidate for order[i].
    tried = [0] * len(order)

    def assign_next(i: int) -> bool:
        x = order[i]
        while tried[i] < len(candidates[x]):
            y = candidates[x][tried[i]]
            tried[i] += 1
            if y in used:
                continue
            mapping[x] = y
            used.add(y)
            if consistent(x):
                return True
            del mapping[x]
            used.discard(y)
        tried[i] = 0
        return False

    i = 0
    while i >= 0:
        if i < len(order) and assign_next(i):
            i += 1
            continue
        if i == len(order) and relabel_bnodes(a, mapping).triples == target:
            return True
        i -= 1
        if i >= 0:
            used.discard(mapping.pop(order[i]))
    return False
