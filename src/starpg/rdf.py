"""RDF-star data model: terms, triples, graphs, and structural operations.

Triples can occur in the subject or object position of other triples.
Everything here is immutable and hashable, so a graph is a plain frozenset
of triples underneath and structural sharing is free.
"""

from __future__ import annotations

import copy
import re
from collections import Counter, OrderedDict, defaultdict
from typing import Callable, Iterable, Iterator, Union

from .frozen import Frozen, set_field
from .namespaces import RDF_LANG_STRING, XSD_STRING

# Shallow IRI validation: reject characters RFC 3987 excludes outright,
# not a full grammar check.  On str patterns \s matches exactly the code
# points for which str.isspace() is true.
_IRI_BAD_CHAR_RE = re.compile(r'[<>"{}|^`\\\s]')
_BNODE_LABEL_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")
_LANG_TAG_RE = re.compile(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8})*")


# The deepest embedding a triple may have (nesting_depth of a triple
# embedded in a triple is 1).  Every walker over embedded triples
# recurses once or twice per level, so this keeps them well inside
# Python's default recursion limit.
MAX_NESTING_DEPTH = 100


class Iri(Frozen):
    """An absolute IRI."""

    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __init__(self, value: str) -> None:
        if not isinstance(value, str):
            raise TypeError(f"IRI value must be str, got {type(value).__name__}")
        if not value:
            raise ValueError("IRI must be non-empty")
        if ":" not in value:
            raise ValueError(f"IRI must contain a scheme separator ':': {value!r}")
        bad = _IRI_BAD_CHAR_RE.search(value)
        if bad is not None:
            raise ValueError(f"IRI contains forbidden character {bad.group()!r}: {value!r}")
        set_field(self, "value", value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


# The default datatypes of Literal, built once.
_XSD_STRING_IRI = Iri(XSD_STRING)
_LANG_STRING_IRI = Iri(RDF_LANG_STRING)


class BNode(Frozen):
    """A blank node with a local label."""

    __slots__ = ("label",)
    __match_args__ = ("label",)

    def __init__(self, label: str) -> None:
        if not isinstance(label, str) or not _BNODE_LABEL_RE.fullmatch(label):
            raise ValueError(f"blank node label must match [A-Za-z][A-Za-z0-9]*: {label!r}")
        set_field(self, "label", label)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.label == other.label

    def __hash__(self) -> int:
        return hash(self.label)


class Literal(Frozen):
    """A literal with a lexical form, datatype IRI, and optional language tag.

    The datatype defaults to xsd:string, or to rdf:langString when a
    language tag is given; after construction it is never None.  A language
    tag is present iff the datatype is rdf:langString.
    """

    __slots__ = ("lexical_form", "datatype", "language", "_hash")
    __match_args__ = ("lexical_form", "datatype", "language")

    def __init__(self, lexical_form: str, datatype: Iri | None = None,
                 language: str | None = None) -> None:
        if not isinstance(lexical_form, str):
            raise TypeError("literal lexical form must be str")
        if datatype is None:
            datatype = _LANG_STRING_IRI if language is not None else _XSD_STRING_IRI
        elif not isinstance(datatype, Iri):
            raise TypeError(f"literal datatype must be Iri, got {type(datatype).__name__}")
        if language is not None:
            if not _LANG_TAG_RE.fullmatch(language):
                raise ValueError(f"malformed language tag: {language!r}")
            if datatype.value != RDF_LANG_STRING:
                raise ValueError("language-tagged literal must have datatype rdf:langString")
        elif datatype.value == RDF_LANG_STRING:
            raise ValueError("rdf:langString literal requires a language tag")
        set_field(self, "lexical_form", lexical_form)
        set_field(self, "datatype", datatype)
        set_field(self, "language", language)
        set_field(self, "_hash", hash((lexical_form, datatype.value, language)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and (
            (self.lexical_form, self.datatype, self.language)
            == (other.lexical_form, other.datatype, other.language))

    def __hash__(self) -> int:
        return self._hash


class Triple(Frozen):
    """An RDF-star triple; subject and object may embed other triples.

    Construction rejects an embedding deeper than MAX_NESTING_DEPTH with
    ValueError; the depth is stored, as is the hash.
    """

    __slots__ = ("subject", "predicate", "object", "_hash", "_depth")
    __match_args__ = ("subject", "predicate", "object")

    def __init__(self, subject: "SubjectTerm", predicate: Iri, object: "ObjectTerm") -> None:
        if not isinstance(subject, (Iri, BNode, Triple)):
            raise TypeError(
                f"triple subject must be Iri, BNode, or Triple, got {type(subject).__name__}"
            )
        if not isinstance(predicate, Iri):
            raise TypeError(f"triple predicate must be Iri, got {type(predicate).__name__}")
        if not isinstance(object, (Iri, BNode, Literal, Triple)):
            raise TypeError(
                "triple object must be Iri, BNode, Literal, or Triple, "
                f"got {type(object).__name__}"
            )
        _fill_triple(self, subject, predicate, object)

    @staticmethod
    def _of(subject: "SubjectTerm", predicate: Iri, object: "ObjectTerm") -> Triple:
        """The triple of these terms without the type checks, for terms the
        package made itself.  The depth limit, its ValueError and the
        stored hash and depth are those of the constructor."""
        t = _new(Triple)
        _fill_triple(t, subject, predicate, object)
        return t

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Tuples compare shared (interned) fields by identity alone.
        return self._hash == other._hash and (
            (self.subject, self.predicate, self.object)
            == (other.subject, other.predicate, other.object))

    def __hash__(self) -> int:
        return self._hash


_new = object.__new__
_set_subject, _set_predicate, _set_object, _set_hash, _set_depth = (
    Triple.__dict__[name].__set__ for name in Triple.__slots__)


def _fill_triple(t: Triple, subject: SubjectTerm, predicate: Iri, object: ObjectTerm) -> None:
    """Set the fields of a new triple t, its depth and hash included."""
    depth = 0
    if subject.__class__ is Triple:
        depth = subject._depth + 1
    if object.__class__ is Triple and object._depth >= depth:
        depth = object._depth + 1
    if depth > MAX_NESTING_DEPTH:
        raise ValueError(f"triple nested deeper than {MAX_NESTING_DEPTH} levels")
    _set_subject(t, subject)
    _set_predicate(t, predicate)
    _set_object(t, object)
    _set_hash(t, hash((subject, predicate, object)))
    _set_depth(t, depth)


SubjectTerm = Union[Iri, BNode, Triple]
ObjectTerm = Union[Iri, BNode, Literal, Triple]
Term = Union[Iri, BNode, Literal, Triple]


def term_key(term: Term) -> tuple:
    """Total order key over terms: Iri < BNode < Literal < Triple.

    Within a kind the order is lexicographic; triples compare position by
    position, recursively.  Used everywhere determinism matters.

    The key is one flat tuple: (0, iri), (1, label), (2, lexical form,
    datatype, language or ""), and for a triple 3 followed by the keys of
    its subject, predicate and object, run together.  Each key is
    self-delimiting, since its tag fixes its length and a triple's key is
    made of such keys, so two keys compare field by field exactly as
    nested (tag, fields) tuples would: the order and the equal keys are
    those of that nested form, which builds several tuples per triple.
    """
    if isinstance(term, Triple):
        return (3, *term_key(term.subject), 0, term.predicate.value, *term_key(term.object))
    if isinstance(term, Iri):
        return (0, term.value)
    if isinstance(term, BNode):
        return (1, term.label)
    if isinstance(term, Literal):
        return (2, term.lexical_form, term.datatype.value, term.language or "")
    raise TypeError(f"not an RDF-star term: {term!r}")


class RdfStarGraph:
    """An immutable set of RDF-star triples.

    Iteration yields triples in the deterministic term order, so derived
    listings and serializations are stable across runs.  Each iteration
    sorts the triples anew, into a list the graph does not keep; code that
    needs no order walks the set, .triples.
    """

    __slots__ = ("_triples",)

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        tset = frozenset(triples)
        for t in tset:
            if not isinstance(t, Triple):
                raise TypeError(f"graph element is not a Triple: {t!r}")
        self._triples = tset

    @classmethod
    def _of(cls, triples: frozenset[Triple]) -> RdfStarGraph:
        """The graph of a frozenset of triples the package built itself,
        taken as it is: no type check, no copy."""
        g = _new(cls)
        g._triples = triples
        return g

    @property
    def triples(self) -> frozenset[Triple]:
        return self._triples

    def __iter__(self) -> Iterator[Triple]:
        return iter(sorted(self._triples, key=term_key))

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

    def __reduce__(self):
        return RdfStarGraph, (self._triples,)


def nesting_depth(t: Triple) -> int:
    """Depth of triple embedding; 0 for a plain RDF triple."""
    return t._depth


def is_metadata_triple(t: Triple) -> bool:
    """True iff the triple embeds another triple in subject or object."""
    return t._depth > 0


def _terms(t: Triple) -> Iterator[Term]:
    """The terms of t, as mentioned_terms(t) has them: its predicate, then
    its subject and its object, each followed by the terms it embeds."""
    yield t.predicate
    for x in (t.subject, t.object):
        yield x
        if isinstance(x, Triple):
            yield from _terms(x)


def mentioned_terms(x: Triple | RdfStarGraph) -> frozenset[Term]:
    """Every term reachable from x, descending through embedded triples.

    For a triple: its three components plus, recursively, the components
    of embedded triples (embedded triples themselves count as terms, the
    triple x itself does not).  For a graph: the union over its triples,
    so a top-level triple is a member only if it is also embedded somewhere.
    """
    triples = x.triples if isinstance(x, RdfStarGraph) else (x,)
    return frozenset(y for t in triples for y in _terms(t))


def embedded_triples(x: Triple | RdfStarGraph) -> frozenset[Triple]:
    """The triples occurring in embedded position somewhere in x.

    Only metadata triples embed anything, so only they are descended into.
    """
    triples = x.triples if isinstance(x, RdfStarGraph) else (x,)
    return frozenset(e for t in triples if t._depth for e in _terms(t) if isinstance(e, Triple))


def metadata_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Top-level triples of g that embed another triple."""
    return frozenset(t for t in g.triples if t._depth)


def ordinary_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Every triple asserted or embedded in g, minus g's metadata triples."""
    return (g.triples | embedded_triples(g)) - metadata_triples(g)


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
    and minimize is idempotent.  A graph that is already minimal is
    returned itself.
    """
    redundant = redundant_triples(g)
    return RdfStarGraph._of(g.triples - redundant) if redundant else g


def subject_object_terms(g: RdfStarGraph) -> frozenset[Term]:
    """Non-triple terms in subject or object position of ordinary triples."""
    return frozenset(x for t in ordinary_triples(g) for x in (t.subject, t.object)
                     if not isinstance(x, Triple))


def attribute_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Ordinary triples whose object is a literal."""
    return frozenset(t for t in ordinary_triples(g) if isinstance(t.object, Literal))


def relationship_triples(g: RdfStarGraph) -> frozenset[Triple]:
    """Ordinary triples whose object is an IRI or blank node."""
    return frozenset(t for t in ordinary_triples(g) if isinstance(t.object, (Iri, BNode)))


def subject_object_nodes(g: RdfStarGraph) -> frozenset[Iri | BNode]:
    """IRIs and blank nodes in subject or object position of ordinary triples."""
    return frozenset(x for x in subject_object_terms(g) if not isinstance(x, Literal))


def blank_node_labels(g: RdfStarGraph) -> frozenset[str]:
    """Labels of every blank node occurring anywhere in g."""
    return frozenset(x.label for t in g.triples if _holds_bnode(t)
                     for x in _terms(t) if isinstance(x, BNode))


def _holds_bnode(x: Term) -> bool:
    """True iff x is a blank node or embeds one; stops at the first."""
    if isinstance(x, Triple):
        return _holds_bnode(x.subject) or _holds_bnode(x.object)
    return isinstance(x, BNode)


def _rewrite(x: Term, f: Callable[[Term], Term]) -> Term:
    """x with every leaf in subject or object position, embedded ones
    included, replaced by f(leaf); x itself when f changes none of them.
    f returns a term that fits the leaf's position, so the triples are
    built without the type checks."""
    if isinstance(x, Triple):
        s, o = _rewrite(x.subject, f), _rewrite(x.object, f)
        return x if s is x.subject and o is x.object else Triple._of(s, x.predicate, o)
    return f(x)


def relabel_bnodes(g: RdfStarGraph, mapping: dict[str, str]) -> RdfStarGraph:
    """Rename blank node labels simultaneously; unmapped labels stay as-is."""

    def relabel(x: Term) -> Term:
        new = mapping.get(x.label) if isinstance(x, BNode) else None
        return x if new is None else BNode(new)

    return RdfStarGraph._of(frozenset(_rewrite(t, relabel) for t in g.triples))


_ERASED = (1, "")  # term_key of a blank node with its label erased
_DIGIT_RUN_RE = re.compile(r"([0-9]+)")


def _skeleton(x: Term, labels: list[str]):
    """term_key(x) with every blank node erased.

    The erased labels are appended to labels in first-appearance order:
    subject before object, embedded triples descended into.
    """
    if isinstance(x, BNode):
        labels.append(x.label)
        return _ERASED
    if isinstance(x, Triple):
        return (3, *_skeleton(x.subject, labels), 0, x.predicate.value,
                *_skeleton(x.object, labels))
    return term_key(x)


def _natural_key(label: str):
    """Order on labels that compares digit runs as numbers, so b2 < b10;
    the label itself breaks the remaining ties, such as b2 and b02.  A run
    compares by its length and its digits once leading zeros are gone,
    which is numeric order for runs of any length."""
    parts = _DIGIT_RUN_RE.split(label)
    return [(len(p.lstrip("0")), p.lstrip("0")) if i % 2 else p
            for i, p in enumerate(parts)], label


class _Partition:
    """Ordered colour classes, or cells, of the blank nodes of one graph.

    Nodes are ids into the label list.  A host row is a triple that holds
    a blank node: the rank of its skeleton and the ids of its blank nodes
    in slot order.  Cell c covers the positions [end[c] - len(members[c]),
    end[c]) of the node order, and end[c] is the colour of its nodes, so
    splitting a cell changes no other cell's colour and the colours keep
    the order of the cells.  Each cell keeps its members in natural label
    order.
    """

    def __init__(self, labels: list[str], rows: list[tuple[int, list[int]]]) -> None:
        self.rows = rows
        self.occurrences: list[list[tuple[int, int]]] = [[] for _ in labels]
        for r, (_, nodes) in enumerate(rows):
            for k, n in enumerate(nodes):
                self.occurrences[n].append((r, k))
        by_label = sorted(range(len(labels)), key=lambda n: _natural_key(labels[n]))
        self.rank = [0] * len(labels)  # position of each node in natural label order
        for i, n in enumerate(by_label):
            self.rank[n] = i
        self.cell = [0] * len(labels)
        self.members: list[dict[int, None]] = []
        self.end: list[int] = []
        self.start: dict[int, int] = {}  # first position of each cell -> the cell
        # The initial colour of a node: its sorted (host skeleton, slot) contexts.
        groups: dict[tuple, list[int]] = defaultdict(list)
        for n in by_label:
            groups[tuple(sorted((rows[r][0], k) for r, k in self.occurrences[n]))].append(n)
        position = 0
        for key in sorted(groups):
            position = self._add_cell(groups[key], position)

    def _add_cell(self, nodes: list[int], start: int) -> int:
        c = len(self.members)
        # A deleted key leaves a slot that a dict's iteration still steps
        # over, but an OrderedDict unlinks it, so the first live member of
        # a cell that shrinks is found at once.  A one-node cell never
        # shrinks, and stays the smaller dict.
        self.members.append((OrderedDict if len(nodes) > 1 else dict).fromkeys(nodes))
        self.end.append(start + len(nodes))
        self.start[start] = c
        for n in nodes:
            self.cell[n] = c
        return start + len(nodes)

    def copy(self) -> "_Partition":
        p = copy.copy(self)  # shares the rows, the occurrences and the ranks
        p.cell, p.end, p.start = self.cell[:], self.end[:], dict(self.start)
        p.members = [m.copy() for m in self.members]
        return p

    def discrete(self) -> bool:
        return len(self.members) == len(self.cell)

    def shape(self) -> list[int]:
        """The ends of the cells in order, which give the cell sizes."""
        return sorted(self.end)

    def first_tied(self, position: int = 0) -> tuple[int, int]:
        """The first position, from position on, of a cell with several
        nodes, and that cell; the partition must not be discrete."""
        c = self.start[position]
        while len(self.members[c]) == 1:
            position = self.end[c]
            c = self.start[position]
        return position, c

    def target(self) -> int:
        """The first position of the smallest cell with several nodes, the
        first such cell by position; the partition must not be discrete.
        It depends on the shape alone."""
        return min((len(m), self.end[c] - len(m)) for c, m in enumerate(self.members) if len(m) > 1)[1]

    def colours(self) -> list[int]:
        return [self.end[c] for c in self.cell]

    def hosts(self, nodes: Iterable[int]) -> set[int]:
        """The nodes that share a host row with one of nodes."""
        return {x for n in nodes for r, _ in self.occurrences[n] for x in self.rows[r][1]}

    def signature(self, n: int, row_keys: dict[int, tuple]) -> tuple:
        """The sorted (host row, slot) occurrences of n, each host row
        written as its skeleton rank and its blank nodes' colours."""
        out = []
        for r, k in self.occurrences[n]:
            key = row_keys.get(r)
            if key is None:
                skeleton, nodes = self.rows[r]
                key = row_keys[r] = (skeleton, *[self.end[self.cell[x]] for x in nodes])
            out.append((key, k))
        out.sort()
        return tuple(out)

    def split(self, c: int, groups: dict[tuple, list[int]], keep: tuple) -> list[int]:
        """Split cell c into one cell per signature, in signature order.

        The nodes of groups[keep], and the untouched members of c, stay in
        c; the others move to new cells and are returned.
        """
        members = self.members[c]
        moved = [n for s, nodes in groups.items() if s != keep for n in nodes]
        position = self.end[c] - len(members)
        for n in moved:
            del members[n]
        for s in sorted(groups):
            if s == keep:
                self.start[position] = c
                position += len(members)
                self.end[c] = position
            else:
                position = self._add_cell(sorted(groups[s], key=self.rank.__getitem__), position)
        return moved

    def individualize(self, n: int) -> None:
        """Give n a cell of its own, just before the rest of its cell."""
        c = self.cell[n]
        start = self.end[c] - len(self.members[c])
        del self.members[c][n]
        self._add_cell([n], start)
        self.start[start + 1] = c


def _refine_round(p: _Partition, touched: set[int]) -> list[int]:
    """One round of colour refinement (1-WL) on the cells that hold a
    touched node; returns the nodes that moved to a new cell.

    Every touched node gets a signature from its host rows with the
    current colours put in, and each cell splits by signature.  The
    members of a cell that were not touched still share one signature,
    so one of them stands for all.  Signatures are computed before any
    cell splits, so the round is the same as recolouring every node at
    once.
    """
    row_keys: dict[int, tuple] = {}
    by_cell: dict[int, list[int]] = defaultdict(list)
    for n in touched:
        by_cell[p.cell[n]].append(n)
    splits = []
    for c, nodes in by_cell.items():
        members = p.members[c]
        if len(members) == 1:
            continue
        groups: dict[tuple, list[int]] = defaultdict(list)
        for n in nodes:
            groups[p.signature(n, row_keys)].append(n)
        if len(nodes) < len(members):
            # The untouched members' group, which may hold no touched node.
            keep = p.signature(next(n for n in members if n not in touched), row_keys)
            groups.setdefault(keep, [])
        else:
            keep = max(groups, key=lambda s: len(groups[s]))
        if len(groups) > 1:
            splits.append((c, groups, keep))
    moved: list[int] = []
    for c, groups, keep in splits:
        moved += p.split(c, groups, keep)
    return moved


def _refine(p: _Partition, touched: set[int]) -> None:
    """Refine until a round moves no node or every node has its own cell.

    Every round but the last splits a cell, so there are at most as many
    rounds as nodes.  Only the nodes that share a host row with a moved
    node are touched in the next round.
    """
    while touched and not p.discrete():
        touched = p.hosts(_refine_round(p, touched))


Rows = list[tuple[tuple, list[int]]]  # (skeleton, blank node ids in slot order) per triple


def _host_rows(g: RdfStarGraph, ground: list[Triple] | None = None) -> tuple[list[str], Rows]:
    """The blank node labels of g, and for each triple of g that holds
    one, its skeleton and the ids of its blank nodes, in slot order, into
    the labels.  The other triples go to ground, when it is given."""
    ids: dict[str, int] = {}
    rows: Rows = []
    for t in g.triples:
        if _holds_bnode(t):
            labels: list[str] = []
            skeleton = _skeleton(t, labels)
            rows.append((skeleton, [ids.setdefault(label, len(ids)) for label in labels]))
        elif ground is not None:
            ground.append(t)
    return list(ids), rows


def _refined(labels: list[str], rows: Rows) -> _Partition:
    """The partition of the blank nodes after refinement alone, from the
    initial colours; skeletons are ranked in sort order."""
    rank = {s: i for i, s in enumerate(sorted({s for s, _ in rows}))}
    p = _Partition(labels, [(rank[s], nodes) for s, nodes in rows])
    _refine(p, set(range(len(labels))))
    return p


def _individualize(p: _Partition, n: int) -> None:
    p.individualize(n)
    _refine(p, p.hosts([n]))


def _break_ties(p: _Partition) -> None:
    """Make p discrete: individualize the first member, in natural label
    order, of the first cell with several nodes, and refine, until every
    node has its own cell."""
    position = 0  # cells before it have one node, and never split again
    while not p.discrete():
        position, c = p.first_tied(position)
        _individualize(p, next(iter(p.members[c])))


def canonicalize_bnodes(g: RdfStarGraph) -> RdfStarGraph:
    """Deterministically renumber blank nodes to b1, b2, ... by one
    canonical labelling.

    Colour refinement (1-WL) over the triples that hold a blank node: each
    node starts with the sorted contexts of its occurrences, each one the
    host triple with every blank node erased and the node's position in
    it.  Each round recolours the nodes from their old colour and their
    host triples with the neighbours' current colours put in, until no
    class splits.  A class that still holds several nodes is split by
    individualizing its member with the smallest label, digit runs
    compared as numbers (b2 < b10), and refinement resumes.  Nodes are
    numbered b1, b2, ... in final colour order, which follows the sorted
    contexts: a node whose host triples sort earlier gets the smaller
    number, though not always in first-appearance order.

    The result is deterministic, idempotent and isomorphic to g.  When
    refinement alone separates every node, the result does not depend on
    the labels of g either, so isomorphic inputs give equal results.

    Bounds, for n blank nodes: at most n - 1 individualizations and no
    search tree; refinement alone takes at most n rounds, and all
    refinements together at most 2n.  A round looks only at the nodes
    that share a host triple with a node whose class changed in the round
    before, and sorts the host-triple keys of their occurrences.  The
    result is built by one relabel_bnodes call.
    """
    labels, rows = _host_rows(g)
    if not rows:
        return g
    p = _refined(labels, rows)
    _break_ties(p)
    return relabel_bnodes(g, {label: f"b{c}" for label, c in zip(labels, p.colours())})


def _free_parts(labels: list[str], p: _Partition) -> tuple[frozenset, list]:
    """Split the problem of p at its fixed nodes, those in cells of their
    own: the rows whose nodes are all fixed, each node written as its
    colour; and one subproblem (labels, rows) per set of the other nodes
    that rows connect.  A subproblem's rows write each fixed node into
    their skeleton as its slot and colour.  Skeletons are p's ranks."""
    colour = p.colours()
    fixed = [len(p.members[c]) == 1 for c in p.cell]
    root = list(range(len(labels)))

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for _, nodes in p.rows:
        free = [x for x in nodes if not fixed[x]]
        for x in free[1:]:
            root[find(x)] = find(free[0])
    fixed_rows = set()
    parts: dict[int, tuple[dict[int, int], Rows]] = {}  # root -> (node -> local id, rows)
    for s, nodes in p.rows:
        free = [x for x in nodes if not fixed[x]]
        if not free:
            fixed_rows.add((s, tuple(colour[x] for x in nodes)))
            continue
        local, part_rows = parts.setdefault(find(free[0]), ({}, []))
        pinned = tuple((k, colour[x]) for k, x in enumerate(nodes) if fixed[x])
        part_rows.append(((s, pinned), [local.setdefault(x, len(local)) for x in free]))
    return frozenset(fixed_rows), [([labels[x] for x in local], part_rows)
                                   for local, part_rows in parts.values()]


def _form(labels: list[str], rows: Rows) -> frozenset:
    """The rows with every node written as its canonical colour: equal
    forms mean isomorphic problems."""
    p = _refined(labels, rows)
    _break_ties(p)
    return frozenset((s, tuple(p.end[p.cell[x]] for x in nodes)) for s, nodes in rows)


def _parts_match(parts_a: list, parts_b: list) -> bool:
    """Whether the subproblems pair off into isomorphic pairs.  Equal
    forms pair at once; only a subproblem with no equal form left, which
    needed tie-breaks, is tested against the others."""
    if len(parts_a) != len(parts_b):
        return False
    left: dict[frozenset, list] = defaultdict(list)  # form -> b's unpaired subproblems
    for part in parts_b:
        left[_form(*part)].append(part)
    for part in parts_a:
        form = _form(*part)
        if not left[form]:
            # Subproblems of one form are isomorphic, so one stands for all.
            form = next((f for f, ps in left.items() if ps and _rows_isomorphic(*part, *ps[-1])),
                        None)
            if form is None:
                return False
        left[form].pop()
    return True


def _rows_isomorphic(la: list[str], ra: Rows, lb: list[str], rb: Rows) -> bool:
    """Whether a bijection from the nodes of a to those of b maps the rows
    of a onto those of b."""
    if len(la) != len(lb) or Counter(s for s, _ in ra) != Counter(s for s, _ in rb):
        return False
    pa, pb = _refined(la, ra), _refined(lb, rb)
    return pa.shape() == pb.shape() and _split_match(la, pa, lb, pb)


def _split_match(la: list[str], pa: _Partition, lb: list[str], pb: _Partition) -> bool:
    """_rows_isomorphic for refined partitions of equal shape, whose
    colours must be kept."""
    fixed_a, parts_a = _free_parts(la, pa)
    fixed_b, parts_b = _free_parts(lb, pb)
    if fixed_a != fixed_b:
        return False
    if len(parts_a) != 1 or len(parts_a[0][0]) < len(la):
        return _parts_match(parts_a, parts_b)
    # Connected, with no node fixed: fix one node of b's smallest tied
    # cell, and try each node of a's cell at the same position.
    position = pb.target()
    qb = pb.copy()
    _individualize(qb, next(iter(pb.members[pb.start[position]])))
    for x in list(pa.members[pa.start[position]]):
        qa = pa.copy()
        _individualize(qa, x)
        if qa.shape() == qb.shape() and _split_match(la, qa, lb, qb):
            return True
    return False


def isomorphic(a: RdfStarGraph, b: RdfStarGraph) -> bool:
    """Graph equality up to a bijective renaming of blank node labels.

    The triples without blank nodes must be equal.  The others become
    rows, a skeleton with the blank nodes erased and the nodes in slot
    order, and the skeletons must agree as multisets.  Then both sides
    are refined as in canonicalize_bnodes and need equal class sizes.
    When refinement alone separated every node, the answer is whether
    mapping each node of a to the node of b of the same colour maps every
    row onto one of b, which is comparing canonical forms.  So the cost is
    two refinements and linear checks.

    Otherwise each side splits at its fixed nodes, those in classes of
    their own: the rows of fixed nodes alone must agree by colour, and
    the other nodes form subproblems, one per set that rows connect, with
    the fixed nodes written into the skeletons by colour.  These must pair
    off into isomorphic pairs, by canonical form first and otherwise by
    the same procedure on the pair.  A connected problem with no fixed
    node branches: b fixes the first node of its smallest class with
    several nodes, a tries each node of its class at the same position,
    and both refine and split again.  Every level fixes a node, so the
    recursion is at most as deep as there are blank nodes, but the number
    of branches is not bounded: graphs built to defeat colour refinement
    can make it exponential.
    """
    if a.triples == b.triples:
        return True
    if len(a) != len(b):
        return False
    ground: list[Triple] = []
    host_a = _host_rows(a, ground)
    if not all(t in b.triples for t in ground):
        return False
    return _rows_isomorphic(*host_a, *_host_rows(b))
