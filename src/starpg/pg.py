"""Property graph data model: vertices, edges, and set-valued properties.

Properties attach to vertices and edges as sets of key-value pairs, so an
element may carry several values under the same key; the uniqueness checks
below report when that happens.  Each element keeps its set as one tuple,
without repeats and in property_sort_key order, so a graph's properties
are listed in one order everywhere.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import combinations
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from .frozen import Frozen, set_field


class PgValidationError(ValueError):
    """Invalid property graph construction input."""


class DanglingEdgeError(PgValidationError):
    """An edge endpoint refers to a missing vertex, or has no endpoint at all."""


class MissingEdgeLabelError(PgValidationError):
    """An edge has no label entry."""


class IdCollisionError(PgValidationError):
    """A vertex id and an edge id coincide."""


class PropertyValue(Frozen):
    """Base of the four value kinds; values of different kinds never compare equal.

    A value hashes as its one field, a str, int, float or bool.
    """

    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.value == other.value

    def __hash__(self) -> int:
        return hash(self.value)


class Text(PropertyValue):
    __slots__ = ()

    def __init__(self, value: str) -> None:
        if not isinstance(value, str):
            raise TypeError(f"Text takes a str, got {type(value).__name__}")
        set_field(self, "value", value)


class Integer(PropertyValue):
    __slots__ = ()

    def __init__(self, value: int) -> None:
        # bool is an int subtype in Python; the kinds must stay disjoint.
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"Integer takes an int, got {type(value).__name__}")
        set_field(self, "value", value)


class Double(PropertyValue):
    __slots__ = ()

    def __init__(self, value: float) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"Double takes a float, got {type(value).__name__}")
        v = float(value)
        if math.isnan(v):
            raise ValueError("Double cannot hold NaN")
        if v == 0.0:
            v = 0.0  # fold -0.0 so equal values have one canonical form
        set_field(self, "value", v)


class Boolean(PropertyValue):
    __slots__ = ()

    def __init__(self, value: bool) -> None:
        if not isinstance(value, bool):
            raise TypeError(f"Boolean takes a bool, got {type(value).__name__}")
        set_field(self, "value", value)


class Property(Frozen):
    """One key-value pair attached to a vertex or edge."""

    __slots__ = ("key", "value", "_hash")
    __match_args__ = ("key", "value")

    def __init__(self, key: str, value: PropertyValue) -> None:
        if not isinstance(key, str):
            raise TypeError("property key must be str")
        if not isinstance(value, PropertyValue):
            raise TypeError(
                f"property value must be a PropertyValue, got {type(value).__name__}"
            )
        set_field(self, "key", key)
        set_field(self, "value", value)
        set_field(self, "_hash", hash((key, value)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and (self.key, self.value) == (other.key, other.value)

    def __hash__(self) -> int:
        return self._hash


def _property_value_key(v: PropertyValue):
    """Deterministic order over mixed-kind values."""
    if isinstance(v, Text):
        return (0, v.value)
    if isinstance(v, Integer):
        return (1, str(v.value))
    if isinstance(v, Double):
        return (2, repr(v.value))
    return (3, "true" if v.value else "false")


def property_sort_key(p: Property):
    """The order of an element's properties: by key, then by value.  No
    two distinct properties share a sort key."""
    return (p.key, _property_value_key(p.value))


def ordered_properties(entries: Collection[Property]) -> tuple[Property, ...]:
    """Distinct properties as one tuple in property_sort_key order."""
    if len(entries) > 1:
        return tuple(sorted(entries, key=property_sort_key))
    return tuple(entries)


def _is_vertex(x: object, vertices: frozenset[str]) -> bool:
    """Whether x is one of vertices, which are strs; x may be unhashable."""
    return isinstance(x, str) and x in vertices


# The properties of every element without properties.
_NO_PROPERTIES: tuple[Property, ...] = ()


class PropertyGraph:
    """A directed multigraph with total endpoint/label maps and property sets.

    All six components are validated together at construction, in one
    unsorted pass; instances are immutable afterwards.  Vertex and edge
    ids live in one namespace and must not collide.  Where several ids,
    edges or properties are invalid, the error names the least of them
    (edges by id, the others by repr), so the message does not depend on
    hashing.

    An element's properties are a tuple in property_sort_key order, without
    repeats, whatever iterable they were given as; elements without
    properties share the empty tuple.  Since the sort key tells distinct
    properties apart, two such tuples are equal exactly when they hold the
    same set, so graphs compare as their sets of properties do.
    """

    __slots__ = ("_vertices", "_edges", "_src", "_tgt", "_lbl", "_props")

    def __init__(
        self,
        vertices: Iterable[str] = (),
        edges: Iterable[str] = (),
        src: Mapping[str, str] | None = None,
        tgt: Mapping[str, str] | None = None,
        lbl: Mapping[str, str] | None = None,
        props: Mapping[str, Iterable[Property]] | None = None,
    ) -> None:
        vset = frozenset(vertices)
        eset = frozenset(edges)
        ids = vset | eset
        for x in ids:
            if not isinstance(x, str) or not x:
                x = min((y for y in ids if not isinstance(y, str) or not y), key=repr)
                raise PgValidationError(f"element id must be a non-empty string: {x!r}")
        shared = vset & eset
        if shared:
            raise IdCollisionError(f"ids used as both vertex and edge: {sorted(shared)!r}")

        src = dict(src or {})
        tgt = dict(tgt or {})
        lbl = dict(lbl or {})
        for name, mapping in (("src", src), ("tgt", tgt), ("lbl", lbl)):
            unknown = set(mapping) - eset
            if unknown:  # str keys in their order, then any others by repr
                unknown = sorted(unknown, key=lambda k: (0, k) if isinstance(k, str)
                                 else (1, repr(k)))
                raise PgValidationError(f"{name} mentions unknown edge: {unknown!r}")
        try:
            broken = [e for e in eset if src.get(e) not in vset or tgt.get(e) not in vset
                      or not isinstance(lbl.get(e), str)]
        except TypeError:  # an unhashable endpoint, which names no vertex
            broken = [e for e in eset if not _is_vertex(src.get(e), vset)
                      or not _is_vertex(tgt.get(e), vset) or not isinstance(lbl.get(e), str)]
        if broken:
            e = min(broken)
            for name, mapping in (("src", src), ("tgt", tgt)):
                if e not in mapping:
                    raise DanglingEdgeError(f"edge {e!r} has no {name} endpoint")
                if not _is_vertex(mapping[e], vset):
                    raise DanglingEdgeError(
                        f"edge {e!r} {name} refers to unknown vertex {mapping[e]!r}"
                    )
            if e not in lbl:
                raise MissingEdgeLabelError(f"edge {e!r} has no label")
            raise PgValidationError(f"edge {e!r} label must be str")

        pmap: dict[str, tuple[Property, ...]] = dict.fromkeys(ids, _NO_PROPERTIES)
        for x, entries in (props or {}).items():
            if x not in pmap:
                raise PgValidationError(f"properties attached to unknown element {x!r}")
            try:
                entries = set(entries)
            except TypeError:  # an unhashable entry, which is no Property
                entries = list(entries)
                if all(isinstance(p, Property) for p in entries):  # a spent iterator's
                    raise PgValidationError(f"unhashable entry on element {x!r}") from None
            for p in entries:
                if not isinstance(p, Property):
                    p = min((q for q in entries if not isinstance(q, Property)), key=repr)
                    raise PgValidationError(f"not a Property on element {x!r}: {p!r}")
            if entries:
                pmap[x] = ordered_properties(entries)

        self._vertices = vset
        self._edges = eset
        self._src = src
        self._tgt = tgt
        self._lbl = lbl
        self._props = pmap

    @classmethod
    def _trusted(cls, vertices: frozenset[str], edges: frozenset[str], src: dict[str, str],
                 tgt: dict[str, str], lbl: dict[str, str],
                 props: dict[str, tuple[Property, ...]]) -> PropertyGraph:
        """The graph of these fields, taken as they are: no check, no copy.

        Only for callers that built a valid graph themselves: src, tgt and
        lbl total on edges and naming vertices, and props holding, for every
        vertex and edge, a tuple as the constructor makes it.  The caller
        hands the containers over and must not change them afterwards.
        """
        g = cls.__new__(cls)
        g._vertices = vertices
        g._edges = edges
        g._src = src
        g._tgt = tgt
        g._lbl = lbl
        g._props = props
        return g

    @property
    def vertices(self) -> frozenset[str]:
        return self._vertices

    @property
    def edges(self) -> frozenset[str]:
        return self._edges

    @property
    def src(self) -> Mapping[str, str]:
        return MappingProxyType(self._src)

    @property
    def tgt(self) -> Mapping[str, str]:
        return MappingProxyType(self._tgt)

    @property
    def lbl(self) -> Mapping[str, str]:
        return MappingProxyType(self._lbl)

    @property
    def props(self) -> Mapping[str, tuple[Property, ...]]:
        return MappingProxyType(self._props)

    def source(self, edge: str) -> str:
        return self._src[edge]

    def target(self, edge: str) -> str:
        return self._tgt[edge]

    def label(self, edge: str) -> str:
        return self._lbl[edge]

    def properties(self, element: str) -> tuple[Property, ...]:
        return self._props[element]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PropertyGraph):
            return NotImplemented
        return (
            self._vertices == other._vertices
            and self._edges == other._edges
            and self._src == other._src
            and self._tgt == other._tgt
            and self._lbl == other._lbl
            and self._props == other._props
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"PropertyGraph({len(self._vertices)} vertices, {len(self._edges)} edges)"

    def __reduce__(self):
        return PropertyGraph, (self._vertices, self._edges, self._src, self._tgt, self._lbl,
                               self._props)


def property_uniqueness_violations(g: PropertyGraph) -> list[tuple[str, str]]:
    """(element id, key) pairs where one element holds several values for
    a key, sorted.

    An element's properties are ordered by key, so the values of a key
    are adjacent and one scan of each element finds them.
    """
    out: list[tuple[str, str]] = []
    for x, props in g.props.items():
        if len(props) < 2:
            continue
        previous = repeated = None
        for p in props:
            key = p.key
            if key == previous and key != repeated:
                out.append((x, key))
                repeated = key
            previous = key
    return sorted(out)


def is_property_unique(g: PropertyGraph) -> bool:
    """True iff every element's property keys are pairwise distinct."""
    return not property_uniqueness_violations(g)


def edge_uniqueness_violations(g: PropertyGraph) -> list[tuple[str, str]]:
    """Pairs of distinct edges agreeing on source, target, and label,
    sorted by that shape and then by edge id."""
    by_shape: dict[tuple[str, str, str], list[str]] = defaultdict(list)
    for e in g.edges:
        by_shape[(g.source(e), g.target(e), g.label(e))].append(e)
    out: list[tuple[str, str]] = []
    for shape in sorted(shape for shape, group in by_shape.items() if len(group) > 1):
        out.extend(combinations(sorted(by_shape[shape]), 2))
    return out


def is_edge_unique(g: PropertyGraph) -> bool:
    """True iff no two distinct edges agree on source, target, and label."""
    return not edge_uniqueness_violations(g)
