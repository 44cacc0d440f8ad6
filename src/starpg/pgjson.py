"""PG-JSON reading and writing.

The document shape is {"vertices": [...], "edges": [...]}; every element
carries an id and a property list, edges additionally src/tgt/label.
Values are tagged objects {"type": "string"|"integer"|"double"|"boolean",
"value": ...}.  Properties are arrays, so duplicate keys survive the trip.
The reader has two paths with one per-element check, _add.  On the
streamed path json.loads hands each vertex and edge to a hook as soon as
it is decoded, which checks and keeps it, so the document's dict tree is
never built whole.  Where that does not give just the document's own
elements, the reference path reads the text with json.loads and checks
it whole; every error is that path's.  Serialization sorts
everything, making output byte-stable across runs, and iter_pg_json
gives the text a vertex or an edge at a time.
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterator

from .pg import (
    _INTEGER_RE,
    Boolean,
    Double,
    Integer,
    Property,
    PropertyGraph,
    Text,
    _too_long,
)

FILE_EXTENSION = ".pg.json"

# JSON numbers are exact only within the double-precision safe range;
# integers beyond it travel as digit strings.
_SAFE_INT = 2**53 - 1
# A lone surrogate, and its \u escape: a parsed string can hold one only
# if the text holds either.
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")
_SURROGATE_ESCAPE_RE = re.compile(r"\\u[dD][89a-fA-F]")
# The key set of each object; an element may leave out "properties".
_DOCUMENT_KEYS = {"vertices", "edges"}
_VERTEX_KEYS = {"id", "properties"}
_EDGE_KEYS = {"id", "src", "tgt", "label", "properties"}
_PROPERTY_KEYS = {"key", "value"}
_VALUE_KEYS = {"type", "value"}


class SchemaError(ValueError):
    """A PG-JSON document deviates from the expected shape."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")


def _shape_error(obj, keys: set[str], what: str) -> str | None:
    """What is wrong with obj, which should be an object with these keys,
    though an element may leave out "properties": that it is no object,
    else the least missing key, else the least unknown one; None when
    nothing is.  Callers compare the key set first and call this only
    when it differs."""
    if obj.__class__ is not dict:
        return f"{what} must be an object"
    for key in sorted(keys - obj.keys() - {"properties"}):
        return f"missing key {key!r}"
    for key in sorted(obj.keys() - keys):
        return f"unknown key {key!r}"
    return None


def _strings(x, path: str):
    """Every string in x with its path, in document order.  A checked
    document nests at most six levels deep."""
    if isinstance(x, str):
        yield path, x
    elif isinstance(x, (dict, list)):
        for key, value in x.items() if isinstance(x, dict) else enumerate(x):
            yield from _strings(value, f"{path}/{key}")


def _parse_value(obj, path: str, i: int):
    """The value object of property i of the element at path.  Classes are
    tested exactly, as json.loads makes them, so true is not an integer
    here, nor 1.0."""
    if obj.__class__ is not dict or obj.keys() != _VALUE_KEYS:
        message = _shape_error(obj, _VALUE_KEYS, "value")
    else:
        kind = obj["type"]
        raw = obj["value"]
        cls = raw.__class__
        if kind == "string":
            if cls is str:
                return Text(raw)
            message = "string value must be a JSON string"
        elif kind == "integer":
            if cls is int:
                return Integer(raw)
            if cls is not str:
                message = "integer value must be a JSON number or digit string"
            elif not _INTEGER_RE.fullmatch(raw):
                message = f"malformed integer {raw!r}"
            else:
                try:
                    return Integer(int(raw))
                except ValueError:
                    message = _too_long()
        elif kind == "double":
            if cls is str:
                if raw in ("INF", "-INF"):
                    return Double(float(raw))
                message = f"malformed double {raw!r}"
            elif cls is not float and cls is not int:
                message = "double value must be a JSON number"
            elif raw != raw:  # only NaN differs from itself
                message = "double value must not be NaN"
            else:
                try:
                    return Double(float(raw))
                except OverflowError:  # an integer token beyond the double range, read as 1e400 is
                    return Double(math.inf if raw > 0 else -math.inf)
        elif kind == "boolean":
            if cls is bool:
                return Boolean(raw)
            message = "boolean value must be true or false"
        else:
            message = f"unknown value type {kind!r}"
    raise SchemaError(f"{path}/properties/{i}/value", message)


def _parse_properties(obj: dict, path: str) -> list[Property]:
    """The properties of the element obj at path."""
    entries = obj.get("properties", [])
    if entries.__class__ is not list:
        raise SchemaError(f"{path}/properties", "properties must be an array")
    out = []
    for i, entry in enumerate(entries):
        if entry.__class__ is not dict or entry.keys() != _PROPERTY_KEYS:
            raise SchemaError(f"{path}/properties/{i}",
                              _shape_error(entry, _PROPERTY_KEYS, "property"))
        key = entry["key"]
        if key.__class__ is not str:
            raise SchemaError(f"{path}/properties/{i}/key", "key must be a string")
        out.append(Property(key, _parse_value(entry["value"], path, i)))
    return out


def _parse_id(obj: dict, path: str, field: str) -> str:
    value = obj[field]
    if value.__class__ is not str or not value:
        raise SchemaError(f"{path}/{field}", f"{field} must be a non-empty string")
    return value


def _add(entry, path: str, keys: set[str], kind: str, props: dict, src: dict, tgt: dict,
         lbl: dict) -> None:
    """Check entry, the vertex or edge at path, against keys, and keep it:
    its properties in props, an edge's endpoints and label in src, tgt
    and lbl.  An id already in props is a duplicate."""
    if entry.__class__ is not dict or entry.keys() != keys:
        message = _shape_error(entry, keys, kind)
        if message:
            raise SchemaError(path, message)
    x = _parse_id(entry, path, "id")
    if x in props:
        raise SchemaError(f"{path}/id", f"duplicate id {x!r}")
    if keys is _EDGE_KEYS:
        source = _parse_id(entry, path, "src")
        target = _parse_id(entry, path, "tgt")
        label = entry["label"]
        if label.__class__ is not str:
            raise SchemaError(f"{path}/label", "label must be a string")
        src[x], tgt[x], lbl[x] = source, target, label
    props[x] = _parse_properties(entry, path)


# Each array's element key set and name, in the order the reference path checks them.
_ARRAYS = {"vertices": (_VERTEX_KEYS, "vertex"), "edges": (_EDGE_KEYS, "edge")}


def _streamed(text: str, search: bool, props: dict, src: dict, tgt: dict, lbl: dict) -> bool:
    """Read text as {"vertices": [...], "edges": [...]} into the four dicts
    with one json.loads, whose hook gets each object once it is decoded
    whole.  One with an "id" is a vertex, or an edge if it has a "src":
    _add checks and keeps it, and its array's marker takes its place.
    True only if the result is an object of just the two arrays, each
    holding only its own marker, one per kept element: an element kept
    elsewhere, such as in a repeated key's dropped copy, leaves its marker
    out.  False or any exception leaves the text to the reference path,
    so _add gets an empty path.

    This json.loads runs a frame deeper than the reference path's, so it
    decodes no text that path finds nested too deeply.  If search, the
    hook searches each object's string values for a lone surrogate: each
    string of a valid document is one, or a fixed key."""
    vertex, edge = object(), object()

    def hook(obj: dict):
        if search and any(v.__class__ is str and _SURROGATE_RE.search(v) for v in obj.values()):
            raise ValueError("lone surrogate")
        if "id" not in obj:
            return obj
        if "src" in obj:
            _add(obj, "", _EDGE_KEYS, "edge", props, src, tgt, lbl)
            return edge
        _add(obj, "", _VERTEX_KEYS, "vertex", props, src, tgt, lbl)
        return vertex

    doc = json.loads(text, object_hook=hook)
    if doc.__class__ is not dict or doc.keys() != _DOCUMENT_KEYS:
        return False
    vertices, edges = doc["vertices"], doc["edges"]
    return (vertices.__class__ is list and edges.__class__ is list
            and vertices.count(vertex) == len(vertices) and edges.count(edge) == len(edges)
            and len(vertices) + len(edges) == len(props))


def parse_pg_json(text: str) -> PropertyGraph:
    """Parse a PG-JSON document; SchemaError names the offending path.

    A document of the usual shape takes the streamed path: json.loads
    decodes it, and each vertex or edge is checked, kept as ids and
    Property objects and freed once decoded, so the document's dict tree
    never exists whole.  On any irregularity, whether an error or only an
    unusual form, the reader starts again on the reference path:
    json.loads reads the whole text, and one loop checks it with the same
    per-element check.  Which error a document raises is that loop's,
    whatever its place in the text:
    - a JSON syntax error anywhere, as json.loads reports it;
    - then the document's key set, then "vertices" and "edges" not being
      arrays;
    - then the first bad vertex, then the first bad edge, whichever of
      the two arrays comes first in the text;
    - then the first lone surrogate.
    A repeated key takes its last copy, as under json.loads.
    """
    # Only a text with a lone surrogate, escaped or raw, has its strings
    # searched; ASCII text can hold no raw one, so it costs one fast scan.
    search = bool(_SURROGATE_ESCAPE_RE.search(text)
                  or not text.isascii() and _SURROGATE_RE.search(text))
    props, src, tgt, lbl = {}, {}, {}, {}
    try:
        streamed = _streamed(text, search, props, src, tgt, lbl)
    except (ValueError, RecursionError):
        streamed = False
    if not streamed:
        # json.loads runs in this frame, not in a helper: where it runs
        # out of recursion depends on the depth of the caller's stack.
        props, src, tgt, lbl = {}, {}, {}, {}
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"invalid JSON: {exc}") from exc
        except ValueError:  # json.loads reads integers with int(), which caps their length
            raise SchemaError("/", _too_long()) from None
        except RecursionError:
            raise SchemaError("/", "invalid JSON: arrays or objects nested too deeply") from None
        if doc.__class__ is not dict or doc.keys() != _DOCUMENT_KEYS:
            raise SchemaError("/", _shape_error(doc, _DOCUMENT_KEYS, "document"))
        for name in _ARRAYS:
            if doc[name].__class__ is not list:
                raise SchemaError(f"/{name}", f"{name} must be an array")
        for name, (keys, kind) in _ARRAYS.items():
            for n, entry in enumerate(doc[name]):
                _add(entry, f"/{name}/{n}", keys, kind, props, src, tgt, lbl)
        if search:
            for path, string in _strings(doc, ""):
                if _SURROGATE_RE.search(string):
                    raise SchemaError(path, "string holds a lone surrogate")
        del doc
    del text  # a caller that passed a temporary frees it here, before the graph is built
    return PropertyGraph(frozenset(props.keys() - src.keys()), src.keys(), src, tgt, lbl, props)


# The fixed layout of iter_pg_json, as json.dumps(..., indent=2) lays out
# the document; each %s is already JSON text.  An element starts with the
# text that comes before it: "[\n" for the first of its array, else ",\n".
_VERTEX = """\
%s    {
      "id": %s,
      "properties": %s
    }"""
_EDGE = """\
%s    {
      "id": %s,
      "src": %s,
      "tgt": %s,
      "label": %s,
      "properties": %s
    }"""
_PROPERTY = """\
        {
          "key": %s,
          "value": {
            "type": "%s",
            "value": %s
          }
        }"""

# The C routine that json.dumps(..., ensure_ascii=False) quotes strings with.
_quote = json.encoder.encode_basestring


def _property_json(p: Property) -> str:
    """One property; integers beyond the safe range and infinities travel
    as strings, other numbers as json writes them."""
    v = p.value
    if isinstance(v, Text):
        kind, raw = "string", _quote(v.value)
    elif isinstance(v, Integer):
        n = v.value
        kind, raw = "integer", int.__repr__(n) if abs(n) <= _SAFE_INT else _quote(str(n))
    elif isinstance(v, Double):
        d = v.value
        kind = "double"
        raw = '"INF"' if d == math.inf else '"-INF"' if d == -math.inf else float.__repr__(d)
    else:
        kind, raw = "boolean", "true" if v.value else "false"
    return _PROPERTY % (_quote(p.key), kind, raw)


def iter_pg_json(g: PropertyGraph) -> Iterator[str]:
    """The text of serialize_pg_json(g) in chunks: the document's opening,
    then one chunk per vertex and per edge, each array's closing and the
    document's closing.  A graph is checked when it is built, so nothing
    here raises; the CLI writes the chunks as they come, and never holds
    the whole document."""

    def properties(x: str) -> str:
        ps = g.properties(x)  # already in property_sort_key order
        if not ps:
            return "[]"
        return "[\n" + ",\n".join(map(_property_json, ps)) + "\n      ]"

    sep = "[\n"
    yield '{\n  "vertices": '
    for v in sorted(g.vertices):
        yield _VERTEX % (sep, _quote(v), properties(v))
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"
    sep = "[\n"
    yield ',\n  "edges": '
    for e in sorted(g.edges):
        yield _EDGE % (sep, _quote(e), _quote(g.source(e)), _quote(g.target(e)),
                       _quote(g.label(e)), properties(e))
        sep = ",\n"
    yield "[]" if sep == "[\n" else "\n  ]"
    yield "\n}\n"


def serialize_pg_json(g: PropertyGraph) -> str:
    """Serialize with vertices, edges, and properties in sorted order.

    The layout is fixed: the text equals json.dumps of the same document
    with indent=2, ensure_ascii=False and allow_nan=False, plus a final
    newline, but it is written directly rather than through a dict tree.
    It is the join of iter_pg_json(g).
    """
    return "".join(iter_pg_json(g))
