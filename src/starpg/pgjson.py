"""PG-JSON reading and writing.

The document shape is {"vertices": [...], "edges": [...]}; every element
carries an id and a property list, edges additionally src/tgt/label.
Values are tagged objects {"type": "string"|"integer"|"double"|"boolean",
"value": ...}.  Properties are arrays, so duplicate keys survive the trip.
The reader has one path: it decodes the text a vertex or an edge at a
time with json's own scanner, checks each as it reads it, and keeps only
what the graph needs, so the document's dict tree is never built whole.
It works out which key is missing or unknown only when the key set is
wrong, and words a syntax error only when there is one, through
json.loads.  Serialization sorts everything, making output byte-stable
across runs, and iter_pg_json gives the text a vertex or an edge at a
time.
"""

from __future__ import annotations

import json
import math
import re
from typing import Iterator

from .pg import (
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
_INT_STRING_RE = re.compile(r"[+-]?[0-9]+\Z")
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
            elif not _INT_STRING_RE.fullmatch(raw):
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


# The scanner of json.loads: _scan(text, i) decodes the JSON value at
# text[i] and returns it with the index after it.
_scan = json.JSONDecoder().scan_once
_scan_key = json.decoder.scanstring
_skip = json.decoder.WHITESPACE.match
# What follows an element of an array: a comma, or the array's end.
_after_element = re.compile(r"[ \t\n\r]*(?:,[ \t\n\r]*|\])").match


class _Elements:
    """One copy of the "vertices" or "edges" array, read an element at a
    time.  Of its elements up to the first bad one it keeps what the graph
    needs: ids, properties, and for edges the endpoints and labels.  Of
    the first bad one it keeps the error and, if it got that far, the id.
    While no element is bad, it also keeps the first lone surrogate."""

    __slots__ = ("name", "keys", "kind", "props", "src", "tgt", "lbl", "error", "error_id",
                 "surrogate", "search", "brackets")

    def __init__(self, name: str, search: bool) -> None:
        self.name = name
        self.keys, self.kind = ((_VERTEX_KEYS, "vertex") if name == "vertices"
                                else (_EDGE_KEYS, "edge"))
        self.props: dict[str, list[Property]] = {}
        self.src: dict[str, str] = {}
        self.tgt: dict[str, str] = {}
        self.lbl: dict[str, str] = {}
        self.error: SchemaError | None = None
        self.error_id: str | None = None
        self.surrogate: SchemaError | None = None
        self.search = search  # whether the text may hold a lone surrogate
        self.brackets = 0  # the objects and arrays of the elements kept

    def read(self, text: str, i: int) -> int:
        """Read the array whose "[" is at text[i]; the index after it.
        Each element is checked, and freed, before the next is decoded;
        after the first bad one, the rest are only decoded."""
        i = _skip(text, i + 1).end()
        if text[i] == "]":
            return i + 1
        n = 0
        while True:
            entry, i = _scan(text, i)
            if self.error is None:
                self._add(entry, n)
            del entry
            n += 1
            after = _after_element(text, i)
            if after is None:
                raise ValueError("no JSON array")
            i = after.end()
            if text[i - 1] == "]":
                return i

    def _add(self, entry, i: int) -> None:
        """Check element i, decoded as entry, and keep it or its error."""
        path = f"/{self.name}/{i}"
        x = None
        try:
            if entry.__class__ is not dict or entry.keys() != self.keys:
                message = _shape_error(entry, self.keys, self.kind)
                if message:
                    raise SchemaError(path, message)
            x = _parse_id(entry, path, "id")
            if x in self.props:
                raise SchemaError(f"{path}/id", f"duplicate id {x!r}")
            if self.keys is _EDGE_KEYS:
                src = _parse_id(entry, path, "src")
                tgt = _parse_id(entry, path, "tgt")
                label = entry["label"]
                if label.__class__ is not str:
                    raise SchemaError(f"{path}/label", "label must be a string")
                self.src[x], self.tgt[x], self.lbl[x] = src, tgt, label
            self.props[x] = properties = _parse_properties(entry, path)
        except SchemaError as exc:
            self.error, self.error_id = exc.with_traceback(None), x
            return
        # The element, its property array if it has one, and each
        # property with its value.
        self.brackets += 1 + ("properties" in entry) + 2 * len(properties)
        if self.search and self.surrogate is None:
            for string_path, string in _strings(entry, path):
                if _SURROGATE_RE.search(string):
                    self.surrogate = SchemaError(string_path, "string holds a lone surrogate")
                    return

    def edge_error(self, vertices: dict) -> SchemaError | None:
        """The first error of these edges, given the vertices: an edge
        whose id is a vertex's is a duplicate, as one whose id is an
        earlier edge's is."""
        if not vertices.keys().isdisjoint(self.props) or self.error_id in vertices:
            for i, x in enumerate([*self.props, self.error_id]):
                if x in vertices:
                    return SchemaError(f"/edges/{i}/id", f"duplicate id {x!r}")
        return self.error


def _document(text: str, search: bool):
    """The document text, decoded as json.loads decodes it, but that each
    member "vertices" or "edges" of a top-level object that is an array
    becomes an _Elements, read an element at a time.  Of a repeated key
    the last copy wins.  Raises ValueError, IndexError, StopIteration or
    RecursionError where the text is no JSON."""
    i = _skip(text).end()
    if text[i] != "{":
        doc, i = _scan(text, i)
    else:
        doc = {}
        i = _skip(text, i + 1).end()
        if text[i] != "}":
            while True:
                if text[i] != '"':
                    raise ValueError("no JSON object")
                key, i = _scan_key(text, i + 1)
                i = _skip(text, i).end()
                if text[i] != ":":
                    raise ValueError("no JSON object")
                i = _skip(text, i + 1).end()
                doc[key] = None  # an earlier copy is freed before this one is read
                if key in _DOCUMENT_KEYS and text[i] == "[":
                    doc[key] = _Elements(key, search)
                    i = doc[key].read(text, i)
                else:
                    doc[key], i = _scan(text, i)
                i = _skip(text, i).end()
                if text[i] != ",":
                    break
                i = _skip(text, i + 1).end()
            if text[i] != "}":
                raise ValueError("no JSON object")
        i += 1
    if _skip(text, i).end() != len(text):
        raise ValueError("extra data")
    return doc


def _schema_error(doc) -> SchemaError | None:
    """What is first wrong with the document _document read as doc, in
    this order: its key set; "vertices", then "edges", not being an
    array; the first bad vertex; the first bad edge; the first lone
    surrogate in document order."""
    if doc.__class__ is not dict or doc.keys() != _DOCUMENT_KEYS:
        return SchemaError("/", _shape_error(doc, _DOCUMENT_KEYS, "document"))
    vertices, edges = doc["vertices"], doc["edges"]
    if vertices.__class__ is not _Elements:
        return SchemaError("/vertices", "vertices must be an array")
    if edges.__class__ is not _Elements:
        return SchemaError("/edges", "edges must be an array")
    return (vertices.error or edges.edge_error(vertices.props)
            or next((a.surrogate for a in doc.values() if a.surrogate), None))


def parse_pg_json(text: str) -> PropertyGraph:
    """Parse a PG-JSON document; SchemaError names the offending path.

    The text is read in one pass, a vertex or an edge at a time: each is
    decoded by json's own scanner, checked, kept as ids and Property
    objects, and freed before the next, so the document's dict tree never
    exists whole.  The checks compare exact classes and whole key sets,
    and build a path only to keep an error.  When the text has an error,
    the reader still reads to its end, since which error it raises does
    not depend on where the errors stand in the text:
    - a JSON syntax error anywhere, as json.loads reports it;
    - then the document's key set, then "vertices" and "edges" not being
      arrays;
    - then the first bad vertex, then the first bad edge, whichever of
      the two arrays comes first in the text;
    - then the first lone surrogate.
    A repeated key takes its last copy, as under json.loads.  Its earlier
    copies are decoded but not kept; the one place this reader and
    json.loads could part is such a copy nested almost as deep as json
    allows, since the reader decodes it from a level or two nearer the
    top.  So a document whose brackets are not all the graph's is also
    read by json.loads, which raises where such a copy is too deep.
    """
    # Only a text with a lone surrogate, escaped or raw, has its strings
    # searched; ASCII text can hold no raw one, so it costs one fast scan.
    search = bool(_SURROGATE_ESCAPE_RE.search(text)
                  or not text.isascii() and _SURROGATE_RE.search(text))
    try:
        doc = _document(text, search)
    except (ValueError, IndexError, StopIteration, RecursionError) as exc:
        error = exc
    else:
        error = _schema_error(doc)
    # The graph's own brackets are the elements' and the document's three;
    # any others stand in strings or in dropped copies of repeated keys.
    if error is not None or (text.count("[") + text.count("{")
                             != 3 + doc["vertices"].brackets + doc["edges"].brackets):
        # A syntax error wins, and json.loads words it.  If json.loads
        # finds none, the error stands, even one the scanner raised.
        try:
            json.loads(text)
        except json.JSONDecodeError as exc:
            raise SchemaError("/", f"invalid JSON: {exc}") from exc
        except ValueError:  # json.loads reads integers with int(), which caps their length
            raise SchemaError("/", _too_long()) from None
        except RecursionError:
            raise SchemaError("/", "invalid JSON: arrays or objects nested too deeply") from None
        if error is not None:
            raise error
    del text  # a caller that passed a temporary frees it here, before the graph is built
    vertices, edges = doc["vertices"], doc["edges"]
    del doc
    props = vertices.props
    ids = frozenset(props)
    props.update(edges.props)
    return PropertyGraph(ids, edges.src.keys(), edges.src, edges.tgt, edges.lbl, props)


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
