"""PG-JSON reading and writing.

The document shape is {"vertices": [...], "edges": [...]}; every element
carries an id and a property list, edges additionally src/tgt/label.
Values are tagged objects {"type": "string"|"integer"|"double"|"boolean",
"value": ...}.  Properties are arrays, so duplicate keys survive the trip.
The reader has one path: it checks each object as it reads it, and works
out which key is missing or unknown only when the key set is wrong.
Serialization sorts everything, making output byte-stable across runs.
"""

from __future__ import annotations

import json
import math
import re
import sys

from .pg import (
    Boolean,
    Double,
    Integer,
    Property,
    PropertyGraph,
    Text,
    property_sort_key,
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


def _too_long() -> str:
    return f"integer longer than {sys.get_int_max_str_digits()} digits"


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


def parse_pg_json(text: str) -> PropertyGraph:
    """Parse a PG-JSON document; SchemaError names the offending path.

    One pass reads each element and checks it as it goes, in document
    order, so the error raised is the first one found.  The checks compare
    exact classes and whole key sets, and build a path only to raise.
    """
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
    if doc["vertices"].__class__ is not list:
        raise SchemaError("/vertices", "vertices must be an array")
    if doc["edges"].__class__ is not list:
        raise SchemaError("/edges", "edges must be an array")

    props: dict[str, list[Property]] = {}
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    lbl: dict[str, str] = {}
    for array, keys, kind in (("vertices", _VERTEX_KEYS, "vertex"), ("edges", _EDGE_KEYS, "edge")):
        for i, entry in enumerate(doc[array]):
            path = f"/{array}/{i}"
            if entry.__class__ is not dict or entry.keys() != keys:
                message = _shape_error(entry, keys, kind)
                if message:
                    raise SchemaError(path, message)
            x = _parse_id(entry, path, "id")
            if x in props:
                raise SchemaError(f"{path}/id", f"duplicate id {x!r}")
            if keys is _EDGE_KEYS:
                src[x] = _parse_id(entry, path, "src")
                tgt[x] = _parse_id(entry, path, "tgt")
                label = entry["label"]
                if label.__class__ is not str:
                    raise SchemaError(f"{path}/label", "label must be a string")
                lbl[x] = label
            props[x] = _parse_properties(entry, path)

    # Only a text with a lone surrogate, escaped or raw, has its strings
    # searched; ASCII text can hold no raw one, so it costs one fast scan.
    if _SURROGATE_ESCAPE_RE.search(text) or not text.isascii() and _SURROGATE_RE.search(text):
        for path, string in _strings(doc, ""):
            if _SURROGATE_RE.search(string):
                raise SchemaError(path, "string holds a lone surrogate")
    return PropertyGraph(props.keys() - src.keys(), src.keys(), src, tgt, lbl, props)


# The fixed layout of serialize_pg_json, as json.dumps(..., indent=2) lays
# out the document; each %s is already JSON text.
_DOCUMENT = """\
{
  "vertices": %s,
  "edges": %s
}
"""
_VERTEX = """\
    {
      "id": %s,
      "properties": %s
    }"""
_EDGE = """\
    {
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


def _array(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, closed at indent; [] when empty."""
    return "[\n" + ",\n".join(items) + "\n" + indent + "]" if items else "[]"


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


def serialize_pg_json(g: PropertyGraph) -> str:
    """Serialize with vertices, edges, and properties in sorted order.

    The layout is fixed: the text equals json.dumps of the same document
    with indent=2, ensure_ascii=False and allow_nan=False, plus a final
    newline, but it is written directly rather than through a dict tree.
    """

    def properties(x: str) -> str:
        ps = g.properties(x)
        if len(ps) > 1:
            ps = sorted(ps, key=property_sort_key)
        return _array([_property_json(p) for p in ps], "      ")

    vertices = [_VERTEX % (_quote(v), properties(v)) for v in sorted(g.vertices)]
    edges = [
        _EDGE % (_quote(e), _quote(g.source(e)), _quote(g.target(e)), _quote(g.label(e)),
                 properties(e))
        for e in sorted(g.edges)
    ]
    return _DOCUMENT % (_array(vertices, "  "), _array(edges, "  "))
