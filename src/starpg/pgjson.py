"""PG-JSON reading and writing.

The document shape is {"vertices": [...], "edges": [...]}; every element
carries an id and a property list, edges additionally src/tgt/label.
Values are tagged objects {"type": "string"|"integer"|"double"|"boolean",
"value": ...}.  Properties are arrays, so duplicate keys survive the trip.
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
# The key set of each well-formed object, which the fast path compares with.
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


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(path, message)


def _check_keys(obj: dict, path: str, required: set[str], optional: set[str]) -> None:
    for key in sorted(required - obj.keys()):
        raise SchemaError(path, f"missing key {key!r}")
    for key in sorted(obj.keys() - required - optional):
        raise SchemaError(path, f"unknown key {key!r}")


def _too_long(path: str) -> SchemaError:
    return SchemaError(path, f"integer longer than {sys.get_int_max_str_digits()} digits")


def _strings(x, path: str):
    """Every string in x with its path, in document order.  A checked
    document nests at most six levels deep."""
    if isinstance(x, str):
        yield path, x
    elif isinstance(x, (dict, list)):
        for key, value in x.items() if isinstance(x, dict) else enumerate(x):
            yield from _strings(value, f"{path}/{key}")


def _parse_value(obj, path: str):
    _require(isinstance(obj, dict), path, "value must be an object")
    _check_keys(obj, path, {"type", "value"}, set())
    kind = obj["type"]
    raw = obj["value"]
    if kind == "string":
        _require(isinstance(raw, str), path, "string value must be a JSON string")
        return Text(raw)
    if kind == "integer":
        if isinstance(raw, str):
            _require(bool(_INT_STRING_RE.fullmatch(raw)), path, f"malformed integer {raw!r}")
            try:
                return Integer(int(raw))
            except ValueError:
                raise _too_long(path) from None
        _require(isinstance(raw, int) and not isinstance(raw, bool), path,
                 "integer value must be a JSON number or digit string")
        return Integer(raw)
    if kind == "double":
        if isinstance(raw, str):
            _require(raw in ("INF", "-INF"), path, f"malformed double {raw!r}")
            return Double(float(raw))
        _require(isinstance(raw, (int, float)) and not isinstance(raw, bool), path,
                 "double value must be a JSON number")
        _require(raw == raw, path, "double value must not be NaN")  # only NaN differs from itself
        try:
            return Double(float(raw))
        except OverflowError:  # an integer token beyond the double range, read as 1e400 is
            return Double(math.inf if raw > 0 else -math.inf)
    if kind == "boolean":
        _require(isinstance(raw, bool), path, "boolean value must be true or false")
        return Boolean(raw)
    raise SchemaError(path, f"unknown value type {kind!r}")


def _well_formed_properties(entries) -> list[Property] | None:
    """The properties of a well-formed property array, None when any part
    of it needs a check: exact key sets and exact types only, so true is
    not an integer here, nor 1.0."""
    if entries.__class__ is not list:
        return None
    out = []
    for entry in entries:
        if entry.__class__ is not dict or entry.keys() != _PROPERTY_KEYS:
            return None
        key, value = entry["key"], entry["value"]
        if key.__class__ is not str or value.__class__ is not dict or value.keys() != _VALUE_KEYS:
            return None
        kind, raw = value["type"], value["value"]
        cls = raw.__class__
        if cls is str and kind == "string":
            out.append(Property(key, Text(raw)))
        elif cls is int and kind == "integer":
            out.append(Property(key, Integer(raw)))
        elif cls is float and kind == "double" and raw == raw:  # only NaN differs from itself
            out.append(Property(key, Double(raw)))
        elif cls is bool and kind == "boolean":
            out.append(Property(key, Boolean(raw)))
        else:
            return None
    return out


def _parse_properties(obj: dict, path: str) -> list[Property]:
    entries = obj.get("properties", [])
    _require(isinstance(entries, list), f"{path}/properties", "properties must be an array")
    out = []
    for i, entry in enumerate(entries):
        epath = f"{path}/properties/{i}"
        _require(isinstance(entry, dict), epath, "property must be an object")
        _check_keys(entry, epath, {"key", "value"}, set())
        _require(isinstance(entry["key"], str), f"{epath}/key", "key must be a string")
        out.append(Property(entry["key"], _parse_value(entry["value"], f"{epath}/value")))
    return out


def _parse_id(obj: dict, path: str, field: str) -> str:
    value = obj[field]
    _require(isinstance(value, str) and value != "", f"{path}/{field}",
             f"{field} must be a non-empty string")
    return value


def parse_pg_json(text: str) -> PropertyGraph:
    """Parse a PG-JSON document; SchemaError names the offending path."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    except ValueError:  # json.loads reads integers with int(), which caps their length
        raise _too_long("/") from None
    except RecursionError:
        raise SchemaError("/", "invalid JSON: arrays or objects nested too deeply") from None
    _require(isinstance(doc, dict), "/", "document must be an object")
    _check_keys(doc, "/", {"vertices", "edges"}, set())
    _require(isinstance(doc["vertices"], list), "/vertices", "vertices must be an array")
    _require(isinstance(doc["edges"], list), "/edges", "edges must be an array")

    # Each element is read by a fast path when it is well formed; otherwise,
    # or when the fast path cannot tell, the checked path below reads it
    # again from the start and raises the first error it finds.
    vertices: list[str] = []
    props: dict[str, list[Property]] = {}
    for i, entry in enumerate(doc["vertices"]):
        if entry.__class__ is dict and entry.keys() == _VERTEX_KEYS:
            vid = entry["id"]
            entries = _well_formed_properties(entry["properties"])
            if vid.__class__ is str and vid and vid not in props and entries is not None:
                vertices.append(vid)
                props[vid] = entries
                continue
        path = f"/vertices/{i}"
        _require(isinstance(entry, dict), path, "vertex must be an object")
        _check_keys(entry, path, {"id"}, {"properties"})
        vid = _parse_id(entry, path, "id")
        _require(vid not in props, f"{path}/id", f"duplicate id {vid!r}")
        vertices.append(vid)
        props[vid] = _parse_properties(entry, path)

    edges: list[str] = []
    src: dict[str, str] = {}
    tgt: dict[str, str] = {}
    lbl: dict[str, str] = {}
    for i, entry in enumerate(doc["edges"]):
        if entry.__class__ is dict and entry.keys() == _EDGE_KEYS:
            eid, source, target, label = entry["id"], entry["src"], entry["tgt"], entry["label"]
            entries = _well_formed_properties(entry["properties"])
            if (eid.__class__ is str and source.__class__ is str and target.__class__ is str
                    and label.__class__ is str and eid and source and target and eid not in props
                    and entries is not None):
                edges.append(eid)
                src[eid], tgt[eid], lbl[eid], props[eid] = source, target, label, entries
                continue
        path = f"/edges/{i}"
        _require(isinstance(entry, dict), path, "edge must be an object")
        _check_keys(entry, path, {"id", "src", "tgt", "label"}, {"properties"})
        eid = _parse_id(entry, path, "id")
        _require(eid not in props, f"{path}/id", f"duplicate id {eid!r}")
        edges.append(eid)
        src[eid] = _parse_id(entry, path, "src")
        tgt[eid] = _parse_id(entry, path, "tgt")
        label = entry["label"]
        _require(isinstance(label, str), f"{path}/label", "label must be a string")
        lbl[eid] = label
        props[eid] = _parse_properties(entry, path)

    # Only a text with a lone surrogate, escaped or raw, has its strings
    # searched; ASCII text can hold no raw one, so it costs one fast scan.
    if _SURROGATE_ESCAPE_RE.search(text) or not text.isascii() and _SURROGATE_RE.search(text):
        for path, string in _strings(doc, ""):
            _require(not _SURROGATE_RE.search(string), path, "string holds a lone surrogate")
    return PropertyGraph(vertices, edges, src, tgt, lbl, props)


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
