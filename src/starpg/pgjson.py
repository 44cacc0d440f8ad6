"""PG-JSON reading and writing.

The document shape is {"vertices": [...], "edges": [...]}; every element
carries an id and a property list, edges additionally src/tgt/label.
Values are tagged objects {"type": "string"|"integer"|"double"|"boolean",
"value": ...}.  Properties are arrays, so duplicate keys survive the trip.
Serialization sorts everything, making output byte-stable across runs.
"""

from __future__ import annotations

import json
import re

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
            return Integer(int(raw))
        _require(isinstance(raw, int) and not isinstance(raw, bool), path,
                 "integer value must be a JSON number or digit string")
        return Integer(raw)
    if kind == "double":
        if isinstance(raw, str):
            _require(raw in ("INF", "-INF"), path, f"malformed double {raw!r}")
            return Double(float(raw))
        _require(isinstance(raw, (int, float)) and not isinstance(raw, bool), path,
                 "double value must be a JSON number")
        return Double(float(raw))
    if kind == "boolean":
        _require(isinstance(raw, bool), path, "boolean value must be true or false")
        return Boolean(raw)
    raise SchemaError(path, f"unknown value type {kind!r}")


def _encode_value(value) -> dict:
    if isinstance(value, Text):
        return {"type": "string", "value": value.value}
    if isinstance(value, Integer):
        n = value.value
        return {"type": "integer", "value": n if abs(n) <= _SAFE_INT else str(n)}
    if isinstance(value, Double):
        d = value.value
        if d == float("inf"):
            return {"type": "double", "value": "INF"}
        if d == float("-inf"):
            return {"type": "double", "value": "-INF"}
        return {"type": "double", "value": d}
    return {"type": "boolean", "value": value.value}


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
    except RecursionError:
        raise SchemaError("/", "invalid JSON: arrays or objects nested too deeply") from None
    _require(isinstance(doc, dict), "/", "document must be an object")
    _check_keys(doc, "/", {"vertices", "edges"}, set())
    _require(isinstance(doc["vertices"], list), "/vertices", "vertices must be an array")
    _require(isinstance(doc["edges"], list), "/edges", "edges must be an array")

    vertices: list[str] = []
    props: dict[str, list[Property]] = {}
    for i, entry in enumerate(doc["vertices"]):
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

    return PropertyGraph(vertices, edges, src, tgt, lbl, props)


def serialize_pg_json(g: PropertyGraph) -> str:
    """Serialize with vertices, edges, and properties in sorted order."""

    def properties(x: str) -> list[dict]:
        return [
            {"key": p.key, "value": _encode_value(p.value)}
            for p in sorted(g.properties(x), key=property_sort_key)
        ]

    doc = {
        "vertices": [{"id": v, "properties": properties(v)} for v in sorted(g.vertices)],
        "edges": [
            {
                "id": e,
                "src": g.source(e),
                "tgt": g.target(e),
                "label": g.label(e),
                "properties": properties(e),
            }
            for e in sorted(g.edges)
        ],
    }
    return json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
