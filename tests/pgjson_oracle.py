"""The PG-JSON reader as it was before it read one element at a time,
kept as an oracle: json.loads builds the whole dict tree, and one loop
checks it.  It shares the per-element checks of starpg.pgjson, so what it
pins is the reading order: which error a document raises when it breaks
several rules, and the graph when it breaks none.  tests/test_pgjson.py
checks that parse_pg_json agrees with it on every document it draws.
"""

from __future__ import annotations

import json

from starpg import PropertyGraph, SchemaError
from starpg.pgjson import (
    _DOCUMENT_KEYS,
    _EDGE_KEYS,
    _SURROGATE_ESCAPE_RE,
    _SURROGATE_RE,
    _VERTEX_KEYS,
    _parse_id,
    _parse_properties,
    _shape_error,
    _strings,
    _too_long,
)


def parse(text: str) -> PropertyGraph:
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

    props = {}
    src = {}
    tgt = {}
    lbl = {}
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

    if _SURROGATE_ESCAPE_RE.search(text) or not text.isascii() and _SURROGATE_RE.search(text):
        for path, string in _strings(doc, ""):
            if _SURROGATE_RE.search(string):
                raise SchemaError(path, "string holds a lone surrogate")
    return PropertyGraph(props.keys() - src.keys(), src.keys(), src, tgt, lbl, props)
