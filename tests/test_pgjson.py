import json
import math
import random
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from starpg import (
    Boolean,
    Double,
    Integer,
    PgValidationError,
    Property,
    PropertyGraph,
    SchemaError,
    Text,
    parse_pg_json,
    serialize_pg_json,
)
from starpg.pg import property_sort_key
from conftest import build_kubrick_pg
import pgjson_oracle
import randgen


def _encode_value_oracle(value) -> dict:
    if isinstance(value, Text):
        return {"type": "string", "value": value.value}
    if isinstance(value, Integer):
        n = value.value
        return {"type": "integer", "value": n if abs(n) <= 2**53 - 1 else str(n)}
    if isinstance(value, Double):
        d = value.value
        if d == float("inf"):
            return {"type": "double", "value": "INF"}
        if d == float("-inf"):
            return {"type": "double", "value": "-INF"}
        return {"type": "double", "value": d}
    return {"type": "boolean", "value": value.value}


def _json_dumps_oracle(g: PropertyGraph) -> str:
    """serialize_pg_json as first written: a dict tree through json.dumps.
    The direct writer must give the same text."""

    def properties(x: str) -> list[dict]:
        return [
            {"key": p.key, "value": _encode_value_oracle(p.value)}
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


# Strings with quotes, backslashes, control characters and non-ASCII text.
_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001f600'),
                max_size=6) | st.text(max_size=6)
_VALUES = st.one_of(
    st.builds(Text, _TEXT),
    st.builds(Integer, st.integers() | st.sampled_from(
        [2**53 - 1, 2**53, -(2**53 - 1), -(2**53), -(2**60), 10**30])),
    st.builds(Double, st.floats(allow_nan=False) | st.sampled_from(
        [math.inf, -math.inf, -0.0, 1e300, 5e-324, 2.0**53])),
    st.builds(Boolean, st.booleans()),
)
_PROPERTIES = st.lists(st.builds(Property, _TEXT, _VALUES), max_size=4)


@st.composite
def _property_graphs(draw):
    ids = draw(st.lists(_TEXT.filter(bool), unique=True, max_size=8))
    vertices = ids[: draw(st.integers(0, len(ids)))]
    edges = ids[len(vertices):] if vertices else []
    src = {e: draw(st.sampled_from(vertices)) for e in edges}
    tgt = {e: draw(st.sampled_from(vertices)) for e in edges}
    lbl = {e: draw(_TEXT) for e in edges}
    props = {x: draw(_PROPERTIES) for x in vertices + edges}
    return PropertyGraph(vertices, edges, src, tgt, lbl, props)


def err(text: str) -> SchemaError:
    with pytest.raises(SchemaError) as exc:
        parse_pg_json(text)
    return exc.value


def _doc(vertices=(), edges=()) -> str:
    return json.dumps({"vertices": list(vertices), "edges": list(edges)})


def _with_property(entry) -> str:
    """A document whose one vertex "v" holds one property entry."""
    return _doc([{"id": "v", "properties": [entry]}])


def _with_value(value) -> str:
    """A document whose one vertex "v" holds one property with this value
    object."""
    return _with_property({"key": "k", "value": value})


def _with_edge(**fields) -> str:
    """A document with vertex "v" and one edge from it to itself, its
    fields replaced or, when None, dropped."""
    edge = {"id": "e", "src": "v", "tgt": "v", "label": "l", "properties": []}
    edge.update(fields)
    return _doc([{"id": "v"}], [{k: x for k, x in edge.items() if x is not None}])


_V = "/vertices/0"
_VALUE = "/vertices/0/properties/0/value"
_DIGITS = sys.get_int_max_str_digits()
_TOO_LONG = f"integer longer than {_DIGITS} digits"

# Every SchemaError the reader raises, as (document, path, message).  Where
# one document breaks several rules, the row pins which error is reported.
SCHEMA_ERRORS = {
    # the document
    "invalid-json": ("not json", "/", "invalid JSON: Expecting value: line 1 column 1 (char 0)"),
    "nested-too-deeply": ("[" * 100_000, "/", "invalid JSON: arrays or objects nested too deeply"),
    "number-too-long": ('{"vertices": [], "edges": [], "n": 1' + "0" * _DIGITS + "}", "/",
                        _TOO_LONG),
    "document-not-object": ("[]", "/", "document must be an object"),
    "document-missing-edges": ('{"vertices": []}', "/", "missing key 'edges'"),
    "document-missing-both": ("{}", "/", "missing key 'edges'"),
    "document-unknown-key": ('{"vertices": [], "edges": [], "labels": []}', "/",
                             "unknown key 'labels'"),
    "document-missing-and-unknown": ('{"vertices": [], "labels": []}', "/", "missing key 'edges'"),
    "vertices-not-array": ('{"vertices": {}, "edges": []}', "/vertices", "vertices must be an array"),
    "edges-not-array": ('{"vertices": [], "edges": null}', "/edges", "edges must be an array"),
    "vertices-checked-before-edges": ('{"vertices": 1, "edges": 1}', "/vertices",
                                      "vertices must be an array"),
    # vertices
    "vertex-not-object": (_doc(["v"]), _V, "vertex must be an object"),
    "vertex-missing-id": (_doc([{"properties": []}]), _V, "missing key 'id'"),
    "vertex-unknown-key": (_doc([{"id": "v", "label": "x"}]), _V, "unknown key 'label'"),
    "vertex-missing-id-and-unknown-key": (_doc([{"label": "x"}]), _V, "missing key 'id'"),
    "vertex-id-number": (_doc([{"id": 5}]), f"{_V}/id", "id must be a non-empty string"),
    "vertex-id-empty": (_doc([{"id": ""}]), f"{_V}/id", "id must be a non-empty string"),
    "vertex-id-duplicate": (_doc([{"id": "v"}, {"id": "w"}, {"id": "v"}]), "/vertices/2/id",
                            "duplicate id 'v'"),
    "vertex-id-before-properties": (_doc([{"id": 1, "properties": 1}]), f"{_V}/id",
                                    "id must be a non-empty string"),
    "vertex-second-bad": (_doc([{"id": "v"}, {"id": "w", "properties": 1}]),
                          "/vertices/1/properties", "properties must be an array"),
    "properties-not-array": (_doc([{"id": "v", "properties": {}}]), f"{_V}/properties",
                             "properties must be an array"),
    # properties
    "property-not-object": (_with_property(["k", 1]), f"{_V}/properties/0",
                            "property must be an object"),
    "property-missing-value": (_with_property({"key": "k"}), f"{_V}/properties/0",
                               "missing key 'value'"),
    "property-missing-both": (_with_property({}), f"{_V}/properties/0", "missing key 'key'"),
    "property-extra-key": (_with_property({"key": "k", "value": {"type": "string", "value": "x"},
                                           "note": 1}),
                           f"{_V}/properties/0", "unknown key 'note'"),
    "property-key-number": (_with_property({"key": 1, "value": {"type": "string", "value": "x"}}),
                            f"{_V}/properties/0/key", "key must be a string"),
    "property-key-before-value": (_with_property({"key": None, "value": 1}),
                                  f"{_V}/properties/0/key", "key must be a string"),
    "property-second-bad": (_doc([{"id": "v", "properties": [
        {"key": "a", "value": {"type": "boolean", "value": True}},
        {"key": "b", "value": {"type": "boolean", "value": 0}}]}]),
        f"{_V}/properties/1/value", "boolean value must be true or false"),
    # values
    "value-not-object": (_with_value("x"), _VALUE, "value must be an object"),
    "value-missing-value": (_with_value({"type": "string"}), _VALUE, "missing key 'value'"),
    "value-missing-type": (_with_value({"value": "x"}), _VALUE, "missing key 'type'"),
    "value-extra-key": (_with_value({"type": "string", "value": "x", "lang": "en"}), _VALUE,
                        "unknown key 'lang'"),
    "value-extra-key-and-bad-type": (_with_value({"type": "integer", "value": True, "a": 1}),
                                     _VALUE, "unknown key 'a'"),
    "value-unknown-type": (_with_value({"type": "date", "value": "2001-01-01"}), _VALUE,
                           "unknown value type 'date'"),
    "value-type-number": (_with_value({"type": 5, "value": 5}), _VALUE, "unknown value type 5"),
    "value-type-list": (_with_value({"type": ["string"], "value": "x"}), _VALUE,
                        "unknown value type ['string']"),
    "string-number": (_with_value({"type": "string", "value": 1}), _VALUE,
                      "string value must be a JSON string"),
    "string-null": (_with_value({"type": "string", "value": None}), _VALUE,
                    "string value must be a JSON string"),
    "integer-true": (_with_value({"type": "integer", "value": True}), _VALUE,
                     "integer value must be a JSON number or digit string"),
    "integer-one-point-zero": (_with_value({"type": "integer", "value": 1.0}), _VALUE,
                               "integer value must be a JSON number or digit string"),
    "integer-fraction": (_with_value({"type": "integer", "value": 1.5}), _VALUE,
                         "integer value must be a JSON number or digit string"),
    "integer-null": (_with_value({"type": "integer", "value": None}), _VALUE,
                     "integer value must be a JSON number or digit string"),
    "integer-string-fraction": (_with_value({"type": "integer", "value": "1.5"}), _VALUE,
                                "malformed integer '1.5'"),
    "integer-string-empty": (_with_value({"type": "integer", "value": ""}), _VALUE,
                             "malformed integer ''"),
    "integer-string-spaces": (_with_value({"type": "integer", "value": " 1"}), _VALUE,
                              "malformed integer ' 1'"),
    "integer-string-too-long": (_with_value({"type": "integer", "value": "1" * (_DIGITS + 1)}),
                                _VALUE, _TOO_LONG),
    "double-string-inf": (_with_value({"type": "double", "value": "inf"}), _VALUE,
                          "malformed double 'inf'"),
    "double-string-plus-inf": (_with_value({"type": "double", "value": "+INF"}), _VALUE,
                               "malformed double '+INF'"),
    "double-string-number": (_with_value({"type": "double", "value": "1.5"}), _VALUE,
                             "malformed double '1.5'"),
    "double-true": (_with_value({"type": "double", "value": True}), _VALUE,
                    "double value must be a JSON number"),
    "double-null": (_with_value({"type": "double", "value": None}), _VALUE,
                    "double value must be a JSON number"),
    "double-nan": (_with_value({"type": "double", "value": math.nan}), _VALUE,
                   "double value must not be NaN"),
    "boolean-string": (_with_value({"type": "boolean", "value": "true"}), _VALUE,
                       "boolean value must be true or false"),
    "boolean-number": (_with_value({"type": "boolean", "value": 1}), _VALUE,
                       "boolean value must be true or false"),
    # edges
    "edge-not-object": (_doc([], [[]]), "/edges/0", "edge must be an object"),
    "edge-missing-label": (_with_edge(label=None), "/edges/0", "missing key 'label'"),
    "edge-missing-src-and-tgt": (_with_edge(src=None, tgt=None), "/edges/0", "missing key 'src'"),
    "edge-unknown-key": (_with_edge(weight=1), "/edges/0", "unknown key 'weight'"),
    "edge-id-number": (_with_edge(id=1), "/edges/0/id", "id must be a non-empty string"),
    "edge-id-of-a-vertex": (_with_edge(id="v"), "/edges/0/id", "duplicate id 'v'"),
    "edge-id-of-an-edge": (_doc([{"id": "v"}], [{"id": "e", "src": "v", "tgt": "v",
                                                 "label": "l"}] * 2),
                           "/edges/1/id", "duplicate id 'e'"),
    "edge-src-empty": (_with_edge(src=""), "/edges/0/src", "src must be a non-empty string"),
    "edge-tgt-number": (_with_edge(tgt=2), "/edges/0/tgt", "tgt must be a non-empty string"),
    "edge-src-before-tgt": (_with_edge(src=1, tgt=2), "/edges/0/src",
                            "src must be a non-empty string"),
    "edge-label-number": (_with_edge(label=3), "/edges/0/label", "label must be a string"),
    "edge-properties-not-array": (_with_edge(properties="x"), "/edges/0/properties",
                                  "properties must be an array"),
    "edge-value": (_with_edge(properties=[{"key": "k", "value": {"type": "integer",
                                                                 "value": False}}]),
                   "/edges/0/properties/0/value",
                   "integer value must be a JSON number or digit string"),
    # strings
    "lone-surrogate-in-key": (_with_property({"key": "\udc00",
                                              "value": {"type": "boolean", "value": True}}),
                              f"{_V}/properties/0/key", "string holds a lone surrogate"),
    "lone-surrogate-after-shape": (_doc([{"id": "\ud800"}, {"id": 1}]), "/vertices/1/id",
                                   "id must be a non-empty string"),
}

# Values the reader accepts where a fast path could go wrong, with the
# value each gives.
ACCEPTED_VALUES = {
    "integer-beyond-2**53": ({"type": "integer", "value": 2**53 + 1}, Integer(2**53 + 1)),
    "integer-negative-beyond-2**53": ({"type": "integer", "value": -(2**60)}, Integer(-(2**60))),
    "integer-digit-string": ({"type": "integer", "value": "+0012"}, Integer(12)),
    "integer-max-digits": ({"type": "integer", "value": "9" * _DIGITS}, Integer(10**_DIGITS - 1)),
    "double-from-integer": ({"type": "double", "value": 3}, Double(3.0)),
    "double-from-huge-integer": ({"type": "double", "value": 10**400}, Double(math.inf)),
    "double-from-huge-negative-integer": ({"type": "double", "value": -(10**400)},
                                          Double(-math.inf)),
    "double-negative-zero": ({"type": "double", "value": -0.0}, Double(0.0)),
    "double-INF": ({"type": "double", "value": "INF"}, Double(math.inf)),
    "double-minus-INF": ({"type": "double", "value": "-INF"}, Double(-math.inf)),
    "boolean-false": ({"type": "boolean", "value": False}, Boolean(False)),
    "string-empty": ({"type": "string", "value": ""}, Text("")),
    "keys-in-another-order": ({"value": "x", "type": "string"}, Text("x")),
}


class TestSchemaErrorTable:
    @pytest.mark.parametrize("name", SCHEMA_ERRORS)
    def test_error_path_and_message(self, name):
        text, path, message = SCHEMA_ERRORS[name]
        e = err(text)
        assert (e.path, e.message) == (path, message)
        assert str(e) == f"{path}: {message}"

    @pytest.mark.parametrize("name", ACCEPTED_VALUES)
    def test_accepted_value(self, name):
        value, want = ACCEPTED_VALUES[name]
        assert parse_pg_json(_with_value(value)).properties("v") == (Property("k", want),)

    def test_keys_in_another_order(self):
        text = json.dumps({
            "edges": [{"properties": [{"value": {"value": 1, "type": "integer"}, "key": "w"}],
                       "label": "l", "tgt": "v", "src": "v", "id": "e"}],
            "vertices": [{"properties": [], "id": "v"}],
        })
        g = parse_pg_json(text)
        assert g == PropertyGraph(["v"], ["e"], {"e": "v"}, {"e": "v"}, {"e": "l"},
                                  {"e": [Property("w", Integer(1))]})


class TestParse:
    def test_kubrick_file(self, data_dir, kubrick_pg):
        text = (data_dir / "kubrick.pg.json").read_text(encoding="utf-8")
        assert parse_pg_json(text) == kubrick_pg

    def test_empty_graph(self):
        assert parse_pg_json('{"vertices": [], "edges": []}') == PropertyGraph()

    def test_value_types(self):
        text = json.dumps({
            "vertices": [{
                "id": "v1",
                "properties": [
                    {"key": "t", "value": {"type": "string", "value": "x"}},
                    {"key": "i", "value": {"type": "integer", "value": 3}},
                    {"key": "d", "value": {"type": "double", "value": 0.5}},
                    {"key": "b", "value": {"type": "boolean", "value": True}},
                ],
            }],
            "edges": [],
        })
        g = parse_pg_json(text)
        assert g.properties("v1") == (
            Property("b", Boolean(True)),
            Property("d", Double(0.5)),
            Property("i", Integer(3)),
            Property("t", Text("x")),
        )

    def test_big_integer_as_string(self):
        text = json.dumps({
            "vertices": [{
                "id": "v1",
                "properties": [
                    {"key": "n", "value": {"type": "integer", "value": str(2**60)}}
                ],
            }],
            "edges": [],
        })
        g = parse_pg_json(text)
        assert g.properties("v1") == (Property("n", Integer(2**60)),)

    def test_infinities_as_strings(self):
        text = json.dumps({
            "vertices": [{
                "id": "v1",
                "properties": [
                    {"key": "a", "value": {"type": "double", "value": "INF"}},
                    {"key": "b", "value": {"type": "double", "value": "-INF"}},
                ],
            }],
            "edges": [],
        })
        g = parse_pg_json(text)
        assert Property("a", Double(math.inf)) in g.properties("v1")
        assert Property("b", Double(-math.inf)) in g.properties("v1")

    def test_integer_accepts_only_integral_json(self):
        base = {"vertices": [{"id": "v", "properties": [
            {"key": "k", "value": {"type": "integer", "value": 1.5}}]}], "edges": []}
        e = err(json.dumps(base))
        assert "/vertices/0/properties/0/value" in e.path

    def test_boolean_must_be_json_bool(self):
        base = {"vertices": [{"id": "v", "properties": [
            {"key": "k", "value": {"type": "boolean", "value": "true"}}]}], "edges": []}
        err(json.dumps(base))


class TestSchemaErrors:
    def test_invalid_json_reports_root(self):
        e = err("not json at all")
        assert e.path == "/"

    def test_root_must_be_object(self):
        assert err("[]").path == "/"

    def test_missing_top_level_keys(self):
        e = err('{"vertices": []}')
        assert "edges" in str(e)

    def test_unknown_top_level_key(self):
        e = err('{"vertices": [], "edges": [], "labels": []}')
        assert "labels" in str(e)

    def test_vertex_entry_path(self):
        e = err('{"vertices": [{"properties": []}], "edges": []}')
        assert e.path == "/vertices/0"

    def test_edge_entry_path(self):
        e = err(json.dumps({
            "vertices": [{"id": "v", "properties": []}],
            "edges": [{"id": "e", "src": "v", "tgt": "v", "properties": []}],
        }))
        assert e.path == "/edges/0"
        assert "label" in str(e)

    def test_property_entry_path(self):
        e = err(json.dumps({
            "vertices": [{"id": "v", "properties": [{"key": "k"}]}],
            "edges": [],
        }))
        assert e.path == "/vertices/0/properties/0"

    def test_unknown_value_type_tag(self):
        e = err(json.dumps({
            "vertices": [{"id": "v", "properties": [
                {"key": "k", "value": {"type": "date", "value": "2001-01-01"}}]}],
            "edges": [],
        }))
        assert "date" in str(e)

    def test_duplicate_vertex_ids(self):
        e = err(json.dumps({
            "vertices": [{"id": "v", "properties": []}, {"id": "v", "properties": []}],
            "edges": [],
        }))
        assert "duplicate" in str(e)

    def test_duplicate_edge_ids(self):
        e = err(json.dumps({
            "vertices": [{"id": "v", "properties": []}],
            "edges": [
                {"id": "e", "src": "v", "tgt": "v", "label": "l", "properties": []},
                {"id": "e", "src": "v", "tgt": "v", "label": "m", "properties": []},
            ],
        }))
        assert "duplicate" in str(e)

    def test_id_must_be_string(self):
        e = err('{"vertices": [{"id": 5, "properties": []}], "edges": []}')
        assert e.path.startswith("/vertices/0")

    @pytest.mark.parametrize("ensure_ascii", [True, False], ids=["escaped", "raw"])
    def test_lone_surrogate_in_text_of_a_caller(self, ensure_ascii):
        # Decoded UTF-8 holds no surrogate, but a caller's str may hold a
        # raw one as well as its escape; "é" keeps the raw text non-ASCII.
        e = err(json.dumps({"vertices": [{"id": "é", "properties": [
            {"key": "k", "value": {"type": "string", "value": "a\udbffb"}}]}], "edges": []},
            ensure_ascii=ensure_ascii))
        assert (e.path, e.message) == ("/vertices/0/properties/0/value/value",
                                       "string holds a lone surrogate")

    def test_dangling_edge_is_a_domain_error(self):
        text = json.dumps({
            "vertices": [{"id": "v", "properties": []}],
            "edges": [{"id": "e", "src": "v", "tgt": "ghost", "label": "l",
                       "properties": []}],
        })
        with pytest.raises(PgValidationError):
            parse_pg_json(text)


def _outcome(parse, text: str):
    """The graph parse reads from text, or the class, path and message of
    its error."""
    try:
        return parse(text)
    except SchemaError as e:
        return SchemaError, e.path, e.message
    except PgValidationError as e:
        return type(e), str(e)


# Values that break one rule of an element, a property or a value.
_BAD_IDS = [1, "", None, "\ud800"]
_BAD_PROPERTIES = [
    "x", {}, [1], [{"key": "k"}], [{"key": 1, "value": {"type": "string", "value": "x"}}],
    [{"key": "k", "value": {"type": "integer", "value": True}}],
    [{"key": "k", "value": {"type": "date", "value": "x"}}],
    [{"key": "k", "value": {"type": "string", "value": "a\udfffb"}}],
    [{"key": "\ud800", "value": {"type": "boolean", "value": False}}],
    [{"key": "k", "value": {"type": [[[[]]]], "value": 1}}],
]


def _mutate_element(rng: random.Random, entry: dict, ids: list[str]):
    """entry, a vertex or an edge, with one thing changed; most changes
    break a rule."""
    if not isinstance(entry, dict):
        return entry
    entry = dict(entry)
    change = rng.randrange(8)
    if change == 0:
        return rng.choice(["v1", 1, [], None])
    if change == 1:
        del entry[rng.choice(sorted(entry))]
    elif change == 2:
        entry[rng.choice(["label", "weight", "src"])] = "x"
    elif change == 3:
        entry["id"] = rng.choice(_BAD_IDS + ids)
    elif change == 4:
        entry["properties"] = rng.choice(_BAD_PROPERTIES)
    elif change == 5:
        entry[rng.choice(["src", "tgt", "label"])] = rng.choice(_BAD_IDS + ids + ["ghost"])
    elif change == 6:
        entry["properties"] = [*entry.get("properties", []), *rng.choice(_BAD_PROPERTIES[2:])]
    else:
        entry["id"] = f"{entry.get('id')}\udc00"
    return entry


def _mutated_document(rng: random.Random) -> str:
    """The text of a random valid document, changed: its elements, its
    top-level members (reordered, repeated, dropped, added or of another
    type) and its text (truncated, or a character put in)."""
    doc = json.loads(serialize_pg_json(randgen.random_property_graph(rng)))
    ids = [x["id"] for x in doc["vertices"] + doc["edges"]]

    def mutated(array: list) -> list:
        array = list(array)
        for _ in range(rng.choice([0, 0, 1, 2])):
            if array:
                i = rng.randrange(len(array))
                array[i] = _mutate_element(rng, array[i], ids)
        return array

    members = [("vertices", mutated(doc["vertices"])), ("edges", mutated(doc["edges"]))]
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        change = rng.randrange(5)
        if change == 0:
            rng.shuffle(members)
        elif change == 1 and members:
            key, array = rng.choice(members)
            copy = (key, mutated(array) if isinstance(array, list) else [])
            members.insert(rng.randrange(len(members) + 1), copy)
        elif change == 2 and members:
            members.pop(rng.randrange(len(members)))
        elif change == 3:
            members.insert(rng.randrange(len(members) + 1), ("labels", []))
        elif members:
            i = rng.randrange(len(members))
            members[i] = (members[i][0], rng.choice([{}, None, "[]", 1, [[]] * 2000]))
    ascii_only = rng.random() < 0.5
    indent = rng.choice([None, 2])
    text = "{" + ", ".join(f"{json.dumps(key)}: "
                           f"{json.dumps(value, ensure_ascii=ascii_only, indent=indent)}"
                           for key, value in members) + "}"
    change = rng.randrange(10)
    if change == 0:
        text = text[:rng.randrange(len(text))]
    elif change == 1:
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice([",", "]", "}", "[", '"', " ", "\ufeff", "1"]) + text[i:]
    elif change == 2:
        text = "[" * 1500 + text
    return text


class TestReaderOracle:
    """parse_pg_json against the reader it replaced, which json.loads the
    whole document first (tests/pgjson_oracle.py): the same graph, or the
    same error at the same path."""

    def test_mutated_documents(self):
        rng = random.Random(61)
        outcomes = {"graph": 0, "schema": 0, "syntax": 0}
        for _ in range(1500):
            text = _mutated_document(rng)
            got = _outcome(parse_pg_json, text)
            assert got == _outcome(pgjson_oracle.parse, text), text
            if isinstance(got, PropertyGraph):
                outcomes["graph"] += 1
            elif got[0] is SchemaError:
                outcomes["syntax" if got[2].startswith("invalid JSON") else "schema"] += 1
        assert min(outcomes.values()) >= 100, outcomes

    def test_planted_elements(self):
        """Valid documents with a valid vertex or edge planted where no
        element belongs: as a property's value or entry, in the dropped
        first copy of a repeated key, in an element or at the top level,
        or in the other array.  The streamed path decodes and checks it as
        it does any element, yet the graph must be json.loads's."""
        rng = random.Random(71)
        kinds = dict.fromkeys(["value", "entry", "element copy", "top-level copy", "other array"], 0)
        for _ in range(500):
            doc = json.loads(serialize_pg_json(randgen.random_property_graph(rng)))
            fresh = rng.random() < 0.8
            name = rng.choice(["vertices", "edges"])
            planted = ({"id": "p" if fresh else "v1", "properties": []} if name == "vertices" else
                       {"id": "p" if fresh else "e1", "src": "v1", "tgt": "v1", "label": "l"})
            elements = doc["vertices"] + doc["edges"]
            kind = rng.choice(sorted(kinds))
            if kind == "value" and not any(x["properties"] for x in elements):
                kind = "entry"
            kinds[kind] += 1
            if kind == "value":
                rng.choice([p for x in elements for p in x["properties"]])["value"] = planted
            elif kind == "entry":
                properties = rng.choice(elements)["properties"]
                properties.insert(rng.randrange(len(properties) + 1), planted)
            elif kind == "element copy":
                array = rng.choice([a for a in doc.values() if a])
                i = rng.randrange(len(array))
                array[i] = {"copy": None, **array[i]}
            elif kind == "other array":
                array = doc["edges" if name == "vertices" else "vertices"]
                array.insert(rng.randrange(len(array) + 1), planted)
            copy = json.dumps([planted])
            text = json.dumps(doc, ensure_ascii=rng.random() < 0.5).replace(
                '"copy": null', f'"properties": {copy}')
            if kind == "top-level copy":
                text = f'{{"{name}": {copy}, {text[1:]}'
            assert _outcome(parse_pg_json, text) == _outcome(pgjson_oracle.parse, text), text
        assert min(kinds.values()) >= 50, kinds

    @pytest.mark.parametrize("text", [
        '{"edges": [{"id": "v", "src": "v", "tgt": "v", "label": "l"}], "vertices": [{"id": "v"}]}',
        '{"edges": [{"id": "e", "src": "v", "tgt": "v", "label": 1}], "vertices": [{"id": "e"}]}',
        '{"edges": [{"id": "\\ud800", "src": "v", "tgt": "v", "label": "l"}], '
        '"vertices": [{"id": "\\udc00"}]}',
        '{"vertices": [{"id": 1}], "edges": [], "vertices": [{"id": "v"}]}',
        '{"vertices": [{"id": "v"}], "edges": [{"id": "v", "src": "v", "tgt": "v", "label": "l"}],'
        ' "vertices": [{"id": "w"}]}',
        '{"vertices": [], "edges": 1, "edges": []}',
        '{"vertices": [], "edges": [], "vertices": 1}',
        '{"vertices": [], "edges": [], "edges": [}',
        '{"vertices": [{"id": "v"}], "edges": []} x',
        '\ufeff{"vertices": [], "edges": []}',
        ' \t\r\n{ \n"vertices" :[ ] ,"edges":[]\n}\n ',
        '{"vertices": [{"id": "v"},], "edges": []}',
        '{"vertices": [{"id": "v"}, {"id": "v", "properties": 1}], "edges": []',
        "",
        "{",
        '{"vertices": [], "edges": [{"id": "e", "src": "v", "tgt": "v", "label": "l"}]}',
        '{"vertices": [{"id": "[v", "properties": [{"key": "{k", "value": {"type": "string", '
        '"value": "[{"}}]}], "edges": [{"id": "e", "src": "[v", "tgt": "[v", "label": "{"}]}',
        '{"vertices": [{"id": 1, "id": "v"}], "edges": []}',
        '{"vertices": [{"id": "v", "properties": [{"id": "w"}], "properties": []}], "edges": []}',
        '{"vertices": [{"id": "w"}], "vertices": [{"id": "v"}], "edges": []}',
        '{"vertices": [{"id": "e", "src": "v", "tgt": "v", "label": "l"}], "edges": [{"id": "v"}]}',
        '{"vertices": [null], "edges": []}',
        _with_value({"id": "w", "properties": []}),
        '{"vertices": [{"id": "v", "properties": [{"key": "\\ud800", "value": {"type": "boolean", '
        '"value": true}}], "properties": []}], "edges": []}',
    ])
    def test_documents(self, text):
        assert _outcome(parse_pg_json, text) == _outcome(pgjson_oracle.parse, text)

    @pytest.mark.parametrize("depth", [10, 500, *range(900, 1000, 4), 5000])
    def test_deep_nesting(self, depth):
        # Where json.loads runs out of recursion depends on the caller's
        # stack, so both readers are called from frames of the same depth,
        # and the depths cover the limit's neighbourhood.  The last four
        # documents repeat a key: its dropped first copy is still nested
        # too deeply for json.loads.
        nested = "[" * depth + "]" * depth
        for text in (nested, f'{{"vertices": [], "edges": [], "x": {nested}}}',
                     f'{{"vertices": [{nested}], "edges": []}}',
                     f'{{"vertices": [{{"id": "v", "x": {nested}}}], "edges": []}}',
                     _with_value({"type": "t", "value": 1}).replace('"t"', nested),
                     f'{{"vertices": [{nested}], "vertices": [], "edges": []}}',
                     f'{{"vertices": {nested}, "edges": [], "vertices": []}}',
                     f'{{"edges": [], "vertices": [{{"id": {nested}, "id": "v"}}]}}',
                     _with_value({"type": "t", "value": True})
                     .replace('"t"', f'{nested}, "type": "boolean"')):
            assert _outcome(parse_pg_json, text) == _outcome(pgjson_oracle.parse, text)


class TestReaderMemory:
    @pytest.mark.parametrize("order, mark", [
        (("vertices", "edges"), ""),
        (("edges", "vertices"), ""),
        (("vertices", "edges"), "\U0001f600"),
        (("vertices", "edges"), "[{"),
    ], ids=["vertices-first", "edges-first", "escaped-astral", "brackets"])
    def test_peak_is_near_what_the_graph_keeps(self, order, mark):
        """The reader holds one element's dicts at a time, not the
        document's tree: its peak stays within 1.6 times the memory the
        parsed graph keeps.  json.loads of the whole text first gave 2.5.
        This holds with edges first, and when ids, keys, labels and
        string values hold an astral character, which json.dumps escapes
        as a surrogate pair, so that the reader searches every string
        for a lone surrogate, or brackets."""
        rng = random.Random(67)
        vertices = [{"id": f"v{i}{mark}", "properties": [
            {"key": f"name{mark}", "value": {"type": "string", "value": f"person {i}{mark}"}},
            {"key": "age", "value": {"type": "integer", "value": rng.randrange(100)}}]}
            for i in range(2500)]
        edges = [{"id": f"e{i}{mark}", "src": f"v{i}{mark}", "tgt": f"v{rng.randrange(2500)}{mark}",
                  "label": f"knows{mark}", "properties": [
                      {"key": "since", "value": {"type": "integer", "value": 2000 + i % 20}}]}
                 for i in range(2500)]
        arrays = {"vertices": vertices, "edges": edges}
        text = json.dumps({name: arrays[name] for name in order}, indent=2, ensure_ascii=True)
        del vertices, edges, arrays
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            g = parse_pg_json(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.vertices) == len(g.edges) == 2500
        assert (peak - base) <= 1.6 * (kept - base)


class TestSerialize:
    def test_kubrick_matches_file(self, data_dir, kubrick_pg):
        # the checked-in file is the canonical serialization
        assert serialize_pg_json(kubrick_pg) == (
            (data_dir / "kubrick.pg.json").read_text(encoding="utf-8")
        )

    def test_empty_graph_canonical_text(self):
        assert json.loads(serialize_pg_json(PropertyGraph())) == {
            "vertices": [], "edges": [],
        }

    def test_output_is_sorted_and_indented(self, kubrick_pg):
        text = serialize_pg_json(kubrick_pg)
        data = json.loads(text)
        assert [v["id"] for v in data["vertices"]] == ["Kubrick", "Welles"]
        assert [e["id"] for e in data["edges"]] == ["e1", "e2"]
        assert text.endswith("\n")
        assert "  " in text

    def test_big_integer_serialized_as_string(self):
        g = PropertyGraph(["v"], props={"v": [Property("n", Integer(2**60))]})
        data = json.loads(serialize_pg_json(g))
        assert data["vertices"][0]["properties"][0]["value"]["value"] == str(2**60)

    def test_small_integer_serialized_as_number(self):
        g = PropertyGraph(["v"], props={"v": [Property("n", Integer(42))]})
        data = json.loads(serialize_pg_json(g))
        assert data["vertices"][0]["properties"][0]["value"]["value"] == 42

    def test_infinity_serialized_as_string(self):
        g = PropertyGraph(["v"], props={"v": [Property("d", Double(math.inf))]})
        data = json.loads(serialize_pg_json(g))
        assert data["vertices"][0]["properties"][0]["value"]["value"] == "INF"

    def test_round_trip_on_random_graphs(self):
        rng = random.Random(47)
        for _ in range(300):
            g = randgen.random_property_graph(rng)
            assert parse_pg_json(serialize_pg_json(g)) == g

    def test_serialization_is_deterministic(self, kubrick_pg):
        assert serialize_pg_json(kubrick_pg) == serialize_pg_json(build_kubrick_pg())


class TestWriterMatchesJsonDumps:
    """The direct writer against the json.dumps serializer it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(_property_graphs())
    def test_hypothesis_graphs(self, g):
        assert serialize_pg_json(g) == _json_dumps_oracle(g)

    def test_random_graphs(self):
        rng = random.Random(53)
        for _ in range(300):
            g = randgen.random_property_graph(rng)
            assert serialize_pg_json(g) == _json_dumps_oracle(g)

    def test_kubrick_and_empty_graph(self, kubrick_pg):
        assert serialize_pg_json(kubrick_pg) == _json_dumps_oracle(kubrick_pg)
        assert serialize_pg_json(PropertyGraph()) == _json_dumps_oracle(PropertyGraph())

    @pytest.mark.parametrize("value", [
        Text('say "hi" \\ C:\\path'), Text("tab\tnew\nline\x00\x1f\x7f"),
        Text("caf\u00e9 \u2028 \U0001f600"), Text(""),
        Integer(2**53 - 1), Integer(2**53), Integer(-(2**53)), Integer(-(2**60)), Integer(0),
        Double(math.inf), Double(-math.inf), Double(-0.0), Double(1e300), Double(1e-7),
        Double(0.1), Boolean(True), Boolean(False),
    ])
    def test_edge_case_values(self, value):
        g = PropertyGraph(
            ["v", 'w"\\'], ["e"], {"e": "v"}, {"e": 'w"\\'}, {"e": "l\u00e9"},
            {"v": [Property('k"\n', value)], "e": [Property("k", value)]},
        )
        assert serialize_pg_json(g) == _json_dumps_oracle(g)
