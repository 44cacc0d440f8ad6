import json
import math
import random

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
        assert g.properties("v1") == {
            Property("t", Text("x")),
            Property("i", Integer(3)),
            Property("d", Double(0.5)),
            Property("b", Boolean(True)),
        }

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
        assert g.properties("v1") == {Property("n", Integer(2**60))}

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
