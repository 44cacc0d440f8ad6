import copy
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from starpg import (
    Boolean,
    DanglingEdgeError,
    Double,
    IdCollisionError,
    Integer,
    MissingEdgeLabelError,
    PgValidationError,
    Property,
    PropertyGraph,
    Text,
    edge_uniqueness_violations,
    is_edge_unique,
    is_property_unique,
    property_uniqueness_violations,
)
from starpg.pgjson import parse_pg_json, serialize_pg_json
from starpg.transforms import to_rdf_like_pg
from conftest import assert_ordered_properties
import randgen

SRC = Path(__file__).resolve().parent.parent / "src"


def _edges(*rows, vertices=("v", "w")):
    """PropertyGraph arguments for the given vertices and edges, each row
    (id, src, tgt, label) with None for a missing entry."""
    def column(k):
        return {row[0]: row[k] for row in rows if row[k] is not None}

    return (list(vertices), [row[0] for row in rows], column(1), column(2), column(3))


_DIGITS = sys.get_int_max_str_digits()
_TOO_LONG = f"integer longer than {_DIGITS} digits"


def _unbounded_integer(n: int) -> Integer:
    """Integer(n), made while int has no digit limit, as a caller that
    lifts the limit may make one."""
    sys.set_int_max_str_digits(0)
    try:
        return Integer(n)
    finally:
        sys.set_int_max_str_digits(_DIGITS)


# Every error PropertyGraph raises, as (arguments, exception class,
# message).  Where the arguments break several rules, the row pins which
# error is reported.
CONSTRUCTION_ERRORS = {
    # ids
    "vertex-id-number": (([1],), PgValidationError,
                         "element id must be a non-empty string: 1"),
    "vertex-id-empty": (([""],), PgValidationError, "element id must be a non-empty string: ''"),
    "edge-id-bytes": ((["v"], [b"e"]), PgValidationError,
                      "element id must be a non-empty string: b'e'"),
    "edge-id-empty-before-collision": ((["x"], ["x", ""]), PgValidationError,
                                       "element id must be a non-empty string: ''"),
    "collision": ((["x", "y", "z"], ["y", "x"]), IdCollisionError,
                  "ids used as both vertex and edge: ['x', 'y']"),
    "collision-before-unknown-edge": ((["x"], ["x"], {"e": "x"}), IdCollisionError,
                                      "ids used as both vertex and edge: ['x']"),
    # maps that name edges the graph lacks
    "src-unknown-edge": ((["v"], [], {"e2": "v", "e1": "v"}), PgValidationError,
                         "src mentions unknown edge: ['e1', 'e2']"),
    "tgt-unknown-edge": ((["v"], ["e"], {"e": "v"}, {"e": "v", "f": "v"}), PgValidationError,
                         "tgt mentions unknown edge: ['f']"),
    "lbl-unknown-edge": ((["v"], [], None, None, {"f": "l"}), PgValidationError,
                         "lbl mentions unknown edge: ['f']"),
    "src-before-tgt-unknown-edge": ((["v"], [], {"a": "v"}, {"b": "v"}), PgValidationError,
                                    "src mentions unknown edge: ['a']"),
    "unknown-edge-before-broken-edge": ((["v"], ["e"], {}, {"f": "v"}), PgValidationError,
                                        "tgt mentions unknown edge: ['f']"),
    "unknown-edges-of-mixed-types": ((["v"], [], {1: "v", "a": "v"}), PgValidationError,
                                     "src mentions unknown edge: ['a', 1]"),
    # one broken edge
    "no-src": (_edges(("e", None, "w", "l")), DanglingEdgeError, "edge 'e' has no src endpoint"),
    "src-unknown-vertex": (_edges(("e", "x", "w", "l")), DanglingEdgeError,
                           "edge 'e' src refers to unknown vertex 'x'"),
    "src-none": ((["v"], ["e"], {"e": None}, {"e": "v"}, {"e": "l"}), DanglingEdgeError,
                 "edge 'e' src refers to unknown vertex None"),
    "no-tgt": (_edges(("e", "v", None, "l")), DanglingEdgeError, "edge 'e' has no tgt endpoint"),
    "tgt-unknown-vertex": (_edges(("e", "v", 7, "l")), DanglingEdgeError,
                           "edge 'e' tgt refers to unknown vertex 7"),
    "src-unhashable": (_edges(("e", ["v"], "w", "l")), DanglingEdgeError,
                       "edge 'e' src refers to unknown vertex ['v']"),
    "no-label": (_edges(("e", "v", "w", None)), MissingEdgeLabelError, "edge 'e' has no label"),
    "label-number": (_edges(("e", "v", "w", 3)), PgValidationError, "edge 'e' label must be str"),
    "label-none": ((["v"], ["e"], {"e": "v"}, {"e": "v"}, {"e": None}), PgValidationError,
                   "edge 'e' label must be str"),
    # the order of the checks inside one edge
    "no-src-before-unknown-tgt": (_edges(("e", None, "x", None)), DanglingEdgeError,
                                  "edge 'e' has no src endpoint"),
    "unknown-src-before-no-tgt": (_edges(("e", "x", None, None)), DanglingEdgeError,
                                  "edge 'e' src refers to unknown vertex 'x'"),
    "unknown-tgt-before-no-label": (_edges(("e", "v", "x", None)), DanglingEdgeError,
                                    "edge 'e' tgt refers to unknown vertex 'x'"),
    "no-tgt-before-label-number": (_edges(("e", "v", None, 3)), DanglingEdgeError,
                                   "edge 'e' has no tgt endpoint"),
    # several broken edges: the least edge id is reported
    "least-edge-id": (_edges(("b", None, "w", "l"), ("c", "v", "w", None), ("a", "v", "w", "l")),
                      DanglingEdgeError, "edge 'b' has no src endpoint"),
    "least-edge-id-over-check-order": (_edges(("b", None, "w", "l"), ("a", "v", "w", 3)),
                                       PgValidationError, "edge 'a' label must be str"),
    "least-edge-id-by-code-point": (_edges(("e9", "v", "x", "l"), ("e10", "v", "w", None)),
                                    MissingEdgeLabelError, "edge 'e10' has no label"),
    "least-of-many-edge-ids": (_edges(*[(f"e{i:03}", "v", "w", None) for i in range(200, 0, -1)]),
                               MissingEdgeLabelError, "edge 'e001' has no label"),
    "broken-edge-before-properties": ((["v"], ["e"], {"e": "v"}, {"e": "v"}, {},
                                       {"nope": []}), MissingEdgeLabelError,
                                      "edge 'e' has no label"),
    # properties
    "properties-unknown-element": ((["v"], [], None, None, None,
                                    {"nope": [Property("k", Text("v"))]}), PgValidationError,
                                   "properties attached to unknown element 'nope'"),
    "properties-unknown-element-empty": ((["v"], [], None, None, None, {"nope": []}),
                                         PgValidationError,
                                         "properties attached to unknown element 'nope'"),
    "not-a-property": ((["v"], [], None, None, None, {"v": [Property("k", Text("v")), "x"]}),
                       PgValidationError, "not a Property on element 'v': 'x'"),
    "not-a-property-on-edge": ((*_edges(("e", "v", "w", "l")), {"e": [("k", "v")]}),
                               PgValidationError, "not a Property on element 'e': ('k', 'v')"),
    "unhashable-property-entry": ((["v"], [], None, None, None, {"v": [{}]}), PgValidationError,
                                  "not a Property on element 'v': {}"),
    "least-of-unhashable-property-entries": ((["v"], [], None, None, None,
                                              {"v": [Property("k", Text("v")), [], 2]}),
                                             PgValidationError, "not a Property on element 'v': 2"),
    "properties-in-mapping-order": ((["v"], [], None, None, None, {"v": [1], "nope": []}),
                                    PgValidationError, "not a Property on element 'v': 1"),
    "unknown-element-in-mapping-order": ((["v"], [], None, None, None, {"nope": [], "v": [1]}),
                                         PgValidationError,
                                         "properties attached to unknown element 'nope'"),
    # ordering an Integer made when int had no digit limit
    "integer-longer-than-the-limit": ((["v"], [], None, None, None, {"v": [
        Property("k", _unbounded_integer(10**(_DIGITS + 700))), Property("k", Integer(1))]}),
        PgValidationError, f"{_TOO_LONG} on element 'v'"),
}


class TestValues:
    def test_kinds_are_disjoint_even_for_equal_payloads(self):
        # Python would otherwise collapse 1 == 1.0 == True
        assert Integer(1) != Double(1.0)
        assert Integer(1) != Boolean(True)
        assert Integer(0) != Boolean(False)
        assert len({Integer(1), Double(1.0), Boolean(True), Text("1")}) == 4

    def test_integer_rejects_bool(self):
        with pytest.raises(TypeError):
            Integer(True)

    def test_integer_is_bounded_by_the_digit_limit(self):
        assert Integer(10**_DIGITS - 1).value == 10**_DIGITS - 1
        assert Integer(-(10**_DIGITS - 1)).value == -(10**_DIGITS - 1)
        for n in (10**_DIGITS, -(10**_DIGITS), 10**5000):
            with pytest.raises(ValueError) as info:
                Integer(n)
            assert str(info.value) == _TOO_LONG
        assert _unbounded_integer(10**5000).value == 10**5000

    def test_double_rejects_bool_and_nan(self):
        with pytest.raises(TypeError):
            Double(True)
        with pytest.raises(ValueError):
            Double(math.nan)

    def test_double_accepts_int_and_infinities(self):
        assert Double(3) == Double(3.0)
        assert Double(math.inf).value == math.inf
        assert Double(-math.inf).value == -math.inf

    def test_double_normalizes_negative_zero(self):
        assert Double(-0.0) == Double(0.0)
        assert math.copysign(1.0, Double(-0.0).value) == 1.0

    def test_boolean_requires_bool(self):
        with pytest.raises(TypeError):
            Boolean(1)

    def test_text_requires_str(self):
        with pytest.raises(TypeError):
            Text(3)

    def test_property_key_must_be_string(self):
        with pytest.raises(TypeError):
            Property(3, Text("x"))
        with pytest.raises(TypeError):
            Property("k", "raw string")


class TestConstruction:
    def test_kubrick_graph_components(self, kubrick_pg):
        g = kubrick_pg
        assert g.vertices == {"Kubrick", "Welles"}
        assert g.edges == {"e1", "e2"}
        assert g.source("e1") == "Welles"
        assert g.target("e1") == "Kubrick"
        assert g.label("e1") == "mentioned"
        assert g.source("e2") == "Kubrick"
        assert g.target("e2") == "Welles"
        assert g.label("e2") == "influencedBy"
        assert g.properties("Kubrick") == (
            Property("birthyear", Integer(1928)),
            Property("name", Text("Stanley Kubrick")),
        )
        assert g.properties("Welles") == (Property("name", Text("Orson Welles")),)
        assert g.properties("e1") == ()
        assert g.properties("e2") == (Property("certainty", Double(0.8)),)

    def test_empty_graph(self):
        g = PropertyGraph()
        assert g.vertices == frozenset()
        assert g.edges == frozenset()

    def test_rebuild_from_components_is_equal(self, kubrick_pg):
        g = kubrick_pg
        clone = PropertyGraph(g.vertices, g.edges, g.src, g.tgt, g.lbl, g.props)
        assert clone == g

    def test_dangling_source(self):
        with pytest.raises(DanglingEdgeError):
            PropertyGraph(["v1"], ["e1"], {"e1": "ghost"}, {"e1": "v1"}, {"e1": "x"})

    def test_missing_endpoint(self):
        with pytest.raises(DanglingEdgeError):
            PropertyGraph(["v1"], ["e1"], {"e1": "v1"}, {}, {"e1": "x"})

    def test_missing_label(self):
        with pytest.raises(MissingEdgeLabelError):
            PropertyGraph(["v1"], ["e1"], {"e1": "v1"}, {"e1": "v1"}, {})

    def test_vertex_edge_id_collision(self):
        with pytest.raises(IdCollisionError):
            PropertyGraph(["x"], ["x"], {"x": "x"}, {"x": "x"}, {"x": "l"})

    def test_empty_id_rejected(self):
        with pytest.raises(PgValidationError):
            PropertyGraph([""])

    def test_properties_on_unknown_element(self):
        with pytest.raises(PgValidationError):
            PropertyGraph(["v1"], props={"nope": [Property("k", Text("v"))]})

    def test_duplicate_property_pairs_collapse(self):
        g = PropertyGraph(
            ["v1"], props={"v1": [Property("k", Text("v")), Property("k", Text("v"))]}
        )
        assert g.properties("v1") == (Property("k", Text("v")),)

    def test_mappings_are_read_only(self, kubrick_pg):
        with pytest.raises(TypeError):
            kubrick_pg.src["e9"] = "Kubrick"


class _CountingId(str):
    """An id that counts how often it is ordered against another."""

    comparisons = 0

    def __lt__(self, other):
        _CountingId.comparisons += 1
        return str.__lt__(self, other)


class TestConstructionErrorTable:
    @pytest.mark.parametrize("name", CONSTRUCTION_ERRORS)
    def test_error_class_and_message(self, name):
        args, cls, message = CONSTRUCTION_ERRORS[name]
        with pytest.raises(PgValidationError) as info:
            PropertyGraph(*args)
        assert info.type is cls
        assert str(info.value) == message

    def test_unhashable_entry_of_a_one_shot_iterator(self):
        # The entries are taken once, so the message names the entry.
        with pytest.raises(PgValidationError, match="^not a Property on element 'v': {}$"):
            PropertyGraph(["v"], props={"v": iter([Property("k", Text("v")), {}])})

    @pytest.mark.parametrize("args, message", [
        ("['v', b'x', b'y', 'w']", "element id must be a non-empty string: b'x'"),
        ("['v', None, 3, '']", "element id must be a non-empty string: ''"),
        ("['v'], props={'v': ['a', b'b', 'c']}", "not a Property on element 'v': 'a'"),
        ("['v'], props={'v': [3, 20, Property('k', Text('x'))]}",
         "not a Property on element 'v': 20"),
    ])
    def test_several_offenders_name_the_least_under_any_hash_seed(self, args, message):
        script = (
            "from starpg import Property, PropertyGraph, Text\n"
            "try:\n"
            f"    PropertyGraph({args})\n"
            "except ValueError as e:\n"
            "    print(e)\n"
        )
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                 text=True, check=True).stdout
            assert out == message + "\n"

    def test_valid_graph_orders_no_edge_ids(self):
        n = 500
        vertices = [f"v{i}" for i in range(n)]
        edges = [_CountingId(f"e{i}") for i in range(n)]
        src = {e: vertices[i] for i, e in enumerate(edges)}
        tgt = {e: vertices[(i + 1) % n] for i, e in enumerate(edges)}
        lbl = {e: "l" for e in edges}
        _CountingId.comparisons = 0
        g = PropertyGraph(vertices, edges, src, tgt, lbl, {edges[0]: [Property("k", Text("x"))]})
        assert _CountingId.comparisons == 0
        assert len(g.edges) == n

    def test_elements_without_properties_share_one_empty_set(self, data_dir, alice_bob):
        pg = parse_pg_json((data_dir / "kubrick.pg.json").read_text(encoding="utf-8"))
        rdf_like = to_rdf_like_pg(alice_bob).graph
        built = PropertyGraph(["v", "w"], ["e"], {"e": "v"}, {"e": "w"}, {"e": "l"},
                              {"v": [], "w": ()})
        empty = [[ps for ps in g.props.values() if not ps] for g in (pg, rdf_like, built)]
        assert [len(sets) > 0 for sets in empty] == [True, True, True]
        assert len({id(ps) for sets in empty for ps in sets}) == 1


class TestPropertyTuples:
    """An element's properties are one tuple in property_sort_key order,
    without repeats, however the graph was made."""

    ONE = [Property("k", Double(1.0)), Property("k", Integer(1)), Property("k", Text("1"))]

    def test_unordered_and_repeated_entries(self):
        entries = [*self.ONE, Property("a", Boolean(False)), Property("k", Integer(1)),
                   Property("k", Text("1"))]
        g = PropertyGraph(["v", "w", "x"], props={"v": entries, "w": iter(entries[::-1]),
                                                  "x": frozenset(entries)})
        want = (Property("a", Boolean(False)), Property("k", Text("1")),
                Property("k", Integer(1)), Property("k", Double(1.0)))
        assert [g.properties(x) for x in ("v", "w", "x")] == [want, want, want]
        assert_ordered_properties(g)

    def test_a_tuple_out_of_order_is_sorted(self):
        g = PropertyGraph(["v"], props={"v": tuple(self.ONE)})
        assert g.properties("v") == tuple(self.ONE[::-1])

    def test_equal_graphs_whatever_the_order_given(self):
        a = PropertyGraph(["v"], props={"v": self.ONE})
        b = PropertyGraph(["v"], props={"v": [*self.ONE[::-1], self.ONE[0]]})
        assert a == b
        assert a != PropertyGraph(["v"], props={"v": self.ONE[:2]})

    def test_parsed_graphs(self, data_dir):
        assert_ordered_properties(
            parse_pg_json((data_dir / "kubrick.pg.json").read_text(encoding="utf-8")))
        rng = random.Random(11)
        for _ in range(100):
            g = randgen.random_property_graph(rng)
            parsed = parse_pg_json(serialize_pg_json(g))
            assert parsed == g
            assert_ordered_properties(parsed)

    @pytest.mark.parametrize("clone", [lambda g: pickle.loads(pickle.dumps(g)), copy.deepcopy],
                             ids=["pickle", "deepcopy"])
    def test_pickle_and_deepcopy(self, kubrick_pg, alice_bob, clone):
        g = PropertyGraph(["v", "w"], ["e"], {"e": "v"}, {"e": "w"}, {"e": "l"},
                          {"v": [*self.ONE, Property("a", Text("x"))]})
        for graph in (g, kubrick_pg, to_rdf_like_pg(alice_bob).graph):
            copied = clone(graph)
            assert copied == graph
            assert_ordered_properties(copied)


class TestPropertyUniqueness:
    def test_kubrick_graph_is_property_unique(self, kubrick_pg):
        assert is_property_unique(kubrick_pg)
        assert property_uniqueness_violations(kubrick_pg) == []

    def test_duplicate_key_detected(self):
        g = PropertyGraph(
            ["v"], props={"v": [Property("a", Integer(1)), Property("a", Integer(2))]}
        )
        assert not is_property_unique(g)
        assert property_uniqueness_violations(g) == [("v", "a")]

    def test_duplicate_key_on_edge_detected(self):
        g = PropertyGraph(
            ["v"], ["e"], {"e": "v"}, {"e": "v"}, {"e": "l"},
            props={"e": [Property("a", Text("x")), Property("a", Text("y"))]},
        )
        assert property_uniqueness_violations(g) == [("e", "a")]

    def test_one_repeated_key_among_20001_properties(self):
        # One duplicate among many distinct keys: the count per key must not
        # rescan the element's keys for each key (once 20 s for this case).
        props = [Property(f"k{i}", Integer(i)) for i in range(20_000)]
        g = PropertyGraph(["v"], props={"v": [*props, Property("k7", Integer(-1))]})
        assert property_uniqueness_violations(g) == [("v", "k7")]

    def test_each_repeated_key_once_and_sorted(self):
        g = PropertyGraph(["v", "w"], props={
            "w": [Property("b", Integer(i)) for i in range(3)] + [Property("a", Integer(0))],
            "v": [Property(k, Integer(i)) for k in "zyx" for i in range(2)],
        })
        assert property_uniqueness_violations(g) == [
            ("v", "x"), ("v", "y"), ("v", "z"), ("w", "b")]

    def test_empty_graph_is_property_unique(self):
        assert is_property_unique(PropertyGraph())

    def test_same_key_on_different_elements_is_fine(self):
        g = PropertyGraph(
            ["v1", "v2"],
            props={"v1": [Property("a", Integer(1))], "v2": [Property("a", Integer(2))]},
        )
        assert is_property_unique(g)


class TestEdgeUniqueness:
    def test_kubrick_graph_is_edge_unique(self, kubrick_pg):
        assert is_edge_unique(kubrick_pg)
        assert edge_uniqueness_violations(kubrick_pg) == []

    def test_parallel_same_label_edges_detected(self):
        g = PropertyGraph(
            ["v1", "v2"], ["e1", "e2"],
            {"e1": "v1", "e2": "v1"}, {"e1": "v2", "e2": "v2"},
            {"e1": "knows", "e2": "knows"},
        )
        assert not is_edge_unique(g)
        assert edge_uniqueness_violations(g) == [("e1", "e2")]

    def test_parallel_edges_with_distinct_labels_allowed(self):
        g = PropertyGraph(
            ["v1", "v2"], ["e1", "e2"],
            {"e1": "v1", "e2": "v1"}, {"e1": "v2", "e2": "v2"},
            {"e1": "knows", "e2": "likes"},
        )
        assert is_edge_unique(g)

    def test_opposite_directions_allowed(self):
        g = PropertyGraph(
            ["v1", "v2"], ["e1", "e2"],
            {"e1": "v1", "e2": "v2"}, {"e1": "v2", "e2": "v1"},
            {"e1": "knows", "e2": "knows"},
        )
        assert is_edge_unique(g)

    def test_empty_graph_is_edge_unique(self):
        assert is_edge_unique(PropertyGraph())
