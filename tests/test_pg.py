import math

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
        assert g.properties("Kubrick") == {
            Property("name", Text("Stanley Kubrick")),
            Property("birthyear", Integer(1928)),
        }
        assert g.properties("Welles") == {Property("name", Text("Orson Welles"))}
        assert g.properties("e1") == frozenset()
        assert g.properties("e2") == {Property("certainty", Double(0.8))}

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
        assert g.properties("v1") == {Property("k", Text("v"))}

    def test_mappings_are_read_only(self, kubrick_pg):
        with pytest.raises(TypeError):
            kubrick_pg.src["e9"] = "Kubrick"


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
