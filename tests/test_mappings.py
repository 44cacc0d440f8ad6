import math

import pytest
from hypothesis import given
import hypothesis.strategies as st

from starpg import (
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    Boolean,
    Double,
    Integer,
    Iri,
    Literal,
    MappingConfig,
    MappingConfigError,
    PropertyGraph,
    TemplateIriMapping,
    Text,
    assign_vertex_identities,
    parse_vertex_id_strategy,
    percent_decode,
    percent_encode,
    string_to_iri,
    value_from_literal,
    value_to_literal,
)
from starpg.rdf import BNode


class TestValueToLiteral:
    @pytest.mark.parametrize(
        "value,lexical,datatype",
        [
            (Text("Alice"), "Alice", XSD_STRING),
            (Integer(23), "23", XSD_INTEGER),
            (Integer(-7), "-7", XSD_INTEGER),
            (Boolean(True), "true", XSD_BOOLEAN),
            (Boolean(False), "false", XSD_BOOLEAN),
            (Double(0.5), "0.5E0", XSD_DOUBLE),
            (Double(0.8), "0.8E0", XSD_DOUBLE),
            (Double(-2.25), "-2.25E0", XSD_DOUBLE),
            (Double(3.0), "3.0E0", XSD_DOUBLE),
            (Double(1e16), "1.0E16", XSD_DOUBLE),
            (Double(5e-324), "5.0E-324", XSD_DOUBLE),
            (Double(math.inf), "INF", XSD_DOUBLE),
            (Double(-math.inf), "-INF", XSD_DOUBLE),
        ],
    )
    def test_canonical_forms(self, value, lexical, datatype):
        lit = value_to_literal(value)
        assert lit == Literal(lexical, Iri(datatype))

    def test_never_produces_language_tags(self):
        for v in [Text("chat"), Integer(1), Double(1.5), Boolean(True)]:
            assert value_to_literal(v).language is None


class TestValueFromLiteral:
    def test_plain_string(self):
        assert value_from_literal(Literal("Alice")) == Text("Alice")

    def test_language_tagged_is_outside_the_domain(self):
        assert value_from_literal(Literal("chat", language="fr")) is None

    @pytest.mark.parametrize(
        "lexical,datatype,expected",
        [
            ("23", XSD_INTEGER, Integer(23)),
            ("-0042", XSD_INTEGER, Integer(-42)),
            ("0.5", XSD_DECIMAL, Double(0.5)),
            ("0.5E0", XSD_DOUBLE, Double(0.5)),
            ("5.0E-1", XSD_DOUBLE, Double(0.5)),
            ("1e3", XSD_DOUBLE, Double(1000.0)),
            ("INF", XSD_DOUBLE, Double(math.inf)),
            ("-INF", XSD_DOUBLE, Double(-math.inf)),
            ("true", XSD_BOOLEAN, Boolean(True)),
            ("false", XSD_BOOLEAN, Boolean(False)),
            ("1", XSD_BOOLEAN, Boolean(True)),
            ("0", XSD_BOOLEAN, Boolean(False)),
        ],
    )
    def test_lenient_parsing(self, lexical, datatype, expected):
        assert value_from_literal(Literal(lexical, Iri(datatype))) == expected

    @pytest.mark.parametrize(
        "lexical,datatype",
        [
            ("abc", XSD_INTEGER),
            ("1.5", XSD_INTEGER),
            ("", XSD_INTEGER),
            ("NaN", XSD_DOUBLE),
            ("maybe", XSD_BOOLEAN),
            ("x", "http://example.org/dt/custom"),
        ],
    )
    def test_unparseable_forms_are_undefined(self, lexical, datatype):
        assert value_from_literal(Literal(lexical, Iri(datatype))) is None

    @pytest.mark.parametrize(
        "lexical,datatype",
        [
            ("0.50", XSD_DOUBLE),
            ("5.0E-1", XSD_DOUBLE),
            ("0.5", XSD_DECIMAL),
            ("+23", XSD_INTEGER),
            ("1", XSD_BOOLEAN),
        ],
    )
    def test_strict_mode_rejects_non_canonical_forms(self, lexical, datatype):
        lit = Literal(lexical, Iri(datatype))
        assert value_from_literal(lit, mode="lenient") is not None
        assert value_from_literal(lit, mode="strict") is None

    def test_strict_mode_accepts_canonical_forms(self):
        for v in [Text("x"), Integer(23), Double(0.5), Boolean(True)]:
            assert value_from_literal(value_to_literal(v), mode="strict") == v


@given(st.text())
def test_text_round_trip(s):
    assert value_from_literal(value_to_literal(Text(s))) == Text(s)


@given(st.integers())
def test_integer_round_trip(n):
    assert value_from_literal(value_to_literal(Integer(n))) == Integer(n)


@given(st.floats(allow_nan=False))
def test_double_round_trip(x):
    v = Double(x)
    assert value_from_literal(value_to_literal(v)) == v


@given(st.floats(allow_nan=False))
def test_double_canonical_form_is_strict(x):
    lit = value_to_literal(Double(x))
    assert value_from_literal(lit, mode="strict") == Double(x)


@given(st.booleans())
def test_boolean_round_trip(b):
    assert value_from_literal(value_to_literal(Boolean(b))) == Boolean(b)


class TestIriStringMapping:
    def test_inverse_round_trip(self):
        i = Iri("http://example.org/x")
        assert string_to_iri(i.value) == i

    def test_invalid_text_is_undefined(self):
        assert string_to_iri("not an iri") is None
        assert string_to_iri("") is None


class TestPercentEncoding:
    def test_space_and_slash(self):
        assert percent_encode("a b/c") == "a%20b%2Fc"

    def test_unreserved_untouched(self):
        assert percent_encode("Az09.-_~") == "Az09.-_~"

    def test_decode_rejects_stray_characters(self):
        assert percent_decode("a b") is None
        assert percent_decode("%2") is None
        assert percent_decode("%zz") is None

    @given(st.text())
    def test_round_trip(self, s):
        assert percent_decode(percent_encode(s)) == s


class TestTemplateMapping:
    def test_prefix_application(self):
        m = TemplateIriMapping("http://example.org/property/")
        assert m.apply("name") == Iri("http://example.org/property/name")

    def test_relationship_prefix(self):
        m = TemplateIriMapping("http://example.org/relationship/")
        assert m.apply("influencedBy") == Iri("http://example.org/relationship/influencedBy")

    def test_encoding_within_template(self):
        m = TemplateIriMapping("http://example.org/v/")
        assert m.apply("n 1") == Iri("http://example.org/v/n%201")

    @given(st.text())
    def test_invert_round_trip(self, s):
        m = TemplateIriMapping("http://example.org/k/")
        assert m.invert(m.apply(s)) == s

    def test_invert_outside_prefix_is_undefined(self):
        m = TemplateIriMapping("http://example.org/k/")
        assert m.invert(Iri("http://other.org/k/x")) is None

    def test_bad_prefix_rejected(self):
        with pytest.raises(MappingConfigError):
            TemplateIriMapping("no spaces allowed here")


class TestVertexIdentities:
    def test_fresh_blank_nodes_in_sorted_vertex_order(self, kubrick_pg):
        assignment = assign_vertex_identities(None, kubrick_pg)
        assert assignment == {"Kubrick": BNode("b1"), "Welles": BNode("b2")}

    def test_empty_graph_empty_assignment(self):
        assert assign_vertex_identities(None, PropertyGraph()) == {}

    def test_iri_template_strategy(self):
        g = PropertyGraph(["n 1", "n2"])
        assignment = assign_vertex_identities(TemplateIriMapping("http://example.org/v/"), g)
        assert assignment == {
            "n 1": Iri("http://example.org/v/n%201"),
            "n2": Iri("http://example.org/v/n2"),
        }

    def test_assignment_is_injective(self, kubrick_pg):
        assignment = assign_vertex_identities(None, kubrick_pg)
        assert len(set(assignment.values())) == len(assignment)

    def test_parse_strategy_forms(self):
        assert parse_vertex_id_strategy("bnode") is None
        strat = parse_vertex_id_strategy("iri:http://example.org/v/")
        assert isinstance(strat, TemplateIriMapping)
        with pytest.raises(MappingConfigError):
            parse_vertex_id_strategy("nonsense")


class TestMappingConfig:
    def test_defaults(self):
        cfg = MappingConfig()
        assert cfg.property_key_prefix == "http://example.org/property/"
        assert cfg.edge_label_prefix == "http://example.org/relationship/"

    def test_key_and_label_maps(self):
        cfg = MappingConfig()
        assert cfg.key_map.apply("name") == Iri("http://example.org/property/name")
        assert cfg.label_map.apply("knows") == Iri("http://example.org/relationship/knows")

    def test_equal_prefixes_rejected(self):
        with pytest.raises(MappingConfigError):
            MappingConfig(
                property_key_prefix="http://example.org/x/",
                edge_label_prefix="http://example.org/x/",
            )

    def test_nested_prefixes_rejected(self):
        with pytest.raises(MappingConfigError):
            MappingConfig(
                property_key_prefix="http://example.org/x/",
                edge_label_prefix="http://example.org/x/y/",
            )
