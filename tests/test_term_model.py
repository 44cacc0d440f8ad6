"""The term model: immutable slotted terms, values and records with a hash
stored or cached at construction, pickling and copying through the
constructors, the nesting-depth limit on triples built in code, the
term tables that make equal terms one object within a parse or a
transformation, and the trusted constructors Triple._of and
RdfStarGraph._of, checked against the checked ones."""

import copy
import dataclasses
import importlib.util
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from starpg import (
    RDF_LANG_STRING,
    ConvertibilityReport,
    MappingConfig,
    PgResult,
    TemplateIriMapping,
    Violation,
    XSD_DECIMAL,
    XSD_INTEGER,
    BNode,
    Boolean,
    Double,
    Integer,
    Iri,
    Literal,
    Property,
    PropertyGraph,
    RdfStarGraph,
    Text,
    Triple,
    blank_node_labels,
    canonicalize_bnodes,
    canonicalize_values,
    embedded_triples,
    from_rdf_like_pg,
    minimize,
    nesting_depth,
    parse_pg_json,
    parse_turtle_star,
    pg_to_rdf_star,
    relabel_bnodes,
    serialize_turtle_star,
    to_rdf_like_pg,
    to_simple_pg,
    unfold_to_rdf,
)
from starpg.rdf import MAX_NESTING_DEPTH
import starpg.turtle
from conftest import EX, KNOWS_CERTAINTY, build_alice_bob, build_kubrick_pg
import randgen

SRC = Path(__file__).resolve().parent.parent / "src"

S = Iri(EX + "s")
P = Iri(EX + "p")
O = Iri(EX + "o")
Q = Iri(EX + "q")

TERMS = [
    S,
    BNode("b1"),
    Literal("plain"),
    Literal("0.5", Iri(XSD_DECIMAL)),
    Literal("chat", language="fr"),
    Triple(S, P, O),
    KNOWS_CERTAINTY,
    Triple(S, P, Triple(BNode("x"), P, Literal("y"))),
]
VALUES = [Text("x"), Integer(2**70), Double(0.5), Double(float("-inf")), Boolean(False)]
PROPERTIES = [Property("name", Text("Ada")), Property("age", Integer(36))]
_VIOLATION = Violation(Triple(S, P, O), "1", "embedded subject is itself a metadata triple")
# The records that were frozen dataclasses, each with its fields' values.
RECORDS = [
    _VIOLATION,
    ConvertibilityReport((_VIOLATION,)),
    ConvertibilityReport(()),
    TemplateIriMapping(EX),
    MappingConfig(),
    MappingConfig(EX + "k/", EX + "l/", TemplateIriMapping(EX + "v/")),
]
OBJECTS = TERMS + VALUES + PROPERTIES + RECORDS


def _chain(depth: int) -> Triple:
    """A triple depth levels deep, embedding alternately as subject and
    as object."""
    t = Triple(S, P, O)
    for level in range(depth):
        t = Triple(t, P, O) if level % 2 else Triple(S, P, t)
    return t


class TestImmutability:
    @pytest.mark.parametrize("x", OBJECTS, ids=repr)
    def test_fields_cannot_be_assigned_or_deleted(self, x):
        field = x.__match_args__[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, field, getattr(x, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, field)
        with pytest.raises(AttributeError):
            x.extra = 1

    def test_repr_lists_the_fields(self):
        assert repr(Literal("chat", language="fr")) == (
            "Literal(lexical_form='chat', "
            f"datatype=Iri(value='{RDF_LANG_STRING}'), language='fr')")
        assert repr(Property("k", Double(0.5))) == "Property(key='k', value=Double(value=0.5))"

    def test_equal_objects_hash_equal_and_kinds_stay_apart(self):
        for x in OBJECTS:
            twin = type(x)(*(getattr(x, f) for f in x.__match_args__))
            assert twin is not x and twin == x and hash(twin) == hash(x)
        assert Iri(EX + "b1") != BNode("b1") != Text("b1")
        assert Literal("1") != Text("1")
        assert len(set(OBJECTS)) == len(OBJECTS)

    @pytest.mark.parametrize("x", OBJECTS, ids=repr)
    def test_an_object_of_another_class_is_unequal(self, x):
        assert x != object() and x != tuple(getattr(x, f) for f in x.__match_args__)

    def test_graph_repr_hash_and_equality_with_other_types(self):
        g, pg = build_alice_bob(), build_kubrick_pg()
        assert hash(g) == hash(RdfStarGraph(g.triples))
        assert repr(g) == f"RdfStarGraph({len(g)} triples)"
        assert repr(pg) == f"PropertyGraph({len(pg.vertices)} vertices, {len(pg.edges)} edges)"
        assert g != g.triples and pg != pg.props

    def test_triples_are_equal_by_value_at_every_level(self):
        assert _chain(MAX_NESTING_DEPTH) == _chain(MAX_NESTING_DEPTH)
        assert _chain(MAX_NESTING_DEPTH) != _chain(MAX_NESTING_DEPTH - 1)


class TestPicklingAndCopying:
    @pytest.mark.parametrize("x", OBJECTS, ids=repr)
    @pytest.mark.parametrize("how", ["pickle", "copy", "deepcopy"])
    def test_terms_values_and_properties_round_trip(self, x, how):
        y = {"pickle": lambda v: pickle.loads(pickle.dumps(v)),
             "copy": copy.copy, "deepcopy": copy.deepcopy}[how](x)
        assert type(y) is type(x)
        assert y == x and hash(y) == hash(x) and repr(y) == repr(x)

    @pytest.mark.parametrize("how", [pickle.loads, copy.copy, copy.deepcopy])
    def test_graphs_round_trip(self, how):
        for g in (build_alice_bob(), RdfStarGraph([_chain(MAX_NESTING_DEPTH)]),
                  build_kubrick_pg()):
            y = how(pickle.dumps(g)) if how is pickle.loads else how(g)
            assert type(y) is type(g) and y == g
        g = build_alice_bob()
        assert list(pickle.loads(pickle.dumps(g))) == list(g)

    def test_unpickled_term_is_found_under_another_hash_seed(self):
        # String hashes differ between processes with different seeds, so a
        # stored hash that crossed over would miss in a set built there.
        built = "Triple(Iri(EX + 's'), Iri(EX + 'p'), Literal('chat', language='fr'))"
        script = (
            "import pickle, sys\n"
            "from starpg import Iri, Literal, Property, Text, Triple\n"
            f"EX = {EX!r}\n"
            "if sys.argv[1] == 'dump':\n"
            f"    sys.stdout.buffer.write(pickle.dumps([{built}, Property('k', Text('v'))]))\n"
            "else:\n"
            "    t, p = pickle.loads(sys.stdin.buffer.read())\n"
            f"    assert t in {{{built}}} and p in {{Property('k', Text('v'))}}\n"
            "    print(hash(t) == hash(" + built + "))\n"
        )

        def run(seed: str, mode: str, data: bytes = b"") -> bytes:
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            return subprocess.run([sys.executable, "-c", script, mode], input=data, env=env,
                                  capture_output=True, check=True).stdout

        assert run("2", "load", run("1", "dump")) == b"True\n"


class TestRecords:
    """Violation, ConvertibilityReport, PgResult, TemplateIriMapping and
    MappingConfig behave as the frozen dataclasses they were: each is
    checked against a dataclass made now with the same name and fields.
    OBJECTS holds them too, for immutability, equality and pickling."""

    @staticmethod
    def _dataclass_twin(x):
        cls = dataclasses.make_dataclass(type(x).__name__, x.__match_args__, frozen=True)
        return cls(*(getattr(x, f) for f in x.__match_args__))

    @pytest.mark.parametrize("x", RECORDS, ids=repr)
    def test_repr_and_hash_are_the_dataclasses(self, x):
        twin = self._dataclass_twin(x)
        assert repr(x) == repr(twin)
        assert hash(x) == hash(twin)
        assert x != twin  # equality asks for the same class, as a dataclass's does

    def test_mapping_config_defaults_and_derived_templates(self):
        config = MappingConfig(edge_label_prefix=EX + "l/")
        assert config == MappingConfig(MappingConfig().property_key_prefix, EX + "l/", None)
        assert config.key_map == TemplateIriMapping(config.property_key_prefix)
        assert config.label_map == TemplateIriMapping(EX + "l/")
        copied = pickle.loads(pickle.dumps(config))
        assert copied.label_map == config.label_map
        assert "key_map" not in repr(config) and "label_map" not in repr(config)

    def test_pg_result_compares_but_does_not_hash(self):
        result = to_rdf_like_pg(build_alice_bob())
        assert result == PgResult(result.graph, dict(result.vertex_map), dict(result.edge_map))
        assert repr(result).startswith("PgResult(graph=PropertyGraph(")
        with pytest.raises(TypeError):
            hash(result)

    def test_importing_the_cli_does_not_load_dataclasses(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c",
                              "import sys, starpg.cli; print('dataclasses' in sys.modules)"],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out == "False\n"


class TestDeepTriplesBuiltInCode:
    def test_limit_is_shared_with_the_parser(self):
        assert starpg.turtle.MAX_NESTING_DEPTH == MAX_NESTING_DEPTH == 100

    def test_depth_is_stored(self):
        assert nesting_depth(_chain(MAX_NESTING_DEPTH)) == MAX_NESTING_DEPTH
        assert nesting_depth(Triple(_chain(3), P, _chain(7))) == 8

    def test_a_2000_level_chain_stops_with_value_error(self):
        t = Triple(S, P, O)
        with pytest.raises(ValueError, match="nested deeper than 100 levels"):
            for level in range(2000):
                t = Triple(t, P, O) if level % 2 else Triple(S, P, t)
        assert nesting_depth(t) == MAX_NESTING_DEPTH

    def test_a_100_level_chain_survives_serialize_parse_and_unfold(self):
        g = RdfStarGraph([_chain(MAX_NESTING_DEPTH), Triple(S, P, Literal("x"))])
        text = serialize_turtle_star(g, {"ex": EX})
        reparsed, _ = parse_turtle_star(text)
        assert reparsed == g
        assert serialize_turtle_star(reparsed, {"ex": EX}) == text
        unfolded = unfold_to_rdf(g)
        assert len(unfolded) == 2 + 4 * MAX_NESTING_DEPTH
        assert max(map(nesting_depth, unfolded)) == 0
        assert unfold_to_rdf(reparsed) == unfolded
        reparsed_unfolded, _ = parse_turtle_star(serialize_turtle_star(unfolded))
        assert reparsed_unfolded == canonicalize_bnodes(unfolded)


def _shared(objects) -> bool:
    """Whether equal objects among these are one object."""
    first: dict = {}
    return all(first.setdefault(x, x) is x for x in objects)


def _components(g: RdfStarGraph):
    """The fields of g's triples and of the triples they embed."""
    for t in g:
        yield from (t.subject, t.predicate, t.object)
        for x in (t.subject, t.object):
            if isinstance(x, Triple):
                yield from (x.subject, x.predicate, x.object)


class TestTermTables:
    def test_a_parse_shares_equal_iris_and_literals(self):
        """Across statements of one match and of the tokens, <IRI> and
        prefixed spellings of one IRI, and a @prefix that redeclares a
        label part way through."""
        g, prefixes = parse_turtle_star(
            f"@prefix ex: <{EX}> .\n"
            f'ex:a ex:p "x", "x"@en, 5, 0.5, true, "5"^^<{XSD_INTEGER}> .\n'
            f'<{EX}b> ex:p "x", "x"@en, 5, 0.5, true, ex:a .\n'
            '<<ex:a ex:p 5>> ex:q "x"@en, false .\n'
            f'<{EX}a> <{EX}p> "x" .\n'
            'ex:b ex:p 0.5 ; ex:q "x" .\n'
            f"@prefix ex: <{EX}new/> .\n"
            'ex:a ex:p "x" .\n'
            f"<{EX}b> <{EX}q> 5 .\n"
            f'<<<{EX}a> <{EX}p> 0.5>> ex:q "x" ; ex:p 5 .\n')
        assert prefixes == {"ex": f"{EX}new/"}
        objects = list(_components(g))
        assert len(objects) > len(set(objects)) + 30
        assert _shared(objects)
        assert Triple(Iri(f"{EX}new/a"), Iri(f"{EX}new/p"), Literal("x")) in g
        assert Triple(Iri(f"{EX}a"), Iri(f"{EX}p"), Literal("x")) in g

    def test_pg_to_rdf_star_shares_keys_labels_and_values(self):
        props = {v: [Property("name", Text("same")), Property("age", Integer(7))]
                 for v in ("a", "b", "c")}
        props["e1"] = props["e2"] = [Property("since", Integer(7))]
        p = PropertyGraph(["a", "b", "c"], ["e1", "e2"], {"e1": "a", "e2": "b"},
                          {"e1": "b", "e2": "c"}, {"e1": "knows", "e2": "knows"}, props)
        objects = list(_components(pg_to_rdf_star(p)))
        assert len(objects) > len(set(objects)) + 10
        assert _shared(objects)

    def test_rdf_to_pg_transforms_share_properties(self):
        g = RdfStarGraph([
            Triple(Iri(f"{EX}p{i}"), P, Literal(f"n{i % 2}")) for i in range(4)
        ] + [Triple(Triple(Iri(f"{EX}p{i}"), P, O), Q, Literal("0.5", Iri(XSD_DECIMAL)))
             for i in range(4)])
        rdf_like = to_rdf_like_pg(g).graph
        props = [p for x in rdf_like.vertices | rdf_like.edges for p in rdf_like.properties(x)]
        assert len(props) > len(set(props)) + 5
        assert _shared(props)
        simple = to_simple_pg(RdfStarGraph(
            [Triple(Iri(f"{EX}p{i}"), P, Literal("x")) for i in range(3)])).graph
        props = [p for v in simple.vertices for p in simple.properties(v)]
        assert len(props) == 6 and _shared(props)

    def test_canonicalize_values_keeps_unchanged_triples(self):
        kept = Triple(S, P, Literal("5", Iri(XSD_INTEGER)))
        changed = Triple(Triple(S, P, O), Q, Literal("0.5", Iri(XSD_DECIMAL)))
        out = canonicalize_values(RdfStarGraph([kept, changed]))
        assert any(t is kept for t in out.triples)
        assert changed not in out


IRI_VERTICES = MappingConfig(vertex_id_strategy=TemplateIriMapping(EX + "v/"))


def _small_workload_inputs() -> dict[str, str]:
    """The benchmark's three workloads at a small size, from its own
    generator: file name -> text."""
    path = SRC.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # dataclasses looks its module up
    try:
        spec.loader.exec_module(inputs)
        files = [*inputs.social(1, persons=60, provenance=5), *inputs.pg(2, vertices=40),
                 *inputs.anon(3, persons=30, anonymous=9, annotations=15, pg_vertices=8)]
    finally:
        del sys.modules[spec.name]
    return {f.name: f.text for f in files}


class TestTrustedTriplesAndGraphs:
    """Triple._of and RdfStarGraph._of skip the type checks where the
    package made the terms itself; each triple and graph they build must
    be the one the checked constructors build from the same fields."""

    @staticmethod
    def assert_as_if_checked(g: RdfStarGraph) -> None:
        assert type(g.triples) is frozenset
        assert g == RdfStarGraph(g.triples)
        for t in g.triples:
            for x in (t, *embedded_triples(t)):
                checked = Triple(x.subject, x.predicate, x.object)
                assert x == checked
                assert hash(x) == hash(checked) == hash((x.subject, x.predicate, x.object))
                assert nesting_depth(x) == nesting_depth(checked)

    def assert_rdf_results_as_if_checked(self, g: RdfStarGraph) -> None:
        """Every graph an RDF-to-RDF call site of _of builds from g."""
        self.assert_as_if_checked(parse_turtle_star(serialize_turtle_star(g))[0])
        # Each embedded triple asserted too, so that minimize drops some.
        redundant = RdfStarGraph(g.triples | embedded_triples(g))
        for h in (g, redundant):
            self.assert_as_if_checked(canonicalize_values(h))
            self.assert_as_if_checked(minimize(h))
            self.assert_as_if_checked(unfold_to_rdf(h))
            self.assert_as_if_checked(canonicalize_bnodes(h))
            labels = sorted(blank_node_labels(h))
            self.assert_as_if_checked(
                relabel_bnodes(h, {a: f"z{i}" for i, a in enumerate(labels[::2])}))

    def test_random_corpora(self):
        rng = random.Random(251)
        for _ in range(150):
            self.assert_rdf_results_as_if_checked(randgen.random_rdf_star_graph(rng))
            self.assert_rdf_results_as_if_checked(randgen.random_one_level_graph(rng))
            g = randgen.random_convertible_graph(rng)
            self.assert_rdf_results_as_if_checked(g)
            self.assert_as_if_checked(from_rdf_like_pg(to_rdf_like_pg(g).graph))
            p = randgen.random_property_graph(rng)
            self.assert_as_if_checked(pg_to_rdf_star(p))
            self.assert_as_if_checked(pg_to_rdf_star(p, IRI_VERTICES))

    def test_data_files_and_small_workload_inputs(self):
        texts = {path.name: path.read_text(encoding="utf-8")
                 for path in sorted((SRC.parent / "tests" / "data").iterdir())}
        texts.update(_small_workload_inputs())
        for name, text in texts.items():
            if name.endswith(".ttls"):
                g, _ = parse_turtle_star(text)
                self.assert_as_if_checked(g)
                self.assert_rdf_results_as_if_checked(g)
                prepared = minimize(canonicalize_values(g))
                self.assert_as_if_checked(from_rdf_like_pg(to_rdf_like_pg(prepared).graph))
            else:
                p = parse_pg_json(text)
                self.assert_as_if_checked(pg_to_rdf_star(p))
                self.assert_as_if_checked(pg_to_rdf_star(p, IRI_VERTICES))
        assert sorted(texts) == ["alice_bob.ttls", "alice_bob_reduced.ttls", "anon.pg.json",
                                 "anon.ttls", "graph.pg.json", "kubrick.pg.json",
                                 "kubrick.ttls", "social.ttls"]

    def test_the_depth_limit_and_its_error_are_kept(self):
        deep = _chain(MAX_NESTING_DEPTH)
        with pytest.raises(ValueError) as checked:
            Triple(deep, P, O)
        with pytest.raises(ValueError) as trusted:
            Triple._of(deep, P, O)
        assert str(trusted.value) == str(checked.value) == (
            f"triple nested deeper than {MAX_NESTING_DEPTH} levels")
        below = Triple._of(S, P, _chain(MAX_NESTING_DEPTH - 1))
        assert nesting_depth(below) == MAX_NESTING_DEPTH
        assert below == Triple(S, P, _chain(MAX_NESTING_DEPTH - 1))
