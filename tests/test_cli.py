import gc
import io
import json
import math
import os
import random
import re
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import weakref
from contextlib import suppress
from pathlib import Path

import pytest

from starpg import (
    RDF,
    DEFAULT_EDGE_LABEL_PREFIX,
    DEFAULT_PROPERTY_KEY_PREFIX,
    ConvertibilityError,
    Integer,
    Iri,
    Literal,
    Property,
    PgResult,
    PropertyGraph,
    RdfStarGraph,
    Triple,
    parse_pg_json,
    parse_turtle_star,
    pg_to_rdf_star,
    serialize_pg_json,
    serialize_turtle_star,
    term_key,
    to_rdf_like_pg,
    to_simple_pg,
    unfold_to_rdf,
)
import starpg.cli
from starpg.cli import main
from starpg.turtle import MAX_NESTING_DEPTH
from conftest import DATA_DIR, EX, MULTI_HOST_VIOLATORS, build_kubrick_pg, build_multi_host
from randgen import random_convertible_graph, random_property_graph

ALICE_BOB = str(DATA_DIR / "alice_bob.ttls")
KUBRICK = str(DATA_DIR / "kubrick.pg.json")


@pytest.fixture
def ttls(tmp_path):
    def write(text: str, name: str = "input.ttls") -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestCheck:
    def test_convertible_ok(self, capsys):
        assert main(["check", ALICE_BOB]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_strong_level_fails_with_violation(self, capsys):
        assert main(["check", ALICE_BOB, "--level", "strong"]) == 1
        out = capsys.readouterr().out
        assert "[strong]" in out
        assert "0.9" in out

    def test_minimal_level(self, capsys, ttls):
        path = ttls(
            f"<{EX}s> <{EX}p> <{EX}o> .\n"
            f"<<<{EX}s> <{EX}p> <{EX}o>>> <{EX}q> 1 .\n"
        )
        assert main(["check", path, "--level", "minimal"]) == 1
        assert "[redundant]" in capsys.readouterr().out

    def test_minimal_level_clean(self, capsys):
        assert main(["check", ALICE_BOB, "--level", "minimal"]) == 0

    def test_json_report(self, capsys):
        assert main(["check", ALICE_BOB, "--level", "strong", "--report", "json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is False
        assert data["violations"][0]["condition"] == "strong"

    def test_json_report_when_clean(self, capsys):
        assert main(["check", ALICE_BOB, "--report", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"ok": True, "violations": []}

    def test_parse_error_is_exit_2(self, capsys, ttls):
        path = ttls("@@ nonsense")
        assert main(["check", path]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize("data, offset", [
        (b"\xff", 0),
        (b"<http://example.org/s> <http://example.org/p> \"\xff\" .\n", 47),
    ])
    def test_invalid_utf8_is_exit_2(self, tmp_path, capsys, data, offset):
        path = tmp_path / "bad.ttls"
        path.write_bytes(data)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"invalid UTF-8 at byte offset {offset}" in err
        assert "Traceback" not in err

    def test_deep_nesting_is_exit_2(self, capsys, ttls):
        depth = 1200
        path = ttls(f"@prefix ex: <{EX}> .\n" + "<<" * depth + "ex:s ex:p ex:o"
                    + ">> ex:p ex:o " * depth + ".\n")
        assert main(["check", path]) == 2
        err = capsys.readouterr().err
        assert (f"parse error: line 2, column {2 * MAX_NESTING_DEPTH + 1}: "
                f"embedded triples nested deeper than {MAX_NESTING_DEPTH} levels") in err
        assert "Traceback" not in err

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["check", "/nonexistent/file.ttls"]) == 2
        assert "i/o error" in capsys.readouterr().err

    def test_strict_literal_mode_flag(self, capsys, ttls):
        path = ttls(f'<{EX}s> <{EX}p> "0.50"^^<http://www.w3.org/2001/XMLSchema#double> .')
        assert main(["check", path]) == 0
        capsys.readouterr()
        assert main(["check", path, "--literal-mode", "strict"]) == 1


class TestRdf2Pg:
    def test_rdf_like_to_stdout(self, capsys):
        assert main(["rdf2pg", ALICE_BOB, "--mode", "rdf-like"]) == 0
        g = parse_pg_json(capsys.readouterr().out)
        assert len(g.vertices) == 5
        assert len(g.edges) == 4

    def test_simple_mode_on_strong_input(self, capsys, ttls):
        path = ttls(
            f"@prefix ex: <{EX}> .\n"
            "<<ex:alice ex:knows ex:bob>> ex:certainty 0.5 .\n"
            'ex:alice ex:name "Alice" .\n'
        )
        assert main(["rdf2pg", path, "--mode", "simple"]) == 0
        g = parse_pg_json(capsys.readouterr().out)
        assert len(g.vertices) == 2
        assert len(g.edges) == 1

    def test_simple_mode_rejects_annotated_attributes(self, capsys):
        assert main(["rdf2pg", ALICE_BOB, "--mode", "simple"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[strong]" in captured.err

    def test_output_file(self, tmp_path):
        out = tmp_path / "out.pg.json"
        assert main(["rdf2pg", ALICE_BOB, "--mode", "rdf-like", "-o", str(out)]) == 0
        assert len(parse_pg_json(out.read_text(encoding="utf-8")).vertices) == 5

    def test_wrong_input_extension_is_usage_error(self, capsys):
        assert main(["rdf2pg", KUBRICK, "--mode", "rdf-like"]) == 2
        assert "expects turtle-star" in capsys.readouterr().err

    def test_format_override_must_match_command(self, capsys):
        code = main(["rdf2pg", ALICE_BOB, "--mode", "rdf-like", "--from", "pg-json"])
        assert code == 2

    def test_violations_as_json_on_stderr(self, capsys):
        code = main(["rdf2pg", ALICE_BOB, "--mode", "simple", "--report", "json"])
        assert code == 1
        data = json.loads(capsys.readouterr().err)
        assert data["ok"] is False

    @pytest.mark.parametrize("mode", ["rdf-like", "simple"])
    def test_parsed_graph_is_freed_before_serializing(self, mode, monkeypatch, ttls, capsys):
        def graphs():
            return sum(isinstance(o, RdfStarGraph) for o in gc.get_objects())

        path = ttls(f"@prefix ex: <{EX}> .\n<<ex:alice ex:knows ex:bob>> ex:certainty 0.5 .\n")
        seen = []
        serialize = starpg.cli.iter_pg_json

        def counting(pg):
            seen.append(graphs())
            return serialize(pg)

        monkeypatch.setattr(starpg.cli, "iter_pg_json", counting)
        gc.collect()
        assert main(["rdf2pg", path, "--mode", mode]) == 0
        assert seen == [graphs()]


# Runs starpg.cli.main on argv in a fresh interpreter and prints its exit
# code and how often the Turtle-star token and statement patterns were
# passed to re.compile, from the import of starpg on.
_PATTERN_COMPILES = """
import contextlib, io, re, sys
patterns = []
compile = re.compile
def counting(pattern, flags=0):
    patterns.append(pattern)
    return compile(pattern, flags)
re.compile = counting
import starpg.cli, starpg.turtle
with contextlib.redirect_stdout(io.StringIO()):
    code = starpg.cli.main(sys.argv[1:])
print(code, patterns.count(starpg.turtle._TOKEN), patterns.count(starpg.turtle._STATEMENT))
"""


class TestPg2Rdf:
    def test_kubrick_to_turtle(self, capsys):
        assert main(["pg2rdf", KUBRICK]) == 0
        out = capsys.readouterr().out
        graph, prefixes = parse_turtle_star(out)
        assert graph == pg_to_rdf_star(build_kubrick_pg())
        assert prefixes == {
            "p": "http://example.org/property/",
            "r": "http://example.org/relationship/",
        }
        assert "<<_:b1 r:influencedBy _:b2>> p:certainty 0.8E0 ." in out

    def test_output_file(self, tmp_path):
        out = tmp_path / "out.ttls"
        assert main(["pg2rdf", KUBRICK, "-o", str(out)]) == 0
        graph, _ = parse_turtle_star(out.read_text(encoding="utf-8"))
        assert len(graph) == 5

    def test_custom_prefixes(self, capsys):
        assert main([
            "pg2rdf", KUBRICK,
            "--property-key-prefix", "http://k.org/",
            "--edge-label-prefix", "http://l.org/",
        ]) == 0
        out = capsys.readouterr().out
        assert "@prefix p: <http://k.org/> ." in out

    def test_iri_vertex_ids(self, capsys):
        assert main(["pg2rdf", KUBRICK, "--vertex-ids", "iri:http://v.org/"]) == 0
        out = capsys.readouterr().out
        assert "<http://v.org/Kubrick>" in out
        assert "_:b1" not in out

    def test_parallel_edges_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.pg.json"
        path.write_text(json.dumps({
            "vertices": [{"id": "v1", "properties": []}, {"id": "v2", "properties": []}],
            "edges": [
                {"id": "e1", "src": "v1", "tgt": "v2", "label": "knows", "properties": []},
                {"id": "e2", "src": "v1", "tgt": "v2", "label": "knows", "properties": []},
            ],
        }), encoding="utf-8")
        assert main(["pg2rdf", str(path)]) == 1
        assert "edge" in capsys.readouterr().err

    def test_schema_error_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.pg.json"
        path.write_text('{"vertices": []}', encoding="utf-8")
        assert main(["pg2rdf", str(path)]) == 2
        assert "schema error" in capsys.readouterr().err

    @staticmethod
    def nested_pg2rdf(depth, tmp_path, capsys) -> str:
        """pg2rdf's stderr on a document whose vertices nest depth arrays
        deep; asserts exit 2 and one schema error line."""
        path = tmp_path / "deep.pg.json"
        path.write_text('{"vertices": ' + "[" * depth + "]" * depth + ', "edges": []}',
                        encoding="utf-8")
        assert main(["pg2rdf", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("schema error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_deeply_nested_json_is_exit_2(self, tmp_path, capsys):
        # Deep enough for the json module of every supported Python.
        err = self.nested_pg2rdf(100_000, tmp_path, capsys)
        assert err == "schema error: /: invalid JSON: arrays or objects nested too deeply\n"

    def test_nested_json_some_json_modules_decode_is_exit_2(self, tmp_path, capsys):
        # Python 3.13's json decodes this depth and the schema check
        # rejects the first vertex; older ones reject the nesting.
        self.nested_pg2rdf(5000, tmp_path, capsys)

    @pytest.mark.parametrize("argv, reads_turtle", [
        (["pg2rdf", KUBRICK], False),
        (["check", ALICE_BOB], True),
    ], ids=["pg2rdf", "check"])
    def test_turtle_patterns_compiled_only_by_a_turtle_parse(self, argv, reads_turtle):
        env = {**os.environ, "PYTHONPATH": str(Path(starpg.__file__).parent.parent)}
        result = subprocess.run([sys.executable, "-c", _PATTERN_COMPILES, *argv],
                                capture_output=True, text=True, env=env, check=True)
        code, tokens, statements = map(int, result.stdout.split())
        assert code == 0
        assert (tokens > 0, statements > 0) == (reads_turtle, reads_turtle)

    def test_equal_mapping_prefixes_rejected(self, capsys):
        code = main([
            "pg2rdf", KUBRICK,
            "--property-key-prefix", "http://same.org/",
            "--edge-label-prefix", "http://same.org/",
        ])
        assert code == 2


class TestUnfold:
    def test_alice_bob_unfolds(self, capsys):
        assert main(["unfold", ALICE_BOB]) == 0
        out = capsys.readouterr().out
        graph, prefixes = parse_turtle_star(out)
        assert len(graph) == 12
        assert prefixes["rdf"] == "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
        assert "rdf:Statement" in out

    def test_plain_graph_passes_through(self, capsys, ttls):
        path = ttls(f"<{EX}s> <{EX}p> <{EX}o> .")
        assert main(["unfold", path]) == 0
        graph, prefixes = parse_turtle_star(capsys.readouterr().out)
        assert len(graph) == 1
        assert "rdf" not in prefixes

    def test_empty_file(self, capsys, ttls):
        path = ttls("")
        assert main(["unfold", path]) == 0
        assert capsys.readouterr().out == ""

    def test_100_level_chain(self, capsys, ttls):
        # The 100 reification nodes of the embedded triples form a chain.
        depth = MAX_NESTING_DEPTH
        path = ttls(f"@prefix ex: <{EX}> .\n" + "<<" * depth + "ex:s ex:p ex:o"
                    + ">> ex:p ex:o " * depth + ".\n")
        assert main(["unfold", path]) == 0
        out, err = capsys.readouterr()
        graph, _ = parse_turtle_star(out)
        assert len(graph) == 1 + 4 * depth
        assert err == ""

    @pytest.mark.parametrize("command", ["unfold", "roundtrip"])
    def test_labels_with_long_digit_runs(self, capsys, ttls, command):
        # Two blank nodes on a 2-cycle tie under refinement, so their labels,
        # digit runs longer than int() converts, decide the numbering.
        x, y = "b" + "1" * 5000, "b" + "1" * 4999 + "2"
        path = ttls(f"_:{x} <{EX}p> _:{y} .\n_:{y} <{EX}p> _:{x} .\n")
        assert main([command, path]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if command == "unfold":
            assert out == f"_:b1 <{EX}p> _:b2 .\n_:b2 <{EX}p> _:b1 .\n"


class TestRoundtrip:
    def test_alice_bob_round_trips(self, capsys):
        assert main(["roundtrip", ALICE_BOB]) == 0
        assert "round-trip OK: 4 triples" in capsys.readouterr().out

    def test_json_report(self, capsys):
        assert main(["roundtrip", ALICE_BOB, "--report", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"ok": True, "triples": 4}

    def test_empty_file(self, capsys, ttls):
        path = ttls("")
        assert main(["roundtrip", path]) == 0
        assert "round-trip OK: 0 triples" in capsys.readouterr().out

    def test_object_embedding_fails_with_violation(self, capsys, ttls):
        path = ttls(f"<{EX}s> <{EX}p> <<<{EX}o> <{EX}q> 1>> .")
        assert main(["roundtrip", path]) == 1
        assert "[2]" in capsys.readouterr().err

    def test_non_canonical_values_still_round_trip(self, ttls, capsys):
        # values are canonicalized before the comparison, so a decimal
        # annotation comes back as the equivalent double
        path = ttls(f"<<<{EX}s> <{EX}p> <{EX}o>>> <{EX}q> 0.50 .")
        assert main(["roundtrip", path]) == 0

    @pytest.mark.parametrize("text", [
        f"<<<{EX}s> <{EX}p> <{EX}o>>> <{EX}q> 0.5E0 .\n",
        f"<{EX}s> <{EX}p> <{EX}o> .\n<<<{EX}s> <{EX}p> <{EX}o>>> <{EX}q> 0.50 .\n",
    ], ids=["prepared-as-parsed", "canonicalized-and-minimized"])
    def test_only_the_prepared_graph_is_kept(self, monkeypatch, ttls, capsys, text):
        # When the graph is read back, the parsed graph lives on only as the
        # prepared one, and the forward result only as its property graph.
        def alive():
            objects = gc.get_objects()
            return [sum(isinstance(o, cls) for o in objects) for cls in (RdfStarGraph, PgResult)]

        path = ttls(text)
        seen = []
        real = starpg.cli.from_rdf_like_pg

        def counting(graph):
            seen.append(alive())
            return real(graph)

        monkeypatch.setattr(starpg.cli, "from_rdf_like_pg", counting)
        gc.collect()
        before = alive()
        assert main(["roundtrip", path]) == 0
        assert seen == [[before[0] + 1, before[1]]]

    def test_mismatch_names_the_first_differing_triple(self, monkeypatch, capsys):
        real = starpg.cli.from_rdf_like_pg

        def drop_least(graph):
            back = real(graph)
            return RdfStarGraph(sorted(back.triples, key=term_key)[1:])

        monkeypatch.setattr(starpg.cli, "from_rdf_like_pg", drop_least)
        assert main(["roundtrip", ALICE_BOB]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("round-trip mismatch, missing triple: <<<http://example.org/alice> "
                       '<http://xmlns.com/foaf/0.1/name> "Alice">>\n')


class TestExitCodeContract:
    """Inputs that once escaped the exit-code contract with a traceback."""

    LONG = "1" * (sys.get_int_max_str_digits() + 1)  # more digits than int() converts
    XSD = "http://www.w3.org/2001/XMLSchema#"

    @staticmethod
    def pg_json(tmp_path, properties: str = "", vertex: str = '"v1"',
                label: str = '"knows"') -> str:
        """A two-vertex document, written as raw text: json.dumps refuses
        the oversized integers."""
        path = tmp_path / "input.pg.json"
        path.write_text(
            '{"vertices": [{"id": %s, "properties": [%s]}, {"id": "v2"}], '
            '"edges": [{"id": "e1", "src": %s, "tgt": "v2", "label": %s}]}'
            % (vertex, properties, vertex, label), encoding="utf-8")
        return str(path)

    @staticmethod
    def typed(kind: str, raw: str, key: str = '"k"') -> str:
        """One property, its key and value given as JSON text."""
        return '{"key": %s, "value": {"type": "%s", "value": %s}}' % (key, kind, raw)

    @pytest.mark.parametrize("literal", [LONG, f'"{LONG}"^^<{XSD}integer>'],
                             ids=["bare", "typed"])
    @pytest.mark.parametrize("argv", [["check"], ["rdf2pg", "--mode", "rdf-like"], ["roundtrip"]])
    def test_turtle_integer_beyond_int_limit_is_condition_4(self, ttls, capsys, literal, argv):
        path = ttls(f"<{EX}s> <{EX}p> {literal} .\n")
        assert main([argv[0], path, *argv[1:], "--report", "json"]) == 1
        out, err = capsys.readouterr()
        violations = json.loads(out or err)["violations"]
        assert [v["condition"] for v in violations] == ["4"]

    @pytest.mark.parametrize("raw, where", [
        (LONG, "/"), (f'"{LONG}"', "/vertices/0/properties/0/value"),
    ], ids=["number", "digit-string"])
    def test_pg_json_integer_beyond_int_limit_is_schema_error(self, tmp_path, capsys, raw, where):
        path = self.pg_json(tmp_path, self.typed("integer", raw))
        assert main(["pg2rdf", path]) == 2
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == (
            f"schema error: {where}: integer longer than {limit} digits\n")

    def test_pg_json_nan_double_is_schema_error(self, tmp_path, capsys):
        path = self.pg_json(tmp_path, self.typed("double", "NaN"))
        assert main(["pg2rdf", path]) == 2
        assert capsys.readouterr().err == (
            "schema error: /vertices/0/properties/0/value: double value must not be NaN\n")

    @pytest.mark.parametrize("raw, lexical", [
        ("1" + "0" * 400, "INF"), ("-1" + "0" * 400, "-INF"), ("Infinity", "INF"),
        ("1e400", "INF"),
    ], ids=["integer-token", "negative-integer-token", "Infinity", "1e400"])
    def test_pg_json_double_beyond_range_reads_as_inf(self, tmp_path, capsys, raw, lexical):
        path = self.pg_json(tmp_path, self.typed("double", raw))
        assert main(["pg2rdf", path]) == 0
        assert f'"{lexical}"^^<{self.XSD}double>' in capsys.readouterr().out

    @pytest.mark.parametrize("argv, where, parts", [
        ([], "/vertices/0/properties/0/key",
         {"properties": typed("boolean", "true", key='"\\ud800"')}),
        ([], "/edges/0/label", {"label": '"a\\udfffb"'}),
        (["--vertex-ids", f"iri:{EX}v/"], "/vertices/0/id", {"vertex": '"\\ud800"'}),
        ([], "/vertices/0/properties/0/value/value", {"properties": typed("string", '"\\udc80"')}),
    ], ids=["key", "label", "iri-vertex-id", "text"])
    def test_pg_json_lone_surrogate_is_schema_error(self, tmp_path, capsys, argv, where, parts):
        path = self.pg_json(tmp_path, **parts)
        out = str(tmp_path / "out.ttls")  # a file encodes its text, unlike a captured stream
        assert main(["pg2rdf", path, "-o", out, *argv]) == 2
        assert capsys.readouterr().err == (
            f"schema error: {where}: string holds a lone surrogate\n")

    @pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
    def test_stdout_is_utf_8_whatever_the_locale(self, tmp_path, encoding):
        """Standard output gets the bytes of a UTF-8 run, as an -o file
        does, where its locale cannot encode the text or encodes it otherwise."""
        ttls = tmp_path / "input.ttls"
        ttls.write_text(f'<<<{EX}s> <{EX}p> "café">> <{EX}q> "naïve"@en .\n', encoding="utf-8")
        pg_json = self.pg_json(tmp_path, self.typed("string", '"café"'))
        runs = []
        for io_encoding in ("utf-8", encoding):
            env = {**os.environ, "PYTHONPATH": str(Path(starpg.__file__).parent.parent),
                   "PYTHONUTF8": "0", "PYTHONIOENCODING": io_encoding}
            runs.append([
                subprocess.run([sys.executable, "-m", "starpg", *argv],
                               capture_output=True, env=env)
                for argv in (["unfold", str(ttls)], ["check", str(ttls), "--report", "text"],
                             ["pg2rdf", pg_json])])
        utf8, other = ([(r.returncode, r.stdout, r.stderr) for r in run] for run in runs)
        assert [code for code, _, _ in utf8] == [0, 1, 0]
        assert all("café".encode() in out for _, out, _ in utf8)
        assert other == utf8
        assert not any(err for _, _, err in other)

    @pytest.mark.parametrize("argv, expected, wrong", [
        (["rdf2pg", ALICE_BOB, "--mode", "simple"], "pg-json", "turtle-star"),
        (["pg2rdf", KUBRICK], "turtle-star", "pg-json"),
        (["unfold", ALICE_BOB], "turtle-star", "pg-json"),
    ], ids=["rdf2pg", "pg2rdf", "unfold"])
    def test_wrong_output_format_without_output_path_is_usage_error(self, capsys, argv,
                                                                     expected, wrong):
        assert main([*argv, "--to", wrong]) == 2
        assert capsys.readouterr() == (
            "", f"the output format of this command is {expected}, not {wrong}\n")

    def test_pg_json_surrogate_pair_is_one_character(self, tmp_path):
        path = self.pg_json(tmp_path, self.typed("string", '"\\ud83d\\ude00"'))
        out = tmp_path / "out.ttls"
        assert main(["pg2rdf", path, "-o", str(out)]) == 0
        assert '"\U0001F600"' in out.read_text(encoding="utf-8")


class CountingStream(io.StringIO):
    """A text stream that keeps each write it is given."""

    def __init__(self) -> None:
        super().__init__()
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return super().write(text)


class FailingStream(io.StringIO):
    def write(self, text: str) -> int:
        raise OSError(28, "No space left on device")


# A vertex with two names, and two parallel edges.
NOT_PROPERTY_UNIQUE = json.dumps({"vertices": [{"id": "Kubrick", "properties": [
    {"key": "name", "value": {"type": "string", "value": "Stanley"}},
    {"key": "name", "value": {"type": "string", "value": "Stan"}},
]}], "edges": []})
NOT_EDGE_UNIQUE = json.dumps({
    "vertices": [{"id": "v1", "properties": []}, {"id": "v2", "properties": []}],
    "edges": [
        {"id": "e1", "src": "v1", "tgt": "v2", "label": "knows", "properties": []},
        {"id": "e2", "src": "v1", "tgt": "v2", "label": "knows", "properties": []},
    ],
})


def _wide_pg(n: int) -> PropertyGraph:
    """n vertices in a path, each with one property, and n - 1 edges."""
    vertices = [f"v{i:05d}" for i in range(n)]
    edges = [f"e{i:05d}" for i in range(n - 1)]
    return PropertyGraph(
        vertices, edges,
        src={e: vertices[i] for i, e in enumerate(edges)},
        tgt={e: vertices[i + 1] for i, e in enumerate(edges)},
        lbl=dict.fromkeys(edges, "next"),
        props={v: [Property("rank", Integer(i))] for i, v in enumerate(vertices)},
    )


class TestViolationReports:
    """The exact text of the violation reports, and how they are written."""

    @pytest.mark.parametrize("document, line", [
        (NOT_PROPERTY_UNIQUE, "[property-unique] ('Kubrick', 'name')\n"),
        (NOT_EDGE_UNIQUE, "[edge-unique] ('e1', 'e2')\n"),
    ], ids=["property-unique", "edge-unique"])
    def test_uniqueness_line_has_no_triple(self, ttls, capsys, document, line):
        assert main(["pg2rdf", ttls(document, "input.pg.json")]) == 1
        assert capsys.readouterr() == ("", line)

    def test_convertibility_line_names_its_triple(self, capsys):
        assert main(["rdf2pg", ALICE_BOB, "--mode", "simple"]) == 1
        age = f"<<{EX}bob> <http://xmlns.com/foaf/0.1/age> 23>"
        assert capsys.readouterr() == ("", (
            '[strong] embeds attribute triple with object '
            '"23"^^<http://www.w3.org/2001/XMLSchema#integer>: '
            f"<<<{age}> <{EX}certainty> 0.9>>\n"))

    def test_json_report_keeps_json_dump_layout(self, ttls, capsys):
        assert main(["pg2rdf", ttls(NOT_EDGE_UNIQUE, "input.pg.json"), "--report", "json"]) == 1
        expected = {"ok": False, "violations": [
            {"condition": "edge-unique", "reason": "('e1', 'e2')", "triple": ""}]}
        assert capsys.readouterr() == ("", json.dumps(expected, indent=2) + "\n")

    @staticmethod
    def many_violations(ttls) -> str:
        """A graph with 200 condition-4 violations: language-tagged values."""
        return ttls("".join(f'<{EX}s{i}> <{EX}p> "x"@en .\n' for i in range(200)))

    @pytest.mark.parametrize("report", ["json", "text"])
    def test_check_report_is_one_write(self, ttls, monkeypatch, report):
        stream = CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["check", self.many_violations(ttls), "--report", report]) == 1
        text = stream.getvalue()
        assert text.count("[4]" if report == "text" else '"condition": "4"') == 200
        assert len(text) < starpg.cli._PIECE_SIZE
        assert stream.writes == [text]

    def test_json_report_on_stderr_is_one_write(self, ttls, monkeypatch, capsys):
        stream = CountingStream()
        monkeypatch.setattr(sys, "stderr", stream)
        argv = ["rdf2pg", self.many_violations(ttls), "--mode", "rdf-like", "--report", "json"]
        assert main(argv) == 1
        assert capsys.readouterr().out == ""
        assert len(json.loads(stream.getvalue())["violations"]) == 200
        assert len(stream.writes) == 1


# Literals whose lexical forms hold a newline, a tab, a quote and a
# backslash: two outside the value mapping at top level (condition 4), one
# as a metadata object (condition 4), and a string in an annotated
# attribute triple (the strong condition).
_AWKWARD_LITERALS = (
    Literal('a\nb"c', Iri(f"{EX}dt")),
    Literal("t\tu\\v", language="en"),
    Literal('q"\\\n', Iri(f"{EX}dt")),
    Literal('s\t"\\\nx'),
)
_AWKWARD = (
    rf'<{EX}s1> <{EX}p> "a\nb\"c"^^<{EX}dt> .' "\n"
    rf'<{EX}s2> <{EX}p> "t\tu\\v"@en .' "\n"
    rf'<<<{EX}s3> <{EX}p> <{EX}o>>> <{EX}q> "q\"\\\n"^^<{EX}dt> .' "\n"
    rf'<<<{EX}s4> <{EX}age> "s\t\"\\\nx">> <{EX}q> 0.5 .' "\n"
)
_REPORT_LINE = re.compile(r"\[(\w+)\] (.*?): (<<.*>>)")
_LITERAL_REASON = re.compile(
    r"literal (.*) has no property value|embeds attribute triple with object (.*)")


class TestReportLines:
    """Each violation and each diagnostic is one line, whatever text it
    quotes, and a literal in a reason reads back as the same literal."""

    @pytest.mark.parametrize("argv, count", [
        (["check"], 3),
        (["check", "--level", "strong"], 4),
        (["check", "--level", "convertible", "--report", "json"], 3),
        (["check", "--level", "strong", "--report", "json"], 4),
        (["rdf2pg", "--mode", "simple"], 4),
        (["rdf2pg", "--mode", "simple", "--report", "json"], 4),
        (["roundtrip"], 3),
        (["roundtrip", "--report", "json"], 3),
    ], ids=lambda x: "-".join(x) if isinstance(x, list) else str(x))
    def test_each_violation_is_one_line(self, ttls, capsys, argv, count):
        assert main([argv[0], ttls(_AWKWARD), *argv[1:]]) == 1
        out, err = capsys.readouterr()
        # check reports on standard output, a failed transform on standard error
        text, other = (out, err) if argv[0] == "check" else (err, out)
        assert other == ""
        if "json" in argv:
            entries = json.loads(text)["violations"]
            violations = [(e["condition"], e["reason"], e["triple"]) for e in entries]
        else:
            assert text.endswith("\n")
            lines = text.split("\n")[:-1]
            violations = [_REPORT_LINE.fullmatch(line).groups() for line in lines]
        assert len(violations) == count
        quoted = set()
        for condition, reason, triple in violations:
            assert "\n" not in reason + triple
            lexical = next(filter(None, _LITERAL_REASON.fullmatch(reason).groups()))
            graph, _ = parse_turtle_star(f"<{EX}s> <{EX}p> {lexical} .")
            [parsed] = graph.triples
            quoted.add(parsed.object)
        assert quoted == set(_AWKWARD_LITERALS[:count])

    def test_a_literal_with_line_breaking_code_points_is_one_line(self, ttls, capsys):
        # Every character but \n and \r at which str.splitlines breaks.
        literal = Literal("a\v\f\x1c\x1d\x1e\x85\u2028\u2029b", language="en")
        graph = RdfStarGraph([Triple(Iri(f"{EX}s"), Iri(f"{EX}p"), literal)])
        assert main(["check", ttls(serialize_turtle_star(graph))]) == 1
        out, err = capsys.readouterr()
        assert err == "" and len(out.splitlines()) == 1
        condition, reason, _ = _REPORT_LINE.fullmatch(out.removesuffix("\n")).groups()
        assert condition == "4"
        lexical = _LITERAL_REASON.fullmatch(reason)[1]
        [parsed] = parse_turtle_star(f"<{EX}s> <{EX}p> {lexical} .")[0].triples
        assert parsed.object == literal

    @pytest.mark.parametrize("transform", [to_rdf_like_pg, to_simple_pg])
    def test_error_text_is_one_line(self, transform):
        graph, _ = parse_turtle_star(_AWKWARD)
        with pytest.raises(ConvertibilityError) as exc:
            transform(graph)
        assert "\n" not in str(exc.value)
        assert 'literal "a\\nb\\"c"^^<http://example.org/dt>' in str(exc.value)

    MINIMAL = (
        rf'<{EX}a> <{EX}p> "x\ny\"z\\"@en .' "\n"
        rf'<<<{EX}a> <{EX}p> "x\ny\"z\\"@en>> <{EX}q> 1 .' "\n"
        f"<{EX}c> <{EX}p> 3 .\n"
        f"<<<{EX}c> <{EX}p> 3>> <{EX}q> 4 .\n"
        f"<{EX}b> <{EX}p> <{EX}o> .\n"
        f"<<<{EX}b> <{EX}p> <{EX}o>>> <{EX}q> 2 .\n"
        f"<{EX}d> <{EX}p> <{EX}o> .\n"
    )
    REDUNDANT = [
        rf'<<<{EX}a> <{EX}p> "x\ny\"z\\"@en>>',
        f"<<<{EX}b> <{EX}p> <{EX}o>>>",
        f"<<<{EX}c> <{EX}p> 3>>",
    ]

    def test_minimal_text_report(self, ttls, capsys):
        assert main(["check", ttls(self.MINIMAL), "--level", "minimal"]) == 1
        assert capsys.readouterr() == ("".join(
            f"[redundant] top-level triple also occurs embedded: {t}\n"
            for t in self.REDUNDANT), "")

    def test_minimal_json_report(self, ttls, capsys):
        argv = ["check", ttls(self.MINIMAL), "--level", "minimal", "--report", "json"]
        assert main(argv) == 1
        expected = {"ok": False, "violations": [
            {"condition": "redundant", "reason": "top-level triple also occurs embedded",
             "triple": t} for t in self.REDUNDANT]}
        assert capsys.readouterr() == (json.dumps(expected, indent=2) + "\n", "")

    @pytest.mark.parametrize("name, data, line", [
        ("bad\nname.ttls", b"\xff", "encoding error: 'bad\\nname.ttls': "
         "invalid UTF-8 at byte offset 0: invalid start byte"),
        ("missing\nname.ttls", None,
         "i/o error: [Errno 2] No such file or directory: 'missing\\nname.ttls'"),
        ("input.ttls", f'<{EX}s> <{EX}p> "a\\\nb" .\n'.encode(),
         "parse error: line 1, column 49: unsupported escape \\'\\n'"),
        ("input.ttls", f'<{EX}s> <{EX}p> "a\\\tb" .\n'.encode(),
         "parse error: line 1, column 49: unsupported escape \\'\\t'"),
    ], ids=["encoding", "missing", "escaped-newline", "escaped-tab"])
    def test_diagnostic_is_one_line(self, tmp_path, monkeypatch, capsys, name, data, line):
        monkeypatch.chdir(tmp_path)
        if data is not None:
            (tmp_path / name).write_bytes(data)
        assert main(["check", name]) == 2
        assert capsys.readouterr() == ("", line + "\n")


# A child that limits its address space to its own size after importing
# the CLI plus argv[1] bytes, then runs the CLI on the rest of its argv.
_LIMITED_CHILD = """\
import os, resource, sys
import starpg.cli
with open("/proc/self/statm") as statm:
    limit = int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE") + int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(starpg.cli.main(sys.argv[2:]))
"""


class TestOutOfMemory:
    @pytest.mark.parametrize("argv", [
        ["check", ALICE_BOB], ["rdf2pg", ALICE_BOB, "--mode", "rdf-like"], ["pg2rdf", KUBRICK],
        ["unfold", ALICE_BOB], ["roundtrip", ALICE_BOB, "--report", "json"],
    ], ids=lambda argv: argv[0])
    def test_memory_error_is_exit_2_with_one_line(self, monkeypatch, capsys, argv):
        def exhausted(path):
            raise MemoryError("a message that is not printed")

        monkeypatch.setattr(starpg.cli, "_read", exhausted)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", "out of memory\n")

    def test_memory_error_while_transforming(self, monkeypatch, capsys):
        def exhausted(graph, mode):
            raise MemoryError

        monkeypatch.setattr(starpg.cli, "to_rdf_like_pg", exhausted)
        assert main(["rdf2pg", ALICE_BOB, "--mode", "rdf-like"]) == 2
        assert capsys.readouterr() == ("", "out of memory\n")

    def test_failed_command_is_freed_before_the_line_is_written(self, monkeypatch, capsys):
        class Held:
            pass

        held = []

        def exhausted(path):
            data = Held()
            held.append(weakref.ref(data))
            try:
                raise KeyError(path)
            except KeyError:
                raise MemoryError

        write = starpg.cli._write
        alive = []

        def watched(*args, **kwargs):
            alive.append(held[0]() is not None)
            write(*args, **kwargs)

        monkeypatch.setattr(starpg.cli, "_read", exhausted)
        monkeypatch.setattr(starpg.cli, "_write", watched)
        assert main(["pg2rdf", KUBRICK]) == 2
        assert capsys.readouterr() == ("", "out of memory\n")
        assert alive == [False]

    @pytest.mark.parametrize("vertices", [None, 25000], ids=["kubrick", "25000-vertices"])
    def test_address_space_limit(self, tmp_path, capsys, vertices):
        # The child may map 40 MiB beyond its size after the import: too
        # little for a 25,000-vertex graph, which exits 2 with the one
        # line, and enough for the small file, so that the limit is not
        # too small for the interpreter alone.
        pytest.importorskip("resource")
        if not os.path.exists("/proc/self/statm"):
            pytest.skip("needs /proc/self/statm")
        source = KUBRICK
        if vertices:
            source = tmp_path / "big.pg.json"
            source.write_text(serialize_pg_json(_wide_pg(vertices)), encoding="utf-8")
        result = subprocess.run(
            [sys.executable, "-c", _LIMITED_CHILD, str(40 << 20), "pg2rdf", str(source)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(starpg.__file__).parent.parent)})
        if vertices:
            assert (result.returncode, result.stdout, result.stderr) == (2, "", "out of memory\n")
        else:
            assert main(["pg2rdf", KUBRICK]) == 0
            assert (result.returncode, result.stdout, result.stderr) == (
                0, capsys.readouterr().out, "")


class TestFailureContract:
    """A command that fails writes nothing to standard output and leaves
    an existing -o file as it was, also when it fails after its first
    piece is written."""

    EARLIER = "earlier bytes\n"

    @pytest.mark.parametrize("argv, text, name, code", [
        (["rdf2pg", "--mode", "rdf-like"], f'<{EX}s> <{EX}p> "x"@en .\n', "in.ttls", 1),
        (["rdf2pg", "--mode", "simple"], (DATA_DIR / "alice_bob.ttls").read_text(), "in.ttls", 1),
        (["pg2rdf"], NOT_PROPERTY_UNIQUE, "in.pg.json", 1),
        (["pg2rdf"], NOT_EDGE_UNIQUE, "in.pg.json", 1),
        (["pg2rdf"], '{"vertices": [', "in.pg.json", 2),
        (["unfold"], f"<{EX}s> <{EX}p> .\n", "in.ttls", 2),
    ], ids=["not-convertible", "not-strongly-convertible", "not-property-unique",
            "not-edge-unique", "pg-json-parse-error", "turtle-parse-error"])
    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output-file"])
    def test_failed_command_writes_no_output(self, ttls, tmp_path, capsys, argv, text, name,
                                             code, to_file):
        argv = [argv[0], ttls(text, name), *argv[1:]]
        target = tmp_path / "existing.out"
        target.write_text(self.EARLIER, encoding="utf-8")
        assert main([*argv, "-o", str(target)] if to_file else argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err != ""
        assert target.read_text(encoding="utf-8") == self.EARLIER

    def test_output_file_is_opened_once_the_first_piece_is_made(self, tmp_path):
        def chunks():
            yield "a chunk\n"
            raise ValueError("the output fails before its first piece is made")

        target = tmp_path / "existing.out"
        target.write_text(self.EARLIER, encoding="utf-8")
        with pytest.raises(ValueError):
            starpg.cli._write(chunks(), str(target))
        assert target.read_text(encoding="utf-8") == self.EARLIER

    @pytest.mark.parametrize("exists", [True, False], ids=["existing", "new"])
    def test_output_file_is_all_or_nothing(self, tmp_path, exists):
        def chunks():
            yield "a" * starpg.cli._PIECE_SIZE
            yield "b" * starpg.cli._PIECE_SIZE
            raise OSError(28, "No space left on device")

        target = tmp_path / "existing.out"
        if exists:
            target.write_text(self.EARLIER, encoding="utf-8")
        with pytest.raises(OSError, match="No space left on device"):
            starpg.cli._write(chunks(), str(target))
        assert [p.name for p in tmp_path.iterdir()] == (["existing.out"] if exists else [])
        if exists:
            assert target.read_text(encoding="utf-8") == self.EARLIER

    def test_output_file_keeps_its_permissions_and_its_symbolic_link(self, tmp_path):
        target = tmp_path / "target.out"
        target.write_text(self.EARLIER, encoding="utf-8")
        target.chmod(0o640)
        link = tmp_path / "link.out"
        link.symlink_to(target)
        starpg.cli._write(["new bytes\n"], str(link))
        assert link.is_symlink() and target.read_text(encoding="utf-8") == "new bytes\n"
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.out", "target.out"]

    @pytest.mark.parametrize("name, existing, message", [
        ("missing/out.ttls", [], "[Errno 2] No such file or directory: '{}'"),
        ("", [], "[Errno 21] Is a directory: '{}'"),
        ("existing.out/", ["existing.out"], "[Errno 21] Is a directory: '{}'"),
        ("new/", [], "[Errno 21] Is a directory: '{}'"),
        ("plain.txt/out.ttls", ["plain.txt"], "[Errno 20] Not a directory: '{}'"),
    ], ids=["missing-directory", "directory", "file-as-directory", "new-directory",
            "under-a-file"])
    def test_output_file_errors_name_the_path_given(self, tmp_path, capsys, name, existing,
                                                    message):
        for earlier in existing:
            (tmp_path / earlier).write_text(self.EARLIER, encoding="utf-8")
        target = str(tmp_path / name) + ("/" if name.endswith("/") else "")
        assert main(["pg2rdf", KUBRICK, "-o", target]) == 2
        assert capsys.readouterr() == ("", f"i/o error: {message.format(target)}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == existing
        for earlier in existing:
            assert (tmp_path / earlier).read_text(encoding="utf-8") == self.EARLIER

    def test_an_error_on_the_temporary_file_names_the_path_given(self, tmp_path, monkeypatch,
                                                                capsys):
        def refused(source, destination):
            raise PermissionError(13, "Permission denied", source, None, destination)

        monkeypatch.setattr(os, "replace", refused)
        target = tmp_path / "out.ttls"
        target.write_text(self.EARLIER, encoding="utf-8")
        assert main(["pg2rdf", KUBRICK, "-o", str(target)]) == 2
        assert capsys.readouterr() == (
            "", f"i/o error: [Errno 13] Permission denied: '{target}'\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out.ttls"]
        assert target.read_text(encoding="utf-8") == self.EARLIER

    @pytest.mark.parametrize("target", ["", "missing/.."])
    def test_a_path_that_resolves_to_the_working_directory_is_opened_in_place(
            self, tmp_path, monkeypatch, capsys, target):
        # Neither path names a file, but each resolves to the working
        # directory: no file is made beside it, in its parent, and open
        # words the error.
        (tmp_path / "sub").mkdir()
        monkeypatch.chdir(tmp_path / "sub")
        made = []
        mkstemp = tempfile.mkstemp

        def recording(*args, **kwargs):
            made.append(kwargs.get("dir"))
            return mkstemp(*args, **kwargs)

        monkeypatch.setattr(tempfile, "mkstemp", recording)
        assert main(["unfold", ALICE_BOB, "-o", target]) == 2
        assert capsys.readouterr() == (
            "", f"i/o error: [Errno 2] No such file or directory: {target!r}\n")
        assert made == []
        assert [p.name for p in tmp_path.iterdir()] == ["sub"]
        assert list((tmp_path / "sub").iterdir()) == []

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_output_pipe_is_written_in_place(self, tmp_path, capsys):
        assert main(["pg2rdf", KUBRICK]) == 0
        expected = capsys.readouterr().out
        pipe = tmp_path / "out.pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(pipe.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        try:
            code = main(["pg2rdf", KUBRICK, "-o", str(pipe)])
        finally:
            # Should the pipe not have been opened, this lets the reader go.
            with suppress(OSError):
                os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=60)
        assert (code, capsys.readouterr(), received) == (0, ("", ""), [expected])
        assert [p.name for p in tmp_path.iterdir()] == ["out.pipe"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)

    def test_output_file_is_written_in_place_where_no_file_can_be_made_beside_it(
            self, tmp_path, monkeypatch):
        def refused(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(tempfile, "mkstemp", refused)
        target = tmp_path / "out.ttls"
        target.write_text(self.EARLIER, encoding="utf-8")
        starpg.cli._write(["new bytes\n"], str(target))
        assert target.read_text(encoding="utf-8") == "new bytes\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.ttls"]

    def test_stale_temporary_file_is_left_alone(self, tmp_path):
        target = tmp_path / "out.ttls"
        target.write_text(self.EARLIER, encoding="utf-8")
        stale = tmp_path / f".out.ttls.{os.getpid()}.tmp"
        stale.write_text("left by a run that was killed\n", encoding="utf-8")
        starpg.cli._write(["new bytes\n"], str(target))
        assert target.read_text(encoding="utf-8") == "new bytes\n"
        assert stale.read_text(encoding="utf-8") == "left by a run that was killed\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [stale.name, "out.ttls"]

    def test_output_is_private_until_it_is_in_place(self, tmp_path):
        target = tmp_path / "new.out"
        modes = []

        def chunks():
            yield "a" * starpg.cli._PIECE_SIZE
            modes.extend(p.stat().st_mode & 0o777 for p in tmp_path.iterdir())
            yield "b"

        umask = os.umask(0o022)
        try:
            starpg.cli._write(chunks(), str(target))
        finally:
            os.umask(umask)
        assert modes == [0o600]
        assert target.stat().st_mode & 0o777 == 0o644

    def test_file_size_limit_keeps_the_old_output_file(self, tmp_path):
        # The child may write 100 KiB per file: the output fails part way,
        # after its first pieces are written.
        resource = pytest.importorskip("resource")
        source = tmp_path / "wide.pg.json"
        source.write_text(serialize_pg_json(_wide_pg(3000)), encoding="utf-8")
        target = tmp_path / "out.ttls"
        target.write_text(self.EARLIER, encoding="utf-8")

        def limit_file_size():
            resource.setrlimit(resource.RLIMIT_FSIZE, (100 * 1024, 100 * 1024))

        result = subprocess.run(
            [sys.executable, "-m", "starpg", "pg2rdf", str(source), "-o", str(target)],
            capture_output=True, text=True, preexec_fn=limit_file_size,
            env={**os.environ, "PYTHONPATH": str(Path(starpg.__file__).parent.parent)})
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "i/o error: [Errno 27] File too large\n"
        assert target.read_text(encoding="utf-8") == self.EARLIER
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.ttls", "wide.pg.json"]


class TestStreamedOutput:
    """The CLI writes the serializers' bytes, in pieces of about
    _PIECE_SIZE characters."""

    @staticmethod
    def run(argv, tmp_path, capsys) -> str:
        """The command's output, which must be the same on standard output
        and in an -o file that held other bytes before."""
        assert main(argv) == 0
        out = capsys.readouterr().out
        target = tmp_path / "out"
        target.write_text("earlier bytes\n", encoding="utf-8")
        assert main([*argv, "-o", str(target)]) == 0
        assert target.read_bytes() == out.encode("utf-8")
        return out

    def check_turtle_file(self, path: str, tmp_path, capsys) -> None:
        graph, prefixes = parse_turtle_star(Path(path).read_text(encoding="utf-8"))
        unfolded = unfold_to_rdf(graph)
        if unfolded != graph:
            prefixes.setdefault("rdf", RDF)
        assert self.run(["unfold", path], tmp_path, capsys) == serialize_turtle_star(
            unfolded, prefixes)
        assert self.run(["rdf2pg", path, "--mode", "rdf-like"], tmp_path, capsys) == (
            serialize_pg_json(to_rdf_like_pg(graph).graph))

    def check_pg_json_file(self, path: str, tmp_path, capsys) -> None:
        pg = parse_pg_json(Path(path).read_text(encoding="utf-8"))
        prefixes = {"p": DEFAULT_PROPERTY_KEY_PREFIX, "r": DEFAULT_EDGE_LABEL_PREFIX}
        assert self.run(["pg2rdf", path], tmp_path, capsys) == serialize_turtle_star(
            pg_to_rdf_star(pg), prefixes)

    @pytest.mark.parametrize("name", ["alice_bob.ttls", "alice_bob_reduced.ttls",
                                      "kubrick.ttls", "kubrick.pg.json"])
    def test_goldens(self, tmp_path, capsys, name):
        path = str(DATA_DIR / name)
        if name.endswith(".ttls"):
            self.check_turtle_file(path, tmp_path, capsys)
        else:
            self.check_pg_json_file(path, tmp_path, capsys)

    def test_empty_graphs(self, ttls, tmp_path, capsys):
        path = ttls("")
        assert self.run(["unfold", path], tmp_path, capsys) == ""
        assert self.run(["rdf2pg", path, "--mode", "rdf-like"], tmp_path, capsys) == (
            '{\n  "vertices": [],\n  "edges": []\n}\n')
        empty = ttls('{"vertices": [], "edges": []}', "empty.pg.json")
        assert self.run(["pg2rdf", empty], tmp_path, capsys) == (
            f"@prefix p: <{DEFAULT_PROPERTY_KEY_PREFIX}> .\n"
            f"@prefix r: <{DEFAULT_EDGE_LABEL_PREFIX}> .\n")

    def test_prefixes_only(self, ttls, tmp_path, capsys):
        path = ttls(f"@prefix ex: <{EX}> .\n@prefix a: <{EX}a/> .\n")
        assert self.run(["unfold", path], tmp_path, capsys) == (
            f"@prefix a: <{EX}a/> .\n@prefix ex: <{EX}> .\n")

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, ttls, tmp_path, capsys, seed):
        rng = random.Random(f"streamed/{seed}")
        graph = random_convertible_graph(rng, max_triples=40)
        self.check_turtle_file(ttls(serialize_turtle_star(graph, {"ex": EX})), tmp_path, capsys)
        pg = random_property_graph(rng, 12, 20)
        self.check_pg_json_file(ttls(serialize_pg_json(pg), "random.pg.json"), tmp_path, capsys)

    @pytest.mark.parametrize("command", ["rdf2pg", "pg2rdf"])
    def test_write_count_is_bounded_by_size(self, ttls, monkeypatch, command):
        pg = _wide_pg(3000)
        if command == "rdf2pg":
            path = ttls(serialize_turtle_star(pg_to_rdf_star(pg)))
            argv = ["rdf2pg", path, "--mode", "rdf-like"]
        else:
            argv = ["pg2rdf", ttls(serialize_pg_json(pg), "wide.pg.json")]
        stream = CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(argv) == 0
        size = len(stream.getvalue().encode("utf-8"))
        assert size > 2 * starpg.cli._PIECE_SIZE
        assert len(stream.writes) <= math.ceil(size / starpg.cli._PIECE_SIZE) + 1
        assert all(len(w) >= starpg.cli._PIECE_SIZE for w in stream.writes[:-1])


class TestCollector:
    """main runs a command with the cyclic collector off and leaves the
    collector as it found it, whatever the outcome."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        before = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if before else gc.disable)()

    @pytest.mark.parametrize("argv, code", [
        (["check", ALICE_BOB], 0),
        (["check", ALICE_BOB, "--level", "strong"], 1),
        (["check", KUBRICK, "--from", "turtle-star"], 2),
    ], ids=["exit-0", "exit-1", "exit-2"])
    def test_state_is_restored(self, collector, argv, code, capsys):
        assert main(argv) == code
        assert gc.isenabled() == collector

    def test_state_is_restored_after_a_usage_error(self, collector, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", ALICE_BOB, "--level", "nonsense"])
        assert exc.value.code == 2
        assert gc.isenabled() == collector

    def test_command_runs_without_the_collector(self, collector, monkeypatch, capsys):
        seen = []
        command = starpg.cli.cmd_check

        def recording(args):
            seen.append(gc.isenabled())
            return command(args)

        monkeypatch.setattr(starpg.cli, "cmd_check", recording)
        assert main(["check", ALICE_BOB]) == 0
        assert seen == [False]
        assert gc.isenabled() == collector

    def test_commands_leave_no_cycles_of_starpg_objects(self, ttls, tmp_path, monkeypatch,
                                                        capsys):
        # The collector is off while a command runs, so anything of starpg's
        # caught in a reference cycle would stay until the process exits.
        blank = ttls("_:x <http://example.org/p> _:y .\n"
                     "<< _:x <http://example.org/p> _:y >> <http://example.org/q> 1 .\n")
        wide = ttls(serialize_pg_json(_wide_pg(3000)), "wide.pg.json")
        out = str(tmp_path / "out")
        writers = (["unfold", blank], ["pg2rdf", KUBRICK], ["rdf2pg", blank, "--mode", "rdf-like"])
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for argv in (["roundtrip", blank], ["check", ALICE_BOB], *writers,
                         *([*argv, "-o", out] for argv in writers)):
                assert main(argv) == 0
            # The first piece of the output fails to write, and the rest of
            # the document is never made.
            with monkeypatch.context() as patch:
                patch.setattr(sys, "stdout", FailingStream())
                assert main(["pg2rdf", wide]) == 2
            assert capsys.readouterr().err == "i/o error: [Errno 28] No space left on device\n"
            gc.collect()
            ours = [o for o in gc.garbage
                    if str(getattr(o, "__module__", "")).startswith("starpg")]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert ours == []


# Runs starpg.cli.main in-process for each argv read as JSON from stdin,
# and prints the exit code, stdout and stderr of each as JSON.
_MAIN_PER_ARGV = """
import contextlib, io, json, sys
from starpg.cli import main
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


class TestHashSeedDeterminism:
    def test_every_command_gives_the_same_bytes_under_two_hash_seeds(self, tmp_path):
        multi = build_multi_host()
        clean = RdfStarGraph(multi.triples - set(MULTI_HOST_VIOLATORS))
        turtle = sorted(str(p) for p in DATA_DIR.glob("*.ttls"))
        for name, g in (("multi_host.ttls", multi), ("multi_host_clean.ttls", clean)):
            (tmp_path / name).write_text(serialize_turtle_star(g), encoding="utf-8")
            turtle.append(str(tmp_path / name))
        rdf_like = tmp_path / "multi_host.pg.json"
        rdf_like.write_text(serialize_pg_json(to_rdf_like_pg(clean).graph), encoding="utf-8")
        argvs = []
        for path in turtle:
            argvs += [["check", path, "--level", level, "--report", report]
                      for level in ("minimal", "convertible", "strong")
                      for report in ("text", "json")]
            argvs += [["rdf2pg", path, "--mode", mode] for mode in ("rdf-like", "simple")]
            argvs += [["unfold", path]]
            argvs += [["roundtrip", path, "--report", report] for report in ("text", "json")]
        for path in (KUBRICK, str(rdf_like)):
            argvs += [["pg2rdf", path], ["pg2rdf", path, "--vertex-ids", f"iri:{EX}v/"]]

        def run(seed: str) -> list:
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": str(Path(starpg.__file__).parent.parent)}
            result = subprocess.run([sys.executable, "-c", _MAIN_PER_ARGV],
                                    input=json.dumps(argvs), capture_output=True, text=True,
                                    env=env, check=True)
            return json.loads(result.stdout)

        first = run("1")
        assert {code for code, _, _ in first} == {0, 1}
        assert first == run("2")


class TestEndToEnd:
    def test_pg_to_rdf_to_pg_pipeline(self, tmp_path, capsys):
        middle = tmp_path / "middle.ttls"
        assert main(["pg2rdf", KUBRICK, "-o", str(middle)]) == 0
        assert main(["check", str(middle)]) == 0
        capsys.readouterr()
        assert main(["rdf2pg", str(middle), "--mode", "rdf-like"]) == 0
        g = parse_pg_json(capsys.readouterr().out)
        # 2 node vertices + 3 literal vertices; one edge per ordinary triple,
        # including the embedded influencedBy triple
        assert len(g.vertices) == 5
        assert len(g.edges) == 5

    def test_console_script_runs(self):
        result = subprocess.run(
            [sys.executable, "-m", "starpg.cli", ALICE_BOB],
            capture_output=True, text=True,
        )
        # module execution without a subcommand is a usage error
        assert result.returncode == 2

    def test_console_entry_point(self):
        # The declared script when installed; otherwise the same main()
        # through the package's __main__.
        pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
        assert 'starpg = "starpg.cli:main"' in pyproject
        script = shutil.which("starpg")
        command = [script] if script else [sys.executable, "-m", "starpg"]
        result = subprocess.run(command + ["check", ALICE_BOB], capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "OK"
