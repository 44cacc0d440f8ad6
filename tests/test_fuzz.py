"""Fuzzing the command line: random bytes, token soup and mostly
well-formed documents, each passed to a command through a file.

Whatever the input, every command must exit with 0, 1 or 2 and print no
traceback.  A run that exits with 2 prints one line on standard error; one
that exits with 1 prints only violation lines, as a text report, or the
line of an error or of a round-trip mismatch, whatever text they quote.
Commands that write data sometimes write to a file with -o, which
encodes the text, unlike the captured standard output.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import given, settings
import hypothesis.strategies as st

from starpg.cli import main

EX = "http://example.org/"

_TURTLE_TOKENS = [
    "@prefix", "ex:", f"<{EX}>", f"<{EX}s>", "<not an iri>", "ex:s", "ex:p", "ex:o", "a",
    "_:b1", "_:b2", "_:x", "_:", "_:b" + "9" * 5000, "<<", ">>", "<", ">", ".", ";", ",", "[", "]", "(", ")",
    '"v"', '"v"@en', '"v"@', '"5"^^<http://www.w3.org/2001/XMLSchema#integer>',
    '"x"^^<http://www.w3.org/2001/XMLSchema#integer>', '"0.5"^^ex:t', '"', '"""', "'v'",
    '"\\q"', '"\\n"', '"a\\nb"^^ex:t', '"\\\n', "1", "-1", "1.5", ".5", "1e3", "+",
    "true", "false", "^^", "@base",
    "@", "#c\n", "\n", "\r", "\t", "\x00", " ", "é",
    "+x", "+.", "_", ":x", "..5", "<<<", '"a"^^_:x', '"a"^^true',
    "1" * 5000,  # longer than int() converts
]
_PREFIX = f"@prefix ex: <{EX}> .\n"
_TURTLE_COMMANDS = [
    ["check"], ["check", "--level", "strong"], ["check", "--level", "minimal"],
    ["check", "--literal-mode", "strict", "--report", "json"],
    ["rdf2pg", "--mode", "rdf-like"], ["rdf2pg", "--mode", "simple", "--report", "json"],
    ["unfold"], ["roundtrip"], ["roundtrip", "--literal-mode", "strict"],
]
_PG_COMMANDS = [["pg2rdf"], ["pg2rdf", "--vertex-ids", f"iri:{EX}v/"],
                ["pg2rdf", "--report", "json"]]
# The output extension of each command that writes data.
_OUTPUTS = {"rdf2pg": ".pg.json", "pg2rdf": ".ttls", "unfold": ".ttls"}

_PG_KEYS = ["vertices", "edges", "id", "properties", "key", "value", "type", "src", "tgt",
            "label", "extra"]
_PG_TYPES = ["string", "integer", "double", "boolean", "text"]
_JSON_SCALARS = (st.none() | st.booleans() | st.integers(min_value=-2 ** 70, max_value=2 ** 70)
                 | st.floats(allow_nan=False) | st.sampled_from(["", "v1", "v2", "INF", "-INF"]))
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_PG_KEYS), inner, max_size=5),
    max_leaves=12,
)
# An integer longer than int() converts.  json.dumps and Hypothesis's repr
# refuse such an int, so documents hold _LONG, a placeholder string that
# _dumps writes as the raw digits.
_LONG_DIGITS = "1" * 5000
_LONG = "<long integer>"
# Text of any code points, lone surrogates included.
_TEXT = st.text(st.characters(codec=None, exclude_categories=()), max_size=4)
# Mostly well-formed PG-JSON: typed values usually match their type, and
# vertex ids are unique, but edges may name missing vertices.
_IDS = st.sampled_from(["v1", "v2", "v3", "a b#c", ""]) | _TEXT
_PG_VALUE = st.one_of(
    st.builds(lambda v: {"type": "string", "value": v}, _TEXT),
    st.builds(lambda v: {"type": "integer", "value": v},
              st.integers(-2 ** 60, 2 ** 60) | st.sampled_from([_LONG, _LONG_DIGITS])),
    # Doubles include NaN and integer tokens beyond the double range.
    st.builds(lambda v: {"type": "double", "value": v},
              st.floats() | st.integers(2 ** 1024, 2 ** 1100)
              | st.integers(-2 ** 1100, -2 ** 1024)),
    st.builds(lambda v: {"type": "boolean", "value": v}, st.booleans()),
    st.fixed_dictionaries({"type": st.sampled_from(_PG_TYPES), "value": _JSON_SCALARS}),
)
_PG_PROPERTIES = st.lists(st.fixed_dictionaries({
    "key": st.sampled_from(["name", "age", "a b", "", "http://x/y"]) | _TEXT, "value": _PG_VALUE,
}), max_size=3)
_PG_DOCUMENT = st.fixed_dictionaries({
    "vertices": st.lists(_IDS, unique=True, max_size=4).flatmap(lambda ids: st.tuples(
        *(st.fixed_dictionaries({"id": st.just(i), "properties": _PG_PROPERTIES}) for i in ids)
    ).map(list)),
    "edges": st.lists(st.fixed_dictionaries({
        "id": st.sampled_from(["e1", "e2", "e3"]), "src": _IDS, "tgt": _IDS,
        "label": st.sampled_from(["knows", "", "a b"]) | _TEXT, "properties": _PG_PROPERTIES,
    }), max_size=4),
})

# Mostly well-formed Turtle-star statements, nested up to a few levels.
_PREDICATE = st.sampled_from(["ex:p", "ex:q", "a"])
_NODE = st.sampled_from(["ex:s", "ex:o", f"<{EX}t>", "_:b1", "_:b2", "_:x", "_:b10"])
# Most literals carry a property value; the last three carry none.
_LITERAL = st.sampled_from(['"v"', '"w"', "1", "0.5", "1e3", "true", '"v"@en', '"abc"^^ex:t',
                            '"a\\nb\\"c"^^ex:t'])
_SUBJECT = st.recursive(
    _NODE,
    lambda inner: st.tuples(inner, _PREDICATE, st.one_of(_NODE, _LITERAL, inner)).map(
        lambda t: f"<<{t[0]} {t[1]} {t[2]}>>"),
    max_leaves=4,
)
_STATEMENT = st.tuples(_SUBJECT, _PREDICATE, st.one_of(_NODE, _LITERAL, _LITERAL, _SUBJECT)).map(
    lambda t: f"{t[0]} {t[1]} {t[2]} .")


def _dumps(document) -> bytes:
    return json.dumps(document).replace(f'"{_LONG}"', _LONG_DIGITS).encode("utf-8")


def _run(argv: list[str], data: bytes, suffix: str, to_file: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input" + suffix)
        with open(path, "wb") as handle:
            handle.write(data)
        if to_file and argv[0] in _OUTPUTS:
            argv = [*argv, "-o", os.path.join(tmp, "output" + _OUTPUTS[argv[0]])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], path, *argv[1:]])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().endswith("\n") and err.getvalue().count("\n") == 1
    elif code == 1 and "json" not in argv:
        text = out.getvalue() + err.getvalue()
        assert text.endswith("\n")
        assert all(line.startswith(("[", "error: ", "round-trip mismatch"))
                   for line in text.split("\n")[:-1])


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=200), st.sampled_from(_TURTLE_COMMANDS + _PG_COMMANDS), st.booleans())
def test_random_bytes(data, argv, to_file):
    _run(argv, data, ".pg.json" if argv[0] == "pg2rdf" else ".ttls", to_file)


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.lists(st.sampled_from(_TURTLE_TOKENS), max_size=30),
       st.sampled_from(_TURTLE_COMMANDS), st.booleans())
def test_turtle_token_soup(prefixed, tokens, argv, to_file):
    text = (_PREFIX if prefixed else "") + " ".join(tokens)
    _run(argv, text.encode("utf-8"), ".ttls", to_file)


@settings(max_examples=200, deadline=None)
@given(st.lists(_STATEMENT, max_size=12), st.sampled_from(_TURTLE_COMMANDS), st.booleans())
def test_turtle_statements(statements, argv, to_file):
    _run(argv, (_PREFIX + "\n".join(statements)).encode("utf-8"), ".ttls", to_file)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(['{', '}', '[', ']', ',', ':', '"', 'null', 'true', '1',
                                 '-0.5e400', *(f'"{k}"' for k in _PG_KEYS + _PG_TYPES)]),
                max_size=40),
       st.sampled_from(_PG_COMMANDS), st.booleans())
def test_pg_json_token_soup(tokens, argv, to_file):
    _run(argv, "".join(tokens).encode("utf-8"), ".pg.json", to_file)


@settings(max_examples=200, deadline=None)
@given(_JSON | _PG_DOCUMENT, st.sampled_from(_PG_COMMANDS), st.booleans())
def test_pg_json_documents(document, argv, to_file):
    _run(argv, _dumps(document), ".pg.json", to_file)
