"""The examples of README.md, run as they are written.

Each `$ starpg ...` line of a sh block runs through cli.main from the
repository root, and its standard output must equal the lines shown
under it.  A `...` line ends the part shown, so the output need only
start with the lines above it.  The json block is parsed as PG-JSON, and
the python block of the library quick start runs as it is.
"""

import re
import shlex
from pathlib import Path

import pytest

from starpg import parse_pg_json
from starpg.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)


def _examples() -> list[tuple[str, list[str]]]:
    """(command, lines shown) for each `$ starpg` line of the sh blocks."""
    out = []
    for lang, body in BLOCKS:
        if lang != "sh":
            continue
        for chunk in re.split(r"^(?=\$ )", body, flags=re.M):
            command, _, shown = chunk.partition("\n")
            if command.startswith("$ starpg "):
                out.append((command[len("$ starpg "):], shown.splitlines()))
    return out


EXAMPLES = _examples()


def test_every_example_is_found():
    assert [c.split()[0] for c, _ in EXAMPLES] == [
        "check", "check", "rdf2pg", "pg2rdf", "unfold", "roundtrip", "roundtrip"]


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_cli_example(monkeypatch, capsys, command, shown):
    monkeypatch.chdir(ROOT)
    main(shlex.split(command))
    out = capsys.readouterr().out.splitlines()
    if "..." in shown:
        shown = shown[:shown.index("...")]
        out = out[:len(shown)]
    assert out == shown


def test_pg_json_example_parses():
    (document,) = [body for lang, body in BLOCKS if lang == "json"]
    graph = parse_pg_json(document)
    assert graph.vertices == {"Kubrick", "Welles"}


def test_library_quick_start_runs(capsys):
    (program,) = [body for lang, body in BLOCKS
                  if lang == "python" and "from starpg import" in body]
    exec(program, {})
    assert capsys.readouterr().out.startswith("{\n")
