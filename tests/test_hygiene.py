"""Source hygiene: every imported name is used in the module that imports it.

A stdlib-ast check over src/ and tests/.  A name counts as used when it
occurs as a name anywhere in the module, quoted annotations included.
Names a module lists in __all__ are re-exports, and __future__ imports
are compiler directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    trees = [tree]
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) for every imported name the module never uses."""
    tree = ast.parse(source)
    used = _used(tree) | _exported(tree)
    return sorted(((name, line) for name, line in _imported(tree).items() if name not in used),
                  key=lambda x: x[1])


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


class TestChecker:
    def test_finds_an_unused_name(self):
        source = "import os\nfrom re import compile, sub\nsub('a', 'b', 'c')\n"
        assert unused_imports(source) == [("os", 1), ("compile", 2)]

    def test_counts_quoted_annotations_all_and_dotted_imports(self):
        source = (
            "from __future__ import annotations\n"
            "import os.path\n"
            "from typing import Mapping, Sequence\n"
            "from json import dumps\n"
            "__all__ = ['dumps']\n"
            "def f(x: 'Mapping[str, int]') -> 'Sequence[int]':\n"
            "    return os.path.sep\n"
        )
        assert unused_imports(source) == []
