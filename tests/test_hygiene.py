"""Source hygiene, checked with stdlib ast over src/ and tests/.

Every imported name is used in the module that imports it.  A name
counts as used when it occurs as a name anywhere in the module, quoted
annotations included.  Names a module lists in __all__ are re-exports,
and __future__ imports are compiler directives, so both are exempt.

Every module-level name of src/starpg (a function, class or
assignment) is referenced somewhere in src/ or tests/ besides its
definition: as a name, as an attribute, as the name a from-import takes
(also under another name), or as a string equal to it, as in
monkeypatch.setattr(module, "_name", ...).  Dunders are exempt, and so
are the public names of the package, those in starpg.__all__.

starpg.__all__ is sorted without repeats, and a star import of the
package binds exactly its names.

PropertyGraph._trusted, which skips every check, is used only in
transforms.py, whose transforms build their graphs themselves; every
input boundary, parse_pg_json above all, goes through the checked
constructor.

Triple._of and RdfStarGraph._of, which skip the type checks, are used
only in rdf.py, turtle.py and transforms.py, whose call sites build from
terms the package made itself, and in tests/test_term_model.py, which
checks them against the checked constructors; no input boundary uses
them.

No f-string in src/starpg outside turtle.py inserts a .lexical_form
as it is: a literal shown to a user is quoted by the Turtle-star
writer's escapes, so that it reads back as the same literal and a
newline or quote in it cannot split or end the line that shows it.

tests/pgjson_oracle.py imports from starpg only the per-value helpers
and the two classes it imports today: never the reader's element check
_add nor its streamed path, which would make the differential test
compare the reader with itself.
"""

import ast
from functools import cache
from pathlib import Path
from typing import Callable

import pytest

import starpg

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
MODULES = sorted((ROOT / "src" / "starpg").rglob("*.py"))


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


def _quoted_annotations(tree: ast.Module):
    """Each string in an annotation, parsed."""
    for annotation in _annotations(tree):
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield ast.parse(node.value, mode="eval")


def _used(tree: ast.Module) -> set[str]:
    trees = [tree, *_quoted_annotations(tree)]
    return {node.id for t in trees for node in ast.walk(t) if isinstance(node, ast.Name)}


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) for every imported name the module never uses."""
    tree = ast.parse(source)
    used = _used(tree) | _exported(tree)
    return sorted(((name, line) for name, line in _imported(tree).items() if name not in used),
                  key=lambda x: x[1])


def _definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level name the module defines, dunders aside, with its line."""
    out: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        out[name.id] = node.lineno
    return {name: line for name, line in out.items() if not name.startswith("__")}


def references(source: str) -> set[str]:
    """Every name the module loads, every attribute name, every name it
    imports from a module and every string, plus the names in quoted
    annotations."""
    tree = ast.parse(source)
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    for quoted in _quoted_annotations(tree):
        out |= {node.id for node in ast.walk(quoted) if isinstance(node, ast.Name)}
    return out


def _unreferenced(source: str, elsewhere: set[str],
                  checked: Callable[[str], bool]) -> list[tuple[str, int]]:
    referenced = references(source) | elsewhere
    return sorted(((name, line) for name, line in _definitions(ast.parse(source)).items()
                   if checked(name) and name not in referenced), key=lambda x: x[1])


def unreferenced_private_names(source: str,
                               elsewhere: set[str] = frozenset()) -> list[tuple[str, int]]:
    """(name, line) for every module-level private name of source that
    neither source references nor is in elsewhere, the references of the
    other modules."""
    return _unreferenced(source, elsewhere, lambda name: name.startswith("_"))


def unreferenced_public_names(source: str, exported: set[str],
                              elsewhere: set[str] = frozenset()) -> list[tuple[str, int]]:
    """The same for every module-level public name of source outside exported."""
    return _unreferenced(source, elsewhere,
                         lambda name: not name.startswith("_") and name not in exported)


@cache
def _file_references(path: Path) -> set[str]:
    return references(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _elsewhere(path: Path) -> set[str]:
    return set().union(*(_file_references(f) for f in FILES if f != path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_private_name_is_referenced(path):
    assert unreferenced_private_names(path.read_text(encoding="utf-8"), _elsewhere(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_public_name_is_exported_or_referenced(path):
    package = ROOT / "src" / "starpg" / "__init__.py"
    exported = _exported(ast.parse(package.read_text(encoding="utf-8")))
    source = path.read_text(encoding="utf-8")
    assert unreferenced_public_names(source, exported, _elsewhere(path)) == []


def test_package_exports_are_sorted_and_all_bound():
    assert starpg.__all__ == sorted(set(starpg.__all__))
    namespace: dict = {}
    exec("from starpg import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(starpg.__all__)


def attribute_uses(source: str, attr: str) -> list[int]:
    """The line of every use of the attribute attr in source."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == attr)


def test_only_the_transforms_build_unchecked_graphs():
    users = {str(path.relative_to(ROOT)) for path in FILES
             if attribute_uses(path.read_text(encoding="utf-8"), "_trusted")}
    assert users == {"src/starpg/transforms.py"}


def test_only_the_rdf_side_builds_unchecked_triples_and_graphs():
    users = {str(path.relative_to(ROOT)) for path in FILES
             if attribute_uses(path.read_text(encoding="utf-8"), "_of")}
    assert users == {"src/starpg/rdf.py", "src/starpg/turtle.py", "src/starpg/transforms.py",
                     "tests/test_term_model.py"}


def lexical_form_insertions(source: str) -> list[int]:
    """The line of every f-string field that inserts a .lexical_form as it is."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.FormattedValue)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "lexical_form")


@pytest.mark.parametrize("path", [m for m in MODULES if m.name != "turtle.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_writer_renders_lexical_forms(path):
    assert lexical_form_insertions(path.read_text(encoding="utf-8")) == []


def starpg_imports(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name source imports from starpg or one of
    its modules, and (module, "") for each plain import of one."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out |= {(alias.name, "") for alias in node.names
                    if alias.name.partition(".")[0] == "starpg"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "starpg":
            out |= {(node.module, alias.name) for alias in node.names}
    return out


def test_the_pgjson_oracle_imports_only_per_value_helpers():
    source = (ROOT / "tests" / "pgjson_oracle.py").read_text(encoding="utf-8")
    helpers = {"_DOCUMENT_KEYS", "_EDGE_KEYS", "_SURROGATE_ESCAPE_RE", "_SURROGATE_RE",
               "_VERTEX_KEYS", "_parse_id", "_parse_properties", "_shape_error", "_strings",
               "_too_long"}
    assert starpg_imports(source) == {("starpg", "PropertyGraph"), ("starpg", "SchemaError"),
                                      *(("starpg.pgjson", name) for name in helpers)}


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


class TestPrivateNameChecker:
    def test_finds_unreferenced_functions_classes_and_assignments(self):
        source = (
            "_A = 1\n"
            "_b: int = 2\n"
            "def _f():\n"
            "    _local = _A\n"
            "class _C:\n"
            "    pass\n"
            "def public():\n"
            "    return _b\n"
        )
        assert unreferenced_private_names(source) == [("_f", 3), ("_C", 5)]

    def test_a_store_is_not_a_reference(self):
        source = "_x = 1\n_x = 2\n_y, _z = 3, 4\nprint(_z)\n"
        assert unreferenced_private_names(source) == [("_x", 2), ("_y", 3)]

    def test_dunders_and_public_names_are_exempt(self):
        source = "__all__ = ['f']\n__version__ = '1'\ndef f():\n    pass\n"
        assert unreferenced_private_names(source) == []

    def test_names_attributes_strings_and_annotations_elsewhere_count(self):
        source = "def _a(): pass\ndef _b(): pass\ndef _c(): pass\nclass _D: pass\n"
        other = (
            "import mod\n"
            "mod._a()\n"
            "monkeypatch.setattr(mod, '_b', None)\n"
            "from mod import _c\n"
            "_c()\n"
            "def f(x: 'list[_D]'): pass\n"
        )
        assert unreferenced_private_names(source, references(other)) == []
        assert unreferenced_private_names(source) == [
            ("_a", 1), ("_b", 2), ("_c", 3), ("_D", 4)]


class TestStarpgImports:
    def test_finds_plain_and_from_imports_of_the_package_only(self):
        source = ("import json\nimport starpg.pgjson\nfrom starpg.pgjson import _add as a\n"
                  "from starpg import parse_pg_json\nfrom json import loads\n")
        assert starpg_imports(source) == {("starpg.pgjson", ""), ("starpg.pgjson", "_add"),
                                          ("starpg", "parse_pg_json")}


class TestAttributeUses:
    def test_finds_uses_but_not_definitions(self):
        source = "class G:\n    def _trusted(self): ...\nG._trusted()\nf = G()._trusted\n"
        assert attribute_uses(source, "_trusted") == [3, 4]


class TestLexicalFormInsertions:
    def test_finds_raw_fields_but_not_quoted_ones(self):
        source = ("a = f'\"{l.lexical_form}\"'\n"
                  "b = f'{_quote(l.lexical_form)}@{l.language}'\n"
                  "c = l.lexical_form + ''\n"
                  "d = f'{x!r} {t.object.lexical_form:>5}'\n")
        assert lexical_form_insertions(source) == [1, 4]


class TestPublicNameChecker:
    SOURCE = "KEY = 'k'\nSPARE = 'k'\ndef api(): pass\ndef helper(): return KEY\nclass Shown: pass\n"

    def test_finds_unreferenced_public_names_outside_exported(self):
        assert unreferenced_public_names(self.SOURCE, {"api"}) == [
            ("SPARE", 2), ("helper", 4), ("Shown", 5)]

    def test_references_elsewhere_count_and_private_names_are_left_out(self):
        other = references("from mod import helper, Shown as S\nhelper()\nmod.SPARE\n")
        assert unreferenced_public_names(self.SOURCE + "_x = 1\n", {"api"}, other) == []
