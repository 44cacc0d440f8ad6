"""The Turtle-star parser as it was before its tokenizer, kept as an
oracle: a character-level recursive descent, frozen with its own copies
of the token patterns.  tests/test_turtle.py checks that parse_turtle_star
gives the same graph and prefixes, or the same error at the same line and
column, on every document it draws.

Since then it has learnt what the reader learnt: \\uXXXX and \\UXXXXXXXX
escapes, checked here digit by digit and by arithmetic rather than by
the reader's pattern.
"""

from __future__ import annotations

import re
from typing import NoReturn

from starpg import RdfStarGraph, TurtleParseError
from starpg.namespaces import (
    RDF_LANG_STRING,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from starpg.rdf import (
    MAX_NESTING_DEPTH,
    _BNODE_LABEL_RE,
    _LANG_TAG_RE,
    BNode,
    Iri,
    Literal,
    Term,
    Triple,
)

_PREFIX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_LOCAL_RE = re.compile(r"(?:[A-Za-z0-9_][A-Za-z0-9_-]*)?")
_PNAME_RE = re.compile(f"(?:{_PREFIX_RE.pattern})?:{_LOCAL_RE.pattern}")
# Double (mandatory exponent) must be tried before decimal and integer.
_NUMBER_RE = re.compile(
    r"[+-]?(?:"
    r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)[eE][+-]?[0-9]+"
    r"|[0-9]*\.[0-9]+"
    r"|[0-9]+"
    r")"
)
_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
# Turtle constructs outside the subset, by the character their object starts with.
_UNSUPPORTED = {"'": "single-quoted strings", "[": "blank node property lists",
                "(": "collections"}
_TRIVIA_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_IRI_BODY_RE = re.compile(r"[^>\n]*")
_STRING_RUN_RE = re.compile(r'[^"\\\n\r]*')


def _number_datatype(lex: str) -> str:
    """The datatype of a bare number token: double with an exponent,
    decimal with a point, integer otherwise."""
    if "e" in lex or "E" in lex:
        return XSD_DOUBLE
    return XSD_DECIMAL if "." in lex else XSD_INTEGER


class _Parser:
    """Recursive descent over the text; the scanner keeps only pos, and
    line and column are computed from it when an error is raised."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.prefixes: dict[str, str] = {}
        self.triples: set[Triple] = set()
        # The term tables: equal IRIs share one object, and so do equal
        # literals, keyed by lexical form, datatype and language tag.  The
        # prefixed names resolved so far map their text to their IRI until
        # the next @prefix.
        self.iris: dict[str, Iri] = {}
        self.literals: dict[tuple, Literal] = {}
        self.pnames: dict[str, Iri] = {}
        self.depth = 0  # << >> levels open at pos

    # -- scanning primitives -------------------------------------------

    def peek(self, k: int = 0) -> str:
        i = self.pos + k
        return self.text[i] if i < len(self.text) else ""

    def error(self, message: str, at: int | None = None) -> NoReturn:
        pos = self.pos if at is None else at
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        raise TurtleParseError(line, column, message)

    def skip_trivia(self) -> None:
        self.pos = _TRIVIA_RE.match(self.text, self.pos).end()

    def take(self, expected: str, what: str) -> None:
        for c in expected:
            if self.peek() != c:
                self.error(f"expected {what}")
            self.pos += 1

    def match_re(self, pattern: re.Pattern) -> str | None:
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()

    def iri(self, value: str) -> Iri:
        """The Iri for value; raises ValueError like Iri itself."""
        iri = self.iris.get(value)
        if iri is None:
            iri = self.iris[value] = Iri(value)
        return iri

    def literal(self, lex: str, datatype: Iri, language: str | None = None) -> Literal:
        """The Literal for its fields; raises ValueError like Literal.
        A language-tagged literal passes its datatype as rdf:langString."""
        key = (lex, datatype.value, language)
        literal = self.literals.get(key)
        if literal is None:
            literal = self.literals[key] = Literal(lex, datatype, language)
        return literal

    # -- grammar -------------------------------------------------------

    def parse(self) -> tuple[RdfStarGraph, dict[str, str]]:
        while True:
            self.skip_trivia()
            if self.pos >= len(self.text):
                break
            if self.peek() == "@":
                self.directive()
            else:
                self.statement()
        return RdfStarGraph(self.triples), dict(self.prefixes)

    def directive(self) -> None:
        at = self.pos
        self.pos += 1  # '@'
        word = self.match_re(_PREFIX_RE) or ""
        if word == "base":
            self.error("@base is not supported", at)
        if word != "prefix":
            self.error(f"unknown directive @{word}", at)
        self.skip_trivia()
        label = self.match_re(_PREFIX_RE) or ""
        if self.peek() != ":":
            self.error("expected ':' after prefix label")
        self.pos += 1
        self.skip_trivia()
        iri = self.iriref()
        self.prefixes[label] = iri.value  # a later declaration wins
        self.pnames.clear()
        self.expect_dot()

    def statement(self) -> None:
        subject = self.term("subject")
        self.predicate_object_list(subject)
        self.expect_dot()

    def predicate_object_list(self, subject) -> None:
        while True:
            predicate = self.term("predicate")
            while True:
                obj = self.term("object")
                self.triples.add(Triple(subject, predicate, obj))
                self.skip_trivia()
                if self.peek() == ",":
                    self.pos += 1
                    continue
                break
            if self.peek() == ";":
                while self.peek() == ";":
                    self.pos += 1
                    self.skip_trivia()
                if self.peek() == ".":
                    return
                continue
            return

    def expect_dot(self) -> None:
        self.skip_trivia()
        if self.peek() != ".":
            self.error("expected '.'")
        self.pos += 1

    def term(self, position: str) -> Term:
        """The term at pos, after trivia, in position "subject", "predicate"
        or "object".  A subject at depth > 0 is an embedded triple's: there
        a literal start is an embedded triple with literal subject."""
        self.skip_trivia()
        c = self.peek()
        if c == "":
            self.error(f"expected {position}, found end of input")
        if c == "<":
            if self.peek(1) != "<":
                return self.iriref()
            if position == "predicate":
                self.error("embedded triple not allowed as predicate")
            return self.embedded()
        if c == "_" and position != "predicate":
            return self.bnode()
        n = self.peek(1) if c in "+-." else ""  # only a sign or a point looks ahead
        if position == "object":
            if c == '"':
                return self.string_literal()
            if c.isdigit() or c in "+-" and (n.isdigit() or n == ".") or c == "." and n.isdigit():
                return self.numeric_literal()
            if c in _UNSUPPORTED:
                self.error(f"{_UNSUPPORTED[c]} are not supported")
        elif c == '"' or c.isdigit() or c in "+-" or (
                c == "." and n.isdigit() and position == "subject"):
            if position == "subject" and self.depth > 0:
                self.error("embedded triple with literal subject")
            self.error(f"literal not allowed as {position}")
        return self.name(position)

    def embedded(self) -> Triple:
        if self.depth == MAX_NESTING_DEPTH:
            self.error(f"embedded triples nested deeper than {MAX_NESTING_DEPTH} levels")
        self.depth += 1
        self.take("<<", "'<<'")
        subject = self.term("subject")
        predicate = self.term("predicate")
        obj = self.term("object")
        self.skip_trivia()
        if self.peek() != ">" or self.peek(1) != ">":
            self.error("expected '>>'")
        self.pos += 2
        self.depth -= 1
        return Triple(subject, predicate, obj)

    def iriref(self) -> Iri:
        at = self.pos
        self.take("<", "IRI")
        end = _IRI_BODY_RE.match(self.text, self.pos).end()
        if end == len(self.text) or self.text[end] == "\n":
            self.error("unterminated IRI", at)
        value = self.text[self.pos:end]
        self.pos = end + 1  # past '>'
        try:
            return self.iri(value)
        except ValueError as exc:
            self.error(f"invalid IRI: {exc}", at)

    def bnode(self) -> BNode:
        at = self.pos
        self.take("_:", "blank node label")
        label = self.match_re(_BNODE_LABEL_RE)
        if label is None:
            self.error("invalid blank node label", at)
        return BNode(label)

    def known_pname(self) -> Iri | None:
        """The IRI of the prefixed name at pos if it was resolved before,
        moving past it; None otherwise, without moving."""
        m = _PNAME_RE.match(self.text, self.pos)
        iri = self.pnames.get(m.group()) if m is not None else None
        if iri is not None:
            self.pos = m.end()
        return iri

    def name(self, position: str) -> Iri | Literal:
        """The prefixed name at pos in position "subject", "predicate",
        "object" or "datatype"; besides, the keyword 'a' as a predicate and
        a boolean as an object."""
        iri = self.known_pname()
        if iri is not None:
            return iri
        at = self.pos
        word = self.match_re(_PREFIX_RE) or ""
        if self.peek() != ":":
            if word == "a" and position == "predicate":
                return self.iri(RDF_TYPE)
            if word in ("true", "false"):
                if position == "object":
                    return self.literal(word, self.iri(XSD_BOOLEAN))
                self.error("literal not allowed here", at)
            if word:
                self.error(f"expected ':' in prefixed name after {word!r}", at)
            if self.peek() == "":  # only a datatype reaches here at the end of input
                self.error(f"expected {position}, found end of input")
            self.error(f"unexpected character {self.peek()!r}", at)
        self.pos += 1
        if word not in self.prefixes:
            self.error(f"unknown prefix {word!r}", at)
        # A declared namespace is a valid IRI, and so is any local name after it.
        iri = self.iri(self.prefixes[word] + self.match_re(_LOCAL_RE))
        self.pnames[self.text[at:self.pos]] = iri
        return iri

    def numeric_literal(self) -> Literal:
        lex = self.match_re(_NUMBER_RE)
        if lex is None:
            self.error("malformed number")
        return self.literal(lex, self.iri(_number_datatype(lex)))

    def code_point_escape(self, e: str) -> str:
        """The character of the \\u or \\U escape at the backslash at pos."""
        n = 4 if e == "u" else 8
        digits = self.text[self.pos + 2:self.pos + 2 + n]
        if len(digits) < n or any(d not in "0123456789abcdefABCDEF" for d in digits):
            self.error(f"\\{e} escape needs {n} hex digits", self.pos)
        code = int(digits, 16)
        if 0xD800 <= code <= 0xDFFF or code > 0x10FFFF:
            self.error(f"escape \\{e}{digits} is not a Unicode scalar value", self.pos)
        self.pos += 2 + n
        return chr(code)

    def string_literal(self) -> Literal:
        at = self.pos
        self.pos += 1  # opening quote
        if self.peek() == '"' and self.peek(1) == '"':
            self.error("triple-quoted strings are not supported", at)
        chars: list[str] = []
        while True:
            chars.append(self.match_re(_STRING_RUN_RE))
            c = self.peek()
            if c == "" or c in "\n\r":
                self.error("unterminated string literal", at)
            if c == '"':
                self.pos += 1
                break
            # c is a backslash
            e = self.peek(1)
            if e in ("u", "U"):
                chars.append(self.code_point_escape(e))
                continue
            if e not in _ESCAPES:
                self.error(f"unsupported escape \\{e if e.isprintable() else repr(e)}", self.pos)
            chars.append(_ESCAPES[e])
            self.pos += 2
        lex = "".join(chars)
        # Language tag or datatype must be adjacent, per Turtle.
        if self.peek() == "@":
            self.pos += 1
            tag = self.match_re(_LANG_TAG_RE)
            if tag is None:
                self.error("malformed language tag")
            return self.literal(lex, self.iri(RDF_LANG_STRING), tag)
        if self.peek() == "^" and self.peek(1) == "^":
            self.pos += 2
            self.skip_trivia()
            if self.peek() != "<":
                dt = self.name("datatype")
            elif self.peek(1) == "<":
                self.error("expected datatype IRI")
            else:
                dt = self.iriref()
            try:
                return self.literal(lex, dt)
            except ValueError as exc:
                self.error(str(exc), at)
        return self.literal(lex, self.iri(XSD_STRING))


def parse(text: str) -> tuple[RdfStarGraph, dict[str, str]]:
    return _Parser(text).parse()
