"""Turtle-star reading and writing for a crisp subset of the syntax.

Supported: @prefix, IRIs in angle brackets, prefixed names, blank node
labels, the keyword 'a', quoted strings with \\" \\\\ \\n \\r \\t escapes,
language tags, ^^ datatypes, bare integer/decimal/double/boolean
shorthands, predicate lists (;), object lists (,), embedded triples in
<< >> nested up to MAX_NESTING_DEPTH levels, and # comments.  Everything
else (collections, blank node property lists, triple-quoted strings,
@base, deeper nesting) is a parse error with a 1-based line/column
diagnostic.

The parser is a recursive descent over tokens.  One master regex with a
named group per token kind finds each token after its whitespace and
comments; it runs lazily under re.finditer, so the parser holds one
token at a time and no token list is built.

Serialization is deterministic: prefixes sorted by label, one triple per
line in term order, blank nodes renumbered b1, b2, ... by the canonical
labelling of rdf.canonicalize_bnodes, and literals shortened to bare
tokens exactly when reparsing gives the identical literal back.  The
numbering is idempotent, and it is independent of the input labels
whenever colour refinement alone separates every blank node; nodes it
cannot separate are ordered by their input labels.  iter_turtle_star
gives the text a line at a time.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, Mapping, NoReturn

from .namespaces import (
    RDF_LANG_STRING,
    RDF_OBJECT,
    RDF_PREDICATE,
    RDF_STATEMENT,
    RDF_SUBJECT,
    RDF_TYPE,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
)
from .rdf import (
    MAX_NESTING_DEPTH,
    _BNODE_LABEL_RE,
    _LANG_TAG_RE,
    BNode,
    Iri,
    Literal,
    RdfStarGraph,
    Term,
    Triple,
    blank_node_labels,
    canonicalize_bnodes,
    embedded_triples,
    is_metadata_triple,
    term_key,
)

FILE_EXTENSIONS = (".ttls", ".ttl")

# MAX_NESTING_DEPTH, the deepest embedding rdf.Triple accepts, is also the
# deepest << >> nesting the parser accepts; deeper input is a parse error
# at the first '<<' beyond it.


class TurtleParseError(Exception):
    """Syntax error with 1-based line and column."""

    def __init__(self, line: int, column: int, message: str) -> None:
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class NotPlainRdfError(ValueError):
    """The graph embeds triples, so it is not plain RDF."""


_PREFIX_RE = re.compile(r"[A-Za-z][A-Za-z0-9_-]*")
_LOCAL_RE = re.compile(r"(?:[A-Za-z0-9_][A-Za-z0-9_-]*)?")
# Double (mandatory exponent) must be tried before decimal and integer.
_NUMBER_RE = re.compile(
    r"[+-]?(?:"
    r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)[eE][+-]?[0-9]+"
    r"|[0-9]*\.[0-9]+"
    r"|[0-9]+"
    r")"
)
_ESCAPES = {"n": "\n", "r": "\r", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE_RE = re.compile(r"\\(.)")
# Turtle constructs outside the subset, by the character their object starts with.
_UNSUPPORTED = {"'": "single-quoted strings", "[": "blank node property lists",
                "(": "collections"}
_IRIREF_RE = re.compile(r"<[^>\n]*>?")  # without its '>', an unterminated IRI
_STRING_BODY_RE = re.compile(
    rf'[^"\\\n\r]*(?:\\[{re.escape("".join(_ESCAPES))}][^"\\\n\r]*)*')
# One match: the trivia before a token, then the token, whose kind is the
# name of its group.  A string takes an adjacent language tag or '^^'.  A
# number never starts with '.': after an object '.5' is the statement's '.'
# and '5', so where an object starts the parser reads '.5' itself.  CHAR
# is any other character, which the parser reads by itself.
_TOKEN_RE = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*(?:"
    rf"(?P<PNAME>(?:{_PREFIX_RE.pattern})?:{_LOCAL_RE.pattern})"
    r"|(?P<DOT>\.)|(?P<SEMI>;)|(?P<COMMA>,)"
    rf'|(?P<STRING>"(?!"")(?P<lex>{_STRING_BODY_RE.pattern})"'
    rf"(?:@(?P<lang>{_LANG_TAG_RE.pattern})?|(?P<dt>\^\^))?)"
    rf"|(?P<LTLT><<)|(?P<GTGT>>>)|(?P<IRI>{_IRIREF_RE.pattern})"
    rf"|(?P<NUMBER>(?!\.){_NUMBER_RE.pattern})"
    rf"|(?P<BNODE>_:(?P<label>{_BNODE_LABEL_RE.pattern}))"
    rf"|(?P<WORD>{_PREFIX_RE.pattern})|(?P<AT>@(?:{_PREFIX_RE.pattern})?)"
    r"|(?P<END>\Z)|(?P<CHAR>.))",
    re.DOTALL,
)


def _number_datatype(lex: str) -> str:
    """The datatype of a bare number token: double with an exponent,
    decimal with a point, integer otherwise."""
    if "e" in lex or "E" in lex:
        return XSD_DOUBLE
    return XSD_DECIMAL if "." in lex else XSD_INTEGER


class _Parser:
    """Recursive descent over the tokens of _TOKEN_RE: the parser holds
    the current match and takes the next only when it moves on.  Line and
    column are computed from a token's start when an error is raised."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.prefixes: dict[str, str] = {}
        self.triples: set[Triple] = set()
        # The term tables: equal IRIs share one object, and so do equal
        # literals, keyed by lexical form, datatype and language tag.  The
        # prefixed names resolved so far map their text to their IRI until
        # the next @prefix.
        self.iris: dict[str, Iri] = {}
        self.literals: dict[tuple, Literal] = {}
        self.pnames: dict[str, Iri] = {}
        self.depth = 0  # << >> levels open at the current token
        self.scan_from(0)

    # -- tokens --------------------------------------------------------

    def scan_from(self, pos: int) -> None:
        """Start the lexer at pos and move to its first token."""
        self.next_token = _TOKEN_RE.finditer(self.text, pos).__next__
        self.advance()

    def advance(self) -> None:
        m = self.m = self.next_token()
        self.kind = m.lastgroup

    def error(self, message: str, at: int | None = None) -> NoReturn:
        pos = self.m.start(self.kind) if at is None else at
        line = self.text.count("\n", 0, pos) + 1
        column = pos - self.text.rfind("\n", 0, pos)
        raise TurtleParseError(line, column, message)

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
        while self.kind != "END":
            if self.kind == "AT":
                self.directive()
            else:
                self.statement()
        return RdfStarGraph(self.triples), dict(self.prefixes)

    def directive(self) -> None:
        word = self.m["AT"][1:]
        if word == "base":
            self.error("@base is not supported")
        if word != "prefix":
            self.error(f"unknown directive @{word}")
        self.advance()
        if self.kind == "WORD":  # a label without its ':'
            self.error("expected ':' after prefix label", self.m.end("WORD"))
        if self.kind != "PNAME":
            self.error("expected ':' after prefix label")
        label, _, local = self.m["PNAME"].partition(":")
        if local:
            self.error("expected IRI", self.m.start("PNAME") + len(label) + 1)
        self.advance()
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
                if self.kind != "COMMA":
                    break
                self.advance()
            if self.kind != "SEMI":
                return
            while self.kind == "SEMI":
                self.advance()
            if self.kind == "DOT":
                return

    def expect_dot(self) -> None:
        if self.kind != "DOT":
            self.error("expected '.'")
        self.advance()

    def term(self, position: str) -> Term:
        """The term at the current token in position "subject", "predicate"
        or "object".  A subject at depth > 0 is an embedded triple's: there
        a literal start is an embedded triple with literal subject."""
        kind = self.kind
        if kind == "PNAME":  # the commonest term, read here without a call
            iri = self.pnames.get(self.m["PNAME"])
            if iri is not None:
                self.advance()
                return iri
        if kind == "PNAME" or kind == "WORD" or kind == "END":
            return self.name(position)
        if kind == "IRI":
            return self.iriref()
        if kind == "LTLT":
            if position == "predicate":
                self.error("embedded triple not allowed as predicate")
            return self.embedded()
        m = self.m
        if position != "predicate" and kind == "BNODE":
            self.advance()
            return BNode(m["label"])
        if position == "object":
            if kind == "STRING":
                return self.string_literal()
            if kind == "NUMBER":
                self.advance()
                lex = m["NUMBER"]
                return self.literal(lex, self.iri(_number_datatype(lex)))
        # Any other token is read by its first character.
        at = m.start(kind)
        c = self.text[at]
        n = self.text[at + 1:at + 2] if c in "+-._" else ""  # only these look ahead
        if c == "_" and position != "predicate":  # not followed by ':' and a label
            if n != ":":
                self.error("expected blank node label", at + 1)
            self.error("invalid blank node label")
        if position == "object":
            if c == '"':
                self.malformed_string(at)
            if c.isdigit() or c in "+-" and (n.isdigit() or n == ".") or c == "." and n.isdigit():
                number = _NUMBER_RE.match(self.text, at)
                if number is None:
                    self.error("malformed number")
                self.scan_from(number.end())
                lex = number.group()
                return self.literal(lex, self.iri(_number_datatype(lex)))
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
        self.advance()
        subject = self.term("subject")
        predicate = self.term("predicate")
        obj = self.term("object")
        if self.kind != "GTGT":
            self.error("expected '>>'")
        self.advance()
        self.depth -= 1
        return Triple(subject, predicate, obj)

    def iriref(self) -> Iri:
        m, kind = self.m, self.kind
        if kind == "LTLT":  # in a directive: an IRI holding '<', which Iri rejects
            m, kind = _IRIREF_RE.match(self.text, m.start(kind)), 0
        elif kind != "IRI":
            self.error("expected IRI")
        token = m[kind]
        if token[-1] != ">":
            self.error("unterminated IRI")
        self.advance()
        try:
            return self.iri(token[1:-1])
        except ValueError as exc:
            self.error(f"invalid IRI: {exc}", m.start(kind))

    def name(self, position: str) -> Iri | Literal:
        """The prefixed name at the current token in position "subject",
        "predicate", "object" or "datatype"; besides, the keyword 'a' as a
        predicate and a boolean as an object."""
        m, kind = self.m, self.kind
        if kind == "PNAME":
            token = m[kind]
            iri = self.pnames.get(token)
            if iri is None:
                label, _, local = token.partition(":")
                if label not in self.prefixes:
                    self.error(f"unknown prefix {label!r}")
                # A declared namespace is a valid IRI, and so is any local name after it.
                iri = self.pnames[token] = self.iri(self.prefixes[label] + local)
            self.advance()
            return iri
        if kind == "WORD":
            word = m[kind]
            if word == "a" and position == "predicate":
                self.advance()
                return self.iri(RDF_TYPE)
            if word in ("true", "false"):
                if position != "object":
                    self.error("literal not allowed here")
                self.advance()
                return self.literal(word, self.iri(XSD_BOOLEAN))
            self.error(f"expected ':' in prefixed name after {word!r}")
        if kind == "END":
            self.error(f"expected {position}, found end of input")
        self.error(f"unexpected character {self.text[m.start(kind)]!r}")

    def malformed_string(self, at: int) -> NoReturn:
        """Raise the error of the string at at that no string token matched."""
        if self.text.startswith('""', at + 1):
            self.error("triple-quoted strings are not supported")
        end = _STRING_BODY_RE.match(self.text, at + 1).end()
        if self.text.startswith("\\", end):
            self.error(f"unsupported escape \\{self.text[end + 1:end + 2]}", end)
        self.error("unterminated string literal")

    def string_literal(self) -> Literal:
        m = self.m
        lex = m["lex"]
        if "\\" in lex:
            lex = _ESCAPE_RE.sub(lambda e: _ESCAPES[e[1]], lex)
        language, datatype = m["lang"], m["dt"]
        self.advance()
        if language is not None:
            return self.literal(lex, self.iri(RDF_LANG_STRING), language)
        if datatype is None:
            if self.text[m.end() - 1] == "@":
                self.error("malformed language tag", m.end())
            return self.literal(lex, self.iri(XSD_STRING))
        if self.kind == "LTLT":
            self.error("expected datatype IRI")
        dt = self.iriref() if self.kind == "IRI" else self.name("datatype")
        try:
            return self.literal(lex, dt)
        except ValueError as exc:
            self.error(str(exc), m.start("STRING"))


def parse_turtle_star(text: str) -> tuple[RdfStarGraph, dict[str, str]]:
    """Parse a Turtle-star document into a graph and its prefix table.

    Raises TurtleParseError with 1-based line/column on any syntax error,
    unknown prefix, or unsupported construct.
    """
    return _Parser(text).parse()


# -- serialization -----------------------------------------------------

_STRING_ESCAPES = str.maketrans({c: "\\" + e for e, c in _ESCAPES.items()})


def _quote(text: str) -> str:
    return '"' + text.translate(_STRING_ESCAPES) + '"'


def _render_iri(value: str, prefixes: list[tuple[str, str]]) -> str:
    # prefixes come sorted by (-len(ns), label): longest namespace wins,
    # ties break on the label.
    for label, ns in prefixes:
        if value.startswith(ns) and _LOCAL_RE.fullmatch(value[len(ns):]):
            return f"{label}:{value[len(ns):]}"
    return f"<{value}>"


def _render_literal(l: Literal, render_iri: Callable[[Iri], str]) -> str:
    lex = l.lexical_form
    if l.language is not None:
        return f"{_quote(lex)}@{l.language}"
    dt = l.datatype.value
    if dt == XSD_STRING:
        return _quote(lex)
    # A bare token exactly when the parser reads it back with this datatype.
    if (dt == XSD_BOOLEAN and lex in ("true", "false")
            or _NUMBER_RE.fullmatch(lex) and _number_datatype(lex) == dt):
        return lex
    return f"{_quote(lex)}^^{render_iri(l.datatype)}"


def _iri_renderer(prefixes: Mapping[str, str]) -> Callable[[Iri], str]:
    """A function that renders an IRI with the prefixes; it renders each
    distinct IRI once and keeps its text."""
    by_length = sorted(prefixes.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    iris: dict[str, str] = {}

    def render_iri(iri: Iri) -> str:
        text = iris.get(iri.value)
        if text is None:
            text = iris[iri.value] = _render_iri(iri.value, by_length)
        return text

    return render_iri


def _render_term(term: Term, render_iri: Callable[[Iri], str]) -> str:
    """term in Turtle-star syntax.  Literals are rendered at every
    occurrence: keeping their text too costs more memory than it saves
    time."""
    if isinstance(term, Iri):
        return render_iri(term)
    if isinstance(term, BNode):
        return f"_:{term.label}"
    if isinstance(term, Literal):
        return _render_literal(term, render_iri)
    s = _render_term(term.subject, render_iri)
    p = _render_term(term.predicate, render_iri)
    o = _render_term(term.object, render_iri)
    return f"<<{s} {p} {o}>>"


def format_term(term: Term) -> str:
    """Render one term in Turtle-star syntax with full IRIs."""
    return _render_term(term, _iri_renderer({}))


def iter_turtle_star(g: RdfStarGraph, prefixes: Mapping[str, str] | None = None) -> Iterator[str]:
    """The text of serialize_turtle_star(g, prefixes) in chunks: one line
    per prefix, then a blank line when there are both prefixes and
    triples, then one line per triple.

    Everything that can fail runs before the iterator is returned: an
    invalid prefix label or namespace IRI raises ValueError here, and the
    blank nodes are renumbered here.  So the CLI writes nothing for a
    command that fails, and writes the chunks as they come, never holding
    the whole document.
    """
    table = dict(prefixes or {})
    for label, ns in table.items():
        if not _PREFIX_RE.fullmatch(label) and label != "":
            raise ValueError(f"invalid prefix label: {label!r}")
        Iri(ns)  # must be a valid namespace IRI
    return _lines(canonicalize_bnodes(g), table)


def _lines(g: RdfStarGraph, prefixes: dict[str, str]) -> Iterator[str]:
    """The lines of iter_turtle_star for a renumbered graph and checked
    prefixes."""
    for label, ns in sorted(prefixes.items()):
        yield f"@prefix {label}: <{ns}> .\n"
    if prefixes and g:
        yield "\n"
    render_iri = _iri_renderer(prefixes)
    for t in g:
        yield (f"{_render_term(t.subject, render_iri)} {render_iri(t.predicate)} "
               f"{_render_term(t.object, render_iri)} .\n")


def serialize_turtle_star(g: RdfStarGraph, prefixes: Mapping[str, str] | None = None) -> str:
    """Serialize deterministically; see the module docstring for the shape.
    It is the join of iter_turtle_star(g, prefixes), and raises what that
    raises."""
    return "".join(iter_turtle_star(g, prefixes))


# -- plain RDF bridge --------------------------------------------------


def unfold_to_rdf(g: RdfStarGraph) -> RdfStarGraph:
    """Rewrite every embedded triple as a reification blank node.

    Each distinct embedded triple gets one fresh blank node carrying the
    four reification statements (type, subject, predicate, object), and
    every occurrence of the embedded triple is replaced by that node.  The
    result contains no embedded triples.
    """
    embedded = sorted(embedded_triples(g), key=term_key)
    used = set(blank_node_labels(g))
    ref: dict[Triple, BNode] = {}
    counter = 1
    for e in embedded:
        while f"r{counter}" in used:
            counter += 1
        ref[e] = BNode(f"r{counter}")
        counter += 1

    def node(x):
        return ref[x] if isinstance(x, Triple) else x

    rdf_type, statement, subject, predicate, object_ = map(
        Iri, (RDF_TYPE, RDF_STATEMENT, RDF_SUBJECT, RDF_PREDICATE, RDF_OBJECT))
    # A triple that embeds nothing is kept as it is.
    out = {Triple(node(t.subject), t.predicate, node(t.object)) if is_metadata_triple(t) else t
           for t in g.triples}
    for e in embedded:
        r = ref[e]
        out.add(Triple(r, rdf_type, statement))
        out.add(Triple(r, subject, node(e.subject)))
        out.add(Triple(r, predicate, e.predicate))
        out.add(Triple(r, object_, node(e.object)))
    return RdfStarGraph(out)


def embed_plain_rdf(g: RdfStarGraph) -> RdfStarGraph:
    """Cast a plain RDF graph into the RDF-star model (the identity).

    Raises NotPlainRdfError when some triple embeds another.
    """
    for t in g:
        if is_metadata_triple(t):
            raise NotPlainRdfError(f"graph embeds a triple: {format_term(t)}")
    return g
