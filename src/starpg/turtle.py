"""Turtle-star reading and writing for a crisp subset of the syntax.

Supported: @prefix, IRIs in angle brackets, prefixed names, blank node
labels, the keyword 'a', quoted strings with \\" \\\\ \\n \\r \\t escapes
and \\uXXXX or \\UXXXXXXXX escapes of a Unicode scalar value,
language tags, ^^ datatypes, bare integer/decimal/double/boolean
shorthands, predicate lists (;), object lists (,), embedded triples in
<< >> nested up to MAX_NESTING_DEPTH levels, and # comments.  Everything
else (collections, blank node property lists, triple-quoted strings,
@base, deeper nesting) is a parse error with a 1-based line/column
diagnostic.

A statement of one triple is read with one match of a statement
pattern.  Its subject is a prefixed name, an <IRI>, a blank node, or
<< >> around three of those with a name in the middle; its predicate a
prefixed name or an <IRI>; its object a name, a blank node, a plain
string or a bare number that does not start with '.'.  Of the writer's
own lines, those with a language tag, a datatype, a boolean, a '.5'
number, a literal inside << >>, an embedded object or deeper nesting do
not take that path; all others do.

Everything else, errors included, goes through the tokens: a recursive
descent in which one master regex with a named group per token kind
finds each token after its whitespace and comments.  It runs lazily
under re.finditer, so the parser holds one token at a time and no token
list is built.  A statement whose match fails, or whose match names an
unknown prefix or an invalid IRI, is read again by the tokens from its
start, so every error and its position come from the tokens.  Such a
statement costs a failed match more than the tokens alone would, so a
document written in ; or , lists parses a little slower than it would
by tokens only.

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
    metadata_triples,
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
# A \u escape takes 4 hex digits and a \U escape 8, and either must name
# a Unicode scalar value: no surrogate, nothing beyond U+10FFFF.
_HEX = "[0-9A-Fa-f]"
_NOT_SURROGATE = "(?![Dd][89A-Fa-f])"
_CODE_POINT_ESCAPE = (rf"u{_NOT_SURROGATE}{_HEX}{{4}}"
                      rf"|U00(?:10|0[1-9A-Fa-f]|00{_NOT_SURROGATE}){_HEX}{{4}}")
_ESCAPE_RE = re.compile(rf"\\(?:u({_HEX}{{4}})|U({_HEX}{{8}})|(.))")
# Turtle constructs outside the subset, by the character their object starts with.
_UNSUPPORTED = {"'": "single-quoted strings", "[": "blank node property lists",
                "(": "collections"}
_IRIREF = r"<[^>\n]*>"
_IRIREF_RE = re.compile(rf"{_IRIREF}?")  # without its '>', an unterminated IRI
_STRING_BODY_RE = re.compile(
    rf'[^"\\\n\r]*(?:\\(?:[{re.escape("".join(_ESCAPES))}]|{_CODE_POINT_ESCAPE})[^"\\\n\r]*)*')
# One match: the trivia before a token, then the token, whose kind is the
# name of its group.  A string takes an adjacent language tag or '^^'.  A
# number never starts with '.': after an object '.5' is the statement's '.'
# and '5', so where an object starts the parser reads '.5' itself.  CHAR
# is any other character, which the parser reads by itself.  The parser
# compiles it when it starts, as it does _STATEMENT: compiled at its first
# use, in the middle of a parse, it raised the process's peak memory.
_TOKEN = (
    r"(?s)(?:[ \t\r\n]+|#[^\n]*)*(?:"
    rf"(?P<PNAME>(?:{_PREFIX_RE.pattern})?:{_LOCAL_RE.pattern})"
    r"|(?P<DOT>\.)|(?P<SEMI>;)|(?P<COMMA>,)"
    rf'|(?P<STRING>"(?!"")(?P<lex>{_STRING_BODY_RE.pattern})"'
    rf"(?:@(?P<lang>{_LANG_TAG_RE.pattern})?|(?P<dt>\^\^))?)"
    rf"|(?P<LTLT><<)|(?P<GTGT>>>)|(?P<IRI>{_IRIREF_RE.pattern})"
    rf"|(?P<NUMBER>(?!\.){_NUMBER_RE.pattern})"
    rf"|(?P<BNODE>_:{_BNODE_LABEL_RE.pattern})"
    rf"|(?P<WORD>{_PREFIX_RE.pattern})|(?P<AT>@(?:{_PREFIX_RE.pattern})?)"
    r"|(?P<END>\Z)|(?P<CHAR>.))"
)
# One match: a whole statement "subject predicate object ." with the
# trivia before each token, cut into the tokens _TOKEN would cut.  A
# node is a prefixed name, an <IRI> or a blank node; the subject is a node
# or << node name node >>, the predicate a name, and the object a node, a
# plain string or a number.  A name or label ends where its token ends; a
# number is the token _TOKEN takes, held by the lookahead so that a
# later failure cannot shorten it; a string has no tag or datatype after
# it.  A comment here always has a token after it, so it ends at its
# newline.  The groups are the tokens of the embedded subject, predicate
# and object, of the subject node, of the predicate and of the object, and
# last the number the lookahead holds.  The parser compiles it when it
# first runs: re.compile keeps what it compiled, and a command that reads
# no Turtle-star never pays.
_T = r"[ \t\r\n]*(?:#[^\n]*\n[ \t\r\n]*)*"
_NAME = rf"(?:{_PREFIX_RE.pattern})?:{_LOCAL_RE.pattern}(?![A-Za-z0-9_-])|(?!<<){_IRIREF}"
_NODE = rf"{_NAME}|_:{_BNODE_LABEL_RE.pattern}(?![A-Za-z0-9_-])"
_STATEMENT = (
    rf"{_T}(?:<<{_T}({_NODE}){_T}({_NAME}){_T}({_NODE}){_T}>>|({_NODE}))"
    rf'{_T}({_NAME}){_T}({_NODE}|"(?!""){_STRING_BODY_RE.pattern}"(?![@^])'
    rf"|(?=(?!\.)(?P<n>{_NUMBER_RE.pattern}))(?P=n)){_T}\."
)


def _unescape(lex: str) -> str:
    """The string a string token's body stands for."""
    if "\\" not in lex:
        return lex
    return _ESCAPE_RE.sub(lambda e: _ESCAPES[e[3]] if e[3] else chr(int(e[1] or e[2], 16)), lex)


def _number_datatype(lex: str) -> str:
    """The datatype of a bare number token: double with an exponent,
    decimal with a point, integer otherwise."""
    if "e" in lex or "E" in lex:
        return XSD_DOUBLE
    return XSD_DECIMAL if "." in lex else XSD_INTEGER


class _Parser:
    """One _STATEMENT match per statement of one triple, and recursive
    descent over the tokens of _TOKEN for the rest: there the parser
    holds the current match and takes the next only when it moves on.
    Line and column are computed from a token's start when an error is
    raised."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.prefixes: dict[str, str] = {}
        self.triples: set[Triple] = set()
        # The term tables: equal IRIs share one object, and so do equal
        # literals, keyed by lexical form, datatype and language tag.  seen
        # maps the text of each prefixed name, <IRI>, blank node, plain
        # string and number token read so far to its term, until the next
        # @prefix; token_term fills it.
        self.iris: dict[str, Iri] = {}
        self.literals: dict[tuple, Literal] = {}
        self.seen: dict[str, Term] = {}
        self.depth = 0  # << >> levels open at the current token

    # -- tokens --------------------------------------------------------

    def scan_from(self, pos: int) -> None:
        """Start the lexer at pos and move to its first token."""
        self.next_token = self.tokens(self.text, pos).__next__
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
        """Read a statement of one triple with one _STATEMENT match, and
        anything else with the tokens.  When the match fails or a term
        raises (an unknown prefix, an invalid IRI), the tokens read that
        statement again from the same position, with their own error.
        When the tokens have just read the statement before, they go on
        from the token they hold instead of starting again.

        Each token is looked up in seen before token_term is called, so
        a repeated term costs one dict lookup."""
        text, add, of = self.text, self.triples.add, Triple._of
        seen, token_term = self.seen.get, self.token_term
        match = re.compile(_STATEMENT).match
        self.tokens = re.compile(_TOKEN).finditer
        pos, tokens_at = 0, -1  # tokens_at: where the token the tokens hold starts
        while True:
            m = match(text, pos)
            if m is not None:
                es, ep, eo, s, p, o, _ = m.groups()
                try:
                    if s is None:
                        s = of(seen(es) or token_term(es), seen(ep) or token_term(ep),
                               seen(eo) or token_term(eo))
                    else:
                        s = seen(s) or token_term(s)
                    p = seen(p) or token_term(p)
                    o = seen(o) or token_term(o)
                except (KeyError, ValueError):
                    pass
                else:
                    add(of(s, p, o))
                    pos = m.end()
                    continue
            if pos != tokens_at:
                self.scan_from(pos)
            if self.kind == "END":
                self.seen.clear()  # freed before the copy below, or it adds to the peak
                return RdfStarGraph._of(frozenset(self.triples)), dict(self.prefixes)
            if self.kind == "AT":
                self.directive()
            else:
                self.statement()
            pos = tokens_at = self.m.start()

    def token_term(self, token: str) -> Term:
        """The term of a prefixed name, <IRI>, blank node, plain string or
        number token, kept in seen; raises KeyError for an unknown prefix
        and ValueError for an invalid IRI."""
        c = token[0]
        if c == '"':
            term = self.literal(_unescape(token[1:-1]), self.iri(XSD_STRING))
        elif c == "<":
            term = self.iri(token[1:-1])
        elif c == "_":
            term = BNode(token[2:])
        elif c in "+-.0123456789":
            term = self.literal(token, self.iri(_number_datatype(token)))
        else:  # a prefixed name
            label, _, local = token.partition(":")
            # A declared namespace is a valid IRI, and so is any local name after it.
            term = self.iri(self.prefixes[label] + local)
        self.seen[token] = term
        return term

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
        self.seen.clear()
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
                self.triples.add(Triple._of(subject, predicate, obj))
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
            iri = self.seen.get(self.m["PNAME"])
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
        if kind == "BNODE" and position != "predicate" or kind == "NUMBER" and position == "object":
            self.advance()
            return self.seen.get(m[kind]) or self.token_term(m[kind])
        if kind == "STRING" and position == "object":
            return self.string_literal()
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
                return self.seen.get(number[0]) or self.token_term(number[0])
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
        return Triple._of(subject, predicate, obj)

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
            try:
                iri = self.seen.get(m[kind]) or self.token_term(m[kind])
            except KeyError:
                iri = None  # raised below, so the KeyError is not its context
            if iri is None:
                self.error(f"unknown prefix {m[kind].partition(':')[0]!r}")
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
            char = self.text[end + 1:end + 2]
            if char in ("u", "U"):
                n = 4 if char == "u" else 8
                escape = self.text[end:end + 2 + n]
                if re.fullmatch(rf"..{_HEX}{{{n}}}", escape):
                    self.error(f"escape {escape} is not a Unicode scalar value", end)
                self.error(f"\\{char} escape needs {n} hex digits", end)
            self.error(f"unsupported escape \\{char if char.isprintable() else repr(char)}", end)
        self.error("unterminated string literal")

    def string_literal(self) -> Literal:
        m = self.m
        lex = _unescape(m["lex"])
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

# The escapes of _ESCAPES, and \uXXXX for the other characters at which
# str.splitlines breaks a line, so a quoted lexical form is one line.
_STRING_ESCAPES = str.maketrans({
    **{c: "\\" + e for e, c in _ESCAPES.items()},
    **{c: f"\\u{ord(c):04X}" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"},
})


def _quote(text: str) -> str:
    return '"' + text.translate(_STRING_ESCAPES) + '"'


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
    distinct IRI once and keeps its text.

    The longest namespace that the IRI starts with and leaves a valid
    local name wins, and of its labels the least.  One dict lookup per
    distinct namespace length finds it, however many prefixes there are.
    """
    label_of = {ns: label for label, ns in sorted(prefixes.items(), reverse=True)}
    lengths = sorted({len(ns) for ns in label_of}, reverse=True)
    iris: dict[str, str] = {}

    def render_iri(iri: Iri) -> str:
        value = iri.value
        text = iris.get(value)
        if text is None:
            text = f"<{value}>"
            for n in lengths:
                label = label_of.get(value[:n])
                if label is not None and n <= len(value) and _LOCAL_RE.fullmatch(value, n):
                    text = f"{label}:{value[n:]}"
                    break
            iris[value] = text
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
    result embeds no triple, and is g itself when g embeds none.
    """
    embedded = sorted(embedded_triples(g), key=term_key)
    if not embedded:
        return g
    used = blank_node_labels(g)
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
    of = Triple._of
    out = {of(node(t.subject), t.predicate, node(t.object)) if is_metadata_triple(t) else t
           for t in g.triples}
    for e in embedded:
        r = ref[e]
        out.add(of(r, rdf_type, statement))
        out.add(of(r, subject, node(e.subject)))
        out.add(of(r, predicate, e.predicate))
        out.add(of(r, object_, node(e.object)))
    return RdfStarGraph._of(frozenset(out))


def embed_plain_rdf(g: RdfStarGraph) -> RdfStarGraph:
    """Cast a plain RDF graph into the RDF-star model (the identity).

    Raises NotPlainRdfError when some triple embeds another.
    """
    first = min(metadata_triples(g), key=term_key, default=None)
    if first is not None:
        raise NotPlainRdfError(f"graph embeds a triple: {format_term(first)}")
    return g
