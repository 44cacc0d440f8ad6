import random

from hypothesis import given, settings
import hypothesis.strategies as st
import pytest

from starpg import (
    RDF,
    XSD_BOOLEAN,
    XSD_DECIMAL,
    XSD_DOUBLE,
    XSD_INTEGER,
    XSD_STRING,
    BNode,
    Iri,
    Literal,
    NotPlainRdfError,
    RdfStarGraph,
    Triple,
    TurtleParseError,
    blank_node_labels,
    canonicalize_bnodes,
    embed_plain_rdf,
    embedded_triples,
    format_term,
    is_metadata_triple,
    isomorphic,
    nesting_depth,
    parse_turtle_star,
    serialize_turtle_star,
    unfold_to_rdf,
)
from starpg.turtle import MAX_NESTING_DEPTH
from conftest import AGE, CERTAINTY, EX, FOAF, KNOWS, NAME, build_alice_bob
import randgen
from test_fuzz import _PREFIX, _STATEMENT, _TURTLE_TOKENS
import turtle_oracle

PREFIX_BLOCK = f"@prefix ex: <{EX}> .\n@prefix foaf: <{FOAF}> .\n"

S = Iri(EX + "s")
P = Iri(EX + "p")
O = Iri(EX + "o")
Q = Iri(EX + "q")


def parse(text: str) -> RdfStarGraph:
    return parse_turtle_star(text)[0]


class TestParseBasics:
    def test_alice_bob_document(self, data_dir):
        graph, prefixes = parse_turtle_star(
            (data_dir / "alice_bob.ttls").read_text(encoding="utf-8")
        )
        assert graph == build_alice_bob()
        assert prefixes == {"ex": EX, "foaf": FOAF}

    def test_empty_document(self):
        assert parse_turtle_star("") == (RdfStarGraph(), {})

    def test_prefixes_only(self):
        graph, prefixes = parse_turtle_star(f"@prefix ex: <{EX}> .")
        assert graph == RdfStarGraph()
        assert prefixes == {"ex": EX}

    def test_later_prefix_definition_wins(self):
        text = "@prefix p: <http://one.org/> .\n@prefix p: <http://two.org/> .\np:a p:b p:c .\n"
        graph, prefixes = parse_turtle_star(text)
        assert prefixes["p"] == "http://two.org/"
        assert Triple(Iri("http://two.org/a"), Iri("http://two.org/b"),
                      Iri("http://two.org/c")) in graph

    def test_prefix_redefined_between_uses(self):
        text = ("@prefix p: <http://one.org/> .\np:a p:b p:c .\n"
                "@prefix p: <http://two.org/> .\np:a p:b p:c .\n")
        graph, _ = parse_turtle_star(text)
        assert graph == RdfStarGraph([
            Triple(Iri(f"http://{n}.org/a"), Iri(f"http://{n}.org/b"), Iri(f"http://{n}.org/c"))
            for n in ("one", "two")])

    def test_keyword_a_is_rdf_type(self):
        g = parse(f"<{EX}s> a <{EX}Person> .")
        assert g == RdfStarGraph([Triple(S, Iri(RDF + "type"), Iri(EX + "Person"))])

    def test_full_iris_without_prefixes(self):
        g = parse(f"<{EX}s> <{EX}p> <{EX}o> .")
        assert g == RdfStarGraph([Triple(S, P, O)])

    def test_comments_and_blank_lines_ignored(self):
        text = f"# leading comment\n\n<{EX}s> <{EX}p> <{EX}o> . # trailing\n# done\n"
        assert parse(text) == RdfStarGraph([Triple(S, P, O)])

    def test_object_list_with_commas(self):
        g = parse(f"<{EX}s> <{EX}p> <{EX}o>, \"x\", 5 .")
        assert g == RdfStarGraph([
            Triple(S, P, O),
            Triple(S, P, Literal("x")),
            Triple(S, P, Literal("5", Iri(XSD_INTEGER))),
        ])

    def test_predicate_list_with_semicolons(self):
        g = parse(f'<{EX}s> <{EX}p> <{EX}o> ; <{EX}q> "x" .')
        assert g == RdfStarGraph([Triple(S, P, O), Triple(S, Q, Literal("x"))])

    def test_dangling_semicolon_tolerated(self):
        g = parse(f"<{EX}s> <{EX}p> <{EX}o> ; .")
        assert g == RdfStarGraph([Triple(S, P, O)])

    def test_duplicate_triples_deduplicate(self):
        g = parse(f"<{EX}s> <{EX}p> <{EX}o> .\n<{EX}s> <{EX}p> <{EX}o> .")
        assert len(g) == 1

    def test_blank_node_subjects_and_objects(self):
        g = parse(f"_:a <{EX}p> _:b .")
        assert g == RdfStarGraph([Triple(BNode("a"), P, BNode("b"))])

    def test_crlf_line_endings(self):
        g = parse(f"<{EX}s> <{EX}p> <{EX}o> .\r\n<{EX}s> <{EX}q> 1 .\r\n")
        assert len(g) == 2

    @pytest.mark.parametrize("text", [
        '<e:s> <e:p> "x"^^ <e:d> .',
        '<e:s> <e:p> "x"^^#c\n<e:d> .',
    ])
    def test_trivia_after_datatype_marker(self, text):
        assert parse(text) == RdfStarGraph([
            Triple(Iri("e:s"), Iri("e:p"), Literal("x", Iri("e:d")))])

    def test_integer_before_the_statement_dot(self):
        g = parse("<e:s> <e:p> 1.")
        assert next(iter(g)).object == Literal("1", Iri(XSD_INTEGER))

    def test_double_with_point_before_exponent(self):
        g = parse("<e:s> <e:p> 1.e5 .")
        assert next(iter(g)).object == Literal("1.e5", Iri(XSD_DOUBLE))

    def test_statement_dot_adjacent_to_prefixed_names(self):
        g = parse(PREFIX_BLOCK + "ex:s ex:p ex:o.ex:s ex:p ex:o2 .")
        assert g == RdfStarGraph([Triple(S, P, O), Triple(S, P, Iri(EX + "o2"))])

    @pytest.mark.parametrize("text,triples", [
        (PREFIX_BLOCK + "ex:s ex:p true.", 1),
        ("<e:s><e:p><e:o>.", 1),
        ("<e:s> <e:p> _:b1.", 1),
        ("@prefix ex:<e:>.", 0),
        ("<<<e:s><e:p><e:o>>><e:q><e:r>.", 1),
    ])
    def test_tokens_adjacent_without_trivia(self, text, triples):
        assert len(parse(text)) == triples


class TestParseLiterals:
    @pytest.mark.parametrize(
        "token,lexical,datatype",
        [
            ("23", "23", XSD_INTEGER),
            ("-7", "-7", XSD_INTEGER),
            ("+14", "+14", XSD_INTEGER),
            ("0.5", "0.5", XSD_DECIMAL),
            ("-0.25", "-0.25", XSD_DECIMAL),
            (".5", ".5", XSD_DECIMAL),
            ("0.8E0", "0.8E0", XSD_DOUBLE),
            ("1e3", "1e3", XSD_DOUBLE),
            ("-2.5E-2", "-2.5E-2", XSD_DOUBLE),
            ("true", "true", XSD_BOOLEAN),
            ("false", "false", XSD_BOOLEAN),
        ],
    )
    def test_bare_tokens_keep_lexical_forms(self, token, lexical, datatype):
        g = parse(f"<{EX}s> <{EX}p> {token} .")
        assert next(iter(g)).object == Literal(lexical, Iri(datatype))

    @pytest.mark.parametrize(
        "escaped,unescaped",
        [
            (r"a\"b", 'a"b'),
            (r"a\\b", "a\\b"),
            (r"a\nb", "a\nb"),
            (r"a\rb", "a\rb"),
            (r"a\tb", "a\tb"),
        ],
    )
    def test_string_escapes(self, escaped, unescaped):
        g = parse(f'<{EX}s> <{EX}p> "{escaped}" .')
        assert next(iter(g)).object == Literal(unescaped)

    def test_language_tag(self):
        g = parse(f'<{EX}s> <{EX}p> "chat"@fr .')
        assert next(iter(g)).object == Literal("chat", language="fr")

    def test_language_tag_with_subtags(self):
        g = parse(f'<{EX}s> <{EX}p> "color"@en-US .')
        assert next(iter(g)).object == Literal("color", language="en-US")

    def test_datatype_with_full_iri(self):
        g = parse(f'<{EX}s> <{EX}p> "5"^^<{XSD_INTEGER}> .')
        assert next(iter(g)).object == Literal("5", Iri(XSD_INTEGER))

    def test_datatype_with_prefixed_name(self):
        text = (
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            f'<{EX}s> <{EX}p> "5"^^xsd:integer .'
        )
        assert next(iter(parse(text))).object == Literal("5", Iri(XSD_INTEGER))

    def test_unicode_passes_through(self):
        g = parse(f'<{EX}s> <{EX}p> "héllo ☃" .')
        assert next(iter(g)).object == Literal("héllo ☃")


class TestParseEmbedded:
    def test_subject_embedding(self):
        g = parse(f"<<<{EX}s> <{EX}p> <{EX}o>>> <{EX}q> 0.8 .")
        t = next(iter(g))
        assert t == Triple(Triple(S, P, O), Q, Literal("0.8", Iri(XSD_DECIMAL)))
        assert nesting_depth(t) == 1

    def test_object_embedding(self):
        g = parse(f"<{EX}s> <{EX}p> <<<{EX}o> <{EX}q> 1>> .")
        t = next(iter(g))
        assert isinstance(t.object, Triple)

    def test_bnode_embedding(self):
        text = (
            "@prefix r: <http://example.org/relationship/> .\n"
            "@prefix p: <http://example.org/property/> .\n"
            "<<_:b1 r:influencedBy _:b2>> p:certainty 0.8 .\n"
        )
        g = parse(text)
        assert len(g) == 1
        t = next(iter(g))
        assert nesting_depth(t) == 1
        assert t.subject == Triple(
            BNode("b1"), Iri("http://example.org/relationship/influencedBy"), BNode("b2")
        )

    def test_deep_nesting(self):
        g = parse(f"<<<<<{EX}s> <{EX}p> <{EX}o>>> <{EX}q> 1>> <{EX}q> 2 .")
        assert nesting_depth(next(iter(g))) == 2

    def test_nesting_up_to_the_limit(self):
        d = MAX_NESTING_DEPTH
        g = parse("<<" * d + f"<{EX}s> <{EX}p> <{EX}o>" + f">> <{EX}q> 1 " * d + ".")
        assert nesting_depth(next(iter(g))) == d

    def test_whitespace_inside_markers_optional(self):
        a = parse(f"<< <{EX}s> <{EX}p> <{EX}o> >> <{EX}q> 1 .")
        b = parse(f"<<<{EX}s> <{EX}p> <{EX}o>>> <{EX}q> 1 .")
        assert a == b


# One document per error the parser can raise, and per position that
# reads the same start differently, with the exact message and the 1-based
# position.  The IRIs are short (<e:s>) to keep columns legible.
PARSE_ERRORS = [
    ("@base <e:> .", 1, 1, "@base is not supported"),
    ("@flavor vanilla .", 1, 1, "unknown directive @flavor"),
    ("@prefix ex <e:> .", 1, 11, "expected ':' after prefix label"),
    ("@prefix ex: http .", 1, 13, "expected IRI"),
    ("@prefix ex: <e:> .\nex:s ex:p ex:o", 2, 15, "expected '.'"),
    ("<e:s>", 1, 6, "expected predicate, found end of input"),
    ("<e:s> <e:p>", 1, 12, "expected object, found end of input"),
    ("<e:s> <<<e:a> <e:b> <e:c>>> <e:o> .", 1, 7, "embedded triple not allowed as predicate"),
    ("<e:s> <e:p> 'v' .", 1, 13, "single-quoted strings are not supported"),
    ("<e:s> <e:p> [ ] .", 1, 13, "blank node property lists are not supported"),
    ("<e:s> <e:p> (1) .", 1, 13, "collections are not supported"),
    ('<<"x" <e:p> <e:o>>> <e:q> 1 .', 1, 3, "embedded triple with literal subject"),
    ("<<", 1, 3, "expected subject, found end of input"),
    ('"x" <e:p> <e:o> .', 1, 1, "literal not allowed as subject"),
    ("+x <e:p> <e:o> .", 1, 1, "literal not allowed as subject"),
    ("<e:s> 5 <e:o> .", 1, 7, "literal not allowed as predicate"),
    ("<e:s> .5 <e:p> .", 1, 7, "unexpected character '.'"),
    ("<e:s> _:p <e:o> .", 1, 7, "unexpected character '_'"),
    ("<<" * (MAX_NESTING_DEPTH + 1), 1, 2 * MAX_NESTING_DEPTH + 1,
     f"embedded triples nested deeper than {MAX_NESTING_DEPTH} levels"),
    ("<<<e:s> <e:p> <e:o> <e:q> 1 .", 1, 21, "expected '>>'"),
    ("<e:s> <e:p> <e:never", 1, 13, "unterminated IRI"),
    ("<e:s> <e:p> <e:a b> .", 1, 13,
     "invalid IRI: IRI contains forbidden character ' ': 'e:a b'"),
    ("_x <e:p> <e:o> .", 1, 2, "expected blank node label"),
    ("_:1 <e:p> <e:o> .", 1, 1, "invalid blank node label"),
    ("true <e:p> <e:o> .", 1, 1, "literal not allowed here"),
    ("<e:s> true <e:o> .", 1, 7, "literal not allowed here"),
    ('<e:s> <e:p> "a"^^true .', 1, 18, "literal not allowed here"),
    ("<e:s> <e:p> abc .", 1, 13, "expected ':' in prefixed name after 'abc'"),
    ("a <e:p> <e:o> .", 1, 1, "expected ':' in prefixed name after 'a'"),
    ("<e:s> <e:p> a .", 1, 13, "expected ':' in prefixed name after 'a'"),
    ('<e:s> <e:p> "x"^^a .', 1, 18, "expected ':' in prefixed name after 'a'"),
    ("<e:s> <e:p> +x .", 1, 13, "unexpected character '+'"),
    ('<e:s> <e:p> "a"^^', 1, 18, "expected datatype, found end of input"),
    ('<e:s> <e:p> "x"^^_:d .', 1, 18, "unexpected character '_'"),
    ("ex:s <e:p> <e:o> .", 1, 1, "unknown prefix 'ex'"),
    ("<e:s> <e:p> +.x .", 1, 13, "malformed number"),
    ('<e:s> <e:p> """long""" .', 1, 13, "triple-quoted strings are not supported"),
    ('<e:s> <e:p> "open', 1, 13, "unterminated string literal"),
    ('<e:s> <e:p> "a\\qb" .', 1, 15, "unsupported escape \\q"),
    ('<e:s> <e:p> "x"@9 .', 1, 17, "malformed language tag"),
    ('<e:s> <e:p> "x"^^<<e:d>> .', 1, 18, "expected datatype IRI"),
    (f'<e:s> <e:p> "x"^^<{RDF}langString> .', 1, 13,
     "rdf:langString literal requires a language tag"),
    # Where one token ends and the next begins.
    ('<e:s> <e:p> "x" @en .', 1, 17, "expected '.'"),
    ('<e:s> <e:p> "x" ^^<e:d> .', 1, 17, "expected '.'"),
    ("<e:s> <e:p> <e:o>.5 .", 1, 19, "literal not allowed as subject"),
    ("<e:s> <e:p> _:b-1 .", 1, 16, "expected '.'"),
    ("@ prefix ex: <e:> .", 1, 1, "unknown directive @"),
    ("@prefix ex: <e:> .\nex:s ex:p ex:a.b .", 2, 16, "expected ':' in prefixed name after 'b'"),
    ("@prefix <e:> .", 1, 9, "expected ':' after prefix label"),
    ("@prefix ex:abc <e:> .", 1, 12, "expected IRI"),
    ("@prefix ex: <<e:> .", 1, 13, "invalid IRI: IRI contains forbidden character '<': '<e:'"),
]


class TestParseErrors:
    def check(self, text: str, fragment: str, line: int | None = None,
              column: int | None = None):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle_star(text)
        assert fragment in str(exc.value)
        if line is not None:
            assert exc.value.line == line
        if column is not None:
            assert exc.value.column == column
        return exc.value

    @pytest.mark.parametrize("text,line,column,message", PARSE_ERRORS)
    def test_message_and_position(self, text, line, column, message):
        with pytest.raises(TurtleParseError) as exc:
            parse_turtle_star(text)
        assert (exc.value.line, exc.value.column, exc.value.message) == (line, column, message)

    def test_unknown_prefix_with_position(self):
        self.check("ex:a ex:b ex:c .", "unknown prefix", line=1, column=1)

    def test_unknown_prefix_in_object(self):
        self.check(f"@prefix ex: <{EX}> .\nex:a ex:b nope:c .",
                   "unknown prefix", line=2, column=11)

    def test_unterminated_iri(self):
        self.check(f"<{EX}s> <{EX}p> <http://example.org/never", "unterminated")

    def test_unterminated_string_at_newline(self):
        self.check(f'<{EX}s> <{EX}p> "open\n', "unterminated")

    def test_unterminated_string_at_eof(self):
        self.check(f'<{EX}s> <{EX}p> "open', "unterminated")

    def test_missing_statement_dot(self):
        self.check(f"<{EX}s> <{EX}p> <{EX}o>", "'.'")

    def test_literal_subject(self):
        self.check(f'"x" <{EX}p> <{EX}o> .', "literal", line=1, column=1)

    def test_literal_subject_inside_embedding(self):
        self.check(f'<<"x" <{EX}p> <{EX}o>>> <{EX}q> 1 .',
                   "embedded triple with literal subject")

    def test_numeric_subject_inside_embedding(self):
        self.check(f"<<5 <{EX}p> <{EX}o>>> <{EX}q> 1 .",
                   "embedded triple with literal subject")

    def test_unclosed_embedding(self):
        self.check(f"<<<{EX}s> <{EX}p> <{EX}o> <{EX}q> 1 .", ">>")

    def test_embedding_in_predicate_position(self):
        self.check(f"<{EX}s> <<<{EX}a> <{EX}b> <{EX}c>>> <{EX}o> .", "predicate")

    def test_base_directive_unsupported(self):
        self.check("@base <http://example.org/> .", "not supported")

    def test_unknown_directive(self):
        self.check("@flavor vanilla .", "directive")

    def test_collection_unsupported(self):
        self.check(f"<{EX}s> <{EX}p> (1 2) .", "not supported")

    def test_anonymous_bnode_unsupported(self):
        self.check(f"<{EX}s> <{EX}p> [ ] .", "not supported")

    def test_triple_quoted_string_unsupported(self):
        self.check(f'<{EX}s> <{EX}p> """long""" .', "not supported")

    def test_bad_escape(self):
        self.check(f'<{EX}s> <{EX}p> "a\\qb" .', "escape")

    def test_bad_language_tag(self):
        self.check(f'<{EX}s> <{EX}p> "x"@9 .', "language")

    def test_stray_token(self):
        self.check("@@ nonsense", "")

    def test_keyword_a_not_allowed_as_subject(self):
        with pytest.raises(TurtleParseError):
            parse_turtle_star(f"a <{EX}p> <{EX}o> .")

    def test_error_positions_are_one_based(self):
        err = self.check("ex:a ex:b ex:c .", "unknown prefix")
        assert err.line >= 1 and err.column >= 1

    def test_position_after_multi_line_comment(self):
        text = (f"# first line\n# second line, with <{EX}not> an IRI\n   # third\n"
                f"<{EX}s> <{EX}p> nope:o .")
        self.check(text, "unknown prefix", line=4, column=47)

    def test_position_on_crlf_line(self):
        text = f'<{EX}s> <{EX}p> <{EX}o> .\r\n<{EX}s> <{EX}p> "x"@9 .\r\n'
        self.check(text, "language tag", line=2, column=51)

    def test_nesting_beyond_the_limit(self):
        d = MAX_NESTING_DEPTH + 1
        text = f"@prefix ex: <{EX}> .\n" + "<<" * d + "ex:s ex:p ex:o" + ">> ex:q 1 " * d + "."
        self.check(text, f"nested deeper than {MAX_NESTING_DEPTH} levels",
                   line=2, column=2 * MAX_NESTING_DEPTH + 1)

    def test_position_after_crlf_blank_line(self):
        text = f"<{EX}s> <{EX}p> <{EX}o> .\r\n\r\n<{EX}s> <{EX}p> <{EX}o>\r\n<{EX}t>"
        self.check(text, "'.'", line=4, column=1)

    def test_position_in_long_string_after_escapes(self):
        text = f'<{EX}s>\n  <{EX}p> "' + 'ab\\"cd\\\\ef' * 40 + '\\q" .'
        self.check(text, "unsupported escape \\q", line=2, column=427)

    def test_position_of_iri_unterminated_at_end_of_input(self):
        self.check(f"<{EX}s> <{EX}p>\n  <{EX}never", "unterminated IRI", line=2, column=3)

    def test_position_of_iri_unterminated_at_newline(self):
        self.check(f"<{EX}s> <{EX}p>\n  <{EX}ne\nver> .", "unterminated IRI", line=2, column=3)


def _outcome(parse_fn, text: str):
    """The graph and prefixes parse_fn reads from text, or the line,
    column and message of its parse error."""
    try:
        return parse_fn(text)
    except TurtleParseError as exc:
        return exc.line, exc.column, exc.message


class TestParserOracle:
    """parse_turtle_star against the character-level parser it replaced
    (tests/turtle_oracle.py): the same graph and prefixes, or the same
    error at the same position.  Tokens are joined with nothing, a space
    or a newline, so that adjacent tokens come up."""

    def check(self, text: str) -> None:
        assert _outcome(parse_turtle_star, text) == _outcome(turtle_oracle.parse, text)

    @settings(max_examples=400, deadline=None)
    @given(st.booleans(), st.lists(st.sampled_from(_TURTLE_TOKENS), max_size=30),
           st.sampled_from(["", " ", "\n"]))
    def test_token_soup(self, prefixed, tokens, separator):
        self.check((_PREFIX if prefixed else "") + separator.join(tokens))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_STATEMENT, max_size=12), st.sampled_from(["", " ", "\n"]))
    def test_statements(self, statements, separator):
        self.check(_PREFIX + separator.join(statements))

    @pytest.mark.parametrize("text", [row[0] for row in PARSE_ERRORS])
    def test_error_rows(self, text):
        self.check(text)

    def test_data_files(self, data_dir):
        for path in sorted(data_dir.glob("*.ttls")):
            self.check(path.read_text(encoding="utf-8"))


class TestSerialize:
    def test_alice_bob_exact_text(self, alice_bob):
        text = serialize_turtle_star(alice_bob, {"ex": EX, "foaf": FOAF})
        assert text == (
            f"@prefix ex: <{EX}> .\n"
            f"@prefix foaf: <{FOAF}> .\n"
            "\n"
            "ex:alice foaf:name \"Alice\" .\n"
            "ex:bob foaf:name \"Bob\" .\n"
            "<<ex:alice foaf:knows ex:bob>> ex:certainty 0.5 .\n"
            "<<ex:bob foaf:age 23>> ex:certainty 0.9 .\n"
        )

    def test_empty_graph_empty_text(self):
        assert serialize_turtle_star(RdfStarGraph()) == ""

    def test_invalid_prefix_label_rejected(self):
        with pytest.raises(ValueError) as exc:
            serialize_turtle_star(RdfStarGraph([Triple(S, P, O)]), {"1x": "e:"})
        assert str(exc.value) == "invalid prefix label: '1x'"

    def test_empty_graph_with_prefixes(self):
        text = serialize_turtle_star(RdfStarGraph(), {"ex": EX})
        assert text == f"@prefix ex: <{EX}> .\n"

    def test_prefixes_sorted_by_label(self):
        g = RdfStarGraph([Triple(S, P, O)])
        text = serialize_turtle_star(g, {"zz": "http://z.org/", "aa": "http://a.org/"})
        lines = text.splitlines()
        assert lines[0].startswith("@prefix aa:")
        assert lines[1].startswith("@prefix zz:")

    def test_longest_prefix_wins(self):
        g = RdfStarGraph([Triple(Iri(EX + "sub/alice"), P, O)])
        text = serialize_turtle_star(g, {"ex": EX, "sub": EX + "sub/"})
        assert "sub:alice" in text

    def test_unprefixable_local_name_falls_back_to_full_iri(self):
        iri = Iri(EX + "has/slash")
        g = RdfStarGraph([Triple(iri, P, O)])
        text = serialize_turtle_star(g, {"ex": EX})
        assert f"<{iri.value}>" in text

    def test_bare_shortening_only_when_reparse_identical(self):
        cases = {
            Literal("23", Iri(XSD_INTEGER)): "23",
            Literal("0.5", Iri(XSD_DECIMAL)): "0.5",
            Literal("0.8E0", Iri(XSD_DOUBLE)): "0.8E0",
            Literal("true", Iri(XSD_BOOLEAN)): "true",
            Literal("023", Iri(XSD_INTEGER)): "023",
            Literal("TRUE", Iri(XSD_BOOLEAN)): '"TRUE"^^<' + XSD_BOOLEAN + ">",
            Literal("5 apples", Iri(XSD_INTEGER)): '"5 apples"^^<' + XSD_INTEGER + ">",
            Literal("INF", Iri(XSD_DOUBLE)): '"INF"^^<' + XSD_DOUBLE + ">",
        }
        for literal, rendering in cases.items():
            text = serialize_turtle_star(RdfStarGraph([Triple(S, P, literal)]))
            assert rendering in text
            assert parse(text) == RdfStarGraph([Triple(S, P, literal)])

    def test_escapes_in_output(self):
        g = RdfStarGraph([Triple(S, P, Literal('a"b\\c\nd\re\tf'))])
        text = serialize_turtle_star(g)
        assert '"a\\"b\\\\c\\nd\\re\\tf"' in text

    def test_blank_nodes_renumbered_canonically(self):
        g = RdfStarGraph([Triple(BNode("weird"), P, BNode("names"))])
        text = serialize_turtle_star(g)
        assert "_:b1" in text and "_:b2" in text and "weird" not in text

    def test_format_term_uses_full_iris(self):
        assert format_term(S) == f"<{EX}s>"
        assert format_term(Triple(S, P, Literal("x"))) == f"<<<{EX}s> <{EX}p> \"x\">>"


class TestRoundTrip:
    def test_parse_after_serialize_identity_on_canonical_graphs(self):
        rng = random.Random(37)
        for _ in range(300):
            g = canonicalize_bnodes(randgen.random_rdf_star_graph(rng))
            text = serialize_turtle_star(g)
            assert parse(text) == g

    def test_serialize_parse_serialize_is_stable(self):
        rng = random.Random(41)
        for _ in range(300):
            g = randgen.random_rdf_star_graph(rng)
            once = serialize_turtle_star(g)
            again = serialize_turtle_star(parse(once))
            assert again == once

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(
        st.text(alphabet="ab09_-.:/é", max_size=4),
        st.text(alphabet="0123456789+-.eE a", max_size=8) | st.sampled_from(["true", "false"]),
        st.sampled_from([XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE, XSD_BOOLEAN, XSD_STRING]),
    ), max_size=6))
    def test_bare_tokens_and_prefixed_names_read_back(self, rows):
        # The serializer writes a bare number, boolean or prefixed name only
        # where the parser's grammar reads back the same term.
        g = RdfStarGraph(Triple(Iri(EX + local), Iri(EX + "p" + local), Literal(lex, Iri(dt)))
                         for local, lex, dt in rows)
        assert parse(serialize_turtle_star(g, {"ex": EX})) == g

    def test_alice_bob_file_reserializes_identically(self, data_dir, alice_bob):
        graph, prefixes = parse_turtle_star(
            (data_dir / "alice_bob.ttls").read_text(encoding="utf-8")
        )
        text = serialize_turtle_star(graph, prefixes)
        assert parse(text) == alice_bob
        assert serialize_turtle_star(parse(text), prefixes) == text


def _anonymous_social_graph(persons: int, anonymous: int, annotated: int) -> RdfStarGraph:
    """The shape of the benchmark's anon-1k Turtle-star input: persons
    with a name, an age and one knows edge; some of them know a named
    anonymous person (a blank node); some knows edges carry a certainty."""
    rng = random.Random(persons)
    people = [Iri(f"{EX}p{i}") for i in range(persons)]
    triples, knows = [], []
    for i, p in enumerate(people):
        triples.append(Triple(p, NAME, Literal(f"person {i}")))
        triples.append(Triple(p, AGE, Literal(str(rng.randint(18, 90)), Iri(XSD_INTEGER))))
        knows.append(Triple(p, KNOWS, people[(i * 7 + 1) % persons]))
    for k, p in enumerate(rng.sample(people, anonymous)):
        x = BNode(f"x{k}")
        knows.append(Triple(p, KNOWS, x))
        triples.append(Triple(x, NAME, Literal(f"anonymous {k}")))
    for t in rng.sample(knows, annotated):
        certainty = Literal(f"0.{rng.randrange(1000):03d}", Iri(XSD_DECIMAL))
        triples.append(Triple(t, CERTAINTY, certainty))
    return RdfStarGraph(triples + knows)


class TestDeterminismAtScale:
    @pytest.fixture(scope="class")
    def graphs(self):
        g = _anonymous_social_graph(persons=1200, anonymous=1000, annotated=300)
        return g, unfold_to_rdf(g)

    @pytest.mark.parametrize("which", ["turtle-star", "unfolded"])
    def test_serialization_is_deterministic_and_canonical(self, graphs, which):
        g = graphs[which == "unfolded"]
        assert len(blank_node_labels(g)) >= 1000
        prefixes = {"ex": EX, "foaf": FOAF, "rdf": RDF}
        text = serialize_turtle_star(g, prefixes)
        rebuilt = RdfStarGraph(list(g.triples)[::-1])
        assert serialize_turtle_star(rebuilt, prefixes) == text
        reparsed = parse(text)
        assert reparsed == canonicalize_bnodes(g)
        assert isomorphic(g, reparsed)

    def test_anon_workload_shape_at_ten_times_scale(self):
        # The benchmark's anon-1k Turtle-star input has 300 persons, 90
        # anonymous ones and 150 annotations: 1,230 triples.
        g = _anonymous_social_graph(persons=3000, anonymous=900, annotated=1500)
        assert len(g) == 12300
        prefixes = {"ex": EX, "foaf": FOAF}
        text = serialize_turtle_star(g, prefixes)
        assert serialize_turtle_star(g, prefixes) == text
        assert serialize_turtle_star(RdfStarGraph(list(g.triples)[::-1]), prefixes) == text
        reparsed = parse(text)
        assert reparsed == canonicalize_bnodes(g)
        assert isomorphic(g, reparsed)


class TestUnfold:
    def test_alice_bob_unfolds_to_twelve_plain_triples(self, alice_bob):
        u = unfold_to_rdf(alice_bob)
        assert len(u) == 12
        assert embedded_triples(u) == frozenset()
        assert all(nesting_depth(t) == 0 for t in u)

    def test_plain_graph_unchanged(self):
        g = RdfStarGraph([Triple(S, P, O), Triple(S, Q, Literal("x"))])
        assert unfold_to_rdf(g) == g

    def test_unfold_keeps_triples_it_does_not_change(self, alice_bob):
        # A top-level triple that embeds nothing goes into the result as
        # the same object; only the metadata triples are built anew.
        plain = [t for t in alice_bob.triples if not is_metadata_triple(t)]
        assert plain
        u = unfold_to_rdf(alice_bob)
        assert all(any(t is v for v in u.triples) for t in plain)

    def test_empty(self):
        assert unfold_to_rdf(RdfStarGraph()) == RdfStarGraph()

    def test_shared_embedded_triple_reified_once(self):
        inner = Triple(S, P, O)
        g = RdfStarGraph([
            Triple(inner, Q, Literal("a")),
            Triple(inner, Q, Literal("b")),
        ])
        u = unfold_to_rdf(g)
        # 2 rewritten + 4 reification triples for the single shared embedding
        assert len(u) == 6

    def test_fresh_labels_avoid_existing_ones(self):
        g = RdfStarGraph([
            Triple(BNode("r1"), P, O),
            Triple(Triple(S, P, O), Q, Literal("x")),
        ])
        u = unfold_to_rdf(g)
        assert "r1" in blank_node_labels(u)
        assert "r2" in blank_node_labels(u)

    def test_count_formula_on_random_minimal_graphs(self):
        rng = random.Random(43)
        for _ in range(200):
            g = randgen.random_convertible_graph(rng)
            u = unfold_to_rdf(g)
            assert len(u) == len(g) + 4 * len(embedded_triples(g))
            assert embedded_triples(u) == frozenset()


class TestEmbedPlainRdf:
    def test_identity_on_plain_graph(self):
        g = RdfStarGraph([Triple(S, P, O), Triple(O, Q, Literal("x"))])
        assert embed_plain_rdf(g) == g

    def test_empty(self):
        assert embed_plain_rdf(RdfStarGraph()) == RdfStarGraph()

    def test_rejects_nesting(self, alice_bob):
        with pytest.raises(NotPlainRdfError):
            embed_plain_rdf(alice_bob)
