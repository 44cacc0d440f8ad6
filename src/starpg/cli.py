"""Command line interface.

Subcommands: check, rdf2pg, pg2rdf, unfold, roundtrip.  Exit codes:
0 success, 1 domain/validation failure, 2 parse/format/usage error.
Data goes to -o or standard output as it is made, in pieces of about
64 KiB; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import nullcontext
from itertools import chain
from typing import Iterable, Iterator, TextIO

from .mappings import (
    DEFAULT_EDGE_LABEL_PREFIX,
    DEFAULT_PROPERTY_KEY_PREFIX,
    LITERAL_MODES,
    MappingConfig,
    MappingConfigError,
    parse_vertex_id_strategy,
)
from .namespaces import RDF
from .pg import PgValidationError
from .pgjson import FILE_EXTENSION as PG_JSON_EXTENSION
from .pgjson import SchemaError, iter_pg_json, parse_pg_json
from .rdf import (
    canonicalize_bnodes,
    isomorphic,
    minimize,
    redundant_triples,
    term_key,
)
from .transforms import (
    ConvertibilityError,
    ConvertibilityReport,
    MalformedRdfLikePgError,
    NotEdgeUniqueError,
    NotPropertyUniqueError,
    canonicalize_values,
    check_pg_convertible,
    check_strongly_pg_convertible,
    from_rdf_like_pg,
    pg_to_rdf_star,
    to_rdf_like_pg,
    to_simple_pg,
)
from .turtle import FILE_EXTENSIONS as TURTLE_EXTENSIONS
from .turtle import (
    TurtleParseError,
    format_term,
    iter_turtle_star,
    parse_turtle_star,
    unfold_to_rdf,
)

_EXTENSIONS = {"turtle-star": TURTLE_EXTENSIONS, "pg-json": (PG_JSON_EXTENSION,)}


class CliUsageError(Exception):
    pass


class InputEncodingError(Exception):
    """An input file is not valid UTF-8."""


# The stderr line and exit code of each failure a command raises,
# violations aside; {} stands for the exception's text.  Running out of
# memory prints a constant, so that its handler allocates little.
_FAILURES = {
    TurtleParseError: ("parse error: {}", 2),
    SchemaError: ("schema error: {}", 2),
    MappingConfigError: ("configuration error: {}", 2),
    CliUsageError: ("{}", 2),
    InputEncodingError: ("encoding error: {}", 2),
    OSError: ("i/o error: {}", 2),
    MemoryError: ("out of memory", 2),
    PgValidationError: ("error: {}", 1),
    MalformedRdfLikePgError: ("error: {}", 1),
}


def _check_format(path: str | None, expected: str, override: str | None, role: str) -> None:
    """Reject an override, or else a path's extension, that names another format."""
    if override is not None:
        if override != expected:
            raise CliUsageError(f"the {role} format of this command is {expected}, not {override}")
        return
    for fmt, extensions in _EXTENSIONS.items():
        if fmt != expected and path is not None and path.endswith(extensions):
            raise CliUsageError(
                f"{path!r} has a {fmt} extension but this command expects {expected}"
            )


def _read(path: str) -> str:
    """The file's text, with newlines translated as text-mode open does."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputEncodingError(
            f"{path}: invalid UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


# The characters of each write: the chunks of an output are joined into
# pieces of about this size.  Under unbuffered standard output
# (PYTHONUNBUFFERED, python -u) every write is a system call, so a write
# per chunk would cost one per element of the graph.
_PIECE_SIZE = 64 * 1024


def _pieces(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks joined into pieces of at least _PIECE_SIZE characters,
    but the last, which may be empty."""
    batch: list[str] = []
    size = 0
    for chunk in chunks:
        batch.append(chunk)
        size += len(chunk)
        if size >= _PIECE_SIZE:
            yield "".join(batch)
            batch.clear()
            size = 0
    yield "".join(batch)


def _write(chunks: Iterable[str], path: str | None = None, stream: TextIO | None = None) -> None:
    """Write the chunks to the file at path, else to stream, standard
    output by default, a piece at a time.  The file is opened, and
    emptied, only once the first piece is made."""
    pieces = _pieces(chunks)
    first = [next(pieces)]
    with (nullcontext(stream or sys.stdout) if path is None
          else open(path, "w", encoding="utf-8")) as out:
        for piece in chain(first, pieces):
            if piece:
                out.write(piece)


def _violation_report(entries: list[dict], report: str) -> Iterator[str]:
    """The chunks of a violation report: a JSON object laid out as
    json.dump(..., indent=2) lays it out, or one line per violation, which
    names its triple when it has one."""
    if report == "json":
        document = {"ok": not entries, "violations": entries}
        yield from json.JSONEncoder(indent=2).iterencode(document)
        yield "\n"
    else:
        for entry in entries:
            line = f"[{entry['condition']}] {entry['reason']}"
            yield f"{line}: {entry['triple']}\n" if entry["triple"] else line + "\n"


def _convertibility_entries(report: ConvertibilityReport) -> list[dict]:
    return [
        {"condition": v.condition, "reason": v.reason, "triple": format_term(v.triple)}
        for v in report.violations
    ]


def _violation_entries(exc: ValueError) -> list[dict]:
    if isinstance(exc, ConvertibilityError):
        return _convertibility_entries(exc.report)
    kind = "property-unique" if isinstance(exc, NotPropertyUniqueError) else "edge-unique"
    return [{"condition": kind, "reason": str(pair), "triple": ""} for pair in exc.violations]


def cmd_check(args: argparse.Namespace) -> int:
    _check_format(args.input, "turtle-star", args.from_format, "input")
    graph, _ = parse_turtle_star(_read(args.input))
    if args.level == "minimal":
        entries = [
            {
                "condition": "redundant",
                "reason": "top-level triple also occurs embedded",
                "triple": format_term(t),
            }
            for t in sorted(redundant_triples(graph), key=term_key)
        ]
    else:
        checker = check_pg_convertible if args.level == "convertible" else check_strongly_pg_convertible
        entries = _convertibility_entries(checker(graph, args.literal_mode))
    _write(["OK\n"] if args.report == "text" and not entries
           else _violation_report(entries, args.report))
    return 0 if not entries else 1


def cmd_rdf2pg(args: argparse.Namespace) -> int:
    _check_format(args.input, "turtle-star", args.from_format, "input")
    _check_format(args.output, "pg-json", args.to_format, "output")
    transform = to_rdf_like_pg if args.mode == "rdf-like" else to_simple_pg
    # Keep only the property graph: the parsed graph and the witness maps
    # are freed before the output is built.
    pg = transform(parse_turtle_star(_read(args.input))[0], args.literal_mode).graph
    _write(iter_pg_json(pg), args.output)
    return 0


def cmd_pg2rdf(args: argparse.Namespace) -> int:
    _check_format(args.input, "pg-json", args.from_format, "input")
    _check_format(args.output, "turtle-star", args.to_format, "output")
    pgraph = parse_pg_json(_read(args.input))
    config = MappingConfig(
        property_key_prefix=args.property_key_prefix,
        edge_label_prefix=args.edge_label_prefix,
        vertex_id_strategy=parse_vertex_id_strategy(args.vertex_ids),
    )
    graph = pg_to_rdf_star(pgraph, config)
    prefixes = {"p": config.property_key_prefix, "r": config.edge_label_prefix}
    _write(iter_turtle_star(graph, prefixes), args.output)
    return 0


def cmd_unfold(args: argparse.Namespace) -> int:
    _check_format(args.input, "turtle-star", args.from_format, "input")
    _check_format(args.output, "turtle-star", args.to_format, "output")
    graph, prefixes = parse_turtle_star(_read(args.input))
    unfolded = unfold_to_rdf(graph)
    # Unfolding changes the graph exactly when it embeds triples.
    if unfolded != graph and "rdf" not in prefixes:
        prefixes["rdf"] = RDF
    _write(iter_turtle_star(unfolded, prefixes), args.output)
    return 0


def cmd_roundtrip(args: argparse.Namespace) -> int:
    _check_format(args.input, "turtle-star", args.from_format, "input")
    # Nothing is kept that a later step does not need: the parsed graph
    # lives on only as prepared, when neither step changes it, and of the
    # forward transform only its property graph, until back is built.
    prepared = minimize(canonicalize_values(parse_turtle_star(_read(args.input))[0],
                                            args.literal_mode))
    back = from_rdf_like_pg(to_rdf_like_pg(prepared, args.literal_mode).graph)
    if isomorphic(prepared, back):
        n = len(prepared)
        _write([json.dumps({"ok": True, "triples": n}) + "\n" if args.report == "json"
                else f"round-trip OK: {n} triples\n"])
        return 0
    want = canonicalize_bnodes(prepared).triples
    got = canonicalize_bnodes(back).triples
    difference = sorted(want ^ got, key=term_key)
    side = "missing" if difference[0] in want else "unexpected"
    _write([f"round-trip mismatch, {side} triple: {format_term(difference[0])}\n"],
           stream=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starpg",
        description="Convert between RDF-star (Turtle-star) and property graphs (PG-JSON).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p: argparse.ArgumentParser, output: bool = True) -> None:
        p.add_argument("input", help="input file")
        p.add_argument("--from", dest="from_format", choices=("turtle-star", "pg-json"),
                       help="input format override")
        if output:
            p.add_argument("--to", dest="to_format", choices=("turtle-star", "pg-json"),
                           help="output format override")
            p.add_argument("-o", "--output", help="output file (default: standard output)")

    check = sub.add_parser("check", help="report convertibility or minimality violations")
    io_flags(check, output=False)
    check.add_argument("--level", choices=("convertible", "strong", "minimal"),
                       default="convertible")
    check.add_argument("--literal-mode", choices=LITERAL_MODES, default="lenient")
    check.add_argument("--report", choices=("text", "json"), default="text")
    check.set_defaults(func=cmd_check)

    rdf2pg = sub.add_parser("rdf2pg", help="transform Turtle-star into PG-JSON")
    io_flags(rdf2pg)
    rdf2pg.add_argument("--mode", choices=("rdf-like", "simple"), required=True)
    rdf2pg.add_argument("--literal-mode", choices=LITERAL_MODES, default="lenient")
    rdf2pg.add_argument("--report", choices=("text", "json"), default="text")
    rdf2pg.set_defaults(func=cmd_rdf2pg)

    pg2rdf = sub.add_parser("pg2rdf", help="represent PG-JSON in Turtle-star")
    io_flags(pg2rdf)
    pg2rdf.add_argument("--property-key-prefix", default=DEFAULT_PROPERTY_KEY_PREFIX)
    pg2rdf.add_argument("--edge-label-prefix", default=DEFAULT_EDGE_LABEL_PREFIX)
    pg2rdf.add_argument("--vertex-ids", default="bnode",
                        help='"bnode" or "iri:<prefix>" (default: bnode)')
    pg2rdf.add_argument("--report", choices=("text", "json"), default="text")
    pg2rdf.set_defaults(func=cmd_pg2rdf)

    unfold = sub.add_parser("unfold", help="rewrite embedded triples via reification")
    io_flags(unfold)
    unfold.set_defaults(func=cmd_unfold)

    roundtrip = sub.add_parser("roundtrip",
                               help="canonicalize, minimize, transform there and back, compare")
    io_flags(roundtrip, output=False)
    roundtrip.add_argument("--literal-mode", choices=LITERAL_MODES, default="lenient")
    roundtrip.add_argument("--report", choices=("text", "json"), default="text")
    roundtrip.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # Terms, triples, properties and graphs are immutable and refer only to
    # objects built before them, so the data model is acyclic and reference
    # counting frees it.  The cyclic collector would only rescan that live
    # data, so it is off while the command runs.  The few cycles made
    # elsewhere, such as the argument parser's, wait for the process to exit
    # or for the collector, which in-process callers get back as it was.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ConvertibilityError, NotPropertyUniqueError, NotEdgeUniqueError) as exc:
        # Only the commands with a --report option raise these.
        _write(_violation_report(_violation_entries(exc), args.report), stream=sys.stderr)
        return 1
    except tuple(_FAILURES) as exc:
        line, code = next(_FAILURES[c] for c in type(exc).__mro__ if c in _FAILURES)
        _write([line.format(exc) + "\n"], stream=sys.stderr)
        return code
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
