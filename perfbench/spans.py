"""Tracing from outside the program: wrappers, spans, self time, counters.

Each traced function is wrapped by rebinding its name in every `starpg`
module that binds it, so calls between modules (`serialize_turtle_star`
calling `canonicalize_bnodes`) and within one (`_renumber_pass` calling
`relabel_bnodes`) both pass through the wrapper.  `PropertyGraph` is
traced through its `__init__`.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass

# (module, name) of every traced function, grouped by layer.  Which
# end-to-end metric each is expected to move is listed in README.md.
TRACED = (
    ("cli", "main"),
    ("turtle", "parse_turtle_star"),
    ("turtle", "serialize_turtle_star"),
    ("turtle", "unfold_to_rdf"),
    ("rdf", "canonicalize_bnodes"),
    ("rdf", "relabel_bnodes"),
    ("rdf", "isomorphic"),
    ("rdf", "ordinary_triples"),
    ("rdf", "minimize"),
    ("transforms", "check_pg_convertible"),
    ("transforms", "check_strongly_pg_convertible"),
    ("transforms", "to_rdf_like_pg"),
    ("transforms", "from_rdf_like_pg"),
    ("transforms", "canonicalize_values"),
    ("transforms", "to_simple_pg"),
    ("transforms", "pg_to_rdf_star"),
    ("pg", "PropertyGraph"),
    ("pg", "property_uniqueness_violations"),
    ("pg", "edge_uniqueness_violations"),
    ("pgjson", "parse_pg_json"),
    ("pgjson", "serialize_pg_json"),
    ("mappings", "value_from_literal"),
    ("mappings", "assign_vertex_identities"),
)
LAYERS = ("cli", "turtle", "rdf", "transforms", "pg", "pgjson", "mappings")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), name, clock(), 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(span.id)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def install(self) -> None:
        for module_name in LAYERS:
            importlib.import_module(f"starpg.{module_name}")
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "starpg" or key.startswith("starpg."))]
        for module_name, attr in TRACED:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"starpg.{module_name}"], attr)
            if isinstance(original, type):
                init = original.__init__
                self._undo.append((original, "__init__", init))
                original.__init__ = self._wrap(name, init)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans: list[Span]) -> tuple[dict[str, float], dict[str, int]]:
    """Per traced name: total self time and call count, zero when never called."""
    self_s = {f"{m}.{a}": 0.0 for m, a in TRACED}
    calls = {f"{m}.{a}": 0 for m, a in TRACED}
    names = {s.id: s.name for s in spans}
    for span_id, t in self_times(spans).items():
        name = names[span_id]
        self_s[name] += t
        calls[name] += 1
    return self_s, calls


# A reported time must be measured on every run, and a function that a
# workload never calls has no self time to measure.  So self time goes
# into the report per layer, and per function only for the functions that
# every workload calls; a traced run prints the rest on its own lines.
SELF_TIME_REPORTED = ("cli.main", "pg.PropertyGraph")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = ["cli.startup_s"]
    names += [f"{name}.self_s" for name in SELF_TIME_REPORTED]
    names += [f"layer.{layer}.self_s" for layer in LAYERS]
    names += [f"{m}.{a}.calls" for m, a in TRACED]
    names.append("trace.overhead_s")
    return names
