"""starpg benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload social-10k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload anon-1k --seed 1 --seconds 30 --trace 1

Run from anywhere inside a starpg checkout; the program is taken from the
checkout's `src`.  One client runs the workload's operations in order, in
a closed loop, starting new cycles until `--seconds` have passed.  With
`--trace 0` each operation is a fresh `starpg` process given the
generated files, and its output is checked against what the generator
planted.  With `--trace 1` the same operations run in-process, alternately
with and without the tracer.  The report ends with one line holding a
JSON object with the end-to-end (`--trace 0`) or per-layer (`--trace 1`)
metrics; the lines before it give the same figures, and the per-command
medians, for people.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402

OP_LIMIT_S = 60.0
SETUP_REPEATS = 9
STARTUP_REPEATS = 7
MIN_TRACED_CYCLES = 2
PERSON_PREFIX = "http://example.org/person/"
END_TO_END = {"cycle_rel": "x", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Op:
    command: str
    argv: tuple[str, ...]
    input: str
    checker: object
    expect: str  # key into the input file's expectations


WORKLOADS = {
    # IRIs only: the linear stages and the strong check's per-annotation
    # rescan do the work; blank-node renumbering never runs and
    # `isomorphic` takes its set-equality fast path.
    "social-10k": (
        Op("check", ("check", "--level", "strong", "--report", "json"), "social.ttls",
           runner.check_violations, "check"),
        Op("rdf2pg", ("rdf2pg", "--mode", "rdf-like"), "social.ttls",
           runner.check_pg_json, "rdf2pg-rdf-like"),
        Op("roundtrip", ("roundtrip",), "social.ttls", runner.check_roundtrip, "roundtrip"),
    ),
    # The reverse direction over the same I/O layers: PG-JSON in,
    # Turtle-star out, vertices as IRIs so renumbering returns at once.
    "pg-10k": (
        Op("pg2rdf", ("pg2rdf", "--vertex-ids", "iri:" + PERSON_PREFIX), "graph.pg.json",
           runner.check_turtle, "pg2rdf"),
    ),
    # Dense in blank nodes: renumbering and `isomorphic` do most of the
    # work, and it is the only workload that runs `to_simple_pg`.
    "anon-1k": (
        Op("rdf2pg", ("rdf2pg", "--mode", "simple"), "anon.ttls",
           runner.check_pg_json, "rdf2pg-simple"),
        Op("unfold", ("unfold",), "anon.ttls", runner.check_turtle, "unfold"),
        Op("roundtrip", ("roundtrip",), "anon.ttls", runner.check_roundtrip, "roundtrip"),
        Op("pg2rdf", ("pg2rdf",), "anon.pg.json", runner.check_turtle, "pg2rdf"),
    ),
}


class Failures:
    """Failed operations by kind, with the first reason seen for each."""

    def __init__(self) -> None:
        self.count: dict[str, int] = {}
        self.first: dict[str, str] = {}

    def add(self, kind: str, reason: str) -> None:
        self.count[kind] = self.count.get(kind, 0) + 1
        self.first.setdefault(kind, reason)

    @property
    def total(self) -> int:
        return sum(self.count.values())

    @property
    def outputs_correct(self) -> bool:
        """A timeout is a failure, but not a wrong output."""
        return self.total == self.count.get("timeout", 0)


class Checker:
    """Checks each output against the generator's counts, and that an
    operation gives the same bytes every time it runs."""

    def __init__(self, files: dict) -> None:
        self.files = files
        self.failures = Failures()
        self.digests: dict[int, str] = {}

    def __call__(self, index: int, op: Op, exit_code: int | None, stdout: bytes) -> bool:
        reason = runner.check_output(op.checker, exit_code, stdout,
                                     self.files[op.input].expect[op.expect])
        digest = runner.digest(stdout)
        if reason is None and self.digests.setdefault(index, digest) != digest:
            reason = "output differs from the first run of this operation"
        if reason is not None:
            self.failures.add("output", f"{op.command} {op.input}: {reason}")
        return reason is None


def set_up(workload: str, seed: int, workdir: Path, launcher: runner.Launcher) -> dict:
    """Generate and write the inputs, then start the CLI once, untimed, so
    that its bytecode cache is filled.  That start, an import of
    `starpg.cli`, is the only starpg code that set-up runs."""
    files = {f.name: f for f in inputs.generate(workload, seed)}
    for f in files.values():
        (workdir / f.name).write_text(f.text, encoding="utf-8")
    launcher.run("import starpg.cli", [], workdir, OP_LIMIT_S)
    return files


def reference(workdir: Path, launcher: runner.Launcher) -> float:
    """Wall time of one run of the reference task."""
    r = launcher.run(runner.REFERENCE, [], workdir, OP_LIMIT_S)
    if r.exit_code != 0:
        raise RuntimeError(f"the reference task failed: exit code {r.exit_code}")
    return r.wall_s


def triples_handled(op: Op, f: inputs.InputFile) -> int:
    """Input triples for Turtle-star input, output triples for pg2rdf."""
    return f.expect[op.expect]["statements"] if op.command == "pg2rdf" else f.planted.triples


def relative(walls: list[float], refs: list[float]) -> list[float]:
    """Each operation's wall time over the median of the reference runs
    just before and after it and the next one after; `refs[i]` ran right
    after `walls[i]`."""
    return [w / statistics.median(refs[max(i - 1, 0):i + 2]) for i, w in enumerate(walls)]


def timed_run(ops, files, seconds: float, workdir: Path, launcher: runner.Launcher):
    """Closed loop over whole cycles of `ops`, one process per operation; a
    new cycle starts until `seconds` have passed, so at least one runs and
    every operation runs equally often.  Each operation is followed by one
    run of the reference task, and its time is also taken relative to the
    reference runs nearest to it."""
    check = Checker(files)
    done: list[tuple[Op, float]] = []
    refs: list[float] = []
    triples = rss_kb = 0
    start = time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        for index, op in enumerate(ops):
            r = launcher.run_cli([*op.argv, op.input], workdir, OP_LIMIT_S)
            done.append((op, r.wall_s))
            refs.append(reference(workdir, launcher))
            rss_kb = max(rss_kb, r.rss_kb)
            if r.timed_out:
                check.failures.add("timeout", f"{op.command} {op.input}: over {OP_LIMIT_S:g} s")
            elif check(index, op, r.exit_code, r.stdout):
                triples += triples_handled(op, files[op.input])
    rel = relative([w for _, w in done], refs)
    walls: dict[str, list[float]] = {op.command: [] for op in ops}
    rels: dict[str, list[float]] = {op.command: [] for op in ops}
    for (op, w), x in zip(done, rel):
        walls[op.command].append(w)
        rels[op.command].append(x)
    for command, samples in walls.items():
        print(f"{command}_s {statistics.median(samples):.4f} s (median of {len(samples)}, "
              f"min {min(samples):.4f}, max {max(samples):.4f}); "
              f"{statistics.median(rels[command]):.4f} x the reference")
    print(f"reference_s {statistics.median(refs):.4f} s (median of {len(refs)}, "
          f"min {min(refs):.4f}, max {max(refs):.4f})")
    wall = sum(w for _, w in done)
    print(f"cycle_s {sum(statistics.median(v) for v in walls.values()):.4f} s, "
          f"triples_per_s {triples / wall:.1f} 1/s, "
          f"triples_per_ref {triples / sum(rel):.1f} 1/ref")
    failed = check.failures.total
    print(f"fail_ratio {failed / len(done):.4f} ({failed} of {len(done)} operations)")
    values = {
        "cycle_rel": sum(statistics.median(v) for v in rels.values()),
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }
    return {name: (v, END_TO_END[name]) for name, v in values.items()}, check.failures, len(done)


def run_in_process(ops, workdir: Path, check: Checker, tracer: spans.Tracer | None) -> float:
    """One cycle of `ops` through `starpg.cli.main`; returns its wall time."""
    import starpg.cli

    total = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        out, err = io.StringIO(), io.StringIO()
        argv = [*op.argv, str(workdir / op.input)]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                exit_code = starpg.cli.main(argv)
            except Exception:  # the run goes on; the operation counts as failed
                exit_code = None
                err.write(traceback.format_exc())
        total += time.perf_counter() - start
        if exit_code is None:
            check.failures.add("crash", f"{op.command}: {err.getvalue().splitlines()[-1]}")
        else:
            check(index, op, exit_code, out.getvalue().encode("utf-8"))
    return total


def traced_run(ops, files, seconds: float, workdir: Path, launcher: runner.Launcher,
               trace_file: Path):
    """Per-layer self time and call counts from in-process cycles with the
    tracer installed, alternating with untraced cycles for the overhead."""
    startup = [launcher.run("import starpg.cli", [], workdir, OP_LIMIT_S).wall_s
               for _ in range(STARTUP_REPEATS)]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    check = Checker(files)
    tracer = spans.Tracer()
    plain: list[float] = []
    traced: list[float] = []
    self_samples: list[dict[str, float]] = []
    first_calls: dict[str, int] | None = None
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_CYCLES or time.perf_counter() - start < seconds:
        plain.append(run_in_process(ops, workdir, check, None))
        tracer.spans.clear()
        tracer.install()
        try:
            traced.append(run_in_process(ops, workdir, check, tracer))
        finally:
            tracer.uninstall()
        self_s, calls = spans.summarize(tracer.spans)
        self_samples.append(self_s)
        if first_calls is None:
            first_calls = calls
        for name in calls:
            if calls[name] != first_calls[name]:
                check.failures.add("trace", f"{name}.calls was {first_calls[name]}, "
                                            f"then {calls[name]}")
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps([vars(s) for s in tracer.spans]) + "\n")
    print(f"spans of the last traced cycle: {trace_file}")

    found = {"cli.startup_s": (statistics.median(startup), "s")}
    for name in first_calls:
        found[f"{name}.self_s"] = (statistics.median(s[name] for s in self_samples), "s")
        found[f"{name}.calls"] = (first_calls[name], "count")
    for layer in spans.LAYERS:
        totals = [sum(t for name, t in s.items() if name.startswith(layer + "."))
                  for s in self_samples]
        found[f"layer.{layer}.self_s"] = (statistics.median(totals), "s")
    found["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics = {name: found.pop(name) for name in spans.metric_names()}
    for name, (value, unit) in found.items():
        print(f"{name} {value:.6g} {unit}")
    return metrics, check.failures, len(ops) * (len(plain) + len(traced))


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 launcher: runner.Launcher) -> None:
    """Set up, run and report one workload; the JSON line is printed last."""
    ops = WORKLOADS[workload]
    print(f"workload {workload}, seed {seed}, {seconds:g} s, trace {int(trace)}")
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        setups, refs = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            files = set_up(workload, seed, workdir, launcher)
            setups.append(time.perf_counter() - t0)
            refs.append(reference(workdir, launcher))
        if trace:
            trace_file = HERE / ".traces" / f"{workload}-seed{seed}.json"
            metrics, failures, attempted = traced_run(ops, files, seconds, workdir, launcher,
                                                      trace_file)
        else:
            metrics, failures, attempted = timed_run(ops, files, seconds, workdir, launcher)
            print(f"setup {statistics.median(setups):.4f} s (median of {len(setups)})")
            setup_s = statistics.median(relative(setups, refs)) * runner.REFERENCE_S
            metrics["setup_s"] = (setup_s, END_TO_END["setup_s"])

    for kind, reason in failures.first.items():
        print(f"{failures.count[kind]} {kind} failure(s), first: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failures.outputs_correct,
        "attempted": attempted,
        "failed": failures.total,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "starpg" / "cli.py").is_file():
        print(f"perfbench: no starpg sources at {SRC}", file=sys.stderr)
        return 2
    # The launcher starts first, while this process is still small: the
    # peak RSS it reports for an operation must not include ours.
    with runner.Launcher(SRC) as launcher:
        run_workload(args.workload, args.seed, args.seconds, bool(args.trace), launcher)
    return 0


if __name__ == "__main__":
    sys.exit(main())
