"""Tests of the benchmark's own code: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import spans  # noqa: E402

# Small versions of the three workloads, so starpg itself runs quickly.
SMALL = {
    "social-10k": lambda seed: inputs.social(seed, persons=120, provenance=4),
    "pg-10k": lambda seed: inputs.pg(seed, vertices=60),
    "anon-1k": lambda seed: inputs.anon(seed, persons=40, anonymous=8, annotations=12,
                                        pg_vertices=6),
}


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_generator_is_deterministic(workload):
    first = inputs.generate(workload, 7)
    again = inputs.generate(workload, 7)
    other = inputs.generate(workload, 8)
    assert [(f.name, f.text, f.planted, f.expect) for f in first] == \
           [(f.name, f.text, f.planted, f.expect) for f in again]
    assert [f.text for f in first] != [f.text for f in other]
    assert [f.planted for f in first] == [f.planted for f in other]


def test_planted_counts():
    (social,) = inputs.generate("social-10k", 1)
    assert social.planted.annotated_attribute_triples == 30
    assert social.planted.blank_nodes == 0
    assert social.expect["check"] == {"exit": 1, "violations": 30}
    (graph,) = inputs.generate("pg-10k", 1)
    assert (graph.planted.vertices, graph.planted.edges) == (2500, 5000)
    assert graph.planted.triples == 10000
    ttl, small_pg = inputs.generate("anon-1k", 1)
    assert ttl.planted.blank_nodes == 90
    assert ttl.planted.embedded_triples == 150
    assert small_pg.planted.vertices == 32


def _run_cli(argv: list[str]) -> tuple[int, bytes]:
    import starpg.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = starpg.cli.main(argv)
    return code, out.getvalue().encode("utf-8")


def _drop_one(op: run.Op, stdout: bytes) -> bytes:
    """The output with one triple, vertex or violation taken away."""
    if op.checker is runner.check_pg_json:
        doc = json.loads(stdout)
        doc["vertices"].pop()
        return json.dumps(doc).encode()
    if op.checker is runner.check_violations:
        doc = json.loads(stdout)
        doc["violations"].pop()
        return json.dumps(doc).encode()
    if op.checker is runner.check_roundtrip:
        n = int(stdout.split()[2])
        return stdout.replace(str(n).encode(), str(n - 1).encode())
    lines = stdout.decode().splitlines(keepends=True)
    return "".join(lines[:-1]).encode()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_checkers_accept_real_output_and_reject_a_dropped_element(workload, tmp_path):
    files = {f.name: f for f in SMALL[workload](3)}
    for f in files.values():
        (tmp_path / f.name).write_text(f.text, encoding="utf-8")
    for op in run.WORKLOADS[workload]:
        expect = files[op.input].expect[op.expect]
        code, stdout = _run_cli([*op.argv, str(tmp_path / op.input)])
        assert runner.check_output(op.checker, code, stdout, expect) is None, op
        assert runner.check_output(op.checker, code, _drop_one(op, stdout), expect) is not None
        assert runner.check_output(op.checker, code + 1, stdout, expect) is not None


def test_checker_flags_output_that_changes_between_runs():
    (social,) = SMALL["social-10k"](1)
    op = run.WORKLOADS["social-10k"][2]
    check = run.Checker({op.input: social})
    ok = f"round-trip OK: {social.expect['roundtrip']['triples']} triples\n".encode()
    assert check(2, op, 0, ok)
    assert not check(2, op, 0, ok.replace(b"\n", b"\r\n"))
    assert check.failures.count == {"output": 1}


def test_self_time_on_a_hand_built_span_tree():
    # root [0, 10] with children a [1, 4] and b [3, 6] (overlapping, so
    # together they cover [1, 6]) and c [8, 12] clipped to [8, 10];
    # a has one child d [2, 3].
    tree = [
        spans.Span(0, "cli.main", 0.0, 10.0, None, 0),
        spans.Span(1, "turtle.parse_turtle_star", 1.0, 4.0, 0, 0),
        spans.Span(2, "rdf.minimize", 3.0, 6.0, 0, 0),
        spans.Span(3, "rdf.relabel_bnodes", 8.0, 12.0, 0, 0),
        spans.Span(4, "rdf.relabel_bnodes", 2.0, 3.0, 1, 0),
    ]
    assert spans.self_times(tree) == {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}
    self_s, calls = spans.summarize(tree)
    assert self_s["rdf.relabel_bnodes"] == 5.0
    assert calls["rdf.relabel_bnodes"] == 2
    assert calls["pgjson.parse_pg_json"] == 0


def test_tracer_wraps_every_binding_and_restores_it(tmp_path):
    import starpg.rdf
    import starpg.turtle

    (social,) = SMALL["social-10k"](1)
    (tmp_path / social.name).write_text(social.text, encoding="utf-8")
    original = starpg.rdf.canonicalize_bnodes
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert starpg.turtle.canonicalize_bnodes is starpg.rdf.canonicalize_bnodes
        assert starpg.turtle.canonicalize_bnodes is not original
        _run_cli(["check", str(tmp_path / social.name)])
    finally:
        tracer.uninstall()
    assert starpg.turtle.canonicalize_bnodes is original
    _, calls = spans.summarize(tracer.spans)
    assert calls["cli.main"] == 1
    assert calls["turtle.parse_turtle_star"] == 1
    assert calls["transforms.check_pg_convertible"] == 1


def test_an_operation_over_its_limit_is_killed(tmp_path):
    start = time.perf_counter()
    r = runner.spawn("import time; time.sleep(30)", [], HERE.parent / "src", tmp_path, 0.3)
    assert r.timed_out and r.exit_code is None
    assert time.perf_counter() - start < 10


def _small_inputs(workload: str, workdir: Path) -> dict:
    files = {f.name: f for f in SMALL[workload](5)}
    for f in files.values():
        (workdir / f.name).write_text(f.text, encoding="utf-8")
    return files


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_both_kinds_of_run_report_every_metric_of_benchmark_json(workload, tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    ops = run.WORKLOADS[workload]
    files = _small_inputs(workload, tmp_path)
    with runner.Launcher(run.SRC) as launcher:
        timed, failures, attempted = run.timed_run(ops, files, 0, tmp_path, launcher)
        assert (failures.total, attempted) == (0, len(ops))
        traced, failures, _ = run.traced_run(ops, files, 0, tmp_path, launcher,
                                             tmp_path / "spans.json")
        assert failures.total == 0
    assert [m["name"] for m in spec["end_to_end"]] == [*timed, "setup_s"]
    assert [m["name"] for m in spec["per_layer"]] == list(traced) == spans.metric_names()
    assert all(value > 0 for value, _ in timed.values())
    assert traced["cli.main.calls"][0] == len(ops)


def test_relative_time_uses_the_nearest_reference_runs():
    # Reference run i follows operation i, so operation i is compared with
    # references i-1, i and i+1 where they exist.
    assert run.relative([3.0, 4.0, 6.0, 7.0], [1.0, 2.0, 3.0, 4.0]) == [2.0, 2.0, 2.0, 2.0]
