"""Operation runner and output checkers.

An operation is one `starpg` CLI invocation in a fresh Python process,
timed from spawn to exit.  The CLI is started as
`python -c "from starpg.cli import main; ..."` with the checkout's `src`
on the path, so no installed script or `__main__` module is needed.  A
SIGALRM interval timer kills an operation that exceeds its limit; the
process is always reaped with `os.wait4`, which also gives its peak RSS.

Linux carries a process's peak RSS across fork and exec, so a child
spawned by the benchmark itself would report at least the benchmark's own
peak.  Operations are therefore spawned by a `Launcher`: this file run as
a small server process, started before the benchmark loads any input,
that takes one request per line on stdin and answers on stdout.

Run as `python runner.py`, it is that server.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

CLI_MAIN = "import sys; from starpg.cli import main; sys.exit(main(sys.argv[1:]))"

# A fixed pure-Python task that does the kind of work starpg does (build
# strings and tuples, hash them into a dict and a set, sort), run in its
# own process after every operation and set-up.  The host's speed drifts
# by a fifth from one minute to the next; an operation's time divided by
# the reference's time next to it does not.
REFERENCE = """
import random
rng = random.Random(1)
words = [f"http://example.org/p{rng.getrandbits(40):010x}" for _ in range(20000)]
for _ in range(2):
    table = {(w, i % 7): (i, w[-4:]) for i, w in enumerate(words)}
    rows = sorted(table.items())
    seen = frozenset(words)
"""
# The reference task's wall time on the host the benchmark was written on;
# a relative set-up time times this reads as seconds on that host.
REFERENCE_S = 0.2


@dataclass
class OpResult:
    wall_s: float
    exit_code: int | None  # None when the process was killed
    rss_kb: int
    timed_out: bool
    stdout: bytes = b""


def spawn(code: str, args: list[str], src: Path, workdir: Path, limit_s: float) -> OpResult:
    """Run `python -c code args...` in `workdir`, killing it after `limit_s`;
    its standard output is left in `workdir / "op.stdout"`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    timed_out = False
    with open(workdir / "op.stdout", "wb") as out, open(workdir / "op.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", code, *args], cwd=workdir, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)

        def on_alarm(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return OpResult(wall, None if timed_out else proc.returncode, usage.ru_maxrss, timed_out)


class Launcher:
    """Client of a `runner.py` server process; use as a context manager."""

    def __init__(self, src: Path) -> None:
        self.src = src
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, code: str, args: list[str], workdir: Path, limit_s: float) -> OpResult:
        request = {"code": code, "args": args, "src": str(self.src),
                   "workdir": str(workdir), "limit_s": limit_s}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended unexpectedly")
        r = OpResult(**json.loads(reply))
        r.stdout = (workdir / "op.stdout").read_bytes()
        return r

    def run_cli(self, argv: list[str], workdir: Path, limit_s: float) -> OpResult:
        return self.run(CLI_MAIN, argv, workdir, limit_s)


def serve() -> None:
    for line in sys.stdin:
        q = json.loads(line)
        r = spawn(q["code"], q["args"], Path(q["src"]), Path(q["workdir"]), q["limit_s"])
        sys.stdout.write(json.dumps({k: v for k, v in vars(r).items() if k != "stdout"}) + "\n")
        sys.stdout.flush()


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- output checks -------------------------------------------------------------
#
# Each checker takes the raw standard output and the expectation the
# generator recorded, and returns None when the output is right or a
# one-line reason when it is not.


def _turtle_statements(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("@prefix ")]


def check_turtle(stdout: bytes, expect: dict) -> str | None:
    statements = _turtle_statements(stdout.decode("utf-8"))
    embedded = sum(1 for line in statements if line.startswith("<<"))
    if len(statements) != expect["statements"]:
        return f"{len(statements)} statement lines, expected {expect['statements']}"
    if embedded != expect["embedded_lines"]:
        return f"{embedded} '<<' lines, expected {expect['embedded_lines']}"
    return None


def check_pg_json(stdout: bytes, expect: dict) -> str | None:
    doc = json.loads(stdout)
    vertices, edges = doc["vertices"], doc["edges"]
    properties = sum(len(x["properties"]) for x in vertices + edges)
    got = {"vertices": len(vertices), "edges": len(edges), "properties": properties}
    for key, value in got.items():
        if value != expect[key]:
            return f"{value} {key}, expected {expect[key]}"
    return None


def check_roundtrip(stdout: bytes, expect: dict) -> str | None:
    text = stdout.decode("utf-8").strip()
    want = f"round-trip OK: {expect['triples']} triples"
    return None if text == want else f"printed {text[:80]!r}, expected {want!r}"


def check_violations(stdout: bytes, expect: dict) -> str | None:
    report = json.loads(stdout)
    n = len(report["violations"])
    if n != expect["violations"] or report["ok"] != (n == 0):
        return f"{n} violations (ok={report['ok']}), expected {expect['violations']}"
    return None


def check_output(checker, exit_code: int | None, stdout: bytes, expect: dict) -> str | None:
    """Exit code first, then the checker; a malformed output is a failure too."""
    if exit_code != expect["exit"]:
        return f"exit code {exit_code}, expected {expect['exit']}"
    try:
        return checker(stdout, expect)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}"


if __name__ == "__main__":
    serve()
