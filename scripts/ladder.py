#!/usr/bin/env python3
"""The scale ladder: large generated KBs solved by one or more source trees,
one JSON row per rung and tree.

Two start-up rungs come first. ``startup`` is the CPU time from a fresh
interpreter's start to the end of ``import probel.cli``, at reference
machine speed, the median of 15 launches: ``perfbench/run.py``'s
``setup_s`` probe, imported, not changed. ``toddler end to end`` is the
median CPU time of 15 fresh ``python -m probel.cli solve kbs/toddler.kb``
processes, read from ``RUSAGE_CHILDREN``, with its report's digest. Each
takes one unmeasured launch first.

Rungs: G(150,400,15), G(300,800,30) at seeds 0 and 1, G(450,1200,45),
G(600,1600,60) and G(1200,3200,120), the independent KBs of 1100 and 3000
statements, each through ``solve --format json``; ``solve --explain
--format json`` on G(40,100,6) and G(100,250,10); and ``oracle --format
json`` on the small random KBs of 12, 14 and 16 uncertain statements
(``small_kb``), which the oracle enumerates in full; seed 0 unless said.
The KBs come from ``perfbench/gen.py`` and the machine-speed reference
loop from ``perfbench/speed.py``, both imported, not changed, from this
checkout, so every tree solves the same texts.

Each row runs in its own child interpreter with ``PYTHONPATH`` set to one
tree's ``src``, under a per-row wall-clock limit. A row records:

- ``status``: ``ok``, ``timeout`` (killed at the limit; kept, not dropped)
  or ``error`` (a nonzero exit or an exception, with its message);
- ``cpu_s``, the CPU seconds of the CLI call, and ``scaled_s``, the same at
  reference machine speed: divided by the slowdown of reference loops
  timed just before and after it (see ``speed.py``);
- for ``solve``, the exact objective and the cutting-plane rounds of the
  MAP result, and ``ilp_variables`` and ``ilp_constraints`` (its distinct
  clauses): the size of the MAP's ILP at its last solve (with
  ``--explain``, of the MAP run before the flips), and
  ``ilp_largest_component``: the variables of the largest connected
  component of that ILP's constraint graph, in which two variables meet
  when one constraint holds both;
- for ``solve``, the search's phases over the whole CLI call (with
  ``--explain``, the flips included): ``optimum_s``, the CPU seconds of the
  branch-and-bound passes that find a component's optimum;
  ``tiebreak_s``, those of the walks to the smallest optimum (``_lexmin``),
  whose decision calls are counted as ``decisions_found`` (a leaf that
  keeps the optimum) and ``decisions_refuted``; and ``carries_made`` and
  ``carries_failed``, the rounds whose last assignment was or was not
  carried (``_carry``). A component with no constraint is set in closed
  form where a tree has it, with no ``_dfs`` or ``_lexmin`` call, so it
  adds to neither ``optimum_s`` nor ``tiebreak_s`` nor the decision
  counts. A column whose method a tree lacks is left out;
- for ``oracle``, ``worlds``: the number of distinct coherent worlds;
- ``report_sha256``: the digest of the report on standard output.

Each rung runs on every side in turn before the next rung, so a slow
spell of a shared machine falls on both. The ladder is a record, not a gate: nothing fails on a figure.

    python3 scripts/ladder.py --side parent=PARENT/src --side change=src --out BENCH_17.json
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# (label, generator in gen, its sizes, seed, CLI command)
SOLVE = ("solve", "--format", "json")
EXPLAIN = ("solve", "--explain", "--format", "json")
ORACLE = ("oracle", "--format", "json")
RUNGS = (
    ("G(150,400,15)", "g_kb", (150, 400, 15), 0, SOLVE),
    ("G(300,800,30) seed 0", "g_kb", (300, 800, 30), 0, SOLVE),
    ("G(300,800,30) seed 1", "g_kb", (300, 800, 30), 1, SOLVE),
    ("G(450,1200,45)", "g_kb", (450, 1200, 45), 0, SOLVE),
    ("G(600,1600,60)", "g_kb", (600, 1600, 60), 0, SOLVE),
    ("G(1200,3200,120)", "g_kb", (1200, 3200, 120), 0, SOLVE),
    ("independent n=1100", "independent_kb", (1100,), 0, SOLVE),
    ("independent n=3000", "independent_kb", (3000,), 0, SOLVE),
    ("G(40,100,6) --explain", "g_kb", (40, 100, 6), 0, EXPLAIN),
    ("G(100,250,10) --explain", "g_kb", (100, 250, 10), 0, EXPLAIN),
    ("small_kb n=12 oracle", "small_kb", (12,), 0, ORACLE),
    ("small_kb n=14 oracle", "small_kb", (14,), 0, ORACLE),
    ("small_kb n=16 oracle", "small_kb", (16,), 0, ORACLE),
)
STARTUP = "startup"
TODDLER = "toddler end to end"
LAUNCHES = 15  # fresh solve processes, as many as perfbench's setup_s probe launches
REFERENCE_LOOPS = 5  # timed before and after the call each
# wall-clock seconds per row: about three times the slowest rung that
# finished before the witness tie-break (--explain on G(100,250,10), 36 s
# CPU); G(1200,3200,120) did not finish in 600 s then
LIMIT_S = 120


def child(spec: dict) -> dict:
    """Run one row in this interpreter, whose ``probel`` is the side's."""
    import io
    import random
    import tempfile
    from contextlib import redirect_stderr, redirect_stdout

    sys.path.insert(0, str(PERFBENCH))
    import gen
    import speed
    from probel import ilp
    from probel.cli import main

    programs = []  # the programs ilp.solve is given, in order of first solve
    solve = ilp.solve

    def watched(program):
        if not programs or programs[-1] is not program:
            programs.append(program)
        return solve(program)

    ilp.solve = watched  # the engine looks it up on the module at each call
    phases = watch_search(ilp)
    text = getattr(gen, spec["generator"])(random.Random(spec["seed"]), *spec["sizes"])
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "kb.kb"
        path.write_text(text)
        loops = [speed.time_reference() for _ in range(REFERENCE_LOOPS)]
        out, err = io.StringIO(), io.StringIO()
        started = time.process_time()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([spec["command"][0], str(path), *spec["command"][1:]])
        cpu = time.process_time() - started
        loops += [speed.time_reference() for _ in range(REFERENCE_LOOPS)]
    if code != 0:
        return {"status": "error", "message": f"exit {code}: {err.getvalue().strip()[:200]}"}
    report = json.loads(out.getvalue())
    row = {
        "status": "ok",
        "cpu_s": round(cpu, 3),
        "scaled_s": round(cpu * speed.REFERENCE_S / statistics.median(loops), 3),
    }
    if spec["command"][0] == "oracle":
        row["worlds"] = len(report["worlds"])
    else:
        program = programs[0]
        row.update(
            objective=report["objective"],
            rounds=report["iterations"],
            ilp_variables=len(program.variables),
            ilp_constraints=len(program.constraints),
            ilp_largest_component=largest_component(program),
        )
        row.update((name, round(value, 3)) for name, value in phases.items())
    row["report_sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return row


def watch_search(ilp) -> dict:
    """Wrap the search methods of ``ilp._Search`` that this tree has, and
    return the columns they fill in as the CLI call runs."""
    search = getattr(ilp, "_Search", None)
    columns = {
        "_dfs": ("optimum_s",),
        "_lexmin": ("tiebreak_s", "decisions_found", "decisions_refuted"),
        "_carry": ("carries_made", "carries_failed"),
    }
    phases = {}
    running = []  # the wrapped methods entered and not yet left, innermost last

    def record(name, result, seconds):
        if name == "_dfs" and not running:  # from solve: an optimum pass
            phases["optimum_s"] += seconds
        elif name == "_dfs" and running[-1] == "_lexmin":  # a decision call
            phases["decisions_refuted" if result is None else "decisions_found"] += 1
        elif name == "_lexmin":
            phases["tiebreak_s"] += seconds
        elif name == "_carry":
            phases["carries_made" if result else "carries_failed"] += 1

    def wrap(name, method):
        def wrapped(self, *args, **kwargs):
            running.append(name)
            started = time.process_time()
            result = method(self, *args, **kwargs)
            running.pop()
            record(name, result, time.process_time() - started)
            return result
        return wrapped

    for name, names in columns.items():
        method = getattr(search, name, None)
        if method is not None:
            phases.update(dict.fromkeys(names, 0))
            setattr(search, name, wrap(name, method))
    return phases


def largest_component(program) -> int:
    """The number of variables in the largest connected component of the
    program's constraint graph; a variable in no constraint is one alone."""
    parent = list(range(len(program.variables)))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for clause in program.constraints:
        first, *rest = map(find, clause.positive + clause.negative)
        for root in rest:
            parent[root] = first
    return max(Counter(map(find, range(len(parent)))).values(), default=0)


def startup_row(src: str) -> dict:
    """The ``setup_s`` of ``perfbench/run.py`` for one tree."""
    sys.path.insert(0, str(PERFBENCH))
    import run

    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    return {"status": "ok", "scaled_s": round(run.measure_setup(env), 4)}


def toddler_row(src: str) -> dict:
    """The median CPU time of a whole ``solve`` process on the example KB."""
    sys.path.insert(0, str(PERFBENCH))
    import speed

    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    command = [sys.executable, "-m", "probel.cli", "solve", str(ROOT / "kbs" / "toddler.kb")]
    cpus, scaled, reports = [], [], set()
    for launch in range(LAUNCHES + 1):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        done = subprocess.run(command, capture_output=True, env=env, timeout=LIMIT_S)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if done.returncode != 0:
            return {"status": "error", "message": f"exit {done.returncode}: {done.stderr.decode()[-200:]}"}
        reports.add(done.stdout)
        if launch:
            # each launch is scaled by reference loops timed right after it
            cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
            loop = statistics.median(speed.time_reference() for _ in range(REFERENCE_LOOPS))
            cpus.append(cpu)
            scaled.append(cpu * speed.REFERENCE_S / loop)
    if len(reports) != 1:
        return {"status": "error", "message": "the launches printed different reports"}
    return {
        "status": "ok",
        "cpu_s": round(statistics.median(cpus), 4),
        "scaled_s": round(statistics.median(scaled), 4),
        "report_sha256": hashlib.sha256(reports.pop()).hexdigest(),
    }


def run_row(rung: tuple, src: str) -> dict:
    _, generator, sizes, seed, command = rung
    spec = {"generator": generator, "sizes": sizes, "seed": seed, "command": command}
    env = {**os.environ, "PYTHONPATH": str(Path(src).resolve())}
    try:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(spec)],
            capture_output=True, text=True, env=env, timeout=LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout"}
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines() or ["no output"]
        return {"status": "error", "message": f"child exited {done.returncode}: {lines[-1][:200]}"}
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--side", action="append", metavar="NAME=SRC",
                        help="a source tree to run, by name and its src directory (default: change=src)")
    parser.add_argument("--out", help="write the record as JSON to this file")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(json.loads(args.child))))
        return 0
    sides = [side.split("=", 1) for side in args.side or [f"change={ROOT / 'src'}"]]
    if any(len(side) != 2 for side in sides):
        parser.error("--side takes NAME=SRC")
    rows = []
    measures = [(STARTUP, "import probel.cli", startup_row), (TODDLER, "solve kbs/toddler.kb", toddler_row)]
    measures += [(rung[0], " ".join(rung[4]), functools.partial(run_row, rung)) for rung in RUNGS]
    for label, command, measure in measures:
        for name, src in sides:
            row = {"rung": label, "command": command, "side": name, "limit_s": LIMIT_S, **measure(src)}
            rows.append(row)
            shown = {k: v for k, v in row.items() if k not in ("rung", "side", "command", "limit_s")}
            print(f"{label} [{name}]: {shown}", flush=True)
    if args.out:
        sys.path.insert(0, str(PERFBENCH))
        import speed

        record = {
            "python": platform.python_version(),
            "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
            "reference_s": speed.REFERENCE_S,
            "sides": [name for name, _ in sides],
            "rows": rows,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
