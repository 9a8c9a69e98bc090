"""Child process that runs one workload's ops in process and reports them.

Usage (``run.py`` starts it; ``PYTHONPATH`` must reach ``src``)::

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

It generates the workload's KB texts from the seed, refuses to run if their
digest differs from a pinned one, writes them under ``--work`` and issues
ops one after another (closed loop, one client) until ``--seconds`` have
passed. Each op calls ``probel.cli.main`` with standard output captured and
its answer checked. Failures are counted, never raised. The last line of
standard output is one JSON object with the raw results.

Each op is timed twice: on the wall clock and on the process CPU clock. The
program is single-threaded and reads only cached input files, so the two
agree on an idle machine; on a shared virtual machine the CPU clock leaves
out the time the host gives the virtual CPU to other guests (steal time),
which the wall clock counts. The end-to-end metrics use the CPU clock, and
each op is followed by one timed reference loop (``speed.py``) from which
``run.py`` scales the op's CPU time to reference machine speed.

With ``--trace 1`` every op runs twice, once with every layer wrapped and
once without, which gives the tracing overhead; the spans are written to
``--work`` once at the end.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 0
PINNED = HERE / "pinned.json"


class OpTimeout(BaseException):
    """Raised by the interval timer inside an op that ran past its budget.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def load_pins() -> dict:
    return json.loads(PINNED.read_text())


def write_inputs(texts, directory: Path) -> list:
    """Write each KB text to its own file; return the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = [directory / f"{i:04d}.kb" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text)
    return paths


class Runner:
    """Issues ops on one workload's KB files and keeps their outcomes."""

    def __init__(self, workload, texts, paths, reports=None):
        import probel.cli

        self.cli = probel.cli
        self.workload = workload
        self.texts = texts
        self.paths = paths
        self.reports = reports or {}  # KB index -> pinned sha256 per command
        self.errors: list = []
        self.outputs: list = []  # standard output of each call of the last op
        self.cpu = 0.0  # CPU seconds of the last op

    def op(self, i: int):
        """Run op ``i``; return (wall seconds, error message or None)."""
        kb = i % len(self.paths)
        outputs = []
        error = None
        signal.setitimer(signal.ITIMER_REAL, self.workload.budget_s)
        start = time.perf_counter()
        start_cpu = time.process_time()
        try:
            for prefix in self.workload.commands:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main([*prefix, str(self.paths[kb])])
                if code != 0:
                    error = f"{' '.join(prefix)} exited {code}"
                    break
                outputs.append(out.getvalue())
        except OpTimeout:
            error = f"over the {self.workload.budget_s:g} s budget"
        except Exception as err:  # any crash is a failed op, never a failed run
            error = f"{type(err).__name__}: {err}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            self.cpu = time.process_time() - start_cpu
        self.outputs = outputs
        if error is None:
            error = self.check(kb, outputs)
        if error is not None and len(self.errors) < 5:
            self.errors.append(f"op {i} (KB {kb}): {error}")
        return wall, error

    def check(self, kb: int, outputs) -> str | None:
        try:
            error = self.workload.check(self.texts[kb], outputs)
        except (ValueError, KeyError, TypeError) as err:
            return f"unreadable report: {type(err).__name__}: {err}"
        pinned = self.reports.get(str(kb))
        if error is None and pinned is not None:
            got = [hashlib.sha256(o.encode()).hexdigest() for o in outputs]
            if got != pinned:
                error = "report differs from the pinned sha256"
        return error


def run_for(runner: Runner, seconds: float):
    """Ops until ``seconds`` of wall time have passed, at least one, each
    followed by one timed reference loop. Returns (per-op CPU seconds,
    per-op failed flags, per-op reference loop CPU seconds)."""
    cpus, failed, references = [], [], []
    deadline = time.perf_counter() + seconds
    while not cpus or time.perf_counter() < deadline:
        _, error = runner.op(len(cpus))
        cpus.append(runner.cpu)
        failed.append(error is not None)
        references.append(speed.time_reference())
    return cpus, failed, references


def run_traced(runner: Runner, recorder: tracing.Recorder, seconds: float):
    """Each op twice, traced and untraced, in alternating order so that
    neither side always runs on warm caches. Returns (traced walls,
    untraced walls, failures); op ``i`` of the spans is traced wall ``i``."""
    traced, plain, failures = [], [], 0
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        i = len(traced)
        for with_spans in (True, False) if i % 2 == 0 else (False, True):
            if with_spans:
                recorder.op = i
                recorder.install()
            try:
                wall, error = runner.op(i)
            finally:
                recorder.uninstall()
            (traced if with_spans else plain).append(wall)
            failures += error is not None
    return traced, plain, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    texts = workload.generate(args.seed)
    digest = gen.digest(texts)
    pins = load_pins()
    pinned = pins["digests"].get(workload.name, {}).get(str(args.seed))
    if pinned is not None and pinned != digest:
        print(f"{workload.name} seed {args.seed}: input digest {digest} "
              f"differs from the pinned {pinned}", file=sys.stderr)
        return 3
    paths = write_inputs(texts, args.work)
    reports = pins["reports"].get(workload.name, {}) if (
        workload.pin_reports and args.seed == DEFAULT_SEED) else {}

    runner = Runner(workload, texts, paths, reports)
    signal.signal(signal.SIGALRM, _alarm)
    result = {"digest": digest}
    if args.trace:
        recorder = tracing.Recorder()
        traced, plain, failed = run_traced(runner, recorder, args.seconds)
        spans_path = args.work / "spans.json"
        spans_path.write_text(json.dumps({"missing": recorder.missing, "spans": recorder.spans}))
        metrics = tracing.per_layer(recorder.spans, len(traced), recorder.missing)
        metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
        result.update(
            attempted=len(traced) + len(plain),
            failed=failed,
            per_layer=metrics,
            coverage_min=min(tracing.coverage(recorder.spans, traced)),
            spans=str(spans_path),
        )
    else:
        cpus, failed, references = run_for(runner, args.seconds)
        result.update(attempted=len(cpus), failed=sum(failed), cpus=cpus, failed_ops=failed,
                      references=references)
    result["errors"] = runner.errors
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
