#!/usr/bin/env python3
"""The probel benchmark: one seeded workload, end-to-end or per-layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload map-scaled --seed 0 --seconds 25 --trace 0

Workloads: map-scaled, map-independent, oracle-sweep, classify-deep (see
``workloads.py`` and ``README.md``). The workload runs in its own child
process (``worker.py``), so its peak memory is its own. With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` a traced run gives
the per-layer metrics. End-to-end times are CPU times scaled to reference
machine speed by reference loops timed next to the work (``speed.py``).
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Exits nonzero, printing no result, when the program's sources are absent,
the inputs do not match their pinned digest, or the child fails.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
from worker import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_RUNS = 15
RATE_SLICES = 5  # ops_per_s is the median rate over this many slices of the run
TIME_LIMIT_S = 170  # the whole run, set-up included


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


# A fresh interpreter that imports probel.cli, then times reference loops and
# prints its CPU time at the end of the import and the loops' median.
SETUP_PROBE = """
import time
import probel.cli
done = time.process_time()
import statistics, sys
sys.path.insert(0, sys.argv[1])
import speed
print(done, statistics.median(speed.time_reference() for _ in range(7)))
"""


def measure_setup(env) -> float:
    """Median CPU time (user + system) from a fresh interpreter's start to
    the end of ``import probel.cli``, at reference machine speed: each
    launch is scaled by the reference loops it runs after the import.

    One unmeasured launch first writes the bytecode cache, which users pay
    once per install, not per invocation."""
    command = [sys.executable, "-c", SETUP_PROBE, str(HERE)]
    times = []
    for i in range(SETUP_RUNS + 1):
        done = subprocess.run(command, env=env, cwd=ROOT, check=True, capture_output=True,
                              text=True, timeout=60)
        cpu, reference = map(float, done.stdout.split())
        if i:
            times.append(cpu * speed.REFERENCE_S / reference)
    return statistics.median(times)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, the highest-numbered
    one allowed, so that an op and the reference loops timed next to it run
    on the same core."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def median_rate(cpus, failed) -> float:
    """Completed ops per CPU second: the median over RATE_SLICES runs of
    consecutive ops, so that a burst of noise on a shared machine moves at
    most one slice. Falls back to the whole run when it has too few ops."""
    slices = RATE_SLICES if len(cpus) >= 4 * RATE_SLICES else 1
    bounds = [round(k * len(cpus) / slices) for k in range(slices + 1)]
    rates = []
    for lo, hi in zip(bounds, bounds[1:]):
        done = hi - lo - sum(failed[lo:hi])
        rates.append(done / sum(cpus[lo:hi]))
    return statistics.median(rates)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "probel" / "cli.py").is_file():
        print(f"no probel sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    pin_to_one_cpu()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))

    try:
        setup_s = None if args.trace else measure_setup(env)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"importing probel.cli failed: {err}", file=sys.stderr)
        return 1
    work = WORK / f"{workload.name}-{args.seed}-{args.trace}"
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--work", str(work),
    ]
    try:
        child = subprocess.run(
            command, env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=TIME_LIMIT_S - (time.perf_counter() - started),
        )
    except subprocess.TimeoutExpired:
        print(f"{workload.name}: the run exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        print(f"{workload.name}: worker exited {child.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(child.stdout.splitlines()[-1])
    for error in raw["errors"]:
        print(f"failed op: {error}", file=sys.stderr)

    attempted, failed = raw["attempted"], raw["failed"]
    print(f"workload {workload.name}, seed {args.seed}: {workload.size}")
    print(f"  input digest {raw['digest']}")
    print(f"  {attempted} ops attempted, {failed} failed: fail_rate {failed / attempted:.4g} ratio")
    if args.trace:
        metrics = {
            name: {"value": value, "unit": tracing.UNITS[name]}
            for name, value in raw["per_layer"].items()
        }
        print(f"  spans cover at least {raw['coverage_min']:.1%} of every traced op; "
              f"spans in {raw['spans']}")
    else:
        raw_cpus = raw["cpus"]
        cpus = speed.scaled(raw_cpus, raw["references"])
        tail = percentile(cpus, workload.tail_pct)
        beyond = sum(c > tail for c in cpus)
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": median_rate(cpus, raw["failed_ops"]), "unit": "ops/s"},
            "op_p50_s": {"value": statistics.median(cpus), "unit": "s"},
            "op_tail_s": {"value": tail, "unit": "s"},
            "peak_rss_mb": {"value": raw["peak_rss_kib"] / 1024, "unit": "MiB"},
        }
        print(f"  op_tail_s is p{workload.tail_pct} of {len(cpus)} ops, {beyond} beyond it")
        print(f"  unscaled CPU time: ops_per_s {median_rate(raw_cpus, raw['failed_ops']):.6g}, "
              f"op_p50_s {statistics.median(raw_cpus):.6g}; reference loop "
              f"{statistics.median(raw['references']) * 1e3:.4g} ms against "
              f"{speed.REFERENCE_S * 1e3:g} ms at reference speed")
    for name, metric in metrics.items():
        value = "null" if metric["value"] is None else f"{metric['value']:.6g}"
        print(f"  {name:40s} {value:>12s} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
