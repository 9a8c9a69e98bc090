#!/usr/bin/env python3
"""Rewrite ``pinned.json``: input digests and default-seed report hashes.

    python3 perfbench/pin.py

Run it from the root of a checkout, only when a workload's generator or
size changes on purpose: the pins are what make a later change to the
generators, or a report that is no longer byte-identical, fail the run.
Digests are pinned for seeds 0..PINNED_SEEDS-1; report hashes for every KB
of the default seed of each workload that pins reports. Refuses to pin a
report whose answer check fails.
"""
from __future__ import annotations

import hashlib
import json
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED_SEEDS = 16


def main() -> int:
    pins = {"digests": {}, "reports": {}}
    signal.signal(signal.SIGALRM, worker._alarm)
    for workload in WORKLOADS.values():
        pins["digests"][workload.name] = {
            str(seed): gen.digest(workload.generate(seed)) for seed in range(PINNED_SEEDS)
        }
        if not workload.pin_reports:
            continue
        texts = workload.generate(worker.DEFAULT_SEED)
        with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
            runner = worker.Runner(workload, texts, worker.write_inputs(texts, Path(tmp)))
            hashes = {}
            for i in range(len(texts)):
                _, error = runner.op(i)
                if error is not None:
                    print(f"{workload.name} KB {i}: {error}", file=sys.stderr)
                    return 1
                hashes[str(i)] = [hashlib.sha256(o.encode()).hexdigest() for o in runner.outputs]
        pins["reports"][workload.name] = hashes
        print(f"{workload.name}: pinned {len(hashes)} reports", file=sys.stderr)
    worker.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
