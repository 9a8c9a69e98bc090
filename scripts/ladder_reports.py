#!/usr/bin/env python3
"""Pinned ``solve --format json`` reports on the large rungs of the G ladder.

Builds G(150,400,15) at seed 0 and G(300,800,30) at seeds 0 and 1 with
``perfbench/gen.py`` (imported, not changed), solves each through the CLI
in this process, and compares the sha256 of each report with the digest
pinned below. The pinned reports of the benchmark stop at G(30,50,4); these
rungs are large enough for ILP components to meet at shared atoms, so a
change to what the ILP holds must leave them byte-identical.

Exit status 0 when every report matches, 1 otherwise; a mismatch prints
the digest it found.

    PYTHONPATH=src python3 scripts/ladder_reports.py
"""
import hashlib
import io
import random
import sys
import tempfile
import time
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

from probel.cli import main as cli_main  # noqa: E402

# (N, U, K, seed) -> sha256 of the solve --format json report
PINNED = {
    (150, 400, 15, 0): "069de3678b2961cf5636a41c73babd728c094b46e69da7a7037aacdc5db617fc",
    (300, 800, 30, 0): "5994fbd006e16fc9134765e82e39591b7b9fcf0fe5bd7505e4d4331a27c8d376",
    (300, 800, 30, 1): "eb51c5b48ac48c788fa4a8734d7924d218191bc7546934897e552413ad4e5b43",
}


def report_digest(n: int, u: int, k: int, seed: int, workdir: Path) -> str:
    path = workdir / f"g_{n}_{u}_{k}_{seed}.kb"
    path.write_text(gen.g_kb(random.Random(seed), n, u, k))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["solve", str(path), "--format", "json"])
    if code != 0:
        return f"exit {code}"
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for rung, pinned in PINNED.items():
            started = time.process_time()
            digest = report_digest(*rung, Path(tmp))
            seconds = time.process_time() - started
            ok = digest == pinned
            failed += not ok
            label = "G({},{},{}) seed {}".format(*rung)
            print(f"{label}: {'ok' if ok else 'MISMATCH ' + digest} ({seconds:.2f} s CPU)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
