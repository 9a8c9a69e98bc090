#!/usr/bin/env python3
"""Pinned ``solve --format json`` reports on large generated KBs.

Builds G(150,400,15) at seed 0, G(300,800,30) at seeds 0 and 1, and the
independent KBs of 1100 and 3000 statements at seed 0 with
``perfbench/gen.py`` (imported, not changed), solves each through the CLI
in this process, and compares the sha256 of each report with the digest
pinned below. The pinned reports of the benchmark stop at G(30,50,4) and
150 independent statements. On these G rungs ILP components meet at shared
atoms, and the independent KBs carry thousands of facts (1100 statements
once overflowed the solver's recursion), so a change to what the ILP holds
or to how the loop treats facts must leave them byte-identical.

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

# (generator in gen, its sizes, seed) -> sha256 of the solve --format json report
PINNED = {
    ("g_kb", (150, 400, 15), 0): "069de3678b2961cf5636a41c73babd728c094b46e69da7a7037aacdc5db617fc",
    ("g_kb", (300, 800, 30), 0): "5994fbd006e16fc9134765e82e39591b7b9fcf0fe5bd7505e4d4331a27c8d376",
    ("g_kb", (300, 800, 30), 1): "eb51c5b48ac48c788fa4a8734d7924d218191bc7546934897e552413ad4e5b43",
    ("independent_kb", (1100,), 0): "68ebc8b0292782a3782ec876ee18335df366877848c378fc07c76e696ee7492c",
    ("independent_kb", (3000,), 0): "2b160ee5345557b8889990eb34d30047bc2c523823e73129c3c7baaa6349ab9b",
}


def report_digest(generator: str, sizes: tuple, seed: int, workdir: Path) -> str:
    path = workdir / f"{generator}_{'_'.join(map(str, sizes))}_{seed}.kb"
    path.write_text(getattr(gen, generator)(random.Random(seed), *sizes))
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
            generator, sizes, seed = rung
            label = f"{generator}({','.join(map(str, sizes))}) seed {seed}"
            print(f"{label}: {'ok' if ok else 'MISMATCH ' + digest} ({seconds:.2f} s CPU)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
