#!/usr/bin/env python3
"""Pinned ``solve --format json`` and ``solve --explain --format json``
reports on generated KBs.

Builds G(150,400,15) at seed 0, G(300,800,30) at seeds 0 and 1, and the
independent KBs of 1100 and 3000 statements at seed 0 with
``perfbench/gen.py`` (imported, not changed), solves each through the CLI
in this process, and compares the sha256 of each report with the digest
pinned below. The pinned reports of the benchmark stop at G(30,50,4) and
150 independent statements. On these G rungs ILP components meet at shared
atoms, and the independent KBs carry thousands of facts (1100 statements
once overflowed the solver's recursion), so a change to what the ILP holds
or to how the loop treats facts must leave them byte-identical.

The explain reports of the first five KBs of the map-scaled workload's
seed-0 batch (``perfbench/workloads.py``) and of G(40,100,6) at seed 0 are
pinned too: explain runs the cutting-plane loop once per statement from a
program holding one FORCE clause, a start no solve report covers.

Exit status 0 when every report matches, 1 otherwise; a mismatch prints
the digest it found.

    PYTHONPATH=src python3 scripts/ladder_reports.py
"""
import functools
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
from workloads import WORKLOADS  # noqa: E402

from probel.cli import main as cli_main  # noqa: E402

SOLVE = ("solve", "--format", "json")
EXPLAIN = ("solve", "--explain", "--format", "json")

# (command, KB) -> sha256 of the report. A KB is (generator in gen, its
# sizes, seed), or ("map-scaled", i), the i-th KB of that workload's seed-0 batch
PINNED = {
    (SOLVE, ("g_kb", (150, 400, 15), 0)): "069de3678b2961cf5636a41c73babd728c094b46e69da7a7037aacdc5db617fc",
    (SOLVE, ("g_kb", (300, 800, 30), 0)): "5994fbd006e16fc9134765e82e39591b7b9fcf0fe5bd7505e4d4331a27c8d376",
    (SOLVE, ("g_kb", (300, 800, 30), 1)): "eb51c5b48ac48c788fa4a8734d7924d218191bc7546934897e552413ad4e5b43",
    (SOLVE, ("independent_kb", (1100,), 0)): "68ebc8b0292782a3782ec876ee18335df366877848c378fc07c76e696ee7492c",
    (SOLVE, ("independent_kb", (3000,), 0)): "2b160ee5345557b8889990eb34d30047bc2c523823e73129c3c7baaa6349ab9b",
    (EXPLAIN, ("map-scaled", 0)): "a53067882ffb16b443f932a5afdeecedcb8045a775196507db78e03a703597c1",
    (EXPLAIN, ("map-scaled", 1)): "f25c7b7f14974d19a55a19fb234e1fd40f98e027cea98439a97f9c040a047faf",
    (EXPLAIN, ("map-scaled", 2)): "40de521b78388ca8f9b44ee1604d5c9387585a2e5834ab5a5f535abc5117dfb5",
    (EXPLAIN, ("map-scaled", 3)): "d28cbea4076915d37decf6493d45fac869f0b42e40caecaee7cda14495babc26",
    (EXPLAIN, ("map-scaled", 4)): "777d325d0ee2e7f6e966f3700006ca050341ea908c2d67054bfa608aae793dec",
    (EXPLAIN, ("g_kb", (40, 100, 6), 0)): "baf5139634360aa5a88cd7d84739313f9be2ee59ce67a399c613e19918fc4544",
}


@functools.lru_cache(maxsize=None)
def _batch(workload: str) -> list:
    return WORKLOADS[workload].generate(0)


def kb_text(kb: tuple) -> str:
    if len(kb) == 2:
        workload, i = kb
        return _batch(workload)[i]
    generator, sizes, seed = kb
    return getattr(gen, generator)(random.Random(seed), *sizes)


def label(kb: tuple) -> str:
    if len(kb) == 2:
        return f"{kb[0]} seed 0 KB {kb[1]}"
    generator, sizes, seed = kb
    return f"{generator}({','.join(map(str, sizes))}) seed {seed}"


def report_digest(command: tuple, kb: tuple, workdir: Path) -> str:
    path = workdir / "kb.kb"
    path.write_text(kb_text(kb))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main([command[0], str(path), *command[1:]])
    if code != 0:
        return f"exit {code}"
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for (command, kb), pinned in PINNED.items():
            started = time.process_time()
            digest = report_digest(command, kb, Path(tmp))
            seconds = time.process_time() - started
            ok = digest == pinned
            failed += not ok
            print(f"{' '.join(command)} {label(kb)}: {'ok' if ok else 'MISMATCH ' + digest} ({seconds:.2f} s CPU)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
