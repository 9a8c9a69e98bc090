"""The machine's speed, measured next to the work: a fixed pure-Python loop
timed on the CPU clock.

On a shared virtual machine the same op's CPU time drifts by 20 % or
more over seconds to minutes, as the host's other tenants share its
physical cores; leaving out steal time does not remove that. The
reference loop runs right after every op, in the same process, and slows
down with it. Dividing an op's CPU time by the local slowdown of the
loop (its CPU time over :data:`REFERENCE_S`) gives the op's time on a
machine of reference speed, which is what the end-to-end metrics report.
The loop imports nothing from ``probel``, so no change to the program
can change it, and it runs with the cyclic garbage collector off, so the
program's heap cannot either.
"""
from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# CPU seconds of one reference loop at reference speed: a round figure near
# the loop's median on a 2-vCPU virtual machine with Python 3.11.7, where it
# ranged over 1.6-2.9 ms as the machine's speed drifted. It only sets the
# unit: scaled times read in seconds of a machine that runs the loop in
# this time, and changing it rescales every run alike.
REFERENCE_S = 0.0025
WINDOW = 2  # an op's slowdown is the median over the loops of ops i-2 .. i+2


def reference_loop() -> None:
    """Dictionary, set, tuple, sort, string and Fraction work, the mix
    the program's own hot paths are made of."""
    table: dict = {}
    seen = set()
    total = Fraction(0)
    for i in range(1500):
        key = ("a", i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        seen.add(f"C{i % 211}")
        if i % 8 == 0:
            total += Fraction(i % 7, 10)
    sorted(seen)
    sorted(table.items())


def time_reference() -> float:
    """CPU seconds of one reference loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        reference_loop()
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def scaled(cpus, references):
    """Each op's CPU time at reference speed: divided by the slowdown of the
    reference loops timed next to it (median over a window of ops)."""
    out = []
    for i, cpu in enumerate(cpus):
        local = statistics.median(references[max(0, i - WINDOW): i + WINDOW + 1])
        out.append(cpu * REFERENCE_S / local)
    return out
