"""The four benchmark workloads: inputs, CLI calls and answer checks.

Each op is one or two in-process ``probel`` CLI calls on one generated KB
file. A check takes the KB text and the captured standard output of each
call and returns ``None`` when the answer is right, else a message.
"""
from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

import gen


def _objective_text(report: str) -> Fraction:
    for line in report.splitlines():
        if line.startswith("objective: "):
            return Fraction(line[len("objective: "):])
    raise ValueError("no objective line in the report")


def check_map_scaled(text: str, outputs: List[str]) -> Optional[str]:
    """The objective equals the sum of the weights of the selected
    statements, and every selected or rejected statement is an input."""
    report = json.loads(outputs[0])
    objective = Fraction(report["objective"])
    selected = report["selected"]
    total = sum((Fraction(s.split(" ", 1)[0]) for s in selected), Fraction(0))
    if objective != total:
        return f"objective {objective} != {total}, the sum of the selected weights"
    inputs = set(text.splitlines())
    strangers = [s for s in selected + report["rejected"] if s not in inputs]
    if strangers:
        return f"statement not in the input: {strangers[0]!r}"
    return None


def check_map_independent(text: str, outputs: List[str]) -> Optional[str]:
    """The objective equals the closed form: the sum of the positive weights."""
    objective = _objective_text(outputs[0])
    expected = gen.independent_objective(text)
    if objective != expected:
        return f"objective {objective} != {expected}, the sum of the positive weights"
    return None


def check_oracle_sweep(text: str, outputs: List[str]) -> Optional[str]:
    """The MAP objective equals the oracle's top world score."""
    objective = Fraction(json.loads(outputs[0])["objective"])
    worlds = json.loads(outputs[1])["worlds"]
    if not worlds:
        return "the oracle reported no world"
    top = max(Fraction(w["score"]) for w in worlds)
    if objective != top:
        return f"MAP objective {objective} != oracle top score {top}"
    return None


def check_classify_deep(text: str, outputs: List[str]) -> Optional[str]:
    """The KB is reported coherent and its closure contains every input
    statement and, for every concept C, C SUBCLASSOF C and C SUBCLASSOF TOP."""
    lines = outputs[0].splitlines()
    if not lines or lines[0] != "coherent: True":
        return "report does not start with 'coherent: True'"
    classified = {line.strip() for line in lines[1:]}
    expected = text.splitlines()
    for concept in sorted(set(re.findall(r"\bC\d+\b", text))):
        expected += [f"{concept} SUBCLASSOF {concept}", f"{concept} SUBCLASSOF TOP"]
    missing = [s for s in expected if s not in classified]
    if missing:
        return f"input statement missing from the closure: {missing[0]!r}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    size: str  # the stated input size, for the report
    batch: int  # KBs generated per seed; a run cycles through them
    budget_s: float  # an op still running after this long has failed
    tail_pct: int  # percentile reported as op_tail_s
    make: Callable[[random.Random], str]
    commands: Tuple[Tuple[str, ...], ...]  # argv prefixes; the KB path follows
    check: Callable[[str, List[str]], Optional[str]]
    pin_reports: bool  # compare reports with pinned hashes on the default seed

    def generate(self, seed: int) -> List[str]:
        rng = random.Random(f"{self.name}/{seed}")
        return [self.make(rng) for _ in range(self.batch)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="map-scaled",
            why="multi-round cutting-plane loop over one connected ILP: ILP search, "
                "warm starts and incremental grounding show here",
            size="G(30,50,4): 30 concepts, 2 roles, 4 individuals, 50 uncertain statements",
            batch=500,
            budget_s=20.0,
            tail_pct=90,
            make=lambda rng: gen.g_kb(rng, 30, 50, 4),
            commands=(("solve", "--format", "json"),),
            check=check_map_scaled,
            pin_reports=True,
        ),
        Workload(
            name="map-independent",
            why="one round over 150 tiny disconnected ILP components: component "
                "splitting shows, warm starts are bypassed; closed-form answer",
            size="independent n=150: 150 statements A_i SUBCLASSOF B_i",
            batch=100,
            budget_s=20.0,
            tail_pct=75,
            make=lambda rng: gen.independent_kb(rng, 150),
            commands=(("solve",),),
            check=check_map_independent,
            pin_reports=False,
        ),
        Workload(
            name="oracle-sweep",
            why="many short solve+oracle ops on tiny KBs: closure lattice walk and world "
                "sort dominate, the ILP barely runs; exposes fixed per-op costs",
            size="small random KBs: 7 uncertain and 0-3 deterministic statements",
            batch=400,
            budget_s=10.0,
            tail_pct=90,
            make=lambda rng: gen.small_kb(rng, 7),
            commands=(("solve", "--format", "json"), ("oracle", "--format", "json")),
            check=check_oracle_sweep,
            pin_reports=False,
        ),
        Workload(
            name="classify-deep",
            why="one large deterministic chase per op and no ILP: catches chase changes "
                "that help small closures but cost large ones",
            size="deterministic G(12,80,6): 12 concepts, 2 roles, 6 individuals, 80 hard statements",
            batch=150,
            budget_s=20.0,
            tail_pct=75,
            make=lambda rng: gen.g_kb(rng, 12, 80, 6, weighted=False),
            commands=(("classify",),),
            check=check_classify_deep,
            pin_reports=True,
        ),
    )
}
