"""Cutting-plane MAP inference and the exhaustive distribution oracle.

Every entry point compiles the KB once (``_compile``): it validates it,
builds the rule templates and the evidence atoms, and closes the
deterministic part, which must be coherent. MAP inference then starts from
the deterministic evidence, repeatedly grounds only the clauses violated by
the current solution, translates them into the ILP and re-solves, until no
new violated clause exists (``_cutting_planes``). The final assignment is
the most probable coherent deductively closed world. ``explain_selection``
runs the same loop once per uncertain statement, from a program holding one
FORCE clause that flips it. The probability-side counterpart is computed by
the subset-enumeration oracle, with scores kept as exact rationals inside
formal sums of exponentials.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from . import ilp
from .grounding import (
    REAL,
    EvidenceAtom,
    ViolatedClause,
    extend_closure,
    find_violated,
    incoherence_atoms,
    saturate,
)
from .model import INFINITE, KnowledgeBase, WeightedStatement, validate
from .translate import atom_sort_key, phi, phi_inverse, rule_templates

_MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class ReasonerConfig:
    domain: str = REAL
    enumeration_cap: int = 16


DEFAULT_CONFIG = ReasonerConfig()


class ValidationFailed(Exception):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class IncoherentDeterministic(Exception):
    """The deterministic part alone forces some concept under BOT."""

    def __init__(self, core: Sequence[WeightedStatement], atoms):
        self.core = tuple(core)
        self.atoms = tuple(atoms)
        super().__init__(f"deterministic part is incoherent ({len(self.core)} statements involved)")


class EnumerationCapExceeded(Exception):
    def __init__(self, count: int, cap: int):
        self.count, self.cap = count, cap
        super().__init__(
            f"{count} uncertain statements exceed the enumeration cap {cap}; use MAP inference instead"
        )


# ---------------------------------------------------------------------------
# Exact exponential sums
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExpSum:
    """A formal sum of exp(score) terms with exact rational scores.

    Exponentials of distinct rationals are linearly independent over the
    rationals, so multiset equality of the scores is equality of the sums.
    """

    terms: tuple  # sorted ((score, count), ...)

    @staticmethod
    def of(scores: Iterable[Fraction]) -> "ExpSum":
        counts: dict = {}
        for s in scores:
            counts[s] = counts.get(s, 0) + 1
        return ExpSum(tuple(sorted(counts.items())))

    def log_value(self) -> float:
        return self._log_value

    @cached_property
    def _log_value(self) -> float:
        # computed once: every world's probability shares the partition's sum
        if not self.terms:
            return float("-inf")
        top = max(s for s, _ in self.terms)
        acc = sum(n * math.exp(float(s - top)) for s, n in self.terms)
        return float(top) + math.log(acc)


@dataclass(frozen=True)
class Probability:
    """Ratio of two exponential sums; exact at 0 and 1, float elsewhere."""

    numerator: ExpSum
    denominator: ExpSum

    def is_zero(self) -> bool:
        return not self.numerator.terms

    def is_one(self) -> bool:
        return self.numerator == self.denominator

    def __float__(self) -> float:
        if self.is_zero():
            return 0.0
        return math.exp(self.numerator.log_value() - self.denominator.log_value())

    def __eq__(self, other) -> bool:
        if isinstance(other, Probability):
            return (self.numerator, self.denominator) == (other.numerator, other.denominator)
        if other == 0:
            return self.is_zero()
        if other == 1:
            return self.is_one()
        return NotImplemented

    __hash__ = None


# ---------------------------------------------------------------------------
# MAP inference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MapResult:
    atoms: frozenset
    selected: tuple
    rejected: tuple
    objective: Fraction
    classified: tuple
    iterations: int
    coherent: bool


@dataclass(frozen=True)
class _CompiledKB:
    """A validated KB: its rule templates, the deterministic and uncertain
    evidence atoms, and the coherent closure of the deterministic part."""

    templates: list
    det_atoms: frozenset
    units: tuple
    closure: frozenset


def _compile(kb: KnowledgeBase, config: ReasonerConfig, cap: Optional[int] = None) -> _CompiledKB:
    """Validate the KB, check the enumeration cap if one is given, build the
    templates and the evidence, and close and gate the deterministic part."""
    diagnostics = validate(kb)
    if diagnostics:
        raise ValidationFailed(diagnostics)
    if cap is not None and len(kb.uncertain) > cap:
        raise EnumerationCapExceeded(len(kb.uncertain), cap)
    templates = rule_templates(kb.signature)
    det_atoms = frozenset(phi(ws.statement) for ws in kb.deterministic)
    units = tuple(
        EvidenceAtom(phi(ws.statement), ws.weight, index) for index, ws in enumerate(kb.uncertain)
    )
    closure, _ = saturate(templates, det_atoms, domain=config.domain)
    bad = incoherence_atoms(closure)
    if bad:
        raise IncoherentDeterministic(_incoherent_core(kb, templates, config.domain), bad)
    return _CompiledKB(templates, det_atoms, units, closure)


def _incoherent_core(kb, templates, domain) -> list:
    """A subset of the deterministic statements that is still incoherent and
    loses that when any one statement is dropped."""

    def incoherent(statements) -> bool:
        closure, _ = saturate(templates, [phi(ws.statement) for ws in statements], domain=domain)
        return bool(incoherence_atoms(closure))

    return ilp.deletion_filter(kb.deterministic, incoherent)


def _statements(atoms) -> tuple:
    return tuple(phi_inverse(a) for a in sorted(atoms, key=atom_sort_key))


def _cutting_planes(
    kb: KnowledgeBase, compiled: _CompiledKB, config: ReasonerConfig, program: ilp.IlpProgram
) -> MapResult:
    """Run the cutting-plane loop from ``program``: find violated clauses,
    add their constraints, re-solve, and stop when every violated clause is
    already accounted for."""
    det_atoms = compiled.det_atoms
    added = set()
    current = det_atoms
    iterations = 0
    while True:
        violated = find_violated(compiled.templates, compiled.units, current, domain=config.domain)
        fresh = [g for g in violated if g not in added]
        if not fresh:
            break
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            raise RuntimeError("cutting-plane loop failed to converge")
        for clause in fresh:
            added.add(clause)
            ilp.translate_clause(clause, program, det_atoms)
        assignment, _ = ilp.solve(program)
        current = det_atoms | program.true_atoms(assignment)

    selected, rejected = [], []
    objective = Fraction(0)
    for ws, unit in zip(kb.uncertain, compiled.units):
        if unit.atom in current:
            selected.append(ws)
            objective += ws.weight
        else:
            rejected.append(ws)
    return MapResult(
        atoms=current,
        selected=tuple(selected),
        rejected=tuple(rejected),
        objective=objective,
        classified=_statements(current),
        iterations=iterations,
        coherent=True,
    )


def map_inference(kb: KnowledgeBase, config: ReasonerConfig = DEFAULT_CONFIG) -> MapResult:
    """The most probable coherent classified ontology of a weighted KB.

    Runs the cutting-plane loop from an empty program. The objective is the
    exact sum of the weights of the uncertain statements the returned world
    entails.
    """
    return _cutting_planes(kb, _compile(kb, config), config, ilp.IlpProgram())


def first_iteration_program(kb: KnowledgeBase, config: ReasonerConfig = DEFAULT_CONFIG) -> ilp.IlpProgram:
    """The ILP after translating the first round of violated clauses."""
    compiled = _compile(kb, config)
    program = ilp.IlpProgram()
    det_atoms = compiled.det_atoms
    for clause in find_violated(compiled.templates, compiled.units, det_atoms, domain=config.domain):
        ilp.translate_clause(clause, program, det_atoms)
    return program


def classify_deterministic(kb: KnowledgeBase, config: ReasonerConfig = DEFAULT_CONFIG):
    """Saturate the deterministic part only; the uncertain part is ignored."""
    return _statements(_compile(kb, config).closure)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class World:
    statements: tuple
    score: Fraction
    probability: Probability
    atoms: frozenset


@dataclass(frozen=True)
class WorldDistribution:
    worlds: tuple
    partition: ExpSum


def brute_force_distribution(
    kb: KnowledgeBase, config: ReasonerConfig = DEFAULT_CONFIG
) -> WorldDistribution:
    """Enumerate every subset of the uncertain statements, close it under the
    hard rules together with the deterministic part, drop incoherent worlds,
    deduplicate by closure, and score each world by the weights of all
    uncertain statements its closure entails.
    """
    compiled = _compile(kb, config, cap=config.enumeration_cap)
    templates, units = compiled.templates, compiled.units
    count = len(units)
    closures = {0: compiled.closure}
    for mask in range(1, 1 << count):
        low = mask & -mask
        parent = closures[mask ^ low]
        extra = units[low.bit_length() - 1].atom
        if extra in parent:
            closures[mask] = parent
        else:
            closures[mask] = extend_closure(templates, parent, (extra,), domain=config.domain)

    seen = {}
    for mask in range(1 << count):
        closure = closures[mask]
        if closure not in seen and not incoherence_atoms(closure):
            score = sum(
                (ws.weight for ws, unit in zip(kb.uncertain, units) if unit.atom in closure),
                Fraction(0),
            )
            seen[closure] = score

    partition = ExpSum.of(seen.values())
    ranked = []
    for closure, score in seen.items():
        keyed = sorted(((atom_sort_key(a), a) for a in closure), key=itemgetter(0))
        world = World(
            statements=tuple(phi_inverse(a) for _, a in keyed),
            score=score,
            probability=Probability(ExpSum.of([score]), partition),
            atoms=closure,
        )
        ranked.append(((-score, tuple(key for key, _ in keyed)), world))
    ranked.sort(key=itemgetter(0))
    return WorldDistribution(tuple(world for _, world in ranked), partition)


def probability_of(
    kb: KnowledgeBase,
    query: Sequence,
    config: ReasonerConfig = DEFAULT_CONFIG,
) -> Probability:
    """Total probability of the worlds whose closure entails every query
    statement. Query statements must be in normal form."""
    atoms = [phi(statement) for statement in query]
    dist = brute_force_distribution(kb, config)
    matching = [w.score for w in dist.worlds if all(a in w.atoms for a in atoms)]
    return Probability(ExpSum.of(matching), dist.partition)


# ---------------------------------------------------------------------------
# Per-statement provenance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExplainEntry:
    statement: WeightedStatement
    selected: bool
    delta: Optional[Fraction]  # objective loss when the choice is flipped; None if flipping is incoherent


def explain_selection(kb: KnowledgeBase, result: MapResult, config: ReasonerConfig = DEFAULT_CONFIG):
    """Re-solve once per uncertain statement with its selection flipped."""
    compiled = _compile(kb, config)
    entries = []
    for ws, unit in zip(kb.uncertain, compiled.units):
        selected = unit.atom in result.atoms
        atoms = frozenset((unit.atom,))
        force = ViolatedClause(
            frozenset() if selected else atoms, atoms if selected else frozenset(), INFINITE, "FORCE"
        )
        program = ilp.IlpProgram()
        try:
            ilp.translate_clause(force, program, compiled.det_atoms)
            delta = result.objective - _cutting_planes(kb, compiled, config, program).objective
        except (ilp.HardConflict, ilp.Infeasible):
            delta = None
        entries.append(ExplainEntry(ws, selected, delta))
    return entries
