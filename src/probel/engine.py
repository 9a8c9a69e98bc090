"""Cutting-plane MAP inference and the exhaustive distribution oracle.

Every entry point compiles the KB once (``_compile``): it validates it,
builds the facts of the body-less rules and the evidence atoms, and closes
the deterministic part, which must be coherent. The rules with a body are
the same for every KB, and every KB grounds them through the calculus's
one plan table, ``grounding.CALCULUS``. MAP inference then starts from
the deterministic evidence, repeatedly grounds only the clauses violated
by the current solution, translates them into the ILP and re-solves
(``_cutting_planes``). Each round's grounding is one pass over
what its assignment adds to a base closure, or over all of it where the
assignment has dropped an atom of the base. Round 0's base is the empty
closure, so it joins the deterministic evidence in full. Round 1's is the
compiled closure, which is closed and coherent and so falsifies no
grounding, and round t's is round t-1's assignment, whose violated clauses
were all reported then and are already added. The atoms true in every
world, those of the deterministic statements and the facts of the
body-less rules (F1, F2, UNA), are substituted out of the ILP, and the loop
stops once no violated clause is new and all of them hold. The final
assignment is the most probable coherent deductively closed world. Its ILP
is never infeasible: every hard constraint comes from a rule grounding or
from COH, and the compiled closure, which holds the facts, is closed under
the rules with a body and is coherent, meets them all.
``explain_selection`` runs the same loop once per uncertain statement, from
a program holding one FORCE clause that flips it, and reports an
infeasible flip as incoherent. The probability-side counterpart is
computed by the subset-enumeration oracle, with scores kept as exact
rationals inside formal sums of exponentials.

The oracle walks the subset lattice in ascending mask order, from the
compiled closure, index included. A mask's parent is the mask without its
lowest bit, so its closure extends the parent's Closure, index included, by
one atom, and the subtree of mask m is the run of masks from m up to
m + lowbit(m). A world is named by the mask of the uncertain statements its
closure entails, which grows, with the score and incoherence, by the atoms
each extension adds. The walk steps past a whole subtree when its root is
incoherent, adds a statement its parent already entails, or adds a
statement that shares its atom with a lower-index one, so no closure is
extended under an incoherent or a repeated one, nor twice from one base by
one atom. The last walked mask of each lowest bit holds its Closure until
the next one replaces it: at most one Closure per level is live, not one
per mask.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from . import ilp
from .grounding import (
    CALCULUS,
    INTEGER,
    REAL,
    Closure,
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


class _ConfigFields(NamedTuple):
    domain: str
    enumeration_cap: int


class ReasonerConfig(_ConfigFields):
    __slots__ = ()

    def __new__(cls, domain: str = REAL, enumeration_cap: int = 16):
        if domain not in (REAL, INTEGER):
            raise ValueError(f"domain must be {REAL!r} or {INTEGER!r}, not {domain!r}")
        if enumeration_cap < 0:
            raise ValueError(f"enumeration_cap must be >= 0, not {enumeration_cap}")
        return super().__new__(cls, domain, enumeration_cap)


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

class _ExpSumFields(NamedTuple):
    terms: tuple  # sorted ((score, count), ...)


class ExpSum(_ExpSumFields):
    """A formal sum of exp(score) terms with exact rational scores.

    Exponentials of distinct rationals are linearly independent over the
    rationals, so multiset equality of the scores is equality of the sums.
    """

    # without __slots__, an instance has the __dict__ cached_property needs

    @staticmethod
    def of(scores: Iterable[Fraction]) -> "ExpSum":
        counts: dict = {}
        for s in scores:
            counts[s] = counts.get(s, 0) + 1
        return ExpSum(tuple(sorted(counts.items())))

    def log_value(self) -> float:
        """Raises OverflowError when the top score is beyond float range."""
        return self._log_value

    @cached_property
    def _log_value(self) -> float:
        if not self.terms:
            return float("-inf")
        acc = self.top_shifted  # kept even when float(top) overflows
        return float(self.terms[-1][0]) + math.log(acc)

    @cached_property
    def top_shifted(self) -> float:
        # computed once: every world's probability shares the partition's sum
        return self.shifted(self.terms[-1][0])

    def shifted(self, top: Fraction) -> float:
        """The float sum of exp(score - top), each score at most ``top``.
        A term below exp(-1000) is 0.0 in float and is skipped before its
        exponent is turned into a float, which may be beyond float range."""
        return sum(n * math.exp(d) for s, n in self.terms if (d := s - top) >= -1000)


class Probability(NamedTuple):
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
        try:
            return math.exp(self.numerator.log_value() - self.denominator.log_value())
        except OverflowError:
            # a top score beyond float range: both sums shifted by the
            # partition's top score, whose own term makes its sum >= 1
            top = self.denominator.terms[-1][0]
            return self.numerator.shifted(top) / self.denominator.top_shifted

    def __eq__(self, other) -> bool:
        if isinstance(other, Probability):
            return (self.numerator, self.denominator) == (other.numerator, other.denominator)
        if other == 0:
            return self.is_zero()
        if other == 1:
            return self.is_one()
        return NotImplemented

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None


# ---------------------------------------------------------------------------
# MAP inference
# ---------------------------------------------------------------------------

class _MapFields(NamedTuple):
    atoms: frozenset
    selected: tuple
    rejected: tuple
    objective: Fraction
    iterations: int


class MapResult(_MapFields):
    # without __slots__, an instance has the __dict__ cached_property needs
    @cached_property
    def classified(self) -> tuple:
        """The world's statements in canonical order, built on first read:
        explain re-solves once per statement and never reads them."""
        return _statements(self.atoms)


class _CompiledKB(NamedTuple):
    """A validated KB: the deterministic and uncertain evidence atoms, the
    coherent closure of the deterministic part with its chase index, and the
    atoms fixed true in every world (the deterministic atoms and the facts).
    Its rules are every KB's, grounded through CALCULUS."""

    det_atoms: frozenset
    units: tuple
    closure: Closure
    fixed_true: frozenset


def _compile(kb: KnowledgeBase, config: ReasonerConfig, cap: Optional[int] = None) -> _CompiledKB:
    """Validate the KB, check the enumeration cap if one is given, build the
    facts and the evidence, and close and gate the deterministic part."""
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
    closure = saturate(templates, det_atoms, domain=config.domain)
    bad = incoherence_atoms(closure.atoms)
    if bad:
        raise IncoherentDeterministic(_incoherent_core(kb, templates, config.domain), bad)
    fixed_true = det_atoms.union(*(t.facts for t in templates))
    return _CompiledKB(det_atoms, units, closure, fixed_true)


def _incoherent_core(kb, templates, domain) -> list:
    """A subset of the deterministic statements that is still incoherent and
    loses that when any one statement is dropped, by deletion filtering:
    each statement in turn goes for good if the rest stay incoherent."""
    core = list(kb.deterministic)
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        atoms = [phi(ws.statement) for ws in trial]
        if incoherence_atoms(saturate(templates, atoms, domain=domain).atoms):
            core = trial
        else:
            i += 1
    return core


def _statements(atoms) -> tuple:
    return tuple(phi_inverse(a) for a in sorted(atoms, key=atom_sort_key))


def _cutting_planes(
    kb: KnowledgeBase, compiled: _CompiledKB, config: ReasonerConfig, program: ilp.IlpProgram
) -> MapResult:
    """Run the cutting-plane loop from ``program``: find violated clauses,
    translate them into the program, re-solve, and stop when every violated
    clause is already accounted for and every fixed-true atom holds.

    Round 0 searches ``det_atoms`` from the empty closure, so it joins them
    in full. Round 1 searches from the compiled closure, which falsifies no
    grounding, so it finds every violated clause; each later round searches
    from the previous round's assignment, whose violated clauses are all in
    ``added``. So every round's fresh clauses are those of a full join."""
    fixed_true = compiled.fixed_true
    added = set()
    current = compiled.det_atoms
    base = Closure.of(frozenset())
    iterations = 0
    while True:
        violated = find_violated(CALCULUS, compiled.units, current, config.domain, base)
        base = violated.closure if iterations else compiled.closure
        fresh = [g for g in violated if g not in added]
        if not fresh and fixed_true <= current:
            break
        iterations += 1
        if iterations > _MAX_ITERATIONS:
            raise RuntimeError("cutting-plane loop failed to converge")
        for clause in fresh:
            added.add(clause)
            ilp.translate_clause(clause, program, fixed_true)
        assignment, _ = ilp.solve(program)
        current = fixed_true | program.true_atoms(assignment)

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
        iterations=iterations,
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
    for clause in find_violated(CALCULUS, compiled.units, compiled.det_atoms, domain=config.domain):
        ilp.translate_clause(clause, program, compiled.fixed_true)
    return program


def classify_deterministic(kb: KnowledgeBase, config: ReasonerConfig = DEFAULT_CONFIG):
    """Saturate the deterministic part only; the uncertain part is ignored."""
    return _statements(_compile(kb, config).closure.atoms)


# ---------------------------------------------------------------------------
# Exhaustive oracle
# ---------------------------------------------------------------------------

class World(NamedTuple):
    statements: tuple
    score: Fraction
    probability: Probability
    atoms: frozenset


class WorldDistribution(NamedTuple):
    worlds: tuple
    partition: ExpSum


def brute_force_distribution(
    kb: KnowledgeBase, config: ReasonerConfig = DEFAULT_CONFIG
) -> WorldDistribution:
    """Enumerate every subset of the uncertain statements, close it under the
    hard rules together with the deterministic part, drop incoherent worlds,
    deduplicate by closure, and score each world by the weights of all
    uncertain statements its closure entails.

    A world is named by the bitmask E of the uncertain statements its
    closure entails, every statement whose atom it holds, so two statements
    with one atom set both bits. A subset S lies in E(S), whose atoms lie
    in closure(S), so closure(S) is the closure of the deterministic part
    and E(S): equal masks are equal worlds, and ``seen`` is keyed by E.
    Each mask extends its parent's closure by one statement's atom, and E,
    the integer score and incoherence grow by the atoms the extension adds,
    since closures only grow. Three kinds of subtree are skipped whole:
    under an incoherent closure every closure is incoherent; if mask m adds
    statement k to a parent P whose closure already entails it, then every
    descendant m + S closes as P + S, a mask walked earlier in P's subtree;
    and if statement k shares its atom with a lower-index statement j, then
    m + S closes as P + j + S, a smaller mask, as j lies below every bit of
    m. A skipped mask's world is thus that of a smaller mask, and by
    induction that of a walked one.
    """
    compiled = _compile(kb, config, cap=config.enumeration_cap)
    units = compiled.units
    full = 1 << len(units)
    # scores are summed as integers over the weights' common denominator
    scale = math.lcm(*(ws.weight.denominator for ws in kb.uncertain))
    weights = {}  # unit atom -> (its statements' bits, their summed scaled weight)
    twins = 0  # the bits of statements whose atom a lower-index statement has
    for i, (ws, unit) in enumerate(zip(kb.uncertain, units)):
        bits, total = weights.get(unit.atom, (0, 0))
        if bits:
            twins |= 1 << i
        weights[unit.atom] = (bits | 1 << i, total + ws.weight.numerator * (scale // ws.weight.denominator))
    unit_atoms = frozenset(weights)

    def grow(entailed, total, atoms):
        for atom in unit_atoms.intersection(atoms):
            bits, weight = weights[atom]
            entailed, total = entailed | bits, total + weight
        return entailed, total

    root = compiled.closure
    entailed, total = grow(0, 0, root.atoms)
    # level j holds the last walked coherent mask whose lowest bit is 2^j,
    # and level len(units) the root: a mask's parent is always there
    levels = [None] * len(units) + [(root, entailed, total)]
    seen = {entailed: (root.atoms, total)}
    mask = 1
    while mask < full:
        low = mask & -mask
        parent = mask ^ low
        base, entailed, total = levels[(parent & -parent or full).bit_length() - 1]
        if not (entailed | twins) & low:
            level = low.bit_length() - 1
            closure = extend_closure(CALCULUS, base, (units[level].atom,), domain=config.domain)
            new = closure.atoms - base.atoms
            if not incoherence_atoms(new):
                entailed, total = grow(entailed, total, new)
                levels[level] = (closure, entailed, total)
                seen.setdefault(entailed, (closure.atoms, total))
                mask += 1
                continue
        mask += low  # past the subtree of mask: incoherent or repeated

    counts = Counter(total for _, total in seen.values())
    scores = {total: Fraction(total, scale) for total in sorted(counts)}
    partition = ExpSum(tuple((score, counts[total]) for total, score in scores.items()))
    # worlds of one score share their probability, so it is computed once
    probabilities = {total: Probability(ExpSum(((score, 1),)), partition) for total, score in scores.items()}
    # every distinct atom is ranked by its sort key and inverted once
    order = sorted(set().union(*(atoms for atoms, _ in seen.values())), key=atom_sort_key)
    rank = {atom: i for i, atom in enumerate(order)}
    axioms = [phi_inverse(atom) for atom in order]
    ranked = []
    for atoms, total in seen.values():
        ranks = tuple(sorted(map(rank.__getitem__, atoms)))
        world = World(
            statements=tuple(axioms[i] for i in ranks),
            score=scores[total],
            probability=probabilities[total],
            atoms=atoms,
        )
        ranked.append(((-total, ranks), world))
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

class ExplainEntry(NamedTuple):
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
            ilp.translate_clause(force, program, compiled.fixed_true)
            delta = result.objective - _cutting_planes(kb, compiled, config, program).objective
        except ilp.Infeasible:
            delta = None
        entries.append(ExplainEntry(ws, selected, delta))
    return entries
