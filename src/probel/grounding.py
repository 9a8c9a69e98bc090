"""Grounding of the completion rules, with on-demand evaluation of datatype
predicates.

Each rule is compiled once, by its structure, into slot-based join plans
(``_plans``): a step knows its predicate, the argument positions it can
probe the index at, and per argument whether it checks a known value or
binds a slot. One join (``_join``) runs a plan over indexed atoms and
streams each complete grounding to its caller. Two callers use it:

- find_violated() grounds every template over an assignment and reports the
  groundings it falsifies, for the cutting-plane loop.
- extend_closure() is the semi-naive chase behind every deterministic
  closure: saturate() runs it from the empty base, the enumeration oracle
  from a closed one. Its plans put each body pattern first in turn.

eval atoms are never stored or turned into ILP variables: each grounding of a
template with an eval literal either evaluates it to true (the literal is
dropped from the emitted clause, it cannot help satisfy it) or to false (the
body can never fire, the grounding is skipped).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import BOT, OPERATORS, Nominal, is_infinite
from .translate import (
    Atom,
    ClauseTemplate,
    NomOf,
    PREDICATE_SORTS,
    PatternAtom,
    S_CONCEPT,
    S_CONCEPT_NONBOT,
    S_FEATURE,
    S_IND,
    S_NAMED_IND,
    S_OP,
    S_ROLE,
    S_VALUE,
    SuccessorOf,
    Var,
    atom_sort_key,
    is_anonymous,
    make_atom,
    successor_name,
    template_sort_key,
)

REAL = "real"
INTEGER = "integer"


def eval_op(o1: str, v1: Fraction, o2: str, v2: Fraction, domain: str = REAL) -> bool:
    """True iff every value satisfying (o1, v1) also satisfies (o2, v2).

    Every restriction denotes an interval (a ray or a point), so containment
    is one comparison of the two intervals' endpoints and closedness; the
    empty set is contained in everything. The value domain only changes the
    intervals: over the integers they are snapped to closed integer ends, so
    (>, 1) is [2, inf) and contained in (>=, 2), and (=, 1/2) is empty.
    """
    inner, outer = _interval(o1, v1, domain), _interval(o2, v2, domain)
    if inner is None:
        return True
    if outer is None:
        return False
    low1, high1, low1_closed, high1_closed = inner
    low2, high2, low2_closed, high2_closed = outer
    return (low2 < low1 or (low2 == low1 and (low2_closed or not low1_closed))) and (
        high1 < high2 or (high1 == high2 and (high2_closed or not high1_closed))
    )


def _interval(op: str, v: Fraction, domain: str):
    """(low, high, low_closed, high_closed) of the values satisfying (op, v)
    in ``domain``, or None when there are none. Infinite ends are open."""
    low, low_closed = (v, op != ">") if op in (">", ">=", "=") else (-math.inf, False)
    high, high_closed = (v, op != "<") if op in ("<", "<=", "=") else (math.inf, False)
    if domain == INTEGER:
        if low != -math.inf:
            low, low_closed = (math.ceil(low) if low_closed else math.floor(low) + 1), True
        if high != math.inf:
            high, high_closed = (math.floor(high) if high_closed else math.ceil(high) - 1), True
        if low > high:
            return None
    return low, high, low_closed, high_closed


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------

class EvidenceAtom:
    """A statement atom with its weight; deterministic atoms carry INFINITE."""

    __slots__ = ("atom", "weight", "origin")

    def __init__(self, atom: Atom, weight, origin: Optional[int] = None):
        self.atom = atom
        self.weight = weight
        self.origin = origin


@dataclass(frozen=True)
class ViolatedClause:
    """A ground clause falsified by the current assignment.

    positive holds the atoms occurring unnegated (the head, if any), negative
    the atoms occurring negated (the body). eval literals never appear.
    """

    positive: frozenset
    negative: frozenset
    weight: object
    template_id: str
    origin: Optional[int] = None

    def sort_key(self):
        return (
            template_sort_key(self.template_id),
            -1 if self.origin is None else self.origin,
            tuple(sorted(atom_sort_key(a) for a in self.positive)),
            tuple(sorted(atom_sort_key(a) for a in self.negative)),
        )


_SORT_TESTS = {
    S_CONCEPT: lambda v: isinstance(v, (str, Nominal)),
    S_CONCEPT_NONBOT: lambda v: isinstance(v, (str, Nominal)) and v != BOT,
    S_ROLE: lambda v: isinstance(v, str),
    S_FEATURE: lambda v: isinstance(v, str),
    S_IND: lambda v: isinstance(v, str),
    S_NAMED_IND: lambda v: isinstance(v, str) and not is_anonymous(v),
    S_OP: lambda v: v in OPERATORS,
    S_VALUE: lambda v: isinstance(v, Fraction),
}

# Where a plan argument's value comes from: a constant, a slot, a nominal
# over a slot or an anonymous successor over three slots. A body argument
# either checks that it equals such a value or binds a slot (_BIND) or, under
# a nominal, the slot of its individual (_BIND_NOM).
_CONST, _SLOT, _NOM, _SUCC, _BIND, _BIND_NOM = range(6)


def _value(kind, x, slots):
    if kind == _CONST:
        return x
    if kind == _SLOT:
        return slots[x]
    if kind == _NOM:
        return Nominal(slots[x])
    return successor_name(slots[x[0]], slots[x[1]], slots[x[2]])


def _instantiate(pattern: PatternAtom, binding: dict) -> Atom:
    args = []
    for parg in pattern.args:
        if isinstance(parg, Var):
            args.append(binding[parg.name])
        elif isinstance(parg, NomOf):
            args.append(Nominal(binding[parg.var.name]))
        elif isinstance(parg, SuccessorOf):
            args.append(successor_name(binding[parg.x], binding[parg.r], binding[parg.b]))
        else:
            args.append(parg)
    return make_atom(pattern.pred, *args)


class _Plan(NamedTuple):
    steps: tuple  # (pred, index number, probes, ops) per stored body pattern, in join order
    evals: tuple  # the argument sources of each eval literal
    head: Optional[tuple]  # (pred, argument sources), None for FALSE
    width: int  # number of slots


@lru_cache(maxsize=None)
def _plans(body: tuple, head: Optional[PatternAtom], seeded: tuple) -> tuple:
    """The join plans of a rule: the plan in declared body order, then one
    plan anchored at each stored body pattern. Plans depend only on the
    rule's structure, so every KB shares the calculus's few dozen."""
    stored = [p for p in body if p.pred != "eval"]
    evals = [p for p in body if p.pred == "eval"]
    return tuple(_plan(stored, evals, head, seeded, j) for j in (None, *range(len(stored))))


def _plan(stored: list, evals: list, head: Optional[PatternAtom], seeded: tuple, anchor: Optional[int]) -> _Plan:
    """Compile a rule into a slot-based join plan.

    The seeded variables take the first slots. The stored body patterns are
    joined in declared order, or with the ``anchor``-th first when it is
    given: the anchor then reads index 0, earlier patterns index 1 and later
    ones index 2 (otherwise every step reads index 0). A step probes the
    index at every argument whose value is known before it runs; its other
    arguments bind slots. A variable of the sort PREDICATE_SORTS declares
    for its position binds untested, as every stored atom is well sorted.
    """
    slot = {name: k for k, name in enumerate(seeded)}

    def source(arg):
        if isinstance(arg, Var):
            return _SLOT, slot[arg.name]
        if isinstance(arg, NomOf):
            return _NOM, slot[arg.var.name]
        if isinstance(arg, SuccessorOf):
            return _SUCC, (slot[arg.x], slot[arg.r], slot[arg.b])
        return _CONST, arg

    steps = []
    for j in sorted(range(len(stored)), key=lambda i: i != anchor):  # the anchor first
        pred, args = stored[j]
        bound = set(slot)  # the variables bound before this step
        probes, ops = [], []
        for i, arg in enumerate(args):
            var = arg.var if isinstance(arg, NomOf) else arg
            if isinstance(var, Var) and var.name not in slot:
                slot[var.name] = len(slot)
                untested = var is not arg or PREDICATE_SORTS[pred][i] == var.sort
                kind = _BIND if var is arg else _BIND_NOM
                ops.append((i, kind, slot[var.name], None if untested else _SORT_TESTS[var.sort]))
            else:
                ops.append((i, *source(arg), None))
                if not isinstance(var, Var) or var.name in bound:
                    probes.append((i, *source(arg)))
        which = 0 if anchor is None or j == anchor else 1 if j < anchor else 2
        steps.append((pred, which, tuple(probes), tuple(ops)))
    evals = tuple(tuple(source(a) for a in p.args) for p in evals)
    head_plan = None if head is None else (head.pred, tuple(source(a) for a in head.args))
    return _Plan(tuple(steps), evals, head_plan, len(slot))


def _index(atoms) -> tuple:
    by_pred: dict = {}
    by_pos: dict = {}
    for atom in atoms:
        by_pred.setdefault(atom.pred, []).append(atom)
        for i, arg in enumerate(atom.args):
            by_pos.setdefault((atom.pred, i, arg), []).append(atom)
    return by_pred, by_pos


def _join(plan: _Plan, indexes: tuple, seed, known, domain: str, emit) -> None:
    """Stream the groundings of ``plan`` that extend ``seed``, matching each
    step against its own index: emit(head, body atoms) for each one whose
    head (None for FALSE) is not in ``known`` and whose eval literals hold.
    The body atom list is reused, so ``emit`` must copy what it keeps."""
    steps, evals, head, width = plan
    slots = [None] * width
    if seed:
        slots[: len(seed)] = seed.values()
    matched = [None] * len(steps)
    last = len(steps) - 1

    def complete():
        atom = None
        if head is not None:
            pred, args = head
            atom = make_atom(pred, *[slots[x] if kind == _SLOT else _value(kind, x, slots) for kind, x in args])
            if atom in known:
                return
        for ev in evals:
            if not eval_op(*[_value(kind, x, slots) for kind, x in ev], domain=domain):
                return
        emit(atom, matched)

    def step(k):
        pred, which, probes, ops = steps[k]
        by_pred, by_pos = indexes[which]
        # every probe list is a sublist of the predicate's: take the shortest
        best = None if probes else by_pred.get(pred, ())
        for i, kind, x in probes:  # _value inlined here and below: this is the hot loop
            value = x if kind == _CONST else slots[x] if kind == _SLOT else Nominal(slots[x])
            probe = by_pos.get((pred, i, value))
            if probe is None:
                return
            if best is None or len(probe) < len(best):
                best = probe
        for atom in best:
            args = atom.args
            for i, kind, x, test in ops:
                value = args[i]
                if kind == _BIND:
                    if test is not None and not test(value):
                        break
                    slots[x] = value
                elif kind == _BIND_NOM:
                    if not isinstance(value, Nominal):
                        break
                    slots[x] = value.individual
                elif value != (x if kind == _CONST else slots[x] if kind == _SLOT else Nominal(slots[x])):
                    break
            else:
                matched[k] = atom
                if k < last:
                    step(k + 1)
                else:
                    complete()

    if steps:
        step(0)
    else:
        complete()
    del step  # step refers to itself: break the cycle so what it holds dies now


def find_violated(
    templates: Sequence[ClauseTemplate],
    evidence: Iterable[EvidenceAtom],
    current: frozenset,
    domain: str = REAL,
) -> list:
    """All template groundings with body satisfied and head falsified by
    ``current``, plus each violated weighted evidence unit clause.

    Grounding is join-driven: candidate substitutions are enumerated from the
    true atoms only, never by cross product. Results come back in canonical
    order (template id, then atom order) so callers are deterministic.
    """
    indexes = (_index(current),)
    found = set()
    for template in templates:
        def emit(head, body):
            positive = frozenset() if head is None else frozenset((head,))
            found.add(ViolatedClause(positive, frozenset(body), template.weight, template.id))

        for seed in template.seeds:
            plan = _plans(template.body, template.head, tuple(seed or ()))[0]
            _join(plan, indexes, seed, current, domain, emit)

    for ev in evidence:
        if is_infinite(ev.weight) or ev.weight > 0:
            violated = ev.atom not in current
        elif ev.weight < 0:
            violated = ev.atom in current
        else:
            violated = False  # zero-weight statements cannot move the objective
        if violated:
            found.add(ViolatedClause(frozenset((ev.atom,)), frozenset(), ev.weight, "EV", ev.origin))

    return sorted(found, key=ViolatedClause.sort_key)


def extend_closure(
    templates: Sequence[ClauseTemplate],
    base: frozenset,
    new_atoms: Iterable[Atom],
    domain: str = REAL,
) -> frozenset:
    """Close ``base | new_atoms`` under the hard rules with a non-empty body.

    ``base`` must already be closed under them, as the empty set and every
    closure this module returns are. The chase is semi-naive: each pass
    grounds only substitutions that touch at least one atom derived in the
    previous pass, which is exhaustive over a closed base.
    """
    current = set(base)
    delta = set(new_atoms) - current
    # one plan per body position: the anchor binds from the delta, earlier
    # positions stay in the old atoms and later ones range over everything,
    # so each new grounding is produced exactly once
    plans = [
        (plan, seed)
        for t in templates
        if t.head is not None and t.body
        for seed in t.seeds
        for plan in _plans(t.body, t.head, tuple(seed or ()))[1:]
    ]
    old_idx = _index(current)
    while delta:
        current |= delta
        cur_idx = _index(current)
        delta_idx = _index(delta)
        indexes = (delta_idx, old_idx, cur_idx)
        heads = set()
        for plan, seed in plans:
            if plan.steps[0][0] in delta_idx[0]:
                _join(plan, indexes, seed, current, domain, lambda head, _: heads.add(head))
        # the old atoms of the next pass are this pass's current ones
        old_idx = cur_idx
        delta = heads
    return frozenset(current)


def saturate(
    templates: Sequence[ClauseTemplate],
    atoms: Iterable[Atom],
    domain: str = REAL,
) -> tuple:
    """Deterministic closure: chase the hard rules to a fixpoint.

    The chase (extend_closure) starts from the empty base with ``atoms`` and
    the instances of the empty-body seed rules (F1, F2, UNA). Returns
    (closure, coherence_violations) where the violations are the groundings
    of the FALSE-headed coherence rule that hold in the closure.
    """
    seeds = {
        _instantiate(t.head, seed or {})
        for t in templates
        if t.head is not None and not t.body
        for seed in t.seeds
    }
    closure = extend_closure(templates, frozenset(), set(atoms) | seeds, domain)
    conflicts = find_violated([t for t in templates if t.head is None], (), closure, domain)
    return closure, conflicts


def incoherence_atoms(closure: frozenset) -> list:
    """The sub(c, BOT) atoms with c != BOT present in a closure."""
    return sorted(
        (a for a in closure if a.pred == "sub" and a.args[1] == BOT and a.args[0] != BOT),
        key=atom_sort_key,
    )
