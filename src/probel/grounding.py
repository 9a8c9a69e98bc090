"""Grounding of the completion rules, with on-demand evaluation of datatype
predicates.

One join (``_join_fixed``) matches a rule body against indexed atoms in a
fixed order. Two callers use it:

- find_violated() grounds every template over an assignment and reports the
  groundings it falsifies, for the cutting-plane loop.
- extend_closure() is the semi-naive chase behind every deterministic
  closure: saturate() runs it from the empty base, the enumeration oracle
  from a closed one.

eval atoms are never stored or turned into ILP variables: each grounding of a
template with an eval literal either evaluates it to true (the literal is
dropped from the emitted clause, it cannot help satisfy it) or to false (the
body can never fire, the grounding is skipped).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .model import BOT, OPERATORS, Nominal, is_infinite
from .translate import (
    Atom,
    ClauseTemplate,
    NomOf,
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


def _sort_ok(value, sort: str) -> bool:
    if sort == S_CONCEPT:
        return isinstance(value, (str, Nominal))
    if sort == S_CONCEPT_NONBOT:
        return isinstance(value, (str, Nominal)) and value != BOT
    if sort in (S_ROLE, S_FEATURE):
        return isinstance(value, str)
    if sort == S_IND:
        return isinstance(value, str)
    if sort == S_NAMED_IND:
        return isinstance(value, str) and not is_anonymous(value)
    if sort == S_OP:
        return value in OPERATORS
    if sort == S_VALUE:
        return isinstance(value, Fraction)
    raise ValueError(f"unknown sort {sort}")


def _unify(pattern: PatternAtom, atom: Atom, binding: dict) -> Optional[dict]:
    if pattern.pred != atom.pred or len(pattern.args) != len(atom.args):
        return None
    out = binding
    for parg, value in zip(pattern.args, atom.args):
        if isinstance(parg, Var):
            bound = out.get(parg.name, _UNBOUND)
            if bound is _UNBOUND:
                if not _sort_ok(value, parg.sort):
                    return None
                if out is binding:
                    out = dict(binding)
                out[parg.name] = value
            elif bound != value:
                return None
        elif isinstance(parg, NomOf):
            if not isinstance(value, Nominal):
                return None
            bound = out.get(parg.var.name, _UNBOUND)
            if bound is _UNBOUND:
                if out is binding:
                    out = dict(binding)
                out[parg.var.name] = value.individual
            elif bound != value.individual:
                return None
        elif parg != value:
            return None
    return out


_UNBOUND = object()


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


_EMPTY = ()


def _candidates(pattern: PatternAtom, binding: dict, index):
    """The smallest candidate atom list, probing per bound argument position."""
    by_pred, by_pos = index
    best = by_pred.get(pattern.pred, _EMPTY)
    for i, parg in enumerate(pattern.args):
        if isinstance(parg, Var):
            value = binding.get(parg.name, _UNBOUND)
            if value is _UNBOUND:
                continue
        elif isinstance(parg, NomOf):
            inner = binding.get(parg.var.name, _UNBOUND)
            if inner is _UNBOUND:
                continue
            value = Nominal(inner)
        elif isinstance(parg, SuccessorOf):
            continue
        else:
            value = parg
        probe = by_pos.get((pattern.pred, i, value), _EMPTY)
        if len(probe) < len(best):
            best = probe
            if not best:
                break
    return best


def _index(atoms) -> tuple:
    by_pred: dict = {}
    by_pos: dict = {}
    for atom in atoms:
        by_pred.setdefault(atom.pred, []).append(atom)
        for i, arg in enumerate(atom.args):
            by_pos.setdefault((atom.pred, i, arg), []).append(atom)
    return by_pred, by_pos


def _join_fixed(plan, binding: dict, k: int = 0):
    """Every extension of ``binding`` that matches each (pattern, index) of
    ``plan`` against its own index, joined in plan order."""
    if k == len(plan):
        yield binding
        return
    pattern, index = plan[k]
    for atom in _candidates(pattern, binding, index):
        new = _unify(pattern, atom, binding)
        if new is not None:
            yield from _join_fixed(plan, new, k + 1)


def _evals_hold(evals, binding: dict, domain: str) -> bool:
    return all(
        eval_op(*(binding[a.name] if isinstance(a, Var) else a for a in ev.args), domain=domain)
        for ev in evals
    )


def _split_body(template: ClauseTemplate) -> tuple:
    """(stored body patterns, eval literals) of a template."""
    return (
        [p for p in template.body if p.pred != "eval"],
        [p for p in template.body if p.pred == "eval"],
    )


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
    index = _index(current)
    found = set()
    for template in templates:
        body, evals = _split_body(template)
        plan = [(p, index) for p in body]
        for seed in template.seeds:
            for binding in _join_fixed(plan, dict(seed) if seed else {}):
                if template.head is not None:
                    head = _instantiate(template.head, binding)
                    if head in current:
                        continue
                    positive = frozenset((head,))
                else:
                    positive = frozenset()
                if evals and not _evals_hold(evals, binding, domain):
                    continue
                negative = frozenset(_instantiate(p, binding) for p in body)
                found.add(ViolatedClause(positive, negative, template.weight, template.id))

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
    rules = [(t, *_split_body(t)) for t in templates if t.head is not None and t.body]
    old_idx = _index(current)
    while delta:
        current |= delta
        cur_idx = _index(current)
        delta_idx = _index(delta)
        heads = set()
        for template, body, evals in rules:
            for j, anchor in enumerate(body):
                # anchor binds from the delta; earlier positions stay in the
                # old atoms, later ones range over everything: each new
                # grounding is produced exactly once
                if anchor.pred not in delta_idx[0]:
                    continue
                plan = [(anchor, delta_idx)]
                plan += [(p, old_idx if i < j else cur_idx) for i, p in enumerate(body) if i != j]
                for seed in template.seeds:
                    for binding in _join_fixed(plan, dict(seed) if seed else {}):
                        head = _instantiate(template.head, binding)
                        if head in current or head in heads:
                            continue
                        if evals and not _evals_hold(evals, binding, domain):
                            continue
                        heads.add(head)
        # the old atoms of the next pass are this pass's current ones
        old_idx = cur_idx
        delta = heads - current
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
