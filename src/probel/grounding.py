"""Grounding of the completion rules, with on-demand evaluation of datatype
predicates.

Each rule is compiled into join plans (``_Plan``), one with each stored
body pattern first. A plan's first run generates its *join kernel*
(``_kernel``), one Python function that joins the other patterns in a
planned order (_join_order), not the declared one: after the anchor comes
any pattern whose variables are all bound, else, among those that share a
bound variable if any does, the one that leaves the most of the rest fully
bound, then the one with the most variables bound, ties going to the
declared position, so a plan never depends on set or dict order. A pattern
that binds a variable is a nested loop over the index list it probes, with
the variables as local slots and each argument's check or bind written
out; a fully bound pattern is one set membership test of the plain tuple
(pred, args), which hashes and compares as the Atom it stands for. The
eval literals and the head are inlined, and the head is tested for newness
as such a tuple too: only a new head is built as an Atom. Kernels are
generated lazily, never at import, because every fresh process pays for
the ones it runs. No value is ever formatted into kernel source: constants
reach a kernel through its globals, and the source holds only fixed
identifiers, slot numbers and argument positions. Only rules with a body
are joined: the body-less ones (F1, F2, UNA) come ground from
rule_templates, as each template's ``facts``.

The calculus has one plan table (plan_table), ``CALCULUS``, built at
import from translate.RULES and shared by every KB: it holds the plans of
every rule with a body, COH included, by the predicate of their anchor, and
a KB adds only the facts of the body-less rules. One semi-naive pass
(_join) runs every kernel: each plan anchored on a predicate of the delta
binds its anchor from the delta, earlier patterns from the old atoms and
later ones from both, and hands each grounding to ``emit`` with its rule's
id. A fully bound pattern is looked up in the pass's known atoms, and an
earlier one must also be missing from its delta (``fresh``), which is
what keeps it among the old atoms. Two callers run passes:

- extend_closure() is the semi-naive chase behind every deterministic
  closure: saturate() runs it over the input atoms from the closure of the
  facts, which as rule_templates makes them are closed under every rule
  with a body, and the enumeration oracle from a closed one.
- find_violated() reports the rule groundings an assignment falsifies, for
  the cutting-plane loop: hard clauses only, never a fact, and no weight,
  which the engine puts on the objective itself. Its delta is what the
  assignment adds to a base, the Closure of an earlier assignment, so a
  grounding the base falsifies too may be skipped; if the assignment has
  left the base, all of it is the delta. The loop's base is the compiled
  deterministic closure, which falsifies no grounding, in round 0, and the
  previous round's assignment after that, whose violated clauses every
  later assignment satisfies, so a pass misses none.

A pass indexes only its delta and merges that into the old atoms' index
(_merge), copying the two dicts and concatenating only the lists the
delta touches: the chase indexes each atom once, and find_violated builds
each round's index from its base's. An index list is never mutated once
built, so the indexes of successive passes and rounds, and a Closure
handed to several extensions, share their lists safely.
incoherence_atoms() tests a closure for concepts under BOT.

eval atoms are never stored or turned into ILP variables: each grounding of a
template with an eval literal either evaluates it to true (the literal is
dropped from the emitted clause, it cannot help satisfy it) or to false (the
body can never fire, the grounding is skipped).
"""
from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

from .model import BOT, OPERATORS, Nominal
from .translate import (
    Atom,
    ClauseTemplate,
    NomOf,
    PREDICATE_SORTS,
    PatternAtom,
    RULES,
    S_CONCEPT,
    S_CONCEPT_NONBOT,
    S_FEATURE,
    S_IND,
    S_NAMED_IND,
    S_OP,
    S_ROLE,
    S_VALUE,
    SuccessorOf,
    TEMPLATE_ORDER,
    Var,
    atom_sort_key,
    is_anonymous,
    make_atom,
    successor_name,
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

class ViolatedClause(NamedTuple):
    """A ground hard clause falsified by the current assignment.

    positive holds the atoms occurring unnegated (the head, if any), negative
    the atoms occurring negated (the body). eval literals never appear.
    """

    positive: frozenset
    negative: frozenset
    template_id: str

    def sort_key(self):
        atoms = (tuple(sorted(map(atom_sort_key, side))) for side in (self.positive, self.negative))
        return (TEMPLATE_ORDER[self.template_id], *atoms)


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


class _Plan:
    """A rule's join with its ``anchor``-th stored body pattern first.
    run(P0, X0, P1, X1, P2, X2, known, fresh, domain, emit) is the plan's
    kernel, generated on the first call."""

    __slots__ = ("rule", "anchor", "run")

    def __init__(self, rule: tuple, anchor: int):
        self.rule, self.anchor = rule, anchor
        self.run = self._generate

    def _generate(self, *args) -> None:
        self.run = _kernel(*self.rule, self.anchor)
        self.run(*args)


def _show(pattern: PatternAtom) -> str:
    def show(arg) -> str:
        if isinstance(arg, SuccessorOf):
            return f"_w:{arg.x}:{arg.r}:{arg.b}"
        return f"{{{arg.var.name}}}" if isinstance(arg, NomOf) else getattr(arg, "name", str(arg))
    return f"{pattern.pred}({', '.join(map(show, pattern.args))})"


def _variable(arg) -> Optional[Var]:
    """The variable a body argument matches, the individual's under a
    nominal, or None for a constant."""
    var = arg.var if isinstance(arg, NomOf) else arg
    return var if isinstance(var, Var) else None


def _join_order(variables: list, anchor: int) -> list:
    """The declared positions of a rule's stored body patterns, whose
    variable names are ``variables``, in the order the kernel anchored at
    ``anchor`` joins them. After the anchor comes any fully bound pattern
    (a membership test), else, of those sharing a bound variable if any do,
    the one that leaves the most of the rest fully bound, then the one with
    the most variables bound; ties go to the declared position."""
    order, bound = [anchor], set(variables[anchor])
    rest = [j for j in range(len(variables)) if j != anchor]
    while rest:
        full = [j for j in rest if variables[j] <= bound]
        j = full[0] if full else max([j for j in rest if variables[j] & bound] or rest, key=lambda j: (
            sum(variables[i] <= bound | variables[j] for i in rest if i != j), len(variables[j] & bound), -j
        ))
        order.append(j)
        rest.remove(j)
        bound |= variables[j]
    return order


def _kernel(rule_id: str, stored: tuple, evals: tuple, head: Optional[PatternAtom], anchor: int):
    """Generate the join kernel of a rule, joining its stored body patterns
    in the planned order (_join_order) from the ``anchor``-th.

    The kernel streams the rule's groundings:
    emit(rule_id, head, body atoms) for each one whose head (None for
    FALSE) is not in ``known`` and whose eval literals hold. It takes three
    indexes, each as the pair (Pn, Xn) that _index returns, and nests one
    loop per pattern that binds a variable: the anchor reads index 0,
    earlier patterns index 1 (the old atoms) and later ones index 2 (all of
    them). A loop runs over the index list probed at every argument whose
    value is known before it (the shortest, if several); its other
    arguments bind slots, the local variables s0, s1, ... Each list is
    looked up as soon as its key is bound, so an absent key skips every loop
    in between. A variable of the sort PREDICATE_SORTS declares for its
    position binds untested, as every stored atom is well sorted. A pattern
    whose variables are all bound is no loop but one set lookup of the plain
    tuple (pred, args), which hashes and compares as the Atom it stands for:
    ``t in known`` after the anchor, and ``t in known and t not in fresh``,
    the old atoms, before it. The head is tested as such a tuple too; only a
    new head, and a tested atom passed to emit, is built as an Atom.
    Constants reach the kernel as its globals k0, k1, ...
    """
    consts = []
    slot = {}  # variable -> the expression of its value
    level = {}  # variable -> the loop that binds it

    def const(value) -> str:
        consts.append(value)
        return f"k{len(consts) - 1}"

    def value(arg) -> str:
        if isinstance(arg, Var):
            return slot[arg.name]
        if isinstance(arg, NomOf):
            return f"Nominal({slot[arg.var.name]})"
        if isinstance(arg, SuccessorOf):
            return f"successor_name({slot[arg.x]}, {slot[arg.r]}, {slot[arg.b]})"
        return const(arg)

    steps, lookups = [], {}  # lookups: the loop after which a list's key is bound -> [(name, lookup)]
    members, tested = {}, set()  # the loop after which a pattern is fully bound -> [its membership test]
    variables = [{var.name for var in map(_variable, args) if var} for _, args in stored]
    for j in _join_order(variables, anchor):
        pred, args = stored[j]
        which = 0 if j == anchor else 1 if j < anchor else 2
        if j != anchor and variables[j] <= slot.keys():
            atom = f"(a{j} := ({const(pred)}, ({', '.join(map(value, args))},)))"
            test = f"{atom} in known" + (f" and a{j} not in fresh" if which == 1 else "")
            members.setdefault(len(steps) - 1, []).append(test)
            tested.add(j)
            continue
        k, bound = len(steps), set(slot)
        probes, reads, tests, unwraps = {}, {}, [], []
        for i, arg in enumerate(args):
            var = _variable(arg)
            if var is None or var.name in bound:
                probes[i] = (value(arg), -1 if var is None else level[var.name])
                continue
            if var.name in slot:  # bound earlier in this step
                reads[i] = f"v{i}"
                tests.append(f"v{i} == {value(arg)}")
                continue
            level[var.name] = k
            if var is not arg:  # binds the individual under a nominal
                reads[i] = f"v{i}"
                tests.append(f"isinstance(v{i}, Nominal)")
                unwraps.append((var.name, f"s{len(slot)}", f"v{i}.individual"))
                slot[var.name] = unwraps[-1][2]
            else:
                slot[var.name] = reads[i] = f"s{len(slot)}"
                if PREDICATE_SORTS[pred][i] != var.sort:
                    tests.append(f"{const(_SORT_TESTS[var.sort])}({reads[i]})")
        keys = [(f"X{which}.get(({const(pred)}, {i}, {v}))", at) for i, (v, at) in probes.items()]
        names = [f"L{j}_{n}" for n in range(len(keys) or 1)]
        for name, (lookup, at) in zip(names, keys or [(f"P{which}.get({const(pred)})", -1)]):
            lookups.setdefault(at, []).append((name, lookup))
        if len(keys) > 1:  # the loop takes the shortest list: check every probed position
            reads.update((i, f"v{i}") for i in probes)
            tests[:0] = [f"v{i} == {v}" for i, (v, _) in probes.items()]
        steps.append([names, reads, tests, unwraps, j])
        for name, local, _ in unwraps:
            slot[name] = local

    lines = ["def join(P0, X0, P1, X1, P2, X2, known, fresh, domain, emit):"]
    pad = "    "
    for k in range(-1, len(steps)):
        if k >= 0:
            names, reads, tests, unwraps, j = steps[k]
            loop = names[0] if len(names) == 1 else (
                f"{names[0]} if len({names[0]}) <= len({names[1]}) else {names[1]}" if len(names) == 2
                else f"min({', '.join(names)}, key=len)"
            )
            lines.append(f"{pad}for a{j} in {loop}:")
            pad += "    "
            if len(reads) == 1:
                (i, name), = reads.items()
                lines.append(f"{pad}{name} = a{j}.args[{i}]")
            elif reads:
                lines.append(f"{pad}{', '.join(reads.get(i, '_') for i in range(len(stored[j].args)))} = a{j}.args")
            if tests:
                lines.append(f"{pad}if {' and '.join(tests)}:")
                pad += "    "
            lines.extend(f"{pad}{local} = {individual}" for _, local, individual in unwraps)
            if k in members:
                lines.append(f"{pad}if {' and '.join(members[k])}:")
                pad += "    "
        ready = lookups.get(k, [])
        if len(ready) == 1 and steps[k + 1][0] == [ready[0][0]]:  # the next loop's only list: loop over it
            steps[k + 1][0] = [f"{ready[0][1][:-1]}, ())"]
        elif ready:
            lines.append(f"{pad}if {' and '.join(f'({name} := {lookup})' for name, lookup in ready)}:")
            pad += "    "
    tests = [f"eval_op({', '.join(map(value, p.args))}, domain)" for p in evals]
    if head is not None:
        pred, args = const(head.pred), ", ".join(map(value, head.args))
        atom = f"({pred}, ({args},))"
        if head.pred == "inst":  # make_atom turns inst(x, {a}) into ninst(x, a)
            atom = f"make_atom({pred}, {args}) if {value(head.args[1])}.__class__ is Nominal else {atom}"
        lines.append(f"{pad}h = {atom}")
        tests.insert(0, "h not in known")
    if tests:
        lines.append(f"{pad}if {' and '.join(tests)}:")
        pad += "    "
    # an Atom is built without its Python-level __new__, and only for an emitted grounding
    body = "".join(f"new(Atom, a{j}), " if j in tested else f"a{j}, " for j in range(len(stored)))
    lines.append(f"{pad}emit({const(rule_id)}, {'new(Atom, h)' if head else 'None'}, ({body}))")
    name = f"<join kernel {rule_id}: {_show(head) if head else 'FALSE'} :- {', '.join(map(_show, stored + evals))}; anchor {anchor}>"
    namespace = {f"k{i}": c for i, c in enumerate(consts)}
    namespace.update(new=tuple.__new__, Atom=Atom, Nominal=Nominal, make_atom=make_atom, eval_op=eval_op, successor_name=successor_name)
    exec(compile("\n".join(lines), name, "exec"), namespace)
    return namespace["join"]


def _index(atoms) -> tuple:
    """The chase index of ``atoms``: grouped by predicate first, then each
    group indexed one argument position at a time, as every atom of a
    predicate has that predicate's arity."""
    by_pred, by_pos = defaultdict(list), defaultdict(list)  # read only by get() and in, which never insert
    for atom in atoms:
        by_pred[atom[0]].append(atom)
    for pred, group in by_pred.items():
        for i in range(len(group[0][1])):
            for atom in group:
                by_pos[pred, i, atom[1][i]].append(atom)
    return by_pred, by_pos


def _merge(old: tuple, delta: tuple) -> tuple:
    """The index of the atoms of ``old`` and ``delta``, which are disjoint:
    copies of old's dicts in which each list that delta touches is replaced
    by the concatenation. Neither index changes, and every list delta does
    not touch is shared with ``old``."""
    joined = []
    for table, extra in zip(old, delta):
        table = dict(table)
        for key, atoms in extra.items():
            table[key] = table[key] + atoms if key in table else atoms
        joined.append(table)
    return tuple(joined)


class Closure(NamedTuple):
    """A set of atoms and its chase index ``(by predicate, by (predicate,
    position, argument))``. Index lists are never mutated once built, so
    closures share them. The atoms of the closures extend_closure takes and
    returns are closed under the hard rules with a body; a cutting-plane
    round's assignment, which find_violated hands on as one, need not be."""

    atoms: frozenset
    index: tuple

    @classmethod
    def of(cls, atoms: frozenset) -> "Closure":
        """A set of atoms with a fresh index of all of them."""
        return cls(atoms, _index(atoms))


_EMPTY = Closure.of(frozenset())


class Violations(list):
    """The clauses find_violated reports, in canonical order, and
    ``closure``: the searched assignment with its index, the base of the
    next cutting-plane round."""

    __slots__ = ("closure",)


def plan_table(templates: Sequence[ClauseTemplate]) -> dict:
    """The join plans of every rule with a body, COH included, by the
    predicate of their anchor: each rule anchored at each stored body
    pattern in turn, so that a pass runs only the plans whose anchor can
    bind a delta atom. The body-less rules have no plan: their facts, as
    rule_templates makes them, are closed under every rule with a body. The
    calculus's table is CALCULUS; a fresh table generates its kernels anew."""
    plans = {}
    for t in templates:
        stored = tuple(p for p in t.body if p.pred != "eval")
        rule = (t.id, stored, tuple(p for p in t.body if p.pred == "eval"), t.head)
        for j, pattern in enumerate(stored):
            plans.setdefault(pattern.pred, []).append(_Plan(rule, j))
    return plans


CALCULUS = plan_table(RULES)


def _join(plans: dict, delta: tuple, old: tuple, index: tuple, known, fresh, domain: str, emit) -> None:
    """The one semi-naive pass: run each plan anchored on a predicate of
    ``delta``. The anchor binds from the delta, earlier body positions from
    ``old`` and later ones from ``index``, the two together, so each
    grounding with a body atom in the delta is emitted exactly once.
    ``known`` is the set of the atoms ``index`` indexes and ``fresh`` that of
    the delta's, which the membership tests of fully bound patterns read."""
    for pred in delta[0]:
        for plan in plans.get(pred, ()):
            plan.run(*delta, *old, *index, known, fresh, domain, emit)


def find_violated(
    plans: dict,
    current: frozenset,
    domain: str = REAL,
    base: Closure = _EMPTY,
) -> Violations:
    """The groundings of the (hard) rules of ``plans``, from plan_table,
    whose body ``current`` satisfies and whose head it falsifies; no weight
    is reported, as the engine weighs the uncertain statements itself. The
    facts of the body-less rules are not reported even when ``current``
    lacks them: they hold in every world.

    ``base``, the Closure of an earlier assignment, lets the search skip
    groundings that ``base`` falsifies too. If ``current`` holds all of
    ``base``, a grounding falsified by ``current`` but not by ``base`` has a
    body atom that ``base`` lacks, so one pass over that delta, with
    ``base`` as the old atoms, finds it. Otherwise the search starts from
    the empty closure, from which all of ``current`` is the delta and every
    violated grounding is found.

    Grounding is join-driven: candidate substitutions are enumerated from the
    true atoms only, never by cross product. Results come back in canonical
    order (template id, then atom order) so callers are deterministic.
    """
    if not base.atoms <= current:
        base = _EMPTY
    fresh = current - base.atoms
    delta = _index(fresh)
    index = _merge(base.index, delta)
    found = set()

    def emit(rule_id, head, body):
        positive = frozenset() if head is None else frozenset((head,))
        found.add(ViolatedClause(positive, frozenset(body), rule_id))

    _join(plans, delta, base.index, index, current, fresh, domain, emit)

    result = Violations(sorted(found, key=ViolatedClause.sort_key))
    result.closure = Closure(current, index)
    return result


def extend_closure(
    plans: dict,
    base: Closure,
    new_atoms: Iterable[Atom],
    domain: str = REAL,
) -> Closure:
    """Close ``base`` and ``new_atoms`` under the rules of ``plans`` (from
    plan_table); the FALSE-headed COH derives nothing.

    ``base`` must already be closed under them, as the facts of the
    body-less rules and every closure this module returns are. The chase is
    semi-naive: each pass grounds only substitutions that touch at least one
    atom derived in the previous pass, which is exhaustive over a closed
    base, and indexes only those atoms, merging their index into the
    previous one. ``base`` and its index are left as they are.
    """
    current = set(base.atoms)
    delta = set(new_atoms) - current
    old_idx = base.index
    while delta:
        current |= delta
        delta_idx = _index(delta)
        cur_idx = _merge(old_idx, delta_idx)
        heads = set()
        _join(plans, delta_idx, old_idx, cur_idx, current, delta, domain, lambda _, head, __: heads.add(head))
        heads.discard(None)
        # the old atoms of the next pass are this pass's current ones
        old_idx = cur_idx
        delta = heads
    return Closure(frozenset(current), old_idx)


def saturate(
    templates: Sequence[ClauseTemplate],
    atoms: Iterable[Atom],
    domain: str = REAL,
) -> Closure:
    """Deterministic closure: chase the calculus to a fixpoint.

    ``templates`` must be rule_templates(sig); only their facts, those of
    the body-less rules (F1, F2, UNA), are read, as every signature shares
    the rules with a body, chased through CALCULUS. The chase
    (extend_closure) starts from the closure of the facts, which are closed
    under every rule with a body, and takes ``atoms`` as its first delta.
    Its Closure, index included, is returned. incoherence_atoms() tells
    whether the closure's atoms put a concept under BOT.
    """
    facts = Closure.of(frozenset().union(*(t.facts for t in templates)))
    return extend_closure(CALCULUS, facts, atoms, domain)


def incoherence_atoms(closure: frozenset) -> list:
    """The sub(c, BOT) atoms with c != BOT present in a closure."""
    return sorted(
        (a for a in closure if a.pred == "sub" and a.args[1] == BOT and a.args[0] != BOT),
        key=atom_sort_key,
    )
