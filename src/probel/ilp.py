"""Exact 0/1 integer linear programming for clause constraints.

A violated hard clause translates into one ``Clause`` over its atoms'
variables, and an uncertain statement's weight is an objective entry on
its atom's variable: the objective is the sum of the weights of the true
atoms. The internal solver maximizes it exactly and deterministically:

- The weights are scaled to integers by the least common multiple of
  their denominators; only the returned optimum is a ``Fraction``.
- Every constraint is a clause, kept with a slack counter, its literals
  not yet false minus one, and propagated through per-variable occurrence
  lists: assigning a variable revisits only the clauses it falsifies a
  literal of, and one at slack 0 sets its last free literal (counter-based
  unit propagation). The objective bound is kept up to date the same way.
  Assignments go on a trail that is undone on backtracking, and an
  explicit stack replaces recursion.
- The program is split into connected components of its constraint graph,
  each solved on its own. A component with no constraint is one variable,
  set in closed form: 1 when its weight is positive, else 0. Otherwise
  branch and bound finds a component's optimum, and a walk in declared
  order from its best leaf gives the component's lexicographically
  smallest optimal assignment (lexicographic optimization as one
  optimization plus decision calls, Marques-Silva, Argelich, Graca & Lynce
  2011). ``solve`` shows why these make up the smallest optimum of the
  whole program.
- Programs are append-only, and the search is kept on the program across
  solves (Een & Sorensson 2003): each cutting-plane round takes in only
  the new variables, objective entries and constraints. A round that adds
  no positive weight first tries to carry the last assignment, searching
  only the new variables (``solve`` shows why that is exact); otherwise
  it re-solves the components it changed.

Variables are integers in declaration order; only ``dump`` names them. A
program with no feasible assignment raises ``Infeasible``, which carries
no conflict core: no MAP program is infeasible (see ``engine``).
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .model import Nominal, exact_sum, format_value
from .translate import Atom, atom_sort_key


class Infeasible(Exception):
    """No assignment satisfies the hard constraints."""


class Clause(NamedTuple):
    """At least one of the ``positive`` variables is 1 or one of the
    ``negative`` ones is 0. The search takes any clause, a variable repeated
    on one side or on both included, and the empty clause makes the program
    infeasible; translate_clause makes every clause in the package."""

    positive: tuple  # (variable, ...)
    negative: tuple


_OP_TOKENS = {"<": "lt", "<=": "le", "=": "eq", ">=": "ge", ">": "gt"}


def atom_token(atom: Atom) -> str:
    parts = [atom.pred]
    for arg in atom.args:
        if isinstance(arg, Nominal):
            parts.append(f"nom_{arg.individual}")
        elif isinstance(arg, Fraction):
            parts.append(format_value(arg).replace("-", "m").replace(".", "p").replace("/", "d"))
        elif arg in _OP_TOKENS:
            parts.append(_OP_TOKENS[arg])
        else:
            parts.append(str(arg).replace(":", "_"))
    return "_".join(parts)


class IlpProgram:
    """Binary variables, clause constraints and a maximization objective.

    Variables are integers in declaration order: ``variables[i]`` is the
    atom of variable i. Each objective entry ``(i, weight)`` adds its
    weight when variable i is 1; one variable may have several entries.

    The program is append-only between solves: ``solve`` keeps its search
    on the program and takes in only the variables, objective entries and
    constraints appended since the last call. ``translate_clause`` writes
    every constraint in the package, the engine every objective entry.
    """

    def __init__(self, variables=None, constraints=None, objective=None):
        self.variables: List[Atom] = [] if variables is None else variables
        self.constraints: List[Clause] = [] if constraints is None else constraints
        self.objective: List[Tuple[int, Fraction]] = [] if objective is None else objective
        self._atom_vars: Dict[Atom, int] = {atom: v for v, atom in enumerate(self.variables)}
        self._clauses = set(self.constraints)  # what translate_clause appends to
        self._search: Optional[_Search] = None

    def _state(self) -> tuple:
        # the kept search is not part of the program
        return self.variables, self.constraints, self.objective, self._atom_vars

    def __eq__(self, other) -> bool:
        if not isinstance(other, IlpProgram):
            return NotImplemented
        return self._state() == other._state()

    __hash__ = None

    def __repr__(self) -> str:
        return "IlpProgram(variables=%r, constraints=%r, objective=%r, _atom_vars=%r)" % self._state()

    def atom_var(self, atom: Atom) -> int:
        var = self._atom_vars.get(atom)
        if var is None:
            var = self._atom_vars[atom] = len(self.variables)
            self.variables.append(atom)
        return var

    def true_atoms(self, assignment: Sequence[int]) -> frozenset:
        return frozenset(a for a, v in self._atom_vars.items() if assignment[v] == 1)


def translate_clause(clause, program: IlpProgram, fixed_true: frozenset = frozenset()) -> list:
    """Add one violated hard clause to the program; return the constraints made.

    The clause becomes one ``Clause`` over its atoms' variables, each side
    in atom order, the positive atoms declared first, once the atoms fixed
    true in every world (the deterministic part's closure, the facts of the
    body-less rules F1, F2 and UNA among them) are substituted out: a
    negated literal over one is omitted, and a positive one satisfies the
    clause. A clause so satisfied, a tautology, or one equal to a constraint
    the program holds makes nothing and declares no variable; one left with
    no literal is the empty ``Clause``, which ``solve`` finds infeasible.
    """
    if not (clause.positive.isdisjoint(fixed_true) and clause.positive.isdisjoint(clause.negative)):
        return []
    neg = [atom for atom in clause.negative if atom not in fixed_true]
    positive = tuple(program.atom_var(a) for a in sorted(clause.positive, key=atom_sort_key))
    made = Clause(positive, tuple(program.atom_var(a) for a in sorted(neg, key=atom_sort_key)))
    if made in program._clauses:
        return []
    program._clauses.add(made)
    program.constraints.append(made)
    return [made]


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

class _Search:
    """Branch and bound with counter-based propagation over one growing 0/1 program.

    A clause's slack is the number of its literals not yet false, minus
    one: a positive literal is false when its variable is 0, a negative one
    when it is 1. ``occ[value][var]`` lists the constraints whose slack
    drops by one when var takes value, once per literal it falsifies.
    ``ub`` is the scaled value of the variables set to 1 plus the free
    positive weight of the component being solved.

    ``update`` takes in what was appended to the program since its last
    call. The components live in a union-find (``parent``) with the
    ``members`` and ``cons`` of each root, the smaller lists appended to
    the larger. A root is dirty when its component gains a variable, an
    objective entry or a constraint, or merges with another component.
    ``solve`` first tries ``_carry``, whose work is only what was appended;
    failing that, it solves the dirty components only and keeps the
    values of every other one.
    """

    def __init__(self):
        self.scale = 1
        self.weight: List[int] = []
        self.loss: Tuple[List[int], List[int]] = ([], [])  # loss[value][var]: how much ub drops
        self.clauses: Sequence[Clause] = ()  # the program's constraints
        self.slack: List[int] = []
        self.occ: Tuple[List[list], List[list]] = ([], [])
        self.value: List[int] = []  # -1 free, else 0 or 1
        self.parent: List[int] = []
        self.members: List[Optional[List[int]]] = []
        self.cons: List[Optional[List[int]]] = []
        self.dirty = set()
        self.entries = 0  # objective entries taken in
        # (variables, constraints) of the last solve while its lexmin may be
        # carried: no objective entry since has a positive weight or an old variable
        self.carried: Optional[Tuple[int, int]] = None
        self.trail: List[int] = []
        self.head = 0  # trail entries before head have been propagated
        self.ub = 0

    def _find(self, i: int) -> int:
        parent = self.parent
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def update(self, variables: Sequence[Atom], constraints: Sequence[Clause],
               objective: Sequence[Tuple[int, Fraction]]) -> _Search:
        """Take in the variables, objective entries and constraints appended since the last call."""
        value, weight, loss, occ = self.value, self.weight, self.loss, self.occ
        members, cons, dirty, find = self.members, self.cons, self.dirty, self._find
        old = len(value)
        new = range(old, len(variables))
        for column in (weight, *loss):
            column += [0] * len(new)
        for column in (*occ, cons):
            column += [[] for _ in new]
        members += ([i] for i in new)
        value += [-1] * len(new)
        self.parent += new
        dirty.update(new)
        for i, w in objective[self.entries:]:
            # the carry (see solve) needs each entry on a new variable and
            # of weight <= 0
            if w > 0 or i < old:
                self.carried = None
            if self.scale % w.denominator:
                factor = math.lcm(self.scale, w.denominator) // self.scale
                self.scale *= factor
                for column in (weight, *loss):
                    column[:] = [x * factor for x in column]
            weight[i] += w.numerator * (self.scale // w.denominator)
            loss[0][i], loss[1][i] = max(weight[i], 0), max(-weight[i], 0)
            dirty.add(find(i))
        self.entries = len(objective)
        self.clauses = constraints
        for j in range(len(self.slack), len(constraints)):
            positive, negative = constraints[j]
            if not positive and not negative:  # left untaken, so every later solve raises too
                raise Infeasible()
            for i in positive:
                occ[0][i].append(j)
            for i in negative:
                occ[1][i].append(j)
            # the slack against the current values, which undoing restores exactly
            self.slack.append(sum(value[i] != 0 for i in positive) + sum(value[i] != 1 for i in negative) - 1)
            roots = {find(i) for i in positive + negative}
            root = roots.pop()
            for other in roots:  # merge the smaller lists into the larger
                if len(members[root]) < len(members[other]):
                    root, other = other, root
                self.parent[other] = root
                members[root] += members[other]
                cons[root] += cons[other]
                members[other] = cons[other] = None
                dirty.discard(other)
            cons[root].append(j)
            dirty.add(root)
        return self

    def _assign(self, i: int, v: int):
        self.value[i] = v
        self.trail.append(i)
        self.ub -= self.loss[v][i]
        slack = self.slack
        for j in self.occ[v][i]:
            slack[j] -= 1

    def _undo(self, mark: int):
        trail, value, slack, occ, loss = self.trail, self.value, self.slack, self.occ, self.loss
        while len(trail) > mark:
            i = trail.pop()
            v = value[i]
            value[i] = -1
            self.ub += loss[v][i]
            for j in occ[v][i]:
                slack[j] += 1
        self.head = mark

    def _force(self, j: int):
        """Set the free literal of constraint j, whose slack is 0, if any."""
        value = self.value
        positive, negative = self.clauses[j]
        for k in positive:
            if value[k] < 0:
                self._assign(k, 1)
        for k in negative:
            if value[k] < 0:
                self._assign(k, 0)

    def _propagate(self) -> bool:
        """Propagate the unprocessed trail entries; False on a conflict."""
        trail, value, slack, occ = self.trail, self.value, self.slack, self.occ
        while self.head < len(trail):
            i = trail[self.head]
            self.head += 1
            for j in occ[value[i]][i]:
                if slack[j] < 1:
                    if slack[j] < 0:
                        return False
                    self._force(j)
        return True

    def _root(self, variables: List[int], constraints: List[int]) -> bool:
        """Start a component from scratch, its variables unassigned; False
        when it is infeasible outright."""
        value, slack, occ = self.value, self.slack, self.occ
        for i in variables:
            v = value[i]
            if v >= 0:
                value[i] = -1
                for j in occ[v][i]:
                    slack[j] += 1
        return self._start(sum(self.loss[0][i] for i in variables), constraints)

    def _start(self, ub: int, constraints: Sequence[int]) -> bool:
        """Begin a search on an empty trail with ``ub``: check, force and
        propagate ``constraints``; False on a conflict."""
        self.trail, self.head, self.ub = [], 0, ub
        for j in constraints:
            if self.slack[j] < 0:
                return False
            if not self.slack[j]:
                self._force(j)
        return self._propagate()

    def _dfs(self, order: Sequence[int], first: int, floor: int, first_leaf: bool,
             keep: Sequence[int] = ()) -> Optional[Tuple[int, List[int]]]:
        """Depth-first search over ``order``, ``first`` value first, pruning ub < floor.

        Returns the value of the best leaf found, raising the floor past
        each leaf, and the values of ``keep`` at that leaf; or the first
        leaf when ``first_leaf`` is set (its assignment is then left in
        place). None when no leaf reaches the floor.
        """
        value, trail = self.value, self.trail
        stack = []  # (trail mark, variable, position in order, value still to try or -1)
        best = None
        ok, pos = True, 0
        while True:
            if ok and self.ub >= floor:
                while pos < len(order) and value[order[pos]] >= 0:
                    pos += 1
                if pos < len(order):
                    var = order[pos]
                    stack.append((len(trail), var, pos, 1 - first))
                    self._assign(var, first)
                    ok = self._propagate()
                    continue
                # every variable is set, so ub is the value
                best = self.ub, [value[i] for i in keep]
                if first_leaf:
                    return best
                floor = self.ub + 1
            while stack:
                mark, var, pos, other = stack.pop()
                self._undo(mark)
                if other >= 0:
                    stack.append((mark, var, pos, -1))
                    self._assign(var, other)
                    ok = self._propagate()
                    break
            else:
                return best

    def _lexmin(self, variables: List[int], branch_order: List[int], optimum: int, witness: List[int]):
        """Set ``variables``, in declared order, to the smallest optimal
        assignment, given ``witness``, their values at an optimal leaf, by
        the walk that ``solve`` describes and justifies."""
        value = self.value
        for k, var in enumerate(variables):
            if value[var] >= 0:
                continue
            if witness[k]:
                mark = len(self.trail)
                self._assign(var, 0)
                if self._propagate():
                    leaf = len(self.trail)
                    if self._dfs(branch_order, 1, optimum, True) is not None:
                        witness[k + 1:] = [value[i] for i in variables[k + 1:]]
                        self._undo(leaf)
                        continue
                self._undo(mark)
            self._assign(var, witness[k])
            extended = self._propagate()
            assert extended, "the witness extends the assignment"

    def _carry(self, variables: int, constraints: int) -> bool:
        """Extend the last solve's assignment, whose program had
        ``variables`` and ``constraints``, to what was appended since: keep
        every old variable, check and propagate the new constraints, and set
        the new variables, 0 first in declared order, to the first leaf that
        loses no weight. False, everything new undone, when there is none.
        """
        if (self._start(0, range(constraints, len(self.slack)))
                and self._dfs(range(variables, len(self.value)), 0, 0, True) is not None):
            return True
        self._undo(0)
        return False

    def solve(self) -> Optional[Tuple[List[int], int]]:
        """(values, scaled optimum), or None when the program is infeasible.

        Carries the last solve's assignment where ``_carry`` can; else
        solves the dirty components, which share no variable, in any order:
        one with no constraint in closed form, any other by search.
        """
        weight, value = self.weight, self.value
        if self.carried is None or not self._carry(*self.carried):
            for root in self.dirty:
                if not self.cons[root]:
                    (var,) = self.members[root]  # only a constraint merges components
                    value[var] = int(weight[var] > 0)
                    continue
                variables = sorted(self.members[root])
                if not self._root(variables, self.cons[root]):
                    return None
                branch_order = sorted(variables, key=lambda i: (-weight[i], i))
                found = self._dfs(branch_order, 1, -math.inf, False, variables)
                if found is None:
                    return None
                self._lexmin(variables, branch_order, *found)
        self.dirty.clear()
        self.carried = len(value), len(self.slack)
        return value[:], sum(w for w, x in zip(weight, value) if x)


def solve(program: IlpProgram) -> Tuple[List[int], Fraction]:
    """Maximize the objective: (each variable's 0/1 value, the exact rational optimum).

    The objective is scaled to integers by the least common multiple of the
    weight denominators, so the search does integer arithmetic only and the
    optimum is returned as an exact ``Fraction``. Each constraint is a
    clause with a slack counter, its literals not yet false minus one: below
    0 it conflicts, at 0 it sets its last free literal. Clauses propagate
    through per-variable occurrence lists, with an explicit decision stack
    and an assignment trail undone on backtracking; no recursion grows.

    The program splits into connected components of its constraint graph
    (variables sharing a constraint), and each component is solved on its
    own. A branch-and-bound pass (largest weight first, 1 before 0) finds
    its optimum and keeps the best leaf as a witness. A walk in declared
    variable order then fixes each variable in turn, keeping the witness an
    optimal extension of what it has fixed: where the witness has 0, so does
    the smallest optimum; where it has 1, a search for the first leaf that
    reaches the optimum with a 0 there (in the first pass's branch order)
    either finds one, which becomes the witness, or proves that 1 it must
    be. The walk ends at the component's lexicographically smallest optimal
    assignment. A component with no constraint is a single variable, since
    only a constraint merges two components. Its feasible values are 0 and
    1 and its optimum is max(0, w) for its summed weight w, so its smallest
    optimum is 1 when w > 0 and 0 otherwise (0 at w = 0), which it is set
    to with no search. The components share no variable or constraint, so
    an assignment is optimal exactly when each component's part is, and
    comparing two optimal assignments in declared order is comparing their
    component parts. Hence the union of each component's smallest optimum
    is the lexicographically smallest optimal assignment of the whole
    program, in declared variable order with 0 before 1.

    The same argument lets a repeated solve of a grown program re-solve
    only the components that gained a variable, an objective entry or a
    constraint since the last solve, or were joined: every other component has
    the same part of the program as before, so its smallest optimum stands.

    A round whose new objective entries all have weight <= 0, each on a
    variable new since the last solve, is first carried instead. (The
    cutting-plane loop weighs a negative-weight statement only once its
    atom is true, so on an old variable: the rounds it carries add only
    hard constraints.) Every old variable keeps its value L, the new
    constraints are checked and propagated, and the new variables alone
    are searched, 0 first in declared order, for the first leaf that loses
    no weight. Where one exists, it is the new program's smallest optimum.
    Projecting any feasible assignment of the new program onto the old
    variables gives a feasible assignment of the old program that scores
    no less, so the optimum cannot rise, and the leaf attains it. Every
    optimum of the new program thus projects onto an optimum of the old
    one, which is no smaller than L, and the old variables come first in
    declared order; so no optimum is smaller than L extended by the
    smallest lossless leaf. Where the check conflicts or every extension
    loses weight, the carry is undone and the dirty components are solved
    as above.
    """
    if program._search is None:
        program._search = _Search()
    search = program._search.update(program.variables, program.constraints, program.objective)
    solved = search.solve()
    if solved is None:
        program._search = None
        raise Infeasible()
    assignment, scaled = solved
    optimum = Fraction(scaled, search.scale)
    if not all(_holds(con, assignment) for con in program.constraints):
        raise AssertionError("the search's assignment violates a constraint")
    if exact_sum(w for v, w in program.objective if assignment[v]) != optimum:
        raise AssertionError("the search's optimum is not its assignment's objective")
    return assignment, optimum


def _holds(clause: Clause, assignment: Sequence[int]) -> bool:
    return any(assignment[v] for v in clause.positive) or not all(assignment[v] for v in clause.negative)


def dump(program: IlpProgram) -> str:
    """Serialize to the textual LP format, byte-stable across runs. Variables
    are named here alone, in declared order: ``x_`` and the atom's token,
    plus ``_`` while distinct atoms mangle alike. A clause is written as its
    linear form: +1 on each positive variable, -1 on each negative one,
    ``>=`` 1 minus the number of negative ones."""
    names, taken = [], set()
    for atom in program.variables:
        name = "x_" + atom_token(atom)
        while name in taken:
            name += "_"
        taken.add(name)
        names.append(name)
    lines = ["OBJECTIVE"]
    for var, weight in program.objective:
        lines.append(f"  {format_value(weight)} {names[var]}")
    lines.append("CONSTRAINTS")
    for positive, negative in program.constraints:
        terms = [f"+1 {names[v]}" for v in positive] + [f"-1 {names[v]}" for v in negative]
        lines.append(f"  {' '.join(terms)} >= {1 - len(negative)}")
    lines.append("BINARY")
    for name in names:
        lines.append(f"  {name}")
    return "\n".join(lines) + "\n"
