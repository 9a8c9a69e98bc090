"""Exact 0/1 integer linear programming for clause constraints.

A violated hard clause translates into one ``>=`` constraint over its
atoms' variables, and a weighted unit clause, the only weighted clause MAP
inference grounds, into its weight on its atom's variable: the objective is
the sum of the weights of the true atoms. The internal solver maximizes it
exactly and deterministically:

- The weights are scaled to integers by the least common multiple of
  their denominators; only the returned optimum is a ``Fraction``.
- Constraints are kept in ``>=`` form with a slack counter each and are
  propagated through per-variable occurrence lists, so assigning a
  variable revisits only the constraints it can tighten (counter-based
  pseudo-Boolean propagation, Chai & Kuehlmann 2003). The objective bound
  is kept up to date the same way. Assignments go on a trail that is
  undone on backtracking, and an explicit stack replaces recursion.
- The program is split into connected components of its constraint graph,
  each solved on its own: branch and bound finds a component's optimum,
  and a walk in declared order from its best leaf gives the component's
  lexicographically smallest optimal assignment (lexicographic
  optimization as one optimization plus decision calls, Marques-Silva,
  Argelich, Graca & Lynce 2011). ``solve`` shows why these make up the
  smallest optimum of the whole program.
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

from .model import Nominal, format_value, is_infinite
from .translate import Atom, atom_sort_key


class Infeasible(Exception):
    """No assignment satisfies the hard constraints."""


class LinearConstraint(NamedTuple):
    """sum(coefficient * variable) >= bound."""

    terms: tuple  # ((variable, integer coefficient), ...)
    bound: int

    def render(self, names: Sequence[str]) -> str:
        parts = " ".join(f"{'+' if c >= 0 else '-'}{abs(c)} {names[v]}" for v, c in self.terms)
        return f"{parts} >= {self.bound}"


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
    """Binary variables, linear constraints and a maximization objective.

    Variables are integers in declaration order: ``variables[i]`` is the
    atom of variable i. Each objective entry ``(i, weight)`` adds its
    weight when variable i is 1; one variable may have several entries.

    The program is append-only between solves: ``solve`` keeps its search
    on the program and takes in only the variables, objective entries and
    constraints appended since the last call. ``translate_clause`` is the
    one writer in the package.
    """

    def __init__(self, variables=None, constraints=None, objective=None):
        self.variables: List[Atom] = [] if variables is None else variables
        self.constraints: List[LinearConstraint] = [] if constraints is None else constraints
        self.objective: List[Tuple[int, Fraction]] = [] if objective is None else objective
        self._atom_vars: Dict[Atom, int] = {atom: v for v, atom in enumerate(self.variables)}
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
    """Add one violated clause to the program; return the constraints made.

    A weighted clause must be a positive unit, an evidence clause: its
    weight goes on its atom's variable, and no constraint is made. A hard
    clause becomes one constraint, at least one literal true. Atoms fixed
    true in every world, by the deterministic statements and by the facts
    of the body-less rules (F1, F2, UNA), are substituted out: a unit over
    one adds only a constant to the objective and is dropped, a positive
    literal over one satisfies a hard clause outright, and a negated
    literal over one can never help and is omitted from the sum. A hard
    clause left with no literal raises ``Infeasible``.
    """
    if not is_infinite(clause.weight):
        if len(clause.positive) != 1 or clause.negative:
            raise ValueError(f"a weighted clause must be a positive unit, not {clause}")
        (atom,) = clause.positive
        if atom not in fixed_true:
            program.objective.append((program.atom_var(atom), clause.weight))
        return []
    if not clause.positive.isdisjoint(fixed_true):
        return []
    neg = [atom for atom in clause.negative if atom not in fixed_true]
    if not clause.positive and not neg:
        raise Infeasible()
    terms = [(program.atom_var(a), 1) for a in sorted(clause.positive, key=atom_sort_key)]
    terms += [(program.atom_var(a), -1) for a in sorted(neg, key=atom_sort_key)]
    made = LinearConstraint(tuple(terms), 1 - len(neg))
    program.constraints.append(made)
    return [made]


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

class _Search:
    """Branch and bound with counter-based propagation over one growing 0/1 program.

    A constraint's slack is the largest left-hand side the current
    assignment still allows, minus the bound; ``occ[value][var]`` lists the
    constraints (and amounts) whose slack drops when var takes value.
    ``ub`` is the scaled value of the variables set to 1 plus the free
    positive weight of the component being solved.

    ``update`` takes in what was appended to the program since its last
    call. The components live in a union-find (``parent``) with the
    ``members`` and ``cons`` of each root, the smaller lists merged into
    the larger. A root is dirty when its component gains a variable, an
    objective entry or a constraint, or merges with another component.
    ``solve`` first tries ``_carry``, whose work is only what was appended;
    failing that, it searches the dirty components only and keeps the
    values of every other one.
    """

    def __init__(self):
        self.scale = 1
        self.weight: List[int] = []
        self.loss: Tuple[List[int], List[int]] = ([], [])  # loss[value][var]: how much ub drops
        self.terms: List[list] = []  # per constraint: (var, |coefficient|, good value), largest first
        self.slack: List[int] = []
        self.occ: Tuple[List[list], List[list]] = ([], [])
        self.value: List[int] = []  # -1 free, else 0 or 1
        self.parent: List[int] = []
        self.members: List[Optional[List[int]]] = []
        self.cons: List[Optional[List[int]]] = []
        self.dirty = set()
        self.cancelled: List[int] = []  # unchecked constraints whose terms all cancel
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

    def update(self, variables: Sequence[Atom], constraints: Sequence[LinearConstraint],
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
        for j in range(len(self.terms), len(constraints)):
            con = constraints[j]
            merged: Dict[int, int] = {}
            for i, c in con.terms:
                merged[i] = merged.get(i, 0) + c
            terms = sorted(((i, abs(c), int(c > 0)) for i, c in merged.items() if c),
                           key=lambda t: -t[1])
            self.terms.append(terms)
            # the slack against the current values, which undoing restores exactly
            slack = -con.bound
            for i, a, good in terms:
                occ[1 - good][i].append((j, a))
                if good:
                    slack += a
                if value[i] == 1 - good:
                    slack -= a
            self.slack.append(slack)
            if not terms:
                self.cancelled.append(j)
                continue
            roots = {find(i) for i, _, _ in terms}
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
        for j, a in self.occ[v][i]:
            slack[j] -= a

    def _undo(self, mark: int):
        trail, value, slack, occ, loss = self.trail, self.value, self.slack, self.occ, self.loss
        while len(trail) > mark:
            i = trail.pop()
            v = value[i]
            value[i] = -1
            self.ub += loss[v][i]
            for j, a in occ[v][i]:
                slack[j] += a
        self.head = mark

    def _force(self, j: int):
        """Set the free terms of constraint j that its slack cannot afford to lose."""
        s = self.slack[j]
        value = self.value
        for k, a, good in self.terms[j]:
            if a <= s:
                break
            if value[k] < 0:
                self._assign(k, good)

    def _propagate(self) -> bool:
        """Propagate the unprocessed trail entries; False on a conflict."""
        trail, value, slack, occ = self.trail, self.value, self.slack, self.occ
        while self.head < len(trail):
            i = trail[self.head]
            self.head += 1
            for j, _ in occ[value[i]][i]:
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
                for j, a in occ[v][i]:
                    slack[j] += a
        return self._start(sum(self.loss[0][i] for i in variables), constraints)

    def _start(self, ub: int, constraints: Sequence[int]) -> bool:
        """Begin a search on an empty trail with ``ub``: check, force and
        propagate ``constraints``; False on a conflict."""
        self.trail, self.head, self.ub = [], 0, ub
        for j in constraints:
            if self.slack[j] < 0:
                return False
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
        searches the dirty components, which share no variable, in any order.
        """
        weight = self.weight
        if self.carried is None or not self._carry(*self.carried):
            for root in self.dirty:
                variables = sorted(self.members[root])
                if not self._root(variables, self.cons[root]):
                    return None
                branch_order = sorted(variables, key=lambda i: (-weight[i], i))
                found = self._dfs(branch_order, 1, -math.inf, False, variables)
                if found is None:
                    return None
                self._lexmin(variables, branch_order, *found)
            if any(self.slack[j] < 0 for j in self.cancelled):
                return None
        self.dirty.clear()
        self.cancelled.clear()
        self.carried = len(self.value), len(self.slack)
        return self.value[:], sum(w for w, x in zip(weight, self.value) if x)


def solve(program: IlpProgram) -> Tuple[List[int], Fraction]:
    """Maximize the objective: (each variable's 0/1 value, the exact rational optimum).

    The objective is scaled to integers by the least common multiple of the
    weight denominators, so the search does integer arithmetic only and the
    optimum is returned as an exact ``Fraction``. Constraints propagate
    through per-variable occurrence lists and slack counters, with an
    explicit decision stack and an assignment trail undone on backtracking;
    no recursion grows with the program.

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
    assignment. The components share no variable or constraint, so an
    assignment is optimal exactly when each component's part is, and
    comparing two optimal assignments in declared order is comparing their
    component parts. Hence the union of each component's smallest optimum
    is the lexicographically smallest optimal assignment of the whole
    program, in declared variable order with 0 before 1.

    The same argument lets a repeated solve of a grown program re-solve
    only the components that gained a variable, an objective entry or a
    constraint since the last solve, or merged: every other component has
    the same part of the program as before, so its smallest optimum stands.

    A round whose new objective entries all have weight <= 0, each on a
    variable new since the last solve, is first carried instead. (The
    cutting-plane loop grounds a negative-weight unit only once its atom
    is true, so on an old variable: the rounds it carries add only hard
    constraints.) Every old variable keeps its value L, the new
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
    assert all(_holds(con, assignment) for con in program.constraints)
    assert sum((w for v, w in program.objective if assignment[v]), Fraction(0)) == optimum
    return assignment, optimum


def _holds(con: LinearConstraint, assignment: Sequence[int]) -> bool:
    return sum(c * assignment[v] for v, c in con.terms) >= con.bound


def dump(program: IlpProgram) -> str:
    """Serialize to the textual LP format, byte-stable across runs. Variables
    are named here alone, in declared order: ``x_`` and the atom's token,
    plus ``_`` while distinct atoms mangle alike."""
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
    for con in program.constraints:
        lines.append("  " + con.render(names))
    lines.append("BINARY")
    for name in names:
        lines.append(f"  {name}")
    return "\n".join(lines) + "\n"
