"""Exact 0/1 integer linear programming for clause constraints.

Violated ground clauses translate into the three linear constraint forms
(positive, negative and infinite weight). The internal solver maximizes
the objective exactly and deterministically:

- The weights are scaled once to integers by the least common multiple of
  their denominators; only the returned optimum is a ``Fraction``.
- Constraints are kept in ``>=`` form with a slack counter each and are
  propagated through per-variable occurrence lists, so assigning a
  variable revisits only the constraints it can tighten (counter-based
  pseudo-Boolean propagation, Chai & Kuehlmann 2003). The objective bound
  is kept up to date the same way. Assignments go on a trail that is
  undone on backtracking, and an explicit stack replaces recursion.
- The program is split into connected components of its constraint graph,
  each solved on its own: branch and bound finds a component's optimum,
  then one descent in declared order finds its lexicographically smallest
  optimal assignment. Components share no variable, so these combine into
  the smallest optimal assignment of the whole program (see ``solve``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .model import Nominal, format_value, is_infinite
from .translate import Atom


class HardConflict(Exception):
    """An infinite-weight clause whose literals are all fixed by evidence."""

    def __init__(self, clause):
        self.clause = clause
        super().__init__(f"unsatisfiable hard clause from template {clause.template_id}")


class Infeasible(Exception):
    """No assignment satisfies the hard constraints."""

    def __init__(self, core):
        self.core = tuple(core)
        super().__init__(f"infeasible program; conflicting constraints: {len(self.core)}")


@dataclass(frozen=True)
class LinearConstraint:
    terms: tuple  # ((variable, integer coefficient), ...)
    relation: str  # ">=" or "<="
    bound: int

    def render(self) -> str:
        parts = " ".join(f"{'+' if c >= 0 else '-'}{abs(c)} {v}" for v, c in self.terms)
        return f"{parts} {self.relation} {self.bound}"


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


@dataclass
class IlpProgram:
    """Binary variables, linear constraints and a maximization objective.

    One x variable per ground atom occurring in a constraint, one z variable
    per finite-weight clause; objective coefficients attach only to z
    variables.
    """

    variables: List[str] = field(default_factory=list)
    constraints: List[LinearConstraint] = field(default_factory=list)
    objective: List[Tuple[str, Fraction]] = field(default_factory=list)
    _atom_vars: Dict[Atom, str] = field(default_factory=dict)
    _names: set = field(default_factory=set)
    _clauses: int = 0

    def atom_var(self, atom: Atom) -> str:
        name = self._atom_vars.get(atom)
        if name is None:
            name = "x_" + atom_token(atom)
            while name in self._names:  # distinct atoms may mangle identically
                name += "_"
            self._declare(name)
            self._atom_vars[atom] = name
        return name

    def clause_var(self, weight: Fraction) -> str:
        self._clauses += 1
        name = f"z_{self._clauses}"
        self._declare(name)
        self.objective.append((name, weight))
        return name

    def _declare(self, name: str):
        self._names.add(name)
        self.variables.append(name)

    def true_atoms(self, assignment: Dict[str, int]) -> frozenset:
        return frozenset(a for a, v in self._atom_vars.items() if assignment.get(v) == 1)


def translate_clause(clause, program: IlpProgram, fixed_true: frozenset = frozenset()) -> list:
    """Add the constraint(s) for one violated clause to the program.

    Atoms fixed true by evidence are substituted out: a positive literal over
    one satisfies the clause outright, a negated literal over one can never
    help and is omitted from the sums.
    """
    satisfied = sum(1 for atom in clause.positive if atom in fixed_true)
    pos = [atom for atom in clause.positive if atom not in fixed_true]
    neg = [atom for atom in clause.negative if atom not in fixed_true]
    hard = is_infinite(clause.weight)
    z = None if hard else program.clause_var(clause.weight)
    if satisfied and (hard or clause.weight >= 0):
        return []  # the clause already holds; a soft z is free to take 1
    if hard and not pos and not neg:
        raise HardConflict(clause)
    terms = [(program.atom_var(a), 1) for a in sorted(pos, key=atom_token)]
    terms += [(program.atom_var(a), -1) for a in sorted(neg, key=atom_token)]
    if hard:
        made = LinearConstraint(tuple(terms), ">=", 1 - len(neg))
    elif clause.weight < 0:
        size = len(clause.positive) + len(clause.negative)
        made = LinearConstraint((*terms, (z, -size)), "<=", -satisfied - len(neg))
    else:
        made = LinearConstraint((*terms, (z, -1)), ">=", -len(neg))
    program.constraints.append(made)
    return [made]


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

_CORE_LIMIT = 160  # deletion filtering is quadratic; larger components keep every constraint


class _Search:
    """Branch and bound with counter-based propagation over one 0/1 program.

    A constraint's slack is the largest left-hand side the partial
    assignment still allows, minus the bound; ``occ[value][var]`` lists the
    constraints (and amounts) whose slack drops when var takes value.
    ``ub`` is the scaled value of the variables set to 1 plus the free
    positive weight of the component being solved.
    """

    def __init__(self, variables: List[str], constraints: List[LinearConstraint], objective):
        n = len(variables)
        index = {v: i for i, v in enumerate(variables)}
        weights = [Fraction(0)] * n
        for v, w in objective:
            weights[index[v]] += w
        self.scale = math.lcm(*(w.denominator for w in weights))
        self.weight = [w.numerator * (self.scale // w.denominator) for w in weights]
        # loss[value][var]: how much ub drops when var takes value
        self.loss = ([max(w, 0) for w in self.weight], [max(-w, 0) for w in self.weight])
        self.terms: List[list] = []  # per constraint: (var, |coefficient|, good value), largest first
        self.slack: List[int] = []
        self.occ = ([[] for _ in range(n)], [[] for _ in range(n)])
        for j, con in enumerate(constraints):
            sign = 1 if con.relation == ">=" else -1
            merged: Dict[int, int] = {}
            for v, c in con.terms:
                i = index[v]
                merged[i] = merged.get(i, 0) + sign * c
            terms = sorted(((i, abs(c), int(c > 0)) for i, c in merged.items() if c),
                           key=lambda t: -t[1])
            self.terms.append(terms)
            self.slack.append(sum(a for _, a, good in terms if good) - sign * con.bound)
            for i, a, good in terms:
                self.occ[1 - good][i].append((j, a))
        self.value = [-1] * n  # -1 free, else 0 or 1
        self.trail: List[int] = []
        self.head = 0  # trail entries before head have been propagated
        self.ub = 0

    def components(self) -> List[Tuple[List[int], List[int]]]:
        """(variables, constraints) of each connected component, in declared order.

        A constraint whose terms all cancel touches no variable and forms a
        component of its own.
        """
        root = list(range(len(self.value)))

        def find(i):
            while root[i] != i:
                root[i] = root[root[i]]
                i = root[i]
            return i

        for terms in self.terms:
            first = find(terms[0][0]) if terms else None
            for i, _, _ in terms[1:]:
                other = find(i)
                if other != first:
                    root[other] = first
        groups: Dict[int, Tuple[list, list]] = {}
        for i in range(len(self.value)):
            groups.setdefault(find(i), ([], []))[0].append(i)
        empty = []
        for j, terms in enumerate(self.terms):
            if terms:
                groups[find(terms[0][0])][1].append(j)
            else:
                empty.append(([], [j]))
        return list(groups.values()) + empty

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
        """Start a component from scratch; False when it is infeasible outright."""
        self.trail, self.head = [], 0
        self.ub = sum(self.loss[0][i] for i in variables)
        for j in constraints:
            if self.slack[j] < 0:
                return False
            self._force(j)
        return self._propagate()

    def _dfs(self, order: List[int], first: int, floor: int, first_leaf: bool) -> Optional[int]:
        """Depth-first search over ``order``, ``first`` value first, pruning ub < floor.

        Returns the best leaf value found, raising the floor past each leaf,
        or the value of the first leaf when ``first_leaf`` is set (its
        assignment is then left in place). None when no leaf reaches the floor.
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
                best = self.ub  # every variable is set, so ub is the value
                if first_leaf:
                    return best
                floor = best + 1
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

    def solve(self) -> Tuple[Optional[List[int]], int]:
        """(values, scaled optimum), or (None, constraints of an infeasible component)."""
        weight = self.weight
        total = 0
        for variables, constraints in self.components():
            if not self._root(variables, constraints):
                return None, constraints
            branch_order = sorted(variables, key=lambda i: (-weight[i], i))
            optimum = self._dfs(branch_order, 1, -math.inf, False)
            if optimum is None:
                return None, constraints
            self._dfs(variables, 0, optimum, True)
            total += optimum
        return self.value, total


def solve(program: IlpProgram) -> Tuple[Dict[str, int], Fraction]:
    """Maximize the objective; exact rational value, deterministic assignment.

    The objective is scaled to integers by the least common multiple of the
    weight denominators, so the search does integer arithmetic only and the
    optimum is returned as an exact ``Fraction``. Constraints propagate
    through per-variable occurrence lists and slack counters, with an
    explicit decision stack and an assignment trail undone on backtracking;
    no recursion grows with the program.

    The program splits into connected components of its constraint graph
    (variables sharing a constraint), and each component is solved on its
    own: a branch-and-bound pass (largest weight first, 1 before 0) finds
    its optimum, then one descent in declared variable order, 0 before 1,
    pruned wherever the optimum is out of reach, stops at the first leaf:
    the component's lexicographically smallest optimal assignment. The
    components share no variable or constraint, so an assignment is optimal
    exactly when each component's part is, and comparing two optimal
    assignments in declared order is comparing their component parts. Hence
    the union of each component's smallest optimum is the lexicographically
    smallest optimal assignment of the whole program, in declared variable
    order with 0 before 1.
    """
    search = _Search(program.variables, program.constraints, program.objective)
    values, result = search.solve()
    if values is None:
        raise Infeasible(_minimize_core([program.constraints[j] for j in result]))
    assignment = dict(zip(program.variables, values))
    optimum = Fraction(result, search.scale)
    assert all(_holds(con, assignment) for con in program.constraints)
    assert sum((w for v, w in program.objective if assignment[v]), Fraction(0)) == optimum
    return assignment, optimum


def _holds(con: LinearConstraint, assignment: Dict[str, int]) -> bool:
    lhs = sum(c * assignment[v] for v, c in con.terms)
    return lhs >= con.bound if con.relation == ">=" else lhs <= con.bound


def _minimize_core(core: List[LinearConstraint]) -> list:
    """Best-effort irreducible infeasible subset of one infeasible component,
    by deletion filtering (kept whole past ``_CORE_LIMIT`` constraints)."""
    if len(core) > _CORE_LIMIT:
        return core
    variables = list(dict.fromkeys(v for con in core for v, _ in con.terms))
    return deletion_filter(core, lambda trial: _Search(variables, trial, ()).solve()[0] is None)


def deletion_filter(items: Sequence, conflicting: Callable[[list], bool]) -> list:
    """Drop each of the conflicting ``items`` in turn, in order, for good
    whenever the rest still satisfy ``conflicting``: what is left conflicts,
    and no single item of it can go."""
    core = list(items)
    i = 0
    while i < len(core):
        trial = core[:i] + core[i + 1:]
        if conflicting(trial):
            core = trial
        else:
            i += 1
    return core


def dump(program: IlpProgram) -> str:
    """Serialize to the textual LP format, byte-stable across runs."""
    lines = ["OBJECTIVE"]
    for var, weight in program.objective:
        lines.append(f"  {format_value(weight)} {var}")
    lines.append("CONSTRAINTS")
    for con in program.constraints:
        lines.append("  " + con.render())
    lines.append("BINARY")
    for var in program.variables:
        lines.append(f"  {var}")
    return "\n".join(lines) + "\n"
