import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from probel.grounding import ViolatedClause
from probel.ilp import (
    IlpProgram,
    Infeasible,
    LinearConstraint,
    _Search,
    dump,
    solve,
    translate_clause,
)
from probel.model import INFINITE, Nominal
from probel.translate import Atom

from oracles import enumerate_optima, enumerate_solve


def atom(name):
    return Atom("sub", (name, name))


def clause(pos, neg, weight, template="F3"):
    return ViolatedClause(
        frozenset(atom(p) for p in pos),
        frozenset(atom(n) for n in neg),
        weight,
        template,
    )


class TestTranslateClause:
    def test_single_literal_hard_clause(self):
        program = IlpProgram()
        made = translate_clause(clause(["p"], [], INFINITE), program, frozenset())
        assert made == [LinearConstraint(((program.atom_var(atom("p")), 1),), 1)]

    def test_positive_weight_clause(self):
        # a weighted unit makes no constraint: its weight goes on its atom
        program = IlpProgram()
        made = translate_clause(clause(["p"], [], Fraction(8, 10)), program, frozenset())
        assert made == []
        assert program.variables == [atom("p")]
        assert program.objective == [(0, Fraction(8, 10))]

    def test_negative_weight_clause(self):
        program = IlpProgram()
        translate_clause(clause(["q"], [], INFINITE), program, frozenset())
        made = translate_clause(clause(["p"], [], Fraction(-1, 2)), program, frozenset())
        assert made == []
        assert program.variables == [atom("q"), atom("p")]
        assert program.objective == [(1, Fraction(-1, 2))]

    def test_a_weighted_clause_must_be_a_positive_unit(self):
        program = IlpProgram()
        for pos, neg in ((["p", "q"], []), (["p"], ["q"]), ([], ["p"]), ([], [])):
            with pytest.raises(ValueError):
                translate_clause(clause(pos, neg, Fraction(1, 2)), program, frozenset())
        assert program == IlpProgram()

    def test_declaration_order(self):
        # the lexicographic tie-break reads variables in declaration order: a
        # unit over a fixed atom is a constant and declares nothing (weight 0
        # included); a unit over a new atom declares it
        program = IlpProgram()
        fixed = frozenset({atom("e")})
        for weight in (Fraction(1, 2), Fraction(0), Fraction(-1, 2)):
            assert translate_clause(clause(["e"], [], weight), program, fixed) == []
        assert program == IlpProgram()
        assert translate_clause(clause(["q"], [], Fraction(-1, 2)), program, fixed) == []
        (made,) = translate_clause(clause(["q"], ["e", "p"], INFINITE), program, fixed)
        x_q, x_p = program.atom_var(atom("q")), program.atom_var(atom("p"))
        assert made == LinearConstraint(((x_q, 1), (x_p, -1)), 0)
        assert program.variables == [atom("q"), atom("p")]
        assert (x_q, x_p) == (0, 1)
        assert program.objective == [(0, Fraction(-1, 2))]
        assert translate_clause(clause(["e"], ["r"], INFINITE), program, fixed) == []
        assert len(program.variables) == 2 and len(program.constraints) == 1

    def test_evidence_fixed_atoms_are_omitted(self):
        program = IlpProgram()
        fixed = frozenset((atom("e"),))
        made = translate_clause(clause(["p"], ["e", "q"], INFINITE), program, fixed)
        (constraint,) = made
        assert atom("e") not in {program.variables[v] for v, _ in constraint.terms}
        assert atom("e") not in program.variables
        assert constraint.bound == 1 - 1  # one remaining negated literal

    def test_hard_conflict(self):
        program = IlpProgram()
        fixed = frozenset((atom("e"),))
        with pytest.raises(Infeasible):
            translate_clause(clause([], ["e"], INFINITE), program, fixed)


class TestSolve:
    def test_forced_chain(self):
        program = IlpProgram()
        translate_clause(clause(["p"], [], INFINITE), program, frozenset())
        translate_clause(clause(["p"], [], Fraction(1)), program, frozenset())
        assignment, value = solve(program)
        assert value == 1
        assert assignment[program.atom_var(atom("p"))] == 1

    def test_empty_program(self):
        assert solve(IlpProgram()) == ([], 0)

    def test_rejecting_is_optimal_when_hard_clause_bites(self):
        # pay 0.1 for q, but q together with p is forbidden and p is worth 1.0
        program = IlpProgram()
        translate_clause(clause(["p"], [], Fraction(1)), program, frozenset())
        translate_clause(clause(["q"], [], Fraction(1, 10)), program, frozenset())
        translate_clause(clause([], ["p", "q"], INFINITE), program, frozenset())
        _, value = solve(program)
        assert value == 1

    def test_infeasible_program_raises(self):
        program = IlpProgram()
        translate_clause(clause(["p"], [], INFINITE), program, frozenset())
        translate_clause(clause([], ["p"], INFINITE), program, frozenset())
        translate_clause(clause(["q"], [], INFINITE), program, frozenset())
        with pytest.raises(Infeasible):
            solve(program)

    def test_infeasible_component_among_many(self):
        # 202 constraints in all, and the conflict lies in p's component alone:
        # the 200 feasible components beside it do not hide it
        program = IlpProgram()
        translate_clause(clause(["p"], [], INFINITE), program, frozenset())
        translate_clause(clause([], ["p"], INFINITE), program, frozenset())
        for i in range(200):
            translate_clause(clause([f"q{i}"], [f"r{i}"], INFINITE), program, frozenset())
        with pytest.raises(Infeasible):
            solve(program)

    def test_lexicographic_tie_break(self):
        # c is worth 1 and needs a or b: among the optima {a=1,b=0} and
        # {a=0,b=1} (with c=1), a is declared first, so 0 wins there
        program = IlpProgram()
        x_a = program.atom_var(atom("a"))
        x_b = program.atom_var(atom("b"))
        translate_clause(clause(["a", "b"], ["c"], INFINITE), program, frozenset())
        translate_clause(clause(["c"], [], Fraction(1)), program, frozenset())
        assignment, value = solve(program)
        assert value == 1
        assert assignment[x_a] == 0
        assert assignment[x_b] == 1


def _random_literals(rng: random.Random, names: list):
    """One to three distinct names, split into positive and negated literals."""
    chosen = rng.sample(names, min(rng.randint(1, 3), len(names)))
    split = rng.randint(0, len(chosen))
    return chosen[:split], chosen[split:]


def _unit(pos: list, neg: list):
    """A weighted clause is a unit: the first of its literals' names, unnegated."""
    return (pos + neg)[:1], []


def _random_program(rng: random.Random):
    program = IlpProgram()
    n_atoms = rng.randint(2, 8)
    names = [f"a{i}" for i in range(n_atoms)]
    n_clauses = rng.randint(1, 12)
    for _ in range(n_clauses):
        pos, neg = _random_literals(rng, names)
        kind = rng.random()
        if kind < 0.4:
            weight = INFINITE
        elif kind < 0.75:
            weight = Fraction(rng.randint(1, 20), 10)
            pos, neg = _unit(pos, neg)
        else:
            weight = Fraction(-rng.randint(1, 20), 10)
            pos, neg = _unit(pos, neg)
        try:
            translate_clause(clause(pos, neg, weight), program, frozenset())
        except Infeasible:
            continue
    return program


def _disjoint_union(first: IlpProgram, second: IlpProgram) -> IlpProgram:
    """``first`` and a renumbered copy of ``second``, variables interleaved in declared order."""
    parts = (first, second)
    pairs = itertools.zip_longest(*([(k, v) for v in range(len(p.variables))] for k, p in enumerate(parts)))
    order = [kv for pair in pairs for kv in pair if kv is not None]
    new = {kv: i for i, kv in enumerate(order)}
    return IlpProgram(
        variables=[parts[k].variables[v] for k, v in order],
        constraints=[LinearConstraint(tuple((new[k, v], c) for v, c in con.terms), con.bound)
                     for k, p in enumerate(parts) for con in p.constraints],
        objective=[(new[k, v], w) for k, p in enumerate(parts) for v, w in p.objective],
    )


def _assert_union_matches(first, second):
    """Solve the disjoint union of two (program, optimum or None) parts against enumeration."""
    union = _disjoint_union(first[0], second[0])
    assert len(union.variables) <= 20
    expected = enumerate_solve(union)
    if first[1] is None or second[1] is None:
        assert expected is None
        with pytest.raises(Infeasible):
            solve(union)
        return
    assert solve(union) == expected
    assert expected[1] == first[1] + second[1]


def test_matches_enumeration_on_random_programs():
    rng = random.Random(99)
    checked = unions = 0
    previous = None
    for _ in range(40):
        program = _random_program(rng)
        if len(program.variables) > 15:
            continue
        expected = enumerate_solve(program)
        part = (program, expected and expected[1])
        if previous is not None and len(previous[0].variables) + len(program.variables) <= 20:
            _assert_union_matches(previous, part)
            unions += 1
        previous = part
        try:
            got = solve(program)
        except Infeasible:
            assert expected is None
            continue
        assert expected is not None
        assert got[1] == expected[1]
        assert got[0] == expected[0]
        checked += 1
    assert checked >= 25
    assert unions >= 10


def test_matches_enumeration_on_adversarial_programs():
    # dense clauses, repeated atoms, all-negative and tie-heavy objectives
    rng = random.Random(2718)
    previous = None
    for round_ in range(30):
        program = IlpProgram()
        names = [f"t{i}" for i in range(rng.randint(2, 6))]
        for _ in range(rng.randint(2, 20)):
            chosen = [rng.choice(names) for _ in range(rng.randint(1, 4))]
            split = rng.randint(0, len(chosen))
            pos = frozenset(atom(n) for n in chosen[:split])
            neg = frozenset(atom(n) for n in chosen[split:])
            if not pos and not neg:
                continue
            style = rng.random()
            if style < 0.3:
                weight = INFINITE
            elif style < 0.5:
                weight = Fraction(1, 10)  # deliberate ties
            elif style < 0.8:
                weight = Fraction(-rng.randint(1, 5), 10)
            else:
                weight = Fraction(rng.randint(1, 30), 10)
            if weight is not INFINITE:  # a unit over the first name drawn
                pos, neg = frozenset((atom(chosen[0]),)), frozenset()
            try:
                translate_clause(ViolatedClause(pos, neg, weight, "F3"), program, frozenset())
            except Infeasible:
                continue
        if len(program.variables) > 18:
            continue
        expected = enumerate_solve(program)
        part = (program, expected and expected[1])
        if previous is not None and len(previous[0].variables) + len(program.variables) <= 20:
            _assert_union_matches(previous, part)
        previous = part
        try:
            got = solve(program)
        except Infeasible:
            assert expected is None, round_
            continue
        assert expected is not None and got[1] == expected[1] and got[0] == expected[0], round_


def test_value_invariant_under_constraint_reordering():
    rng = random.Random(7)
    for _ in range(10):
        program = _random_program(rng)
        try:
            _, value = solve(program)
        except Infeasible:
            continue
        shuffled = IlpProgram(
            variables=list(program.variables),
            constraints=list(reversed(program.constraints)),
            objective=list(program.objective),
        )
        _, shuffled_value = solve(shuffled)
        assert shuffled_value == value


def _copy(program: IlpProgram) -> IlpProgram:
    """A never-solved program with the same variables, constraints and objective."""
    return IlpProgram(list(program.variables), list(program.constraints), list(program.objective))


def test_a_program_built_from_lists_knows_its_atoms():
    # the atom -> variable map comes from the given variables: a copy names
    # its atoms' variables, reports its true atoms and equals the original
    program = IlpProgram()
    translate_clause(clause(["p"], [], Fraction(1, 2)), program, frozenset())
    translate_clause(clause(["q"], ["p"], INFINITE), program, frozenset())
    copy = _copy(program)
    assert copy == program
    assert [copy.atom_var(atom(n)) for n in ("p", "q")] == [0, 1]
    assert copy.variables == [atom("p"), atom("q")]
    assert copy.true_atoms([1, 0]) == {atom("p")}
    assert IlpProgram(variables=[atom("p")]).atom_var(atom("p")) == 0


def _components(program: IlpProgram) -> dict:
    """Each variable's connected component, as a shared set of variables."""
    component = {v: {v} for v in range(len(program.variables))}
    for con in program.constraints:
        merged = set().union(*(component[v] for v, _ in con.terms))
        for v in merged:
            component[v] = merged
    return component


def test_incremental_solve_matches_a_fresh_solve(monkeypatch):
    # grow programs clause by clause and solve the same program after each
    # clause: the search kept on it must answer as a fresh copy does, infeasible
    # programs included, and as enumeration does while it can. After a solve,
    # a hard clause or a unit of weight <= 0 on a new variable is first
    # carried (the last assignment extended to the new variables), which may
    # fall back to a search; a unit of positive weight or on an old variable
    # is never carried
    carries = []
    carry = _Search._carry

    def counted(search, *args):
        carries.append(carry(search, *args))
        return carries[-1]

    monkeypatch.setattr(_Search, "_carry", counted)
    rng = random.Random(4242)
    seen = dict.fromkeys(("raised scale", "joined", "cancelled", "zero weight", "infeasible",
                          "carried", "fell back", "skipped", "old variable"), 0)
    for _ in range(60):
        program = IlpProgram()
        solved = False
        names = [f"a{i}" for i in range(rng.randint(3, 9))]
        scale = 1  # the least common multiple of the weight denominators so far
        for step in range(rng.randint(3, 18)):
            pos, neg = _random_literals(rng, names)
            kind = rng.random()
            if kind < 0.08:
                pos = neg = pos + neg  # every term cancels
                weight = INFINITE
            elif kind < 0.2:
                pos, neg = (pos[:1], []) if pos else ([], neg[:1])  # units drive infeasibility
                weight = INFINITE
            elif kind < 0.4:
                weight = INFINITE
            elif kind < 0.45:
                weight = Fraction(0)
            else:
                weight = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.choice((10, 10, 3, 7)))
            if weight is not INFINITE:
                pos, neg = _unit(pos, neg)
            before = _components(program)
            try:
                made = translate_clause(clause(pos, neg, weight), program, frozenset())
            except Infeasible:
                continue
            if weight is not INFINITE:
                seen["zero weight"] += weight == 0
                seen["raised scale"] += step > 0 and scale % weight.denominator != 0
                scale = math.lcm(scale, weight.denominator)
            for con in made:
                seen["joined"] += len({id(before[v]) for v, _ in con.terms if v in before}) > 1
                seen["cancelled"] += pos == neg
            try:
                expected = solve(_copy(program))
            except Infeasible:
                with pytest.raises(Infeasible):
                    solve(program)
                assert len(program.variables) > 20 or enumerate_solve(program) is None
                seen["infeasible"] += 1
                break
            carries.clear()
            assert solve(program) == expected
            old = weight is not INFINITE and program.objective[-1][0] in before
            if solved and weight is not INFINITE and (weight > 0 or old):
                assert carries == []
                seen["skipped"] += 1
                seen["old variable"] += old and weight <= 0
            elif solved:
                (carried,) = carries
                seen["carried" if carried else "fell back"] += 1
            solved = True
            if len(program.variables) <= 20:
                assert enumerate_solve(program) == expected
    assert all(count >= 5 for count in seen.values()), seen


def test_tie_break_on_programs_with_many_optima():
    # equal weights give programs several optimal assignments; the solver's
    # is the smallest in declared order, found from the optimum pass's best
    # leaf and the leaves that replace it as the walk goes
    rng = random.Random(1729)
    weights = (INFINITE, Fraction(1, 10), Fraction(1, 10), Fraction(2, 10), Fraction(-1, 10))
    tied = 0
    for _ in range(150):
        program = IlpProgram()
        names = [f"t{i}" for i in range(rng.randint(3, 8))]
        for _ in range(rng.randint(2, 10)):
            pos, neg = _random_literals(rng, names)
            weight = rng.choice(weights)
            if weight is not INFINITE:
                pos, neg = _unit(pos, neg)
            try:
                translate_clause(clause(pos, neg, weight), program, frozenset())
            except Infeasible:
                continue
        if len(program.variables) > 16:
            continue
        found = enumerate_optima(program)
        if found is None or len(found[0]) < 2:
            continue
        optima, value = found
        assert solve(program) == (optima[0], value)
        tied += 1
    assert tied >= 50, tied


class TestKeptSearch:
    CLAUSES = (
        clause(["p"], [], Fraction(8, 10)),
        clause(["r"], [], Fraction(-1, 3)),
        clause(["q", "r"], [], INFINITE),
        clause(["s"], ["s"], INFINITE),
    )

    def test_a_solved_program_is_equal_to_an_unsolved_one(self):
        solved, unsolved = IlpProgram(), IlpProgram()
        for made in self.CLAUSES:
            translate_clause(made, solved, frozenset())
            translate_clause(made, unsolved, frozenset())
            solve(solved)
        assert solved == unsolved
        assert repr(solved) == repr(unsolved)
        assert dump(solved) == dump(unsolved)

    def test_infeasible_again_after_a_feasible_solve(self):
        program = IlpProgram()
        for made in self.CLAUSES:
            translate_clause(made, program, frozenset())
        solve(program)
        translate_clause(clause([], ["q"], INFINITE), program, frozenset())
        translate_clause(clause([], ["r"], INFINITE), program, frozenset())
        with pytest.raises(Infeasible):
            solve(program)
        with pytest.raises(Infeasible):
            solve(program)

    def test_weight_added_to_a_solved_variable(self):
        # a negative-weight unit is grounded once its atom is true, so its
        # entry lands on an old variable; it must not be carried, as it can
        # change which old values are optimal
        program = IlpProgram()
        translate_clause(clause(["p"], [], Fraction(1, 2)), program, frozenset())
        translate_clause(clause(["q"], [], Fraction(1, 2)), program, frozenset())
        translate_clause(clause([], ["p", "q"], INFINITE), program, frozenset())
        assert solve(program) == ([0, 1], Fraction(1, 2))  # x_p, x_q
        translate_clause(clause(["q"], [], Fraction(-1)), program, frozenset())
        assert solve(program) == solve(_copy(program)) == ([1, 0], Fraction(1, 2))

    def test_infeasible_after_a_merge(self):
        # the last clause merges p's component into the larger {q, r}, whose
        # constraints come first in the merged list; the merged component is
        # infeasible
        program = IlpProgram()
        translate_clause(clause(["p"], [], INFINITE), program, frozenset())
        translate_clause(clause(["q", "r"], [], INFINITE), program, frozenset())
        translate_clause(clause([], ["q"], INFINITE), program, frozenset())
        solve(program)
        translate_clause(clause([], ["p", "r"], INFINITE), program, frozenset())
        with pytest.raises(Infeasible):
            solve(program)


class TestDump:
    def test_sections_and_stability(self):
        program = IlpProgram()
        translate_clause(clause(["p"], [], Fraction(8, 10)), program, frozenset())
        translate_clause(clause(["p"], [], INFINITE), program, frozenset())
        text = dump(program)
        assert text.splitlines()[0] == "OBJECTIVE"
        assert "CONSTRAINTS" in text and "BINARY" in text
        assert "0.8 x_sub_p_p" in text
        assert "x_sub_p_p" in text
        assert dump(program) == text

    # sub(C, {a}) and sub(C, nom_a) mangle to the same token
    NOMINAL, NAMED = Atom("sub", ("C", Nominal("a"))), Atom("sub", ("C", "nom_a"))

    def test_exact_text_of_a_hand_built_program(self):
        # the atom declared second takes a "_" suffix; a value's "-" and "/"
        # mangle to "m" and "d"
        value = Atom("rsupEx", ("C", "f", "<=", Fraction(-1, 3)))
        program = IlpProgram()
        translate_clause(ViolatedClause(frozenset({self.NOMINAL}), frozenset(), Fraction(1, 2), "F3"), program)
        translate_clause(ViolatedClause(frozenset({self.NAMED}), frozenset({self.NOMINAL}), INFINITE, "F3"), program)
        translate_clause(ViolatedClause(frozenset({value}), frozenset({self.NAMED}), INFINITE, "F3"), program)
        translate_clause(ViolatedClause(frozenset({value}), frozenset(), Fraction(-3, 4), "F3"), program)
        assert dump(program) == (
            "OBJECTIVE\n"
            "  0.5 x_sub_C_nom_a\n"
            "  -0.75 x_rsupEx_C_f_le_m1d3\n"
            "CONSTRAINTS\n"
            "  +1 x_sub_C_nom_a_ -1 x_sub_C_nom_a >= 0\n"
            "  +1 x_rsupEx_C_f_le_m1d3 -1 x_sub_C_nom_a_ >= 0\n"
            "BINARY\n"
            "  x_sub_C_nom_a\n"
            "  x_sub_C_nom_a_\n"
            "  x_rsupEx_C_f_le_m1d3\n"
        )

    def test_colliding_atoms_in_one_clause_keep_their_order_under_any_hash_seed(self):
        # the two atoms are one frozenset, whose order varies with the hash
        # seed; translate_clause orders them by atom_sort_key, not by token
        script = (
            "from fractions import Fraction\n"
            "from probel.grounding import ViolatedClause\n"
            "from probel.ilp import IlpProgram, dump, translate_clause\n"
            "from probel.model import INFINITE, Nominal\n"
            "from probel.translate import Atom\n"
            "atoms = frozenset({Atom('sub', ('C', Nominal('a'))), Atom('sub', ('C', 'nom_a'))})\n"
            "program = IlpProgram()\n"
            "translate_clause(ViolatedClause(atoms, frozenset(), INFINITE, 'F3'), program)\n"
            "print(program.variables)\n"
            "print(dump(program), end='')\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[0] == repr([self.NAMED, self.NOMINAL])
        assert "+1 x_sub_C_nom_a +1 x_sub_C_nom_a_ >= 1" in outputs[0]

    def test_every_returned_assignment_checks_numerically(self):
        rng = random.Random(31)
        for _ in range(10):
            program = _random_program(rng)
            try:
                assignment, _ = solve(program)
            except Infeasible:
                continue
            for con in program.constraints:
                assert sum(c * assignment[v] for v, c in con.terms) >= con.bound
