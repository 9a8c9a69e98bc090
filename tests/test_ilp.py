import importlib.util
import itertools
import json
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
    Clause,
    IlpProgram,
    Infeasible,
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


def clause(pos, neg, template="F3"):
    return ViolatedClause(frozenset(atom(p) for p in pos), frozenset(atom(n) for n in neg), template)


def weigh(program, atom_, weight):
    """Put a weight on an atom's variable, as the engine weighs an uncertain statement."""
    program.objective.append((program.atom_var(atom_), weight))


class TestTranslateClause:
    def test_single_literal_hard_clause(self):
        program = IlpProgram()
        made = translate_clause(clause(["p"], []), program, frozenset())
        assert made == [Clause((program.atom_var(atom("p")),), ())]

    def test_a_tautology_makes_nothing(self):
        # an atom on both sides holds in every world: no constraint, and no
        # variable declared, even beside a literal that fixed_true falsifies
        program = IlpProgram()
        fixed = frozenset({atom("e")})
        for pos, neg in ((["p"], ["p"]), (["p", "q"], ["q"]), (["p"], ["p", "e"]), (["e"], ["e"])):
            assert translate_clause(clause(pos, neg), program, fixed) == []
        assert program == IlpProgram()

    def test_declaration_order(self):
        # the lexicographic tie-break reads variables in declaration order:
        # a clause declares its positive atoms, then its negated ones, each
        # in atom order, and one satisfied by a fixed atom declares nothing
        program = IlpProgram()
        fixed = frozenset({atom("e")})
        weigh(program, atom("q"), Fraction(-1, 2))
        (made,) = translate_clause(clause(["q"], ["e", "p"]), program, fixed)
        x_q, x_p = program.atom_var(atom("q")), program.atom_var(atom("p"))
        assert made == Clause((x_q,), (x_p,))
        assert program.variables == [atom("q"), atom("p")]
        assert (x_q, x_p) == (0, 1)
        assert program.objective == [(0, Fraction(-1, 2))]
        assert translate_clause(clause(["e"], ["r"]), program, fixed) == []
        (made,) = translate_clause(clause(["s", "r"], ["q", "t"]), program, fixed)
        assert program.variables[2:] == [atom("r"), atom("s"), atom("t")]
        assert made == Clause((2, 3), (0, 4))
        assert len(program.constraints) == 2

    def test_evidence_fixed_atoms_are_omitted(self):
        program = IlpProgram()
        fixed = frozenset((atom("e"),))
        made = translate_clause(clause(["p"], ["e", "q"]), program, fixed)
        (constraint,) = made
        assert atom("e") not in program.variables
        assert constraint == Clause((0,), (1,))  # one remaining negated literal

    def test_hard_conflict(self):
        # a clause whose only literals are fixed true is left empty: it is
        # appended, and solve, not translate_clause, finds it infeasible
        program = IlpProgram()
        fixed = frozenset((atom("e"),))
        weigh(program, atom("p"), Fraction(1))
        assert translate_clause(clause([], ["e"]), program, fixed) == [Clause((), ())]
        assert program.constraints == [Clause((), ())]
        assert program.variables == [atom("p")]
        for _ in range(2):
            with pytest.raises(Infeasible):
                solve(program)

    def test_an_equal_clause_is_made_once(self):
        # sub(p,p) :- sub(e,e), sub(q,q) and sub(p,p) :- sub(q,q) are one
        # Clause once the fixed sub(e,e) is substituted out: the second makes
        # nothing and declares nothing, while a clause with another literal
        # set is still made
        program = IlpProgram()
        fixed = frozenset((atom("e"),))
        (made,) = translate_clause(clause(["p"], ["e", "q"]), program, fixed)
        assert translate_clause(clause(["p"], ["q"]), program, fixed) == []
        assert translate_clause(clause(["p"], ["q"], "F4"), program, fixed) == []
        assert translate_clause(clause(["q"], ["p"]), program, fixed) == [Clause((1,), (0,))]
        assert program.constraints == [made, Clause((1,), (0,))]
        assert program.variables == [atom("p"), atom("q")]

    def test_a_hand_built_clause_is_not_made_again(self):
        program = IlpProgram([atom("p")], [Clause((0,), ())], [])
        assert translate_clause(clause(["p"], []), program) == []
        assert program.constraints == [Clause((0,), ())]


class TestSolve:
    def test_forced_chain(self):
        program = IlpProgram()
        translate_clause(clause(["p"], []), program, frozenset())
        weigh(program, atom("p"), Fraction(1))
        assignment, value = solve(program)
        assert value == 1
        assert assignment[program.atom_var(atom("p"))] == 1

    def test_empty_program(self):
        assert solve(IlpProgram()) == ([], 0)

    def test_rejecting_is_optimal_when_hard_clause_bites(self):
        # pay 0.1 for q, but q together with p is forbidden and p is worth 1.0
        program = IlpProgram()
        weigh(program, atom("p"), Fraction(1))
        weigh(program, atom("q"), Fraction(1, 10))
        translate_clause(clause([], ["p", "q"]), program, frozenset())
        _, value = solve(program)
        assert value == 1

    def test_infeasible_program_raises(self):
        program = IlpProgram()
        translate_clause(clause(["p"], []), program, frozenset())
        translate_clause(clause([], ["p"]), program, frozenset())
        translate_clause(clause(["q"], []), program, frozenset())
        with pytest.raises(Infeasible):
            solve(program)

    def test_infeasible_component_among_many(self):
        # 202 constraints in all, and the conflict lies in p's component alone:
        # the 200 feasible components beside it do not hide it
        program = IlpProgram()
        translate_clause(clause(["p"], []), program, frozenset())
        translate_clause(clause([], ["p"]), program, frozenset())
        for i in range(200):
            translate_clause(clause([f"q{i}"], [f"r{i}"]), program, frozenset())
        with pytest.raises(Infeasible):
            solve(program)

    def test_lexicographic_tie_break(self):
        # c is worth 1 and needs a or b: among the optima {a=1,b=0} and
        # {a=0,b=1} (with c=1), a is declared first, so 0 wins there
        program = IlpProgram()
        x_a = program.atom_var(atom("a"))
        x_b = program.atom_var(atom("b"))
        translate_clause(clause(["a", "b"], ["c"]), program, frozenset())
        weigh(program, atom("c"), Fraction(1))
        assignment, value = solve(program)
        assert value == 1
        assert assignment[x_a] == 0
        assert assignment[x_b] == 1

    def test_a_hand_built_clause(self):
        # q :- p, with p worth 1
        program = IlpProgram([atom("p"), atom("q")], [Clause((1,), (0,))], [(0, Fraction(1))])
        assert solve(program) == ([1, 1], 1)

    def test_a_hand_built_empty_clause_is_infeasible(self):
        # appended after a solve, and solved again, it stays infeasible
        program = IlpProgram([atom("p")], [Clause((0,), ())], [(0, Fraction(1))])
        assert solve(program) == ([1], 1)
        program.constraints.append(Clause((), ()))
        for _ in range(2):
            with pytest.raises(Infeasible):
                solve(program)
        with pytest.raises(Infeasible):
            solve(IlpProgram([], [Clause((), ())], []))

    def test_post_checks_raise_under_python_O(self):
        # solve checks the search's answer against every constraint and the
        # exact objective with explicit raises, which -O does not strip: a
        # search that answers x_p = 1, x_q = 0 to q :- p, or that overstates
        # its optimum, is refused
        script = (
            "import sys\n"
            "from fractions import Fraction\n"
            "from probel.grounding import ViolatedClause\n"
            "from probel.ilp import IlpProgram, _Search, solve, translate_clause\n"
            "from probel.translate import Atom\n"
            "print('optimize', sys.flags.optimize)\n"
            "p, q = Atom('sub', ('p', 'p')), Atom('sub', ('q', 'q'))\n"
            "program = IlpProgram()\n"
            "program.objective.append((program.atom_var(p), Fraction(1)))\n"
            "translate_clause(ViolatedClause(frozenset({q}), frozenset({p}), 'F3'), program)\n"
            "for answer in (([1, 0], 1), ([1, 1], 2)):\n"
            "    _Search.solve = lambda self: answer\n"
            "    try:\n"
            "        print(solve(program))\n"
            "    except AssertionError as err:\n"
            "        print('refused:', err)\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.splitlines()
        assert out[0] == "optimize 1"
        assert [line.split(":")[0] for line in out[1:]] == ["refused", "refused"], out


class TestClosedForm:
    """A component with no constraint is one variable, set to 1 exactly
    when its summed weight is positive."""

    def test_constraint_free_variables_beside_constrained_components(self):
        # free variables of positive, negative and zero weight and one whose
        # two entries cancel, declared between two constrained components
        program = IlpProgram()
        weigh(program, atom("p"), Fraction(3, 4))
        translate_clause(clause(["a", "b"], ["c"]), program, frozenset())
        weigh(program, atom("n"), Fraction(-2, 3))
        weigh(program, atom("z"), Fraction(0))
        weigh(program, atom("h"), Fraction(1, 2))
        weigh(program, atom("h"), Fraction(-1, 2))
        weigh(program, atom("c"), Fraction(1))
        translate_clause(clause(["d"], ["e"]), program, frozenset())
        weigh(program, atom("e"), Fraction(1, 10))
        weigh(program, atom("d"), Fraction(-1, 5))
        assignment, value = solve(program)
        assert (assignment, value) == enumerate_solve(program)
        free = {name: assignment[program.atom_var(atom(name))] for name in "pnzh"}
        assert free == {"p": 1, "n": 0, "z": 0, "h": 0}
        assert value == Fraction(3, 4) + 1  # p and c; e is not worth the d it needs

    def test_no_search_without_constraints(self, monkeypatch):
        def refused(*args):
            raise AssertionError("a constraint-free component was searched")

        monkeypatch.setattr(_Search, "_dfs", refused)
        program = IlpProgram()
        for name, weight in (("p", Fraction(1, 3)), ("n", Fraction(-1)), ("z", Fraction(0)),
                             ("h", Fraction(1, 2)), ("h", Fraction(-1, 2)), ("q", Fraction(2, 7))):
            weigh(program, atom(name), weight)
        assert solve(program) == ([1, 0, 0, 0, 1], Fraction(1, 3) + Fraction(2, 7))

    def test_a_free_variable_that_gains_a_constraint(self):
        # p, q and r are solved alone first, then constraints join them and
        # the kept search must answer as a fresh one does: q drops out
        program = IlpProgram()
        weigh(program, atom("p"), Fraction(1, 2))
        weigh(program, atom("q"), Fraction(2, 3))
        weigh(program, atom("r"), Fraction(-1, 4))
        assert solve(program) == ([1, 1, 0], Fraction(7, 6))
        translate_clause(clause([], ["p", "q"]), program, frozenset())
        translate_clause(clause(["r"], ["q"]), program, frozenset())
        expected = solve(_copy(program))
        assert solve(program) == expected == enumerate_solve(program)
        assert expected == ([1, 0, 0], Fraction(1, 2))


def _random_literals(rng: random.Random, names: list):
    """One to three distinct names, split into positive and negated literals."""
    chosen = rng.sample(names, min(rng.randint(1, 3), len(names)))
    split = rng.randint(0, len(chosen))
    return chosen[:split], chosen[split:]


def _add(program: IlpProgram, pos: list, neg: list, weight) -> list:
    """Translate the hard clause of the drawn literals, or put a finite
    weight on the first name drawn; return the constraints made."""
    if weight is INFINITE:
        return translate_clause(clause(pos, neg), program, frozenset())
    weigh(program, atom((pos + neg)[0]), weight)
    return []


def _random_program(rng: random.Random):
    program = IlpProgram()
    n_atoms = rng.randint(2, 14)
    names = [f"a{i}" for i in range(n_atoms)]
    n_clauses = rng.randint(1, 24)
    for _ in range(n_clauses):
        pos, neg = _random_literals(rng, names)
        kind = rng.random()
        if kind < 0.4:
            weight = INFINITE
        elif kind < 0.75:
            weight = Fraction(rng.randint(1, 20), 10)
        else:
            weight = Fraction(-rng.randint(1, 20), 10)
        _add(program, pos, neg, weight)
    return program


def _disjoint_union(first: IlpProgram, second: IlpProgram) -> IlpProgram:
    """``first`` and a renumbered copy of ``second``, variables interleaved in declared order."""
    parts = (first, second)
    pairs = itertools.zip_longest(*([(k, v) for v in range(len(p.variables))] for k, p in enumerate(parts)))
    order = [kv for pair in pairs for kv in pair if kv is not None]
    new = {kv: i for i, kv in enumerate(order)}
    return IlpProgram(
        variables=[parts[k].variables[v] for k, v in order],
        constraints=[Clause(*(tuple(new[k, v] for v in side) for side in clause))
                     for k, p in enumerate(parts) for clause in p.constraints],
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
    checked = unions = largest = 0
    previous = None
    for _ in range(40):
        program = _random_program(rng)
        if len(program.variables) > 15:
            continue
        expected = enumerate_solve(program)
        largest = max(largest, len(program.variables))
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
    # the clause count lets programs reach the atom budget of 14
    assert largest >= 13


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
            if weight is INFINITE:
                translate_clause(ViolatedClause(pos, neg, "F3"), program, frozenset())
            else:  # a weight on the first name drawn
                weigh(program, atom(chosen[0]), weight)
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


def test_hand_built_clauses_that_repeat_a_variable_match_enumeration():
    # translate_clause never repeats a variable, but the search is exact on
    # any clause with a literal: a variable repeated on one side falsifies
    # each of its literals, and one on both sides makes a tautology. Each
    # program gains its clauses one at a time, solved after each, so the
    # carry takes them in too, until one makes the program infeasible
    rng = random.Random(1000)
    seen = dict.fromkeys(("one side", "both sides", "infeasible", "solved"), 0)
    for _ in range(300):
        n = rng.randint(1, 6)
        objective = [(rng.randrange(n), Fraction(rng.randint(-10, 10), 10)) for _ in range(rng.randint(0, n))]
        program = IlpProgram([atom(f"v{i}") for i in range(n)], [], objective)
        for _ in range(rng.randint(1, 8)):
            literals = [rng.randrange(n) for _ in range(rng.randint(1, 4))]
            split = rng.randint(0, len(literals))
            positive, negative = tuple(literals[:split]), tuple(literals[split:])
            program.constraints.append(Clause(positive, negative))
            seen["one side"] += len(set(positive)) < len(positive) or len(set(negative)) < len(negative)
            seen["both sides"] += not set(positive).isdisjoint(negative)
            expected = enumerate_solve(program)
            if expected is None:
                with pytest.raises(Infeasible):
                    solve(program)
                seen["infeasible"] += 1
                break
            assert solve(program) == solve(_copy(program)) == expected
            seen["solved"] += 1
    assert all(count >= 50 for count in seen.values()), seen


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
    weigh(program, atom("p"), Fraction(1, 2))
    translate_clause(clause(["q"], ["p"]), program, frozenset())
    copy = _copy(program)
    assert copy == program
    assert [copy.atom_var(atom(n)) for n in ("p", "q")] == [0, 1]
    assert copy.variables == [atom("p"), atom("q")]
    assert copy.true_atoms([1, 0]) == {atom("p")}
    assert IlpProgram(variables=[atom("p")]).atom_var(atom("p")) == 0


def _components(program: IlpProgram) -> dict:
    """Each variable's connected component, as a shared set of variables."""
    component = {v: {v} for v in range(len(program.variables))}
    for clause in program.constraints:
        merged = set().union(*(component[v] for v in clause.positive + clause.negative))
        for v in merged:
            component[v] = merged
    return component


def test_the_ladder_reads_the_largest_component_from_the_clauses():
    # scripts/ladder.py reports the largest component of each rung's ILP;
    # clauses over {0, 1, 2} and {3, 4}, and variable 5 in none
    path = Path(__file__).resolve().parents[1] / "scripts" / "ladder.py"
    spec = importlib.util.spec_from_file_location("ladder", path)
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    clauses = [Clause((0,), (1,)), Clause((), (2, 1)), Clause((3, 4), ()), Clause((4,), (4,))]
    program = IlpProgram([atom(f"v{i}") for i in range(6)], clauses, [])
    assert ladder.largest_component(program) == 3
    assert ladder.largest_component(IlpProgram()) == 0


def test_incremental_solve_matches_a_fresh_solve(monkeypatch):
    # grow programs clause by clause and solve the same program after each
    # clause: the search kept on it must answer as a fresh copy does, infeasible
    # programs included, and as enumeration does while it can. After a solve,
    # a hard clause or a weight <= 0 on a new variable is first carried (the
    # last assignment extended to the new variables), which may fall back to
    # a search; a positive weight or one on an old variable is never carried.
    # A tautology makes no constraint and declares no variable, and every
    # clause made is over distinct variables
    carries = []
    carry = _Search._carry

    def counted(search, *args):
        carries.append(carry(search, *args))
        return carries[-1]

    monkeypatch.setattr(_Search, "_carry", counted)
    rng = random.Random(4242)
    seen = dict.fromkeys(("raised scale", "joined", "tautology", "zero weight", "infeasible",
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
                pos = neg = pos + neg  # every atom on both sides
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
            before = _components(program)
            try:
                made = _add(program, pos, neg, weight)
            except Infeasible:
                continue
            if weight is not INFINITE:
                seen["zero weight"] += weight == 0
                seen["raised scale"] += step > 0 and scale % weight.denominator != 0
                scale = math.lcm(scale, weight.denominator)
            elif pos == neg:
                assert made == [] and len(program.variables) == len(before)
                seen["tautology"] += 1
            for con in made:
                variables = con.positive + con.negative
                assert len(set(variables)) == len(variables), con
                seen["joined"] += len({id(before[v]) for v in variables if v in before}) > 1
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
            try:
                _add(program, pos, neg, weight)
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
    # weights on p and r, then two clauses, the second a tautology
    STEPS = (
        (atom("p"), Fraction(8, 10)),
        (atom("r"), Fraction(-1, 3)),
        clause(["q", "r"], []),
        clause(["s"], ["s"]),
    )

    @staticmethod
    def add(step, program):
        if isinstance(step, ViolatedClause):
            translate_clause(step, program, frozenset())
        else:
            weigh(program, *step)

    def test_a_solved_program_is_equal_to_an_unsolved_one(self):
        solved, unsolved = IlpProgram(), IlpProgram()
        for step in self.STEPS:
            self.add(step, solved)
            self.add(step, unsolved)
            solve(solved)
        assert solved == unsolved
        assert repr(solved) == repr(unsolved)
        assert dump(solved) == dump(unsolved)

    def test_infeasible_again_after_a_feasible_solve(self):
        program = IlpProgram()
        for step in self.STEPS:
            self.add(step, program)
        solve(program)
        translate_clause(clause([], ["q"]), program, frozenset())
        translate_clause(clause([], ["r"]), program, frozenset())
        with pytest.raises(Infeasible):
            solve(program)
        with pytest.raises(Infeasible):
            solve(program)

    def test_weight_added_to_a_solved_variable(self):
        # a negative weight is weighed once its atom is true, so its
        # entry lands on an old variable; it must not be carried, as it can
        # change which old values are optimal
        program = IlpProgram()
        weigh(program, atom("p"), Fraction(1, 2))
        weigh(program, atom("q"), Fraction(1, 2))
        translate_clause(clause([], ["p", "q"]), program, frozenset())
        assert solve(program) == ([0, 1], Fraction(1, 2))  # x_p, x_q
        weigh(program, atom("q"), Fraction(-1))
        assert solve(program) == solve(_copy(program)) == ([1, 0], Fraction(1, 2))

    def test_infeasible_after_a_merge(self):
        # the last clause merges p's component into the larger {q, r}, whose
        # constraints come first in the merged list; the merged component is
        # infeasible
        program = IlpProgram()
        translate_clause(clause(["p"], []), program, frozenset())
        translate_clause(clause(["q", "r"], []), program, frozenset())
        translate_clause(clause([], ["q"]), program, frozenset())
        solve(program)
        translate_clause(clause([], ["p", "r"]), program, frozenset())
        with pytest.raises(Infeasible):
            solve(program)


class TestDump:
    def test_sections_and_stability(self):
        program = IlpProgram()
        weigh(program, atom("p"), Fraction(8, 10))
        translate_clause(clause(["p"], []), program, frozenset())
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
        weigh(program, self.NOMINAL, Fraction(1, 2))
        translate_clause(ViolatedClause(frozenset({self.NAMED}), frozenset({self.NOMINAL}), "F3"), program)
        translate_clause(ViolatedClause(frozenset({value}), frozenset({self.NAMED}), "F3"), program)
        weigh(program, value, Fraction(-3, 4))
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
            "from probel.model import Nominal\n"
            "from probel.translate import Atom\n"
            "atoms = frozenset({Atom('sub', ('C', Nominal('a'))), Atom('sub', ('C', 'nom_a'))})\n"
            "program = IlpProgram()\n"
            "translate_clause(ViolatedClause(atoms, frozenset(), 'F3'), program)\n"
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

    # the last program map_inference solves, over the example KBs and random
    # KBs in both domains: the clause text and the variable declaration
    # order, which drives the tie-break, stay as they are under any hash seed
    CONVERGED = (
        "import hashlib, json, random, sys\n"
        "from pathlib import Path\n"
        "import probel.ilp\n"
        "from probel.engine import ReasonerConfig, map_inference\n"
        "from probel.kbformat import parse_kb\n"
        "from probel.randgen import random_kb\n"
        "def converged(kb, domain):\n"
        "    dumps, solve = [], probel.ilp.solve\n"
        "    def wrapped(program):\n"
        "        dumps.append(probel.ilp.dump(program))\n"
        "        return solve(program)\n"
        "    probel.ilp.solve = wrapped\n"
        "    try:\n"
        "        map_inference(kb, ReasonerConfig(domain))\n"
        "    finally:\n"
        "        probel.ilp.solve = solve\n"
        "    return dumps[-1]\n"
        "out = {}\n"
        "for name in ('toddler.kb', 'two_year_old.kb'):\n"
        "    kb = parse_kb((Path(sys.argv[1]) / name).read_text()).kb\n"
        "    out[name] = [converged(kb, domain) for domain in ('real', 'integer')]\n"
        "rng, digest, clauses = random.Random(30), hashlib.sha256(), 0\n"
        "for _ in range(30):\n"
        "    kb = random_kb(rng)\n"
        "    for domain in ('real', 'integer'):\n"
        "        text = converged(kb, domain)\n"
        "        clauses += text.count(' >= ')\n"
        "        digest.update(text.encode())\n"
        "out['random'] = [clauses, digest.hexdigest()]\n"
        "print(json.dumps(out))\n"
    )
    TODDLER = (
        "OBJECTIVE\n"
        "  0.8 x_rsupEx_Toddler_age_le_3\n"
        "  0.7 x_rsubEx_age_le_3_Person\n"
        "  0.1 x_sub_Toddler_Adult\n"
        "  0.7 x_rinst_john_age_2\n"
        "CONSTRAINTS\n"
        "  +1 x_sub_Toddler_BOT -1 x_sub_Toddler_Adult >= 0\n"
        "  +1 x_sub_Toddler_Person -1 x_rsubEx_age_le_3_Person -1 x_rsupEx_Toddler_age_le_3 >= -1\n"
        "  +1 x_inst_john_Person -1 x_rinst_john_age_2 -1 x_rsubEx_age_le_3_Person >= -1\n"
        "  +1 x_inst_john_TOP -1 x_inst_john_Person >= 0\n"
        "  -1 x_sub_Toddler_BOT >= 0\n"
        "BINARY\n"
        "  x_rsupEx_Toddler_age_le_3\n"
        "  x_rsubEx_age_le_3_Person\n"
        "  x_sub_Toddler_Adult\n"
        "  x_rinst_john_age_2\n"
        "  x_sub_Toddler_BOT\n"
        "  x_sub_Toddler_Person\n"
        "  x_inst_john_Person\n"
        "  x_inst_john_TOP\n"
    )
    TWO_YEAR_OLD = (
        "OBJECTIVE\n"
        "  0.7 x_rsupEx_TwoYearOld_age_eq_2\n"
        "  0.8 x_rsubEx_age_le_3_Toddler\n"
        "CONSTRAINTS\n"
        "  +1 x_sub_TwoYearOld_Toddler -1 x_rsubEx_age_le_3_Toddler -1 x_rsupEx_TwoYearOld_age_eq_2 >= -1\n"
        "BINARY\n"
        "  x_rsupEx_TwoYearOld_age_eq_2\n"
        "  x_rsubEx_age_le_3_Toddler\n"
        "  x_sub_TwoYearOld_Toddler\n"
    )

    def test_converged_programs_are_pinned_under_any_hash_seed(self):
        root = Path(__file__).resolve().parents[1]
        outputs = [
            json.loads(subprocess.run(
                [sys.executable, "-c", self.CONVERGED, str(root / "kbs")], capture_output=True, text=True,
                check=True, env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(root / "src")},
            ).stdout)
            for seed in ("0", "1")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0]["toddler.kb"] == [self.TODDLER] * 2
        assert outputs[0]["two_year_old.kb"] == [self.TWO_YEAR_OLD] * 2
        assert outputs[0]["random"] == [112, "762ce00e4deafb862b5cc84a5f54460647a426dc3b7c49c28cdee2cdeb8f433d"]

    def test_every_returned_assignment_satisfies_every_clause(self):
        rng = random.Random(31)
        for _ in range(10):
            program = _random_program(rng)
            try:
                assignment, _ = solve(program)
            except Infeasible:
                continue
            for positive, negative in program.constraints:
                assert any(assignment[v] for v in positive) or not all(assignment[v] for v in negative)
