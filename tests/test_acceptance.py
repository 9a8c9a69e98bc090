"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.
"""
import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from probel.cli import main as cli_main
from probel.engine import brute_force_distribution, map_inference, probability_of
from probel.grounding import CALCULUS, eval_op, find_violated, saturate
from probel.ilp import IlpProgram, Infeasible, solve, translate_clause
from probel.grounding import ViolatedClause
from probel.model import BOT, Gci, INFINITE, OPERATORS
from probel.randgen import random_kb
from probel.translate import Atom, phi, rule_templates

from oracles import containment_oracle, enumerate_solve, naive_find_violated

RANDOM_KB_COUNT = 200
RANDOM_PROGRAM_COUNT = 100


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(list(argv))
    return code, buffer.getvalue()


@pytest.fixture(scope="session")
def map_sweep():
    """MAP results for the 200 random KBs, shared by criteria 4, 6 and 7."""
    rng = random.Random(20240517)
    results = []
    started = time.perf_counter()
    for _ in range(RANDOM_KB_COUNT):
        kb = random_kb(rng)
        result = map_inference(kb)
        dist = brute_force_distribution(kb)
        results.append((kb, result, dist))
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_criterion_1_weighted_age_example(toddler_kb, toddler_path, toddler_query_path):
    started = time.perf_counter()
    result = map_inference(toddler_kb)
    assert result.objective == Fraction(22, 10)
    assert [ws.statement for ws in result.rejected] == [Gci("Toddler", "Adult")]
    assert probability_of(toddler_kb, [Gci("Toddler", "Adult")]) == 0
    code, out = run_cli("solve", str(toddler_path), "--format", "json")
    assert code == 0 and '"objective": "2.2"' in out
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"CRITERION 1: PASS  objective 2.2 exact, conflicting axiom rejected, P=0  ({elapsed:.2f}s)")


def test_criterion_2_datatype_subsumption_example(two_year_old_kb):
    started = time.perf_counter()
    assert eval_op("=", Fraction(2), "<=", Fraction(3)) is True
    result = map_inference(two_year_old_kb)
    assert result.objective == Fraction(15, 10)
    assert Gci("TwoYearOld", "Toddler") in result.classified
    # the subsumption must come from the datatype bridge rule
    unc_atoms = frozenset(phi(ws.statement) for ws in two_year_old_kb.uncertain)
    fired = [
        v for v in find_violated(CALCULUS, unc_atoms)
        if v.template_id == "F13" and Atom("sub", ("TwoYearOld", "Toddler")) in v.positive
    ]
    assert fired
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"CRITERION 2: PASS  objective 1.5 exact, subsumption derived via eval(=,2,<=,3)  ({elapsed:.2f}s)")


def test_criterion_3_eval_table_and_oracle_grid():
    started = time.perf_counter()
    rows = [
        ("<=", "<", lambda a, b: a < b),
        ("<=", "<=", lambda a, b: a <= b),
        ("=", "<", lambda a, b: a < b),
        ("=", "<=", lambda a, b: a <= b),
        ("=", "=", lambda a, b: a == b),
        ("=", ">=", lambda a, b: a >= b),
        ("=", ">", lambda a, b: a > b),
        (">=", ">=", lambda a, b: a >= b),
        (">=", ">", lambda a, b: a > b),
        (">", ">", lambda a, b: a >= b),
    ]
    grid = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
    for o1, o2, relation in rows:
        for v1 in grid:
            for v2 in grid:
                assert eval_op(o1, v1, o2, v2) == relation(v1, v2)
    cases = 0
    for shift in (Fraction(0), Fraction(1, 2)):
        for o1 in OPERATORS:
            for o2 in OPERATORS:
                for v1 in grid:
                    for v2 in grid:
                        a, b = v1 + shift, v2 + shift
                        assert eval_op(o1, a, o2, b) == containment_oracle(o1, a, o2, b)
                        cases += 1
    assert cases == 1250
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(f"CRITERION 3: PASS  10 table rows and {cases} oracle cases exact  ({elapsed:.2f}s)")


def test_criterion_4_engine_oracle_equivalence(map_sweep):
    results, elapsed = map_sweep
    started = time.perf_counter()
    for kb, result, dist in results:
        best = max(w.score for w in dist.worlds)
        assert result.objective == best
        templates = rule_templates(kb.signature)
        atoms = [phi(ws.statement) for ws in kb.deterministic + result.selected]
        closure = saturate(templates, atoms).atoms
        assert closure in {w.atoms for w in dist.worlds if w.score == best}
    elapsed += time.perf_counter() - started
    assert elapsed < 120.0
    print(
        f"CRITERION 4: PASS  {RANDOM_KB_COUNT} KBs, exact objective equality and argmax closure match  ({elapsed:.1f}s)"
    )


def _random_program(rng):
    program = IlpProgram()
    atoms = [Atom("sub", (f"a{i}", f"a{i}")) for i in range(rng.randint(3, 16))]
    while len(program.constraints) < rng.randint(4, 40):
        size = rng.randint(1, 3)
        chosen = rng.sample(atoms, min(size, len(atoms)))
        split = rng.randint(0, len(chosen))
        pos, neg = frozenset(chosen[:split]), frozenset(chosen[split:])
        if not pos and not neg:
            continue
        draw = rng.random()
        if draw < 0.45:
            weight = INFINITE
        elif draw < 0.75:
            weight = Fraction(rng.randint(1, 20), 10)
        else:
            weight = Fraction(-rng.randint(1, 20), 10)
        if weight is INFINITE:
            translate_clause(ViolatedClause(pos, neg, "F3"), program, frozenset())
        else:  # a weight goes on one atom's variable
            program.objective.append((program.atom_var(chosen[0]), weight))
        if len(program.variables) >= 15:
            break
    return program


def test_criterion_5_ilp_against_enumeration():
    started = time.perf_counter()
    rng = random.Random(31337)
    solved = 0
    while solved < RANDOM_PROGRAM_COUNT:
        program = _random_program(rng)
        if len(program.variables) > 15 or len(program.constraints) > 40:
            continue
        expected = enumerate_solve(program)
        try:
            assignment, value = solve(program)
        except Infeasible:
            assert expected is None
            solved += 1
            continue
        assert expected is not None
        assert value == expected[1]
        assert assignment == expected[0]
        solved += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"CRITERION 5: PASS  {solved} programs exact vs exhaustive enumeration  ({elapsed:.1f}s)")


def test_criterion_6_coherence_and_hard_clauses(map_sweep, toddler_kb, two_year_old_kb):
    started = time.perf_counter()
    results, _ = map_sweep
    sample = [(toddler_kb, map_inference(toddler_kb)), (two_year_old_kb, map_inference(two_year_old_kb))]
    sample += [(kb, result) for kb, result, _ in results]
    for kb, result in sample:
        for atom in result.atoms:
            assert not (atom.pred == "sub" and atom.args[1] == BOT and atom.args[0] != BOT)
        templates = rule_templates(kb.signature)
        assert not naive_find_violated(templates, result.atoms, kb.signature)
    elapsed = time.perf_counter() - started
    print(
        f"CRITERION 6: PASS  no sub(C,BOT) and every hard ground clause satisfied "
        f"across {len(sample)} assignments  ({elapsed:.1f}s)"
    )


def test_criterion_7_closure_idempotence(map_sweep):
    started = time.perf_counter()
    results, _ = map_sweep
    for kb, result, _ in results:
        assert find_violated(CALCULUS, result.atoms) == []
    elapsed = time.perf_counter() - started
    print(f"CRITERION 7: PASS  one extra grounding pass adds nothing on {len(results)} MAP results  ({elapsed:.1f}s)")


def test_criterion_8_byte_identical_reports(toddler_path, two_year_old_path):
    started = time.perf_counter()
    for path in (toddler_path, two_year_old_path):
        for fmt in ("text", "json"):
            outputs = {run_cli("solve", str(path), "--format", fmt) for _ in range(10)}
            assert len(outputs) == 1
    elapsed = time.perf_counter() - started
    print(f"CRITERION 8: PASS  10 repetitions byte-identical for both examples  ({elapsed:.1f}s)")


def test_criterion_9_exclusions_documented():
    print(
        "CRITERION 9: SKIPPED  complexity-theoretic results and large-ontology "
        "benchmarks are out of scope by design"
    )
