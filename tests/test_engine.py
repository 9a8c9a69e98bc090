import gc
import importlib.util
import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, assume, given, settings

from probel import engine, ilp
from probel.engine import (
    EnumerationCapExceeded,
    IncoherentDeterministic,
    ReasonerConfig,
    brute_force_distribution,
    classify_deterministic,
    explain_selection,
    map_inference,
    probability_of,
)
from probel.grounding import CALCULUS, find_violated, incoherence_atoms, saturate
from probel.kbformat import KEYWORDS, MAX_NESTING, parse_kb, serialize_kb
from probel.model import (
    And,
    BOT,
    ConceptAssertion,
    Gci,
    INFINITE,
    KnowledgeBase,
    Nominal,
    WeightedStatement,
    axiom_names,
    make_signature,
    validate,
)
from probel.randgen import random_kb
from probel.translate import Atom, atom_sort_key, phi, phi_inverse, rule_templates

from oracles import naive_find_violated, naive_saturate
from strategies import SIG, data_statements, fine_data_somes, individuals, normal_statements, plain_concepts


class TestWeightedAgeExample:
    """The four-statement KB with a hard Toddler/Adult disjointness."""

    def test_objective_and_selection(self, toddler_kb):
        result = map_inference(toddler_kb)
        assert result.objective == Fraction(22, 10)
        rejected = [ws.statement for ws in result.rejected]
        assert rejected == [Gci("Toddler", "Adult")]
        assert len(result.selected) == 3

    def test_person_membership_is_classified(self, toddler_kb):
        result = map_inference(toddler_kb)
        assert Atom("inst", ("john", "Person")) in result.atoms
        assert ConceptAssertion("Person", "john") in result.classified

    def test_incoherent_choice_has_probability_zero(self, toddler_kb):
        assert probability_of(toddler_kb, [Gci("Toddler", "Adult")]) == 0

    def test_empty_query_has_probability_one(self, toddler_kb):
        assert probability_of(toddler_kb, []) == 1

    def test_world_scores(self, toddler_kb):
        dist = brute_force_distribution(toddler_kb)
        scores = sorted((w.score for w in dist.worlds), reverse=True)
        assert scores == [
            Fraction(22, 10),
            Fraction(15, 10),
            Fraction(15, 10),
            Fraction(14, 10),
            Fraction(8, 10),
            Fraction(7, 10),
            Fraction(7, 10),
            Fraction(0),
        ]

    def test_empty_world_present_with_zero_score(self, toddler_kb):
        dist = brute_force_distribution(toddler_kb)
        assert any(w.score == 0 for w in dist.worlds)

    def test_probabilities_sum_to_one(self, toddler_kb):
        dist = brute_force_distribution(toddler_kb)
        total = sum(float(w.probability) for w in dist.worlds)
        assert abs(total - 1.0) < 1e-12
        # exact: the union of numerators is the partition itself
        from probel.engine import ExpSum

        assert ExpSum.of(w.score for w in dist.worlds) == dist.partition


class TestTwoYearOldExample:
    def test_objective_and_derived_subsumption(self, two_year_old_kb):
        result = map_inference(two_year_old_kb)
        assert result.objective == Fraction(15, 10)
        assert Gci("TwoYearOld", "Toddler") in result.classified
        assert Atom("sub", ("TwoYearOld", "Toddler")) in result.atoms

    def test_oracle_agrees(self, two_year_old_kb):
        dist = brute_force_distribution(two_year_old_kb)
        assert max(w.score for w in dist.worlds) == Fraction(15, 10)
        assert len(dist.worlds) == 4


class TestEdgeCases:
    def test_empty_uncertain_part(self):
        sig = make_signature(concepts=("A", "B"))
        kb = KnowledgeBase(sig, (WeightedStatement(Gci("A", "B"), INFINITE),), ())
        result = map_inference(kb)
        assert result.objective == 0 and type(result.objective) is Fraction
        assert result.selected == ()
        assert Gci("A", "B") in result.classified
        templates = rule_templates(sig)
        closure = saturate(templates, [phi(Gci("A", "B"))]).atoms
        assert result.atoms == closure

    def test_negative_weight_paid_when_closure_entails(self):
        # the hard chain forces sub(A, C); the -0.5 statement is entailed
        # involuntarily and its penalty shows up in the objective
        sig = make_signature(concepts=("A", "B", "C"))
        kb = KnowledgeBase(
            sig,
            (
                WeightedStatement(Gci("A", "B"), INFINITE),
                WeightedStatement(Gci("B", "C"), INFINITE),
            ),
            (WeightedStatement(Gci("A", "C"), Fraction(-1, 2)),),
        )
        result = map_inference(kb)
        assert result.objective == Fraction(-1, 2)
        assert [ws.statement for ws in result.selected] == [Gci("A", "C")]
        dist = brute_force_distribution(kb)
        assert max(w.score for w in dist.worlds) == Fraction(-1, 2)

    def test_incoherent_deterministic_part(self):
        sig = make_signature(concepts=("A", "B"))
        kb = KnowledgeBase(
            sig,
            (
                WeightedStatement(Gci("A", "B"), INFINITE),
                WeightedStatement(Gci("A", BOT), INFINITE),
            ),
            (),
        )
        with pytest.raises(IncoherentDeterministic) as err:
            map_inference(kb)
        assert [ws.statement for ws in err.value.core] == [Gci("A", BOT)]

    def test_many_independent_statements(self):
        # 1500 disconnected ILP components; a search whose depth grows with
        # the program raises RecursionError here
        n = 1500
        concepts = [f"A{i}" for i in range(n)] + [f"B{i}" for i in range(n)]
        sig = make_signature(concepts=concepts)
        unc = tuple(WeightedStatement(Gci(f"A{i}", f"B{i}"), Fraction(1, 2)) for i in range(n))
        result = map_inference(KnowledgeBase(sig, (), unc))
        assert result.objective == 750
        assert len(result.selected) == n

    def test_enumeration_cap(self):
        sig = make_signature(concepts=("A", "B"))
        unc = tuple(
            WeightedStatement(Gci("A", "B"), Fraction(i, 10)) for i in range(1, 4)
        )
        kb = KnowledgeBase(sig, (), unc)
        with pytest.raises(EnumerationCapExceeded):
            brute_force_distribution(kb, ReasonerConfig(enumeration_cap=2))

    def test_negative_enumeration_cap_is_rejected(self):
        # it would report an empty KB as exceeding the cap
        with pytest.raises(ValueError, match="enumeration_cap must be >= 0, not -1"):
            brute_force_distribution(parse_kb("").kb, ReasonerConfig(enumeration_cap=-1))
        assert brute_force_distribution(parse_kb("").kb, ReasonerConfig(enumeration_cap=0)).worlds

    def test_unknown_value_domain_is_rejected(self):
        # it would be solved over the reals without a word
        with pytest.raises(ValueError, match="domain must be 'real' or 'integer', not 'rational'"):
            ReasonerConfig(domain="rational")

    def test_classify_is_deterministic_only(self, toddler_kb):
        classified = classify_deterministic(toddler_kb)
        assert Gci(And(("Toddler", "Adult")), BOT) in classified
        assert Gci("Toddler", "Person") not in classified


# statements that together, and not alone, put a concept under BOT: a name
# under two nominals, which the unique-name clause parts; a name under both
# sides of a conjunction under BOT; and the same through a datatype
# restriction that the other one contains, in one domain or in both
_conflicts = st.one_of(
    st.builds(lambda c, x, y: [Gci(c, Nominal(x)), Gci(c, Nominal(y))], plain_concepts, individuals, individuals),
    st.builds(lambda c, d, e: [Gci(And((d, e)), BOT), Gci(c, d), Gci(c, e)], plain_concepts, plain_concepts, plain_concepts),
    st.builds(lambda c, d, inner, outer: [Gci(c, inner), Gci(outer, d), Gci(And((c, d)), BOT)],
              plain_concepts, plain_concepts, fine_data_somes, fine_data_somes),
)


def test_the_incoherent_core_is_minimal():
    # deletion filtering over drawn incoherent deterministic parts, in both
    # domains: the reported core keeps the statement order, is incoherent
    # alone and turns coherent without any one of its statements
    templates = rule_templates(SIG)
    cores = {"real": 0, "integer": 0}

    def incoherent(statements, domain):
        return bool(incoherence_atoms(saturate(templates, [phi(s) for s in statements], domain=domain).atoms))

    @settings(max_examples=40, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
    @given(st.lists(normal_statements, max_size=8), st.lists(data_statements, max_size=2), _conflicts,
           st.sampled_from(("real", "integer")), st.randoms(use_true_random=False))
    def draw(statements, data, conflict, domain, rng):
        # no statement incoherent alone, so that every core takes deletions
        statements = [s for s in dict.fromkeys(statements + data + conflict) if not incoherent([s], domain)]
        rng.shuffle(statements)
        assume(incoherent(statements, domain))
        kb = KnowledgeBase(SIG, tuple(WeightedStatement(s, INFINITE) for s in statements), ())
        with pytest.raises(IncoherentDeterministic) as err:
            classify_deterministic(kb, ReasonerConfig(domain=domain))
        core = [ws.statement for ws in err.value.core]
        assert core == [s for s in statements if s in core]
        assert incoherent(core, domain)
        assert len(core) >= 2
        assert not any(incoherent(core[:i] + core[i + 1:], domain) for i in range(len(core)))
        cores[domain] += 1

    draw()
    assert all(count >= 5 for count in cores.values()), cores


class TestEngineOracleAgreement:
    def test_objective_and_closure_match(self):
        rng = random.Random(1234)
        for _ in range(25):
            kb = random_kb(rng)
            result = map_inference(kb)
            dist = brute_force_distribution(kb)
            best = max(w.score for w in dist.worlds)
            assert result.objective == best
            templates = rule_templates(kb.signature)
            atoms = [phi(ws.statement) for ws in kb.deterministic + result.selected]
            closure = saturate(templates, atoms).atoms
            assert closure in {w.atoms for w in dist.worlds if w.score == best}

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_a_tie_goes_to_the_smallest_entailed_statement_vector(self, domain):
        # among the oracle's top-score worlds, MAP returns the one whose
        # vector of entailed uncertain statements, in statement order with
        # false before true, is smallest
        config = ReasonerConfig(domain=domain)
        rng = random.Random(1)
        tied = 0
        for _ in range(50):
            kb = random_kb(rng, max_uncertain=10)
            result = map_inference(kb, config)
            worlds = brute_force_distribution(kb, config).worlds
            top = [w for w in worlds if w.score == result.objective]
            units = [phi(ws.statement) for ws in kb.uncertain]
            first = min(top, key=lambda w: [a in w.atoms for a in units])
            assert result.atoms == first.atoms, kb
            tied += len(top) > 1
        assert tied >= 10, tied

    def test_statement_order_does_not_change_the_optimum(self):
        # the declared-order tie-break follows the statement order, so a
        # reversed KB may pick another world among equal optima: the
        # objective is the same everywhere, the world only where the oracle
        # shows a single top-scoring one. The second input reaches past the
        # oracle (up to 60 uncertain statements).
        inputs = (
            (random.Random(31), 8, dict(max_uncertain=6)),
            (random.Random(5), 30, dict(max_concepts=12, max_individuals=4, max_uncertain=60)),
        )
        for rng, count, sizes in inputs:
            for _ in range(count):
                kb = random_kb(rng, **sizes)
                base = map_inference(kb)
                reversed_kb = KnowledgeBase(
                    kb.signature,
                    tuple(reversed(kb.deterministic)),
                    tuple(reversed(kb.uncertain)),
                )
                again = map_inference(reversed_kb)
                assert again.objective == base.objective
                for result in (base, again):
                    assert sum((ws.weight for ws in result.selected), Fraction(0)) == result.objective
                if len(kb.uncertain) <= 6:
                    top = [w for w in brute_force_distribution(kb).worlds if w.score == base.objective]
                    if len(top) == 1:
                        assert again.atoms == base.atoms == top[0].atoms
                        assert set(again.selected) == set(base.selected)

    def test_scaling_weights_preserves_selection(self):
        # the second input reaches past the oracle (up to 60 uncertain
        # statements, 1-5 cutting-plane rounds), and 3/7 is off the tenths grid
        inputs = (
            (random.Random(77), 10, dict(max_uncertain=6), 3),
            (random.Random(5), 30, dict(max_concepts=12, max_individuals=4, max_uncertain=60),
             Fraction(3, 7)),
        )
        for rng, count, sizes, factor in inputs:
            for _ in range(count):
                kb = random_kb(rng, **sizes)
                base = map_inference(kb)
                scaled_kb = KnowledgeBase(
                    kb.signature,
                    kb.deterministic,
                    tuple(WeightedStatement(ws.statement, ws.weight * factor) for ws in kb.uncertain),
                )
                scaled = map_inference(scaled_kb)
                assert scaled.objective == base.objective * factor
                assert [ws.statement for ws in scaled.selected] == [
                    ws.statement for ws in base.selected
                ]

    def test_disjoint_union_adds_the_objectives(self):
        # statements with a nominal or with TOP on the left of an inclusion
        # would link the two renamed-apart signatures, so they are dropped
        def separable(kb, suffix):
            lines = []
            for line in serialize_kb(kb).splitlines():
                if "{" in line or re.search(r"\bTOP\b", line.partition("SUBCLASSOF")[0]):
                    continue
                lines.append(re.sub(r"\b[A-Za-z]\w*", lambda m: m.group() if m.group() in KEYWORDS
                                    else m.group() + suffix, line))
            return lines

        rng = random.Random(8)
        for _ in range(60):
            first = separable(random_kb(rng, max_uncertain=40), "1")
            second = separable(random_kb(rng, max_uncertain=40), "2")
            objective = [map_inference(parse_kb("\n".join(lines)).kb).objective
                         for lines in (first, second, first + second)]
            assert objective[2] == objective[0] + objective[1]


class TestMetamorphicMap:
    """Relations between the MAP objectives of two KBs, at sizes the
    enumeration oracle cannot reach (up to 60 uncertain statements). Each
    follows from the objective being the largest sum, over the coherent
    closed worlds, of the weights of the uncertain statements a world
    entails."""

    COUNT = 40

    @staticmethod
    def solved_kbs(seed, domain):
        """Random KBs with their MAP result, skipping those whose
        deterministic part is incoherent in ``domain``. Each result is first
        checked against the minimal-model lemma: the MAP world is the closure
        of the deterministic statements and the selected positive-weight
        ones, since the hard rules are Horn and incoherence persists."""
        rng = random.Random(seed)
        config = ReasonerConfig(domain=domain)
        found = []
        while len(found) < TestMetamorphicMap.COUNT:
            kb = random_kb(rng, max_uncertain=60)
            try:
                result = map_inference(kb, config)
            except IncoherentDeterministic:
                continue
            atoms = [phi(ws.statement) for ws in kb.deterministic]
            atoms += [phi(ws.statement) for ws in result.selected if ws.weight > 0]
            assert result.atoms == saturate(rule_templates(kb.signature), atoms, domain).atoms
            found.append((kb, result, rng))
        return config, found

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_zero_weight_statements_never_move_the_objective(self, domain):
        # zero-weight copies of the KB's own uncertain statements, and
        # statements of another random KB over this KB's names; a new name
        # would change the signature, and with it the facts
        config, solved = self.solved_kbs(41, domain)
        added = 0
        for kb, result, rng in solved:
            sig = kb.signature
            names = {"concept": sig.concepts, "role": sig.roles, "feature": sig.features,
                     "individual": sig.individuals}
            hard = {ws.statement for ws in kb.deterministic}
            other = [ws.statement for ws in random_kb(rng, max_uncertain=60).uncertain]
            zero = rng.sample([ws.statement for ws in kb.uncertain], min(5, len(kb.uncertain)))
            zero += [s for s in other if s not in hard and all(n in names[sort] for sort, n in axiom_names(s))]
            added += len(zero)
            wider = KnowledgeBase(
                sig, kb.deterministic, kb.uncertain + tuple(WeightedStatement(s, Fraction(0)) for s in zero)
            )
            assert map_inference(wider, config).objective == result.objective
        assert added >= 2 * self.COUNT

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_raising_a_selected_weight_raises_the_objective_by_the_difference(self, domain):
        # a world without the statement scored at most the optimum before,
        # so only worlds with it reach the raised optimum
        config, solved = self.solved_kbs(42, domain)
        raised_count = 0
        for kb, result, rng in solved:
            if not result.selected:
                continue
            raised_count += 1
            index = kb.uncertain.index(rng.choice(result.selected))
            raise_by = Fraction(rng.randint(1, 15), 10)
            uncertain = list(kb.uncertain)
            uncertain[index] = WeightedStatement(uncertain[index].statement, uncertain[index].weight + raise_by)
            raised = map_inference(KnowledgeBase(kb.signature, kb.deterministic, tuple(uncertain)), config)
            assert raised.objective == result.objective + raise_by
            assert uncertain[index] in raised.selected
        assert raised_count >= self.COUNT // 2

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_making_a_selected_statement_hard_lowers_the_objective_by_its_weight(self, domain):
        # the MAP world stays coherent with the statement hard, and no world
        # that entails it scored more before
        config, solved = self.solved_kbs(43, domain)
        moved = 0
        for kb, result, rng in solved:
            counts = Counter(phi(ws.statement) for ws in kb.uncertain)
            once = [ws for ws in result.selected if counts[phi(ws.statement)] == 1]
            if not once:
                continue
            ws = rng.choice(once)
            hard = KnowledgeBase(
                kb.signature,
                kb.deterministic + (WeightedStatement(ws.statement, INFINITE),),
                tuple(other for other in kb.uncertain if other != ws),
            )
            assert map_inference(hard, config).objective == result.objective - ws.weight
            moved += 1
        assert moved >= self.COUNT // 2


class TestMapInvariants:
    def test_no_bottom_subsumer_in_map_world(self, toddler_kb):
        result = map_inference(toddler_kb)
        for atom in result.atoms:
            if atom.pred == "sub" and atom.args[1] == BOT:
                assert atom.args[0] == BOT

    def test_closure_idempotent(self, toddler_kb):
        result = map_inference(toddler_kb)
        assert find_violated(CALCULUS, result.atoms) == []

    def test_every_hard_ground_clause_satisfied_independently(self, toddler_kb):
        result = map_inference(toddler_kb)
        templates = rule_templates(toddler_kb.signature)
        assert not naive_find_violated(templates, result.atoms, toddler_kb.signature)

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_the_compiled_closure_meets_every_hard_constraint(self, domain):
        # every constraint is hard and comes from a rule grounding or from
        # COH, and the closure holds the facts, is closed and is coherent: so
        # no MAP program is infeasible. Every variable is an atom's, and the
        # objective is the uncertain statements' weights on their atoms, at
        # most one entry per statement. The closure's atoms are substituted
        # out, so programs are small: 200 KBs give fewer than 500 constraints
        config = ReasonerConfig(domain=domain)
        rng = random.Random(23)
        checked = entries = 0
        for _ in range(300):
            kb = random_kb(rng, max_uncertain=16)
            compiled = engine._compile(kb, config)
            program = ilp.IlpProgram()
            engine._cutting_planes(kb, compiled, config, program)
            assert all(isinstance(a, Atom) for a in program.variables), kb
            weighted = Counter((program.variables[v], w) for v, w in program.objective)
            assert not weighted - Counter((phi(ws.statement), ws.weight) for ws in kb.uncertain), kb
            entries += len(program.objective)
            assignment = [int(a in compiled.closure.atoms) for a in program.variables]
            for con in program.constraints:
                assert ilp._holds(con, assignment), (kb, con)
                checked += 1
        assert checked >= 500 and entries >= 500, (checked, entries)

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_each_translated_clause_declares_at_most_one_atom_variable(self, domain, monkeypatch):
        # a clause's body atoms are true in the world it is grounded against,
        # so each is fixed true or already a variable: at most its head is new,
        # and the order translate_clause puts its atoms in never decides the
        # order variables are declared in. Only the rule clauses and the
        # FORCE clauses are translated, so 100 KBs give about 1700 of them
        config = ReasonerConfig(domain=domain)
        translate, declared = ilp.translate_clause, Counter()

        def counting(clause, program, *args):
            before = len(program.variables)
            made = translate(clause, program, *args)
            declared[len(program.variables) - before] += 1
            return made

        monkeypatch.setattr(ilp, "translate_clause", counting)
        rng = random.Random(29)
        for _ in range(100):
            kb = random_kb(rng, max_uncertain=12)
            explain_selection(kb, map_inference(kb, config), config)
        assert set(declared) == {0, 1}, declared
        assert sum(declared.values()) >= 1500, declared

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_no_converged_program_holds_two_equal_clauses(self, domain, monkeypatch):
        # two rules can translate to one clause once the fixed atoms are
        # substituted out: F14 over sub(Person, TOP) and F22 over
        # sub(TOP, TOP) both give +1 inst(john,TOP) -1 inst(john,Person).
        # The program holds it once; ``repeats`` counts the translations
        # that made nothing though no literal was fixed true or repeated
        config = ReasonerConfig(domain=domain)
        translate, solve = ilp.translate_clause, ilp.solve
        programs, repeats = [], 0

        def counting(clause, program, fixed_true=frozenset()):
            nonlocal repeats
            made = translate(clause, program, fixed_true)
            repeats += not made and clause.positive.isdisjoint(fixed_true | clause.negative)
            return made

        monkeypatch.setattr(ilp, "translate_clause", counting)
        monkeypatch.setattr(ilp, "solve", lambda program: programs.append(program) or solve(program))
        rng = random.Random(37)
        kbs = [random_kb(rng, max_uncertain=12) for _ in range(100)]
        kbs += [parse_kb(_g_kb(random.Random(seed), 30, 50, 4)).kb for seed in range(3)]
        clauses = 0
        for kb in kbs:
            programs.clear()
            map_inference(kb, config)
            constraints = programs[-1].constraints
            assert len(set(constraints)) == len(constraints), kb
            clauses += len(constraints)
        assert clauses >= 100 and repeats >= 20, (clauses, repeats)


def _reference_distribution(kb, domain):
    """The world distribution built from tests/oracles.py alone, as
    (atoms, score) pairs in the oracle's order.

    Every subset S of the uncertain statements is closed by naive_saturate
    together with the deterministic part, as cl(cl(S - {x}) + {x}) for the
    member x of highest index, which equals cl(S) because the closure is
    monotone and idempotent; the oracle takes the member of lowest index
    instead. Incoherent worlds are dropped and the rest deduplicated by
    closure, scored by the uncertain statements each entails, and sorted
    by descending score, then by their sorted atom keys."""
    templates = rule_templates(kb.signature)
    units = [phi(ws.statement) for ws in kb.uncertain]
    closures = [naive_saturate(templates, [phi(ws.statement) for ws in kb.deterministic], kb.signature, domain)]
    for mask in range(1, 1 << len(units)):
        high = mask.bit_length() - 1
        parent = closures[mask ^ (1 << high)]
        if units[high] in parent[0]:
            closures.append(parent)
        else:
            closures.append(naive_saturate(templates, parent[0] | {units[high]}, kb.signature, domain))
    worlds = {}
    for closure, conflicts in closures:
        if not conflicts:
            worlds[closure] = sum((ws.weight for ws, a in zip(kb.uncertain, units) if a in closure), Fraction(0))
    return sorted(worlds.items(), key=lambda w: (-w[1], sorted(map(atom_sort_key, w[0]))))


@pytest.mark.parametrize("domain", ("real", "integer"))
def test_oracle_matches_an_independent_enumeration(domain):
    # up to 10 uncertain statements, so the walk hands closures down and
    # releases them up to 10 levels deep; no individuals, because each one
    # multiplies the naive reference's cross product, which runs once per
    # subset
    rng = random.Random(3)
    counts = []
    for _ in range(3):
        kb = random_kb(rng, max_concepts=2, max_individuals=0, max_uncertain=10)
        counts.append(len(kb.uncertain))
        dist = brute_force_distribution(kb, ReasonerConfig(domain=domain))
        reference = _reference_distribution(kb, domain)
        assert [(w.atoms, w.score) for w in dist.worlds] == reference
        partition = tuple(sorted(Counter(score for _, score in reference).items()))
        for world in dist.worlds:
            assert world.statements == tuple(phi_inverse(a) for a in sorted(world.atoms, key=atom_sort_key))
            assert world.probability.numerator.terms == ((world.score, 1),)
            assert world.probability.denominator.terms == partition
    assert max(counts) == 10


# each KB reaches a subtree the oracle's walk skips or a world it names by
# the statements it entails: a statement the deterministic part entails; one
# statement twice with two weights; a statement two others entail (over the
# integers only, in the datatype one); a pair whose union is incoherent; and
# individuals
PRUNED_BRANCH_KBS = (
    "A SUBCLASSOF B\nB SUBCLASSOF C\n0.5 A SUBCLASSOF C\n0.3 C SUBCLASSOF D\n-0.4 A SUBCLASSOF D\n",
    "0.5 A SUBCLASSOF B\n0.3 B SUBCLASSOF C\n-0.2 A SUBCLASSOF B\n0.7 A SUBCLASSOF C\n",
    "0.5 A SUBCLASSOF B\n0.4 B SUBCLASSOF C\n0.3 A SUBCLASSOF C\n-0.1 C SUBCLASSOF B\n",
    "0.6 A SUBCLASSOF B\n0.7 A SUBCLASSOF f SOME (>, 1)\n0.8 f SOME (>=, 2) SUBCLASSOF B\n-0.5 B SUBCLASSOF A\n",
    "B AND C SUBCLASSOF BOT\n0.6 A SUBCLASSOF B\n0.2 D SUBCLASSOF A\n0.5 A SUBCLASSOF C\n-0.3 D SUBCLASSOF C\n",
    "0.4 A SUBCLASSOF B\n0.7 A(a)\n-0.3 B(a)\n0.2 r(a, b)\n0.5 r SOME B SUBCLASSOF C\n",
    "A AND B SUBCLASSOF BOT\n0.5 f(a, 2)\n0.6 f SOME (>, 1) SUBCLASSOF A\n0.3 B(a)\n-0.2 f SOME (>=, 2) SUBCLASSOF A\n",
)


@pytest.mark.parametrize("domain", ("real", "integer"))
@pytest.mark.parametrize("text", PRUNED_BRANCH_KBS)
def test_pruned_branches_match_an_independent_enumeration(text, domain):
    kb = parse_kb(text).kb
    dist = brute_force_distribution(kb, ReasonerConfig(domain=domain))
    reference = _reference_distribution(kb, domain)
    assert [(w.atoms, w.score) for w in dist.worlds] == reference
    assert dist.partition.terms == tuple(sorted(Counter(score for _, score in reference).items()))


def test_the_walk_skips_incoherent_and_repeated_subtrees(monkeypatch):
    # the walk adds statements from the highest index down. B SUBCLASSOF C and
    # C SUBCLASSOF D are incoherent together, so nothing below them is
    # closed; B SUBCLASSOF C and A SUBCLASSOF B entail A SUBCLASSOF C, both
    # copies of it, so no subset adding either copy to them is closed; and
    # the second copy closes as the first, so no subset whose lowest
    # statement it is is closed
    kb = parse_kb(
        "B AND D SUBCLASSOF BOT\n0.3 E SUBCLASSOF A\n0.5 A SUBCLASSOF C\n-0.3 A SUBCLASSOF C\n"
        "0.2 C SUBCLASSOF D\n0.4 A SUBCLASSOF B\n0.6 B SUBCLASSOF C\n"
    ).kb
    calls = []
    extend = engine.extend_closure

    def spy(plans, base, atoms, domain):
        closure = extend(plans, base, atoms, domain=domain)
        calls.append((base, atoms, closure))
        return closure

    monkeypatch.setattr(engine, "extend_closure", spy)
    dist = brute_force_distribution(kb)
    # a walk that closes every subset whose statement its parent lacks makes 51
    assert len(calls) == 22
    assert len({(id(base), atoms) for base, atoms, _ in calls}) == len(calls)
    made = {id(calls[0][0])}
    for base, atoms, closure in calls:
        assert id(base) in made and not incoherence_atoms(base.atoms)
        assert not set(atoms) <= base.atoms
        made.add(id(closure))
    monkeypatch.undo()
    assert [(w.atoms, w.score) for w in dist.worlds] == _reference_distribution(kb, "real")


class TestDistribution:
    def test_worlds_deduplicate_by_closure(self):
        # A<=B and B<=C together entail A<=C, so {1,2} and {1,2,3} coincide
        sig = make_signature(concepts=("A", "B", "C"))
        kb = KnowledgeBase(
            sig,
            (),
            (
                WeightedStatement(Gci("A", "B"), Fraction(5, 10)),
                WeightedStatement(Gci("B", "C"), Fraction(4, 10)),
                WeightedStatement(Gci("A", "C"), Fraction(3, 10)),
            ),
        )
        dist = brute_force_distribution(kb)
        assert len(dist.worlds) == 7
        assert max(w.score for w in dist.worlds) == Fraction(12, 10)

    def test_query_probability_from_enumerated_scores(self, toddler_kb):
        from probel.model import DataSome, Restriction

        statement = Gci("Toddler", DataSome("age", Restriction("<=", Fraction(3))))
        p = probability_of(toddler_kb, [statement])
        expected = sorted(
            w.score for w in brute_force_distribution(toddler_kb).worlds
            if phi(statement) in w.atoms
        )
        assert sorted(s for s, n in p.numerator.terms for _ in range(n)) == expected
        assert 0.0 < float(p) < 1.0

    def test_integer_domain_changes_entailment(self):
        from probel.engine import ReasonerConfig
        from probel.model import DataSome, Restriction

        sig = make_signature(concepts=("A", "B"), features=("age",))
        kb = KnowledgeBase(
            sig,
            (),
            (
                WeightedStatement(
                    Gci("A", DataSome("age", Restriction(">", Fraction(1)))), Fraction(7, 10)
                ),
                WeightedStatement(
                    Gci(DataSome("age", Restriction(">=", Fraction(2))), "B"), Fraction(8, 10)
                ),
            ),
        )
        over_reals = map_inference(kb)
        over_integers = map_inference(kb, ReasonerConfig(domain="integer"))
        assert Gci("A", "B") not in over_reals.classified
        assert Gci("A", "B") in over_integers.classified


class TestWeigh:
    """_weigh puts the weight of each unit a world violates straight onto its
    atom's variable, in unit order, and returns the units still pending."""

    P, Q, E = (Atom("sub", (n, n)) for n in "pqe")

    def test_a_positive_weight_on_a_false_atom(self):
        program = ilp.IlpProgram()
        assert engine._weigh([(self.P, Fraction(8, 10))], frozenset(), frozenset(), program) == []
        assert program.variables == [self.P] and program.constraints == []
        assert program.objective == [(0, Fraction(8, 10))]

    def test_a_negative_weight_on_a_true_atom(self):
        program = ilp.IlpProgram()
        program.atom_var(self.Q)
        assert engine._weigh([(self.P, Fraction(-1, 2))], frozenset({self.P}), frozenset(), program) == []
        assert program.variables == [self.Q, self.P]
        assert program.objective == [(1, Fraction(-1, 2))]

    def test_units_in_order_and_the_rest_pending(self):
        # a satisfied unit and one of weight 0 stay pending; the violated
        # ones declare their variables in unit order
        units = [(self.Q, Fraction(-1, 2)), (self.E, Fraction(0)), (self.P, Fraction(1, 2)), (self.Q, Fraction(1, 3))]
        program = ilp.IlpProgram()
        left = engine._weigh(units, frozenset({self.Q}), frozenset(), program)
        assert left == [units[1], units[3]]
        assert program.variables == [self.Q, self.P]
        assert program.objective == [(0, Fraction(-1, 2)), (1, Fraction(1, 2))]

    def test_a_fixed_atom_is_weighed_but_declares_nothing(self):
        # an atom of the compiled closure holds in every world: a weight on
        # it is a constant, and only a negative one is ever violated
        program = ilp.IlpProgram()
        fixed = frozenset({self.E})
        units = [(self.E, Fraction(1, 2)), (self.E, Fraction(-1, 2))]
        assert engine._weigh(units, fixed, fixed, program) == units[:1]
        assert program == ilp.IlpProgram()


class TestRoundsFromTheDelta:
    """Each round solves the program, then grounds only around what the
    solve changed: round 0 from the compiled closure, every later round from
    the previous round's world. Its fresh clauses must be those of a full
    join."""

    @staticmethod
    def full_join_loop(kb, compiled, config, program):
        """_cutting_planes with every round joined in full: each round's
        fresh clauses beside the (atom, weight) objective entries of the
        statements it weighs, the final world, and whether some solve made
        an atom false that the solve before made true."""
        fixed_true = compiled.closure.atoms
        pending = list(zip(compiled.units, (ws.weight for ws in kb.uncertain)))
        added, rounds, shrank, previous = set(), [], False, None
        while True:
            assignment, _ = ilp.solve(program)
            current = fixed_true | program.true_atoms(assignment)
            shrank |= previous is not None and not previous <= current
            violated = find_violated(CALCULUS, current, domain=config.domain)
            fresh = [g for g in violated if g not in added]
            weighed = [(a, w) for a, w in pending if w > 0 and a not in current or w < 0 and a in current]
            if not fresh and not weighed:
                return rounds, current, shrank
            for clause in fresh:
                added.add(clause)
                ilp.translate_clause(clause, program, fixed_true)
            pending = [unit for unit in pending if unit not in weighed]
            entries = [(a, w) for a, w in weighed if a not in fixed_true]
            program.objective += ((program.atom_var(a), w) for a, w in entries)
            rounds.append((fresh, entries))
            previous = current

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_rounds_match_a_full_join_every_round(self, domain, monkeypatch):
        config = ReasonerConfig(domain=domain)
        translate, solve = ilp.translate_clause, ilp.solve
        rng = random.Random(41)
        iterations, shrank = [], False
        for _ in range(40):
            kb = random_kb(rng, max_concepts=8, max_uncertain=16)
            compiled = engine._compile(kb, config)
            reference = ilp.IlpProgram()
            expected, world, removed = self.full_join_loop(kb, compiled, config, reference)
            shrank |= removed
            clauses, marks = [], []  # per solve: the clauses translated after it, the objective's length
            with monkeypatch.context() as patch:
                patch.setattr(ilp, "translate_clause", lambda clause, *args: clauses[-1].append(clause) or translate(clause, *args))
                patch.setattr(ilp, "solve", lambda program: clauses.append([]) or marks.append(len(program.objective)) or solve(program))
                program = ilp.IlpProgram()
                result = engine._cutting_planes(kb, compiled, config, program)
            marks.append(len(program.objective))
            entries = [[(program.variables[v], w) for v, w in program.objective[a:b]] for a, b in zip(marks, marks[1:])]
            rounds = list(zip(clauses, entries))
            assert rounds[:-1] == expected and rounds[-1] == ([], [])
            assert result.iterations == len(expected)
            assert result.atoms == world
            assert ilp.dump(program) == ilp.dump(reference)
            iterations.append(result.iterations)
        # rounds past the one from the closure ran, some after a removal
        assert max(iterations) >= 3
        assert shrank


class TestExplain:
    def test_deltas(self, toddler_kb):
        from probel.model import FeatureAssertion

        result = map_inference(toddler_kb)
        entries = explain_selection(toddler_kb, result)
        by_statement = {str(e.statement.statement): e for e in entries}
        toddler_adult = by_statement[str(Gci("Toddler", "Adult"))]
        assert not toddler_adult.selected
        # no coherent world contains it at all, so there is no finite delta
        assert toddler_adult.delta is None
        age = by_statement[str(FeatureAssertion("age", "john", Fraction(2)))]
        assert age.selected
        assert age.delta == Fraction(7, 10)

    def test_deltas_agree_with_the_oracle(self):
        # flipping a statement's selection costs the gap between the optimum
        # and the best world whose closure makes the flipped choice
        rng = random.Random(3)
        for domain in ("real", "integer"):
            config = ReasonerConfig(domain=domain)
            for _ in range(15):
                kb = random_kb(rng, max_uncertain=6)
                result = map_inference(kb, config)
                worlds = brute_force_distribution(kb, config).worlds
                for entry in explain_selection(kb, result, config):
                    atom = phi(entry.statement.statement)
                    flipped = [w.score for w in worlds if (atom in w.atoms) != entry.selected]
                    if flipped:
                        assert entry.delta == result.objective - max(flipped)
                    else:
                        assert entry.delta is None


class TestFactsOutOfTheIlp:
    """The facts of the body-less rules (F1, F2, UNA) hold in every world, so
    they are substituted out of the ILP with the rest of the compiled
    closure."""

    @staticmethod
    def atoms_of(program) -> frozenset:
        return program.true_atoms([1] * len(program.variables))

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_no_fact_is_an_ilp_variable(self, domain):
        config = ReasonerConfig(domain=domain)
        rng = random.Random(11)
        for _ in range(40):
            kb = random_kb(rng, max_uncertain=8)
            compiled = engine._compile(kb, config)
            facts = set().union(*(t.facts for t in rule_templates(kb.signature)))
            first = engine.first_iteration_program(kb, config)
            final = ilp.IlpProgram()
            result = engine._cutting_planes(kb, compiled, config, final)
            assert not self.atoms_of(first) & facts
            assert not self.atoms_of(final) & facts
            # the facts still hold in the MAP world
            assert facts <= result.atoms

    def test_round_one_of_only_facts_still_counts(self):
        # the loop starts from the compiled closure, which holds the facts:
        # whether or not the deterministic statements name them, a KB whose
        # only statement has a negative weight violates nothing and takes no
        # round
        for text in (
            "-0.5 A SUBCLASSOF B\n",
            "-0.5 TOP SUBCLASSOF BOT\n",
            "TOP SUBCLASSOF TOP\nBOT SUBCLASSOF BOT\nBOT SUBCLASSOF TOP\n-0.5 TOP SUBCLASSOF BOT\n",
        ):
            result = map_inference(parse_kb(text).kb)
            assert result.iterations == 0, text
            assert result.objective == 0

    @pytest.mark.parametrize(
        "text",
        [
            "0.5 A SUBCLASSOF TOP\n",
            "0.5 A SUBCLASSOF A\n",
            "-0.4 B SUBCLASSOF TOP\n",
            "-0.5 A SUBCLASSOF BOT\n",
            "TOP SUBCLASSOF TOP\nBOT SUBCLASSOF BOT\nBOT SUBCLASSOF TOP\n-0.5 TOP SUBCLASSOF BOT\n",
        ],
    )
    def test_forcing_a_fact_out_is_incoherent(self, text):
        # a fact forced out leaves a hard clause with no literal, which the
        # first solve finds infeasible; a concept forced under BOT is
        # infeasible only when the loop solves the program with COH's clause
        # added. With every fact stated, the closure violates nothing, so the
        # FORCE program must be solved before the first grounding
        kb = parse_kb(text).kb
        result = map_inference(kb)
        (entry,) = explain_selection(kb, result)
        assert entry.selected is not text.endswith("BOT\n")
        assert entry.delta is None


def _g_kb(rng: random.Random, n: int, u: int, k: int, weighted: bool = True) -> str:
    """A G(N, U, K) KB from the benchmark's generator, which imports nothing
    from probel."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.g_kb(rng, n, u, k, weighted)


def _deterministic_g_kb() -> str:
    """An unweighted G(40, 100, 6) KB: 100 deterministic statements, no BOT."""
    return _g_kb(random.Random(5), 40, 100, 6, weighted=False)


class TestLoopFromTheClosure:
    """Every world holds the compiled closure, so its atoms are no ILP
    variables and the loop starts from it: a KB with nothing uncertain takes
    no round, and a statement the deterministic part entails is selected
    and cannot be flipped."""

    NESTED = f"C SUBCLASSOF {'r SOME ({a} AND ' * MAX_NESTING}B{')' * MAX_NESTING}\n"

    @pytest.fixture(scope="class", params=["nested", "g_kb"])
    def deterministic_kb(self, request):
        kb = parse_kb(self.NESTED if request.param == "nested" else _deterministic_g_kb()).kb
        assert kb.deterministic and not kb.uncertain
        return kb

    @pytest.mark.parametrize("domain", ["real", "integer"])
    def test_a_deterministic_kb_takes_no_round_and_an_empty_ilp(self, deterministic_kb, domain):
        config = ReasonerConfig(domain=domain)
        compiled = engine._compile(deterministic_kb, config)
        program = ilp.IlpProgram()
        result = engine._cutting_planes(deterministic_kb, compiled, config, program)
        assert result.iterations == 0
        assert program == ilp.IlpProgram()
        assert engine.first_iteration_program(deterministic_kb, config) == ilp.IlpProgram()
        assert result.atoms == compiled.closure.atoms
        assert result.objective == 0

    def test_its_classified_world_is_classify_s(self, deterministic_kb):
        assert map_inference(deterministic_kb).classified == classify_deterministic(deterministic_kb)

    def test_an_entailed_statement_adds_no_variable_and_cannot_be_flipped(self):
        # A SUBCLASSOF C follows from the deterministic part whatever its
        # weight; C SUBCLASSOF D does not, and it alone brings variables
        kb = parse_kb(
            "A SUBCLASSOF B\nB SUBCLASSOF C\n0.7 A SUBCLASSOF C\n-0.4 A SUBCLASSOF C\n0.5 C SUBCLASSOF D\n"
        ).kb
        entailed = Atom("sub", ("A", "C"))
        compiled = engine._compile(kb, engine.DEFAULT_CONFIG)
        assert entailed in compiled.closure.atoms
        program = ilp.IlpProgram()
        result = engine._cutting_planes(kb, compiled, engine.DEFAULT_CONFIG, program)
        assert program.variables and entailed not in program.variables
        assert not set(program.variables) & compiled.closure.atoms
        assert [ws.statement for ws in result.selected] == [Gci("A", "C"), Gci("A", "C"), Gci("C", "D")]
        assert result.objective == Fraction(8, 10)
        entries = explain_selection(kb, result)
        assert [e.delta for e in entries] == [None, None, Fraction(1, 2)]


def test_validation_and_inference_leave_no_cyclic_garbage():
    # each op's objects are freed by reference counting alone, so the
    # memory an op held does not wait on the cyclic collector's schedule
    kbs = [random_kb(random.Random(i), max_uncertain=10) for i in range(30)]
    gc.collect()
    gc.disable()
    try:
        for call in (validate, map_inference, brute_force_distribution):
            for kb in kbs:
                try:
                    call(kb)
                except IncoherentDeterministic:
                    pass
            assert gc.collect() == 0, call.__name__
    finally:
        gc.enable()
