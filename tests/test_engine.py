import random
from fractions import Fraction

import pytest

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
from probel.grounding import find_violated, saturate
from probel.model import (
    And,
    BOT,
    ConceptAssertion,
    Gci,
    INFINITE,
    KnowledgeBase,
    WeightedStatement,
    make_signature,
)
from probel.randgen import random_kb
from probel.translate import Atom, phi, rule_templates

from oracles import naive_find_violated
from probel.grounding import EvidenceAtom


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
        assert result.objective == 0
        assert result.selected == ()
        assert Gci("A", "B") in result.classified
        templates = rule_templates(sig)
        closure = saturate(templates, [phi(Gci("A", "B"))])
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

    def test_classify_is_deterministic_only(self, toddler_kb):
        classified = classify_deterministic(toddler_kb)
        assert Gci(And(("Toddler", "Adult")), BOT) in classified
        assert Gci("Toddler", "Person") not in classified


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
            closure = saturate(templates, atoms)
            assert closure in {w.atoms for w in dist.worlds if w.score == best}

    def test_statement_order_does_not_change_the_world(self):
        rng = random.Random(31)
        for _ in range(8):
            kb = random_kb(rng, max_uncertain=6)
            base = map_inference(kb)
            shuffled = KnowledgeBase(
                kb.signature,
                tuple(reversed(kb.deterministic)),
                tuple(reversed(kb.uncertain)),
            )
            again = map_inference(shuffled)
            assert again.objective == base.objective
            assert set(again.selected) == set(base.selected)
            assert again.atoms == base.atoms

    def test_scaling_weights_preserves_selection(self):
        rng = random.Random(77)
        for _ in range(10):
            kb = random_kb(rng, max_uncertain=6)
            base = map_inference(kb)
            scaled_kb = KnowledgeBase(
                kb.signature,
                kb.deterministic,
                tuple(WeightedStatement(ws.statement, ws.weight * 3) for ws in kb.uncertain),
            )
            scaled = map_inference(scaled_kb)
            assert [ws.statement for ws in scaled.selected] == [
                ws.statement for ws in base.selected
            ]


class TestMapInvariants:
    def test_no_bottom_subsumer_in_map_world(self, toddler_kb):
        result = map_inference(toddler_kb)
        for atom in result.atoms:
            if atom.pred == "sub" and atom.args[1] == BOT:
                assert atom.args[0] == BOT

    def test_closure_idempotent(self, toddler_kb):
        result = map_inference(toddler_kb)
        templates = rule_templates(toddler_kb.signature)
        again = [
            v
            for v in find_violated(templates, (), result.atoms)
            if v.weight is INFINITE or v.weight == INFINITE
        ]
        hard = [v for v in again if v.template_id != "EV"]
        assert hard == []

    def test_every_hard_ground_clause_satisfied_independently(self, toddler_kb):
        result = map_inference(toddler_kb)
        templates = rule_templates(toddler_kb.signature)
        evidence = tuple(
            EvidenceAtom(phi(ws.statement), ws.weight, i)
            for i, ws in enumerate(toddler_kb.uncertain)
        )
        violated = naive_find_violated(templates, evidence, result.atoms, toddler_kb.signature)
        assert not [v for v in violated if v.weight is INFINITE]


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
