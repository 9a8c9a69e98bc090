import gc
import random
import weakref
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

from probel.grounding import (
    EvidenceAtom,
    ViolatedClause,
    extend_closure,
    find_violated,
    saturate,
)
from probel.model import (
    BOT,
    ConceptAssertion,
    DataSome,
    FeatureAssertion,
    Gci,
    INFINITE,
    Nominal,
    Restriction,
    TOP,
    make_signature,
)
from probel.kbformat import parse_kb
from probel.randgen import random_kb
from probel.translate import Atom, phi, rule_templates

from oracles import naive_find_violated, naive_saturate
from strategies import SIG, data_statements, normal_statements


def _toddler_inference_setup():
    sig = make_signature(concepts=("TwoYearOld", "Toddler"), features=("age",))
    templates = rule_templates(sig)
    current = frozenset(
        {
            Atom("rsupEx", ("TwoYearOld", "age", "=", Fraction(2))),
            Atom("rsubEx", ("age", "<=", Fraction(3), "Toddler")),
        }
    )
    return sig, templates, current


def test_datatype_bridge_fires():
    sig, templates, current = _toddler_inference_setup()
    clauses = [c for c in find_violated(templates, (), current) if c.template_id == "F13"]
    assert clauses == [
        ViolatedClause(
            positive=frozenset({Atom("sub", ("TwoYearOld", "Toddler"))}),
            negative=current,
            weight=INFINITE,
            template_id="F13",
        )
    ]


def test_datatype_bridge_skipped_when_eval_false():
    sig = make_signature(concepts=("Senior", "Toddler"), features=("age",))
    templates = rule_templates(sig)
    current = frozenset(
        {
            Atom("rsupEx", ("Senior", "age", ">=", Fraction(65))),
            Atom("rsubEx", ("age", "<=", Fraction(3), "Toddler")),
        }
    )
    assert not [c for c in find_violated(templates, (), current) if c.template_id == "F13"]


def test_no_eval_atom_ever_emitted():
    sig, templates, current = _toddler_inference_setup()
    for clause in find_violated(templates, (), current):
        for atom in clause.positive | clause.negative:
            assert atom.pred != "eval"


def test_all_false_assignment_yields_only_seeds():
    sig = make_signature(concepts=("A", "B"))
    templates = rule_templates(sig)
    clauses = find_violated(templates, (), frozenset())
    assert {c.template_id for c in clauses} == {"F1", "F2"}
    heads = {next(iter(c.positive)) for c in clauses if c.template_id == "F1"}
    assert heads == {Atom("sub", (c, c)) for c in ("A", "B", TOP, BOT)}


def test_saturated_assignment_yields_nothing():
    sig = make_signature(concepts=("A", "B"))
    templates = rule_templates(sig)
    closure, conflicts = saturate(templates, [phi(Gci("A", "B"))])
    assert not conflicts
    assert find_violated(templates, (), closure) == []


def test_canonical_order_is_stable():
    sig, templates, current = _toddler_inference_setup()
    first = find_violated(templates, (), current)
    second = find_violated(templates, (), current)
    assert first == second


def test_anonymous_successor_realizes_existential():
    from probel.model import Exists

    sig = make_signature(concepts=("Person",), roles=("hasParent",), individuals=("john",))
    templates = rule_templates(sig)
    closure, conflicts = saturate(
        templates,
        [
            phi(ConceptAssertion("Person", "john")),
            phi(Gci("Person", Exists("hasParent", "Person"))),
        ],
    )
    assert not conflicts
    successors = [a for a in closure if a.pred == "rinst" and a.args[0] == "john"]
    assert len(successors) == 1
    witness = successors[0].args[2]
    assert witness.startswith("_w:")
    assert Atom("inst", (witness, "Person")) in closure
    # the witness does not spawn a second layer
    assert not [a for a in closure if a.pred == "rinst" and a.args[0] == witness]


def test_feature_assertion_realizes_membership():
    sig = make_signature(concepts=("Person",), features=("age",), individuals=("john",))
    templates = rule_templates(sig)
    closure, _ = saturate(
        templates,
        [
            phi(FeatureAssertion("age", "john", Fraction(2))),
            phi(Gci(DataSome("age", Restriction("<=", Fraction(3))), "Person")),
        ],
    )
    assert Atom("inst", ("john", "Person")) in closure


def test_nominal_coreference_collapses_to_subsumption():
    # both A and B sit under the same nominal and A has an r-successor in B
    from probel.model import Exists

    sig = make_signature(concepts=("A", "B"), roles=("r",), individuals=("o",))
    templates = rule_templates(sig)
    closure, _ = saturate(
        templates,
        [
            phi(Gci("A", Nominal("o"))),
            phi(Gci("B", Nominal("o"))),
            phi(Gci("A", Exists("r", "B"))),
        ],
    )
    assert Atom("sub", ("A", "B")) in closure


def test_nominal_rooted_successor_also_collapses():
    from probel.model import Exists

    sig = make_signature(concepts=("A", "B"), roles=("r",), individuals=("o", "b"))
    templates = rule_templates(sig)
    closure, _ = saturate(
        templates,
        [
            phi(Gci("A", Nominal("o"))),
            phi(Gci("B", Nominal("o"))),
            phi(Gci(Nominal("b"), Exists("r", "B"))),
        ],
    )
    assert Atom("sub", ("A", "B")) in closure


def test_subnom_bridge_feeds_concept_reasoning():
    sig = make_signature(concepts=("A", "C"), individuals=("o",))
    templates = rule_templates(sig)
    closure, _ = saturate(
        templates,
        [phi(Gci("A", Nominal("o"))), phi(Gci(Nominal("o"), "C"))],
    )
    # A <= {o} bridges to sub(A, {o}) and chains with {o} <= C
    assert Atom("sub", ("A", "C")) in closure


def test_unique_names_make_shared_nominals_incoherent():
    sig = make_signature(concepts=("C",), individuals=("a", "b"))
    templates = rule_templates(sig)
    closure, conflicts = saturate(
        templates,
        [phi(Gci("C", Nominal("a"))), phi(Gci("C", Nominal("b")))],
    )
    assert Atom("sub", ("C", BOT)) in closure
    assert conflicts


class TestNaiveOracleEquivalence:
    def _compare(self, kb, current):
        templates = rule_templates(kb.signature)
        evidence = tuple(
            EvidenceAtom(phi(ws.statement), ws.weight, i) for i, ws in enumerate(kb.uncertain)
        )
        fast = set(find_violated(templates, evidence, current))
        slow = naive_find_violated(templates, evidence, current, kb.signature)
        assert fast == slow

    def _compare_domain(self, kb, current, domain):
        templates = rule_templates(kb.signature)
        evidence = tuple(
            EvidenceAtom(phi(ws.statement), ws.weight, i) for i, ws in enumerate(kb.uncertain)
        )
        fast = set(find_violated(templates, evidence, current, domain=domain))
        slow = naive_find_violated(templates, evidence, current, kb.signature, domain=domain)
        assert fast == slow

    def test_random_kbs_partial_assignments(self):
        rng = random.Random(2024)
        for _ in range(25):
            kb = random_kb(rng, max_concepts=4, max_individuals=2, max_uncertain=5)
            templates = rule_templates(kb.signature)
            atoms = [phi(ws.statement) for ws in kb.deterministic + kb.uncertain]
            self._compare(kb, frozenset())
            self._compare(kb, frozenset(atoms))
            closure, _ = saturate(templates, atoms)
            self._compare(kb, closure)
            partial = frozenset(rng.sample(sorted(closure, key=str), len(closure) // 2))
            self._compare(kb, partial)

    def test_integer_domain_equivalence(self):
        rng = random.Random(616)
        for _ in range(10):
            kb = random_kb(rng, max_concepts=4, max_individuals=2, max_uncertain=5)
            atoms = [phi(ws.statement) for ws in kb.deterministic + kb.uncertain]
            self._compare_domain(kb, frozenset(atoms), "integer")
            templates = rule_templates(kb.signature)
            closure, _ = saturate(templates, atoms, domain="integer")
            self._compare_domain(kb, closure, "integer")


def test_extend_closure_matches_full_saturation():
    # the reference is the independent cross-product fixpoint, not the chase;
    # the fixed KB is incoherent over the integers only, so both domains and
    # a non-empty conflict list are always exercised
    snap = parse_kb(
        "A SUBCLASSOF f SOME (>, 1)\n0.5 f SOME (>=, 2) SUBCLASSOF B\n"
        "0.5 A AND B SUBCLASSOF BOT\n0.5 A(a)\n"
    ).kb
    rng = random.Random(5)
    for domain in ("real", "integer"):
        kbs = [snap] + [
            random_kb(rng, max_concepts=4, max_individuals=2, max_uncertain=6) for _ in range(10)
        ]
        for kb in kbs:
            templates = rule_templates(kb.signature)
            det = [phi(ws.statement) for ws in kb.deterministic]
            unc = [phi(ws.statement) for ws in kb.uncertain]
            for atoms in (det, det + unc):
                closure, conflicts = saturate(templates, atoms, domain=domain)
                assert (closure, set(conflicts)) == naive_saturate(
                    templates, atoms, kb.signature, domain
                )
            if kb is snap:  # conflicts of det + unc
                assert bool(conflicts) == (domain == "integer")
            base, _ = saturate(templates, det, domain=domain)
            for atom in unc:
                fast = extend_closure(templates, base, (atom,), domain=domain)
                slow, _ = naive_saturate(templates, det + [atom], kb.signature, domain)
                assert fast == slow


@settings(max_examples=9, deadline=None)
@given(
    st.lists(normal_statements, min_size=4, max_size=8),
    st.lists(data_statements, max_size=2),
    st.sampled_from(("real", "integer")),
    st.randoms(use_true_random=False),
)
def test_compiled_grounding_matches_the_naive_oracles(statements, data, domain, rng):
    # nominals, role chains, feature values and halves and thirds reach rules
    # that random_kb rarely does; every distinct value multiplies the naive
    # oracle's work on F13, so data statements stay few
    templates = rule_templates(SIG)
    atoms = [phi(s) for s in statements + data]
    closure, conflicts = saturate(templates, atoms, domain=domain)
    assert (closure, set(conflicts)) == naive_saturate(templates, atoms, SIG, domain)
    split = rng.randint(0, len(atoms))
    base, _ = saturate(templates, atoms[:split], domain=domain)
    assert extend_closure(templates, base, atoms[split:], domain=domain) == closure
    weights = (Fraction(1, 2), Fraction(-1, 2), Fraction(0), INFINITE)
    evidence = tuple(EvidenceAtom(a, weights[i % 4], i) for i, a in enumerate(atoms))
    partial = frozenset(a for a in sorted(closure, key=str) if rng.random() < 0.5)
    fast = set(find_violated(templates, evidence, partial, domain=domain))
    assert fast == naive_find_violated(templates, evidence, partial, SIG, domain)


def test_plans_keep_no_template_alive():
    # join plans are cached by rule structure only: once a KB's templates
    # are dropped, grounding must not have kept any of them alive
    sig = make_signature(concepts=("A", "B"), roles=("r",), features=("f",), individuals=("a", "b"))
    atoms = [
        phi(Gci("A", "B")),
        phi(ConceptAssertion("A", "a")),
        phi(FeatureAssertion("f", "b", Fraction(1))),
    ]
    gc.disable()
    try:
        templates = rule_templates(sig)
        closure, _ = saturate(templates, atoms[:2])
        find_violated(templates, (), closure)
        extend_closure(templates, closure, atoms[2:])
        refs = [weakref.ref(t) for t in templates]
        del templates
        assert [r() for r in refs if r() is not None] == []
    finally:
        gc.enable()
