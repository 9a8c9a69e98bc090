import copy
import dis
import gc
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from probel.grounding import (
    CALCULUS,
    Closure,
    ViolatedClause,
    _index,
    _join,
    _join_order,
    _kernel,
    _merge,
    eval_op,
    extend_closure,
    find_violated,
    incoherence_atoms,
    plan_table,
    saturate,
)
from probel.model import (
    BOT,
    OPERATORS,
    And,
    ConceptAssertion,
    DataSome,
    Exists,
    FeatureAssertion,
    Gci,
    Nominal,
    Restriction,
    RoleAssertion,
    RoleInclusion,
    TOP,
    make_signature,
)
from probel.kbformat import parse_kb
from probel.randgen import random_kb
from probel.translate import PREDICATE_SORTS, Atom, NomOf, Var, is_anonymous, phi, rule_templates

from oracles import instantiate, naive_find_violated, naive_saturate
from strategies import SIG, data_statements, normal_statements, targeted_statements


def _toddler_inference_setup():
    return frozenset(
        {
            Atom("rsupEx", ("TwoYearOld", "age", "=", Fraction(2))),
            Atom("rsubEx", ("age", "<=", Fraction(3), "Toddler")),
        }
    )


def test_datatype_bridge_fires():
    current = _toddler_inference_setup()
    clauses = [c for c in find_violated(CALCULUS, current) if c.template_id == "F13"]
    assert clauses == [
        ViolatedClause(
            positive=frozenset({Atom("sub", ("TwoYearOld", "Toddler"))}),
            negative=current,
            template_id="F13",
        )
    ]


def test_datatype_bridge_skipped_when_eval_false():
    current = frozenset(
        {
            Atom("rsupEx", ("Senior", "age", ">=", Fraction(65))),
            Atom("rsubEx", ("age", "<=", Fraction(3), "Toddler")),
        }
    )
    assert not [c for c in find_violated(CALCULUS, current) if c.template_id == "F13"]


def test_no_eval_atom_ever_emitted():
    current = _toddler_inference_setup()
    for clause in find_violated(CALCULUS, current):
        for atom in clause.positive | clause.negative:
            assert atom.pred != "eval"


def test_all_false_assignment_violates_no_fact():
    # the facts of F1 and F2 hold in every world: find_violated never
    # reports one, and saturate closes the empty input to exactly them
    sig = make_signature(concepts=("A", "B"))
    templates = rule_templates(sig)
    assert find_violated(CALCULUS, frozenset()) == []
    facts = {Atom("sub", (c, d)) for c in ("A", "B", TOP, BOT) for d in (c, TOP)}
    assert saturate(templates, ()).atoms == facts


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.sampled_from(("A", "B", "A1")), max_size=3),
    st.sets(st.sampled_from(("a", "b", "c", "d")), max_size=4),
    st.sets(st.sampled_from(("r", "s")), max_size=2),
    st.sets(st.sampled_from(("f",)), max_size=1),
    st.sampled_from(("real", "integer")),
)
def test_the_facts_are_closed(concepts, individuals, roles, features, domain):
    # saturate starts its chase from the facts of the body-less rules (F1,
    # F2 and, with two individuals or more, UNA) without chasing them: the
    # naive fixpoint of no input atoms must add nothing to them
    sig = make_signature(concepts=concepts, roles=roles, features=features, individuals=individuals)
    templates = rule_templates(sig)
    facts = set().union(*(t.facts for t in templates))
    closure, conflicts = naive_saturate(templates, (), sig, domain)
    assert closure == facts
    assert conflicts == set()


def test_saturated_assignment_yields_nothing():
    sig = make_signature(concepts=("A", "B"))
    templates = rule_templates(sig)
    closure = saturate(templates, [phi(Gci("A", "B"))]).atoms
    assert not incoherence_atoms(closure)
    assert find_violated(CALCULUS, closure) == []


def test_canonical_order_is_stable():
    current = _toddler_inference_setup()
    first = find_violated(CALCULUS, current)
    second = find_violated(CALCULUS, current)
    assert first == second


def test_anonymous_successor_realizes_existential():
    sig = make_signature(concepts=("Person",), roles=("hasParent",), individuals=("john",))
    templates = rule_templates(sig)
    closure = saturate(
        templates,
        [
            phi(ConceptAssertion("Person", "john")),
            phi(Gci("Person", Exists("hasParent", "Person"))),
        ],
    ).atoms
    assert not incoherence_atoms(closure)
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
    closure = saturate(
        templates,
        [
            phi(FeatureAssertion("age", "john", Fraction(2))),
            phi(Gci(DataSome("age", Restriction("<=", Fraction(3))), "Person")),
        ],
    ).atoms
    assert Atom("inst", ("john", "Person")) in closure


def test_nominal_coreference_collapses_to_subsumption():
    # both A and B sit under the same nominal and A has an r-successor in B
    sig = make_signature(concepts=("A", "B"), roles=("r",), individuals=("o",))
    templates = rule_templates(sig)
    closure = saturate(
        templates,
        [
            phi(Gci("A", Nominal("o"))),
            phi(Gci("B", Nominal("o"))),
            phi(Gci("A", Exists("r", "B"))),
        ],
    ).atoms
    assert Atom("sub", ("A", "B")) in closure


def test_nominal_rooted_successor_also_collapses():
    sig = make_signature(concepts=("A", "B"), roles=("r",), individuals=("o", "b"))
    templates = rule_templates(sig)
    closure = saturate(
        templates,
        [
            phi(Gci("A", Nominal("o"))),
            phi(Gci("B", Nominal("o"))),
            phi(Gci(Nominal("b"), Exists("r", "B"))),
        ],
    ).atoms
    assert Atom("sub", ("A", "B")) in closure


def test_subnom_bridge_feeds_concept_reasoning():
    sig = make_signature(concepts=("A", "C"), individuals=("o",))
    templates = rule_templates(sig)
    closure = saturate(
        templates,
        [phi(Gci("A", Nominal("o"))), phi(Gci(Nominal("o"), "C"))],
    ).atoms
    # A <= {o} bridges to sub(A, {o}) and chains with {o} <= C
    assert Atom("sub", ("A", "C")) in closure


def test_unique_names_make_shared_nominals_incoherent():
    sig = make_signature(concepts=("C",), individuals=("a", "b"))
    templates = rule_templates(sig)
    closure = saturate(
        templates,
        [phi(Gci("C", Nominal("a"))), phi(Gci("C", Nominal("b")))],
    ).atoms
    assert incoherence_atoms(closure) == [Atom("sub", ("C", BOT))]


class TestNaiveOracleEquivalence:
    def _compare(self, kb, current):
        templates = rule_templates(kb.signature)
        fast = set(find_violated(CALCULUS, current))
        slow = naive_find_violated(templates, current, kb.signature)
        assert fast == slow

    def _compare_domain(self, kb, current, domain):
        templates = rule_templates(kb.signature)
        fast = set(find_violated(CALCULUS, current, domain=domain))
        slow = naive_find_violated(templates, current, kb.signature, domain=domain)
        assert fast == slow

    def test_random_kbs_partial_assignments(self):
        rng = random.Random(2024)
        for _ in range(25):
            kb = random_kb(rng, max_concepts=4, max_individuals=2, max_uncertain=5)
            templates = rule_templates(kb.signature)
            atoms = [phi(ws.statement) for ws in kb.deterministic + kb.uncertain]
            self._compare(kb, frozenset())
            self._compare(kb, frozenset(atoms))
            closure = saturate(templates, atoms).atoms
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
            closure = saturate(templates, atoms, domain="integer").atoms
            self._compare_domain(kb, closure, "integer")


_HALVES = tuple(Fraction(v, 2) for v in range(-1, 6))  # -1/2 .. 5/2


def _data_atoms(rng: random.Random) -> list:
    """The atoms of a drawn KB over concepts A and B, feature f and
    individual a: one or two f SOME (o, v) SUBCLASSOF C, one or two f(a, v)
    with v not an integer, at most one C SUBCLASSOF f SOME (o, v), and at
    most one concept assertion or inclusion of names. Restriction values
    run over -1/2 .. 5/2."""
    def restriction():
        return Restriction(rng.choice(OPERATORS), rng.choice(_HALVES))

    statements = [Gci(DataSome("f", restriction()), rng.choice("AB")) for _ in range(rng.randint(1, 2))]
    statements += [FeatureAssertion("f", "a", rng.choice(_HALVES[::2])) for _ in range(rng.randint(1, 2))]
    statements += [Gci(rng.choice("AB"), DataSome("f", restriction())) for _ in range(rng.randint(0, 1))]
    statements += [rng.choice((ConceptAssertion(rng.choice("AB"), "a"), Gci(rng.choice("AB"), rng.choice("AB"))))
                   for _ in range(rng.randint(0, 1))]
    return [phi(statement) for statement in statements]


def test_integer_snapping_on_non_integer_values():
    # random_kb draws integer values only, so its KBs seldom close
    # differently over the integers (where (=, 1/2) is empty and (>, 1/2)
    # is (>=, 1)); at least a third of these do
    sig = make_signature(concepts=("A", "B"), features=("f",), individuals=("a",))
    templates = rule_templates(sig)
    rng = random.Random(3)
    count, differ = 18, 0
    for _ in range(count):
        atoms = _data_atoms(rng)
        closure = saturate(templates, atoms, domain="integer").atoms
        differ += closure != saturate(templates, atoms, domain="real").atoms
        _assert_naive_closure(closure, templates, atoms, sig, "integer")
        partial = frozenset(rng.sample(sorted(closure, key=str), len(closure) // 2))
        for current in (frozenset(atoms), partial):
            fast = set(find_violated(CALCULUS, current, domain="integer"))
            assert fast == naive_find_violated(templates, current, sig, domain="integer")
    assert differ >= count / 3, differ


def _assert_naive_closure(closure, templates, atoms, sig, domain):
    """``closure`` is the naive fixpoint of ``atoms``, and incoherence_atoms
    finds in it the body atoms of the naive COH clauses."""
    slow, conflicts = naive_saturate(templates, atoms, sig, domain)
    assert closure == slow
    assert set(incoherence_atoms(closure)) == {a for clause in conflicts for a in clause.negative}


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
                closure = saturate(templates, atoms, domain=domain).atoms
                _assert_naive_closure(closure, templates, atoms, kb.signature, domain)
            if kb is snap:  # conflicts of det + unc
                assert bool(incoherence_atoms(closure)) == (domain == "integer")
            base = saturate(templates, det, domain=domain)
            for atom in unc:
                fast = extend_closure(CALCULUS, base, (atom,), domain=domain).atoms
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
    closure = saturate(templates, atoms, domain=domain).atoms
    _assert_naive_closure(closure, templates, atoms, SIG, domain)
    split = rng.randint(0, len(atoms))
    base = saturate(templates, atoms[:split], domain=domain)
    assert extend_closure(CALCULUS, base, atoms[split:], domain=domain).atoms == closure
    partial = frozenset(a for a in sorted(closure, key=str) if rng.random() < 0.5)
    fast = set(find_violated(CALCULUS, partial, domain=domain))
    assert fast == naive_find_violated(templates, partial, SIG, domain)


def test_every_rule_fires_on_the_way_to_the_targeted_closures():
    # find_violated's heads, added round by round from the empty base and
    # then from each round's closure, reach saturate's closure; on the way
    # over the targeted draws every rule with a body is reported in both
    # value domains, and the integers close differently from the reals in
    # a share of the draws
    templates = rule_templates(SIG)
    facts = frozenset().union(*(t.facts for t in templates))
    fired = {"real": set(), "integer": set()}
    differ = []

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(targeted_statements)
    def draw(statements):
        atoms = [phi(s) for s in statements]
        closures = []
        for domain, rules in fired.items():
            current, base = facts.union(atoms), Closure.of(frozenset())
            while True:
                found = find_violated(CALCULUS, current, domain, base)
                rules.update(c.template_id for c in found)
                heads = {atom for c in found for atom in c.positive}
                if not heads:
                    break
                base, current = found.closure, current | heads
            assert current == saturate(templates, atoms, domain=domain).atoms
            closures.append(current)
        differ.append(closures[0] != closures[1])

    draw()
    rules = {t.id for t in templates if t.body}
    assert fired == {"real": rules, "integer": rules}
    assert sum(differ) >= len(differ) / 20


def _counted(index):
    """An index as multisets, so two indexes of one set of atoms compare
    equal whatever the order of their lists."""
    return [{key: Counter(atoms) for key, atoms in table.items()} for table in index]


@settings(max_examples=20, deadline=None)
@given(
    st.lists(normal_statements, max_size=5),
    st.lists(normal_statements, min_size=1, max_size=3),
    st.lists(data_statements, max_size=2),
    st.sampled_from(("real", "integer")),
    st.randoms(use_true_random=False),
)
def test_extend_closure_from_the_base_index(base_statements, new_statements, data, domain, rng):
    # arbitrary pairs (closed base, new atoms), not only the one-atom steps of
    # the oracle's lattice walk: the base comes with the index its own chase
    # returned, which the extension reads, shares and must leave unchanged
    templates = rule_templates(SIG)
    data_atoms = [phi(s) for s in data]
    split = rng.randint(0, len(data_atoms))
    start = {phi(s) for s in base_statements}.union(data_atoms[:split], *(t.facts for t in templates))
    base = extend_closure(CALCULUS, Closure.of(frozenset()), start, domain=domain)
    new = [phi(s) for s in new_statements] + data_atoms[split:]
    new += rng.sample(sorted(base.atoms, key=str), min(2, len(base.atoms)))  # some already closed
    before = copy.deepcopy(base)
    closure = extend_closure(CALCULUS, base, new, domain=domain)
    slow, _ = naive_saturate(templates, base.atoms | set(new), SIG, domain)
    assert closure.atoms == slow
    assert base == before
    # the index handed on indexes exactly the closure's atoms
    assert _counted(closure.index) == _counted(Closure.of(slow).index)



@settings(max_examples=12, deadline=None)
@given(
    st.lists(normal_statements, min_size=3, max_size=6),
    st.lists(normal_statements, min_size=1, max_size=3),
    st.lists(data_statements, max_size=1),
    st.sampled_from(("real", "integer")),
    st.randoms(use_true_random=False),
)
def test_find_violated_from_a_base(statements, extra, data, domain, rng):
    # arbitrary (base, current) pairs, both drawn from the closure of more
    # statements than the base closure holds, so the delta reaches atoms on
    # both sides of it: every clause that current falsifies and base does
    # not is reported, and only clauses that current falsifies
    templates = rule_templates(SIG)
    closure = saturate(templates, [phi(s) for s in statements + data], domain=domain)
    wider = sorted(saturate(templates, [phi(s) for s in statements + data + extra], domain=domain).atoms, key=str)
    flip = rng.choice((0.05, 0.2, 0.5))
    base = frozenset(a for a in wider if rng.random() < 0.7)
    current = frozenset(a for a in wider if (a in base) != (rng.random() < flip))
    full = naive_find_violated(templates, current, SIG, domain)
    stale = naive_find_violated(templates, base, SIG, domain)
    found = find_violated(CALCULUS, current, domain, base=Closure.of(base))
    assert set(found) <= full
    assert set(found) - stale == full - stale
    assert found == sorted(found, key=ViolatedClause.sort_key)
    # the closure of current handed on indexes exactly its atoms
    assert found.closure.atoms == current
    assert _counted(found.closure.index) == _counted(Closure.of(current).index)
    # a closed, coherent base falsifies nothing, so the search is complete
    if not incoherence_atoms(closure.atoms):
        assert set(find_violated(CALCULUS, current, domain, base=closure)) == full


def test_find_violated_from_the_closure_finds_each_removed_head():
    # one atom of a coherent closure removed at a time: the groundings that
    # derive it are violated now and were not in the closure. inst heads
    # with a nominal come out as ninst (F14, F24, F25), and F23 and F24
    # derive the atoms of anonymous successors
    sig = make_signature(concepts=("A", "B"), roles=("r",), features=("f",), individuals=("a", "b"))
    templates = rule_templates(sig)
    statements = [
        ConceptAssertion("A", "a"),
        ConceptAssertion("B", "b"),
        Gci("A", Nominal("b")),
        Gci("A", Exists("r", Nominal("b"))),
        Gci("B", Exists("r", "A")),
        FeatureAssertion("f", "b", Fraction(2)),
        Gci(DataSome("f", Restriction("<=", Fraction(3))), Nominal("a")),
    ]
    closure = saturate(templates, [phi(s) for s in statements])
    assert not incoherence_atoms(closure.atoms)
    derived = set()
    for atom in sorted(closure.atoms, key=str):
        current = closure.atoms - {atom}
        found = find_violated(CALCULUS, current, base=closure)
        assert set(found) == naive_find_violated(templates, current, sig), atom
        derived |= {(c.template_id, atom.pred, is_anonymous(atom.args[0])) for c in found}
    for rule in ("F14", "F24", "F25"):
        assert any(r == rule and pred == "ninst" for r, pred, _ in derived), rule
    assert ("F23", "rinst", False) in derived
    assert ("F24", "inst", True) in derived


def test_plans_keep_no_template_alive():
    # the calculus's plan table is built once, from translate.RULES, and
    # shared by every KB: grounding must hold no reference to a KB's
    # templates, whose facts are its own, so that dropping them frees them.
    # Templates are tuples, which take no weak reference; their reference
    # counts stand in for one
    sig = make_signature(concepts=("A", "B"), roles=("r",), features=("f",), individuals=("a", "b"))
    atoms = [
        phi(Gci("A", "B")),
        phi(ConceptAssertion("A", "a")),
        phi(FeatureAssertion("f", "b", Fraction(1))),
    ]
    gc.disable()
    try:
        templates = rule_templates(sig)
        counts = [sys.getrefcount(t) for t in templates]
        closure = saturate(templates, atoms[:2])
        find_violated(CALCULUS, closure.atoms)
        # from a base the assignment keeps, so that the pass joins only the
        # added atom, and from one it has left, so that it joins them all
        find_violated(CALCULUS, closure.atoms | {atoms[2]}, base=closure)
        find_violated(CALCULUS, (closure.atoms - {atoms[1]}) | {atoms[2]}, base=closure)
        extend_closure(CALCULUS, closure, atoms[2:])
        assert [sys.getrefcount(t) for t in templates] == counts
    finally:
        gc.enable()


# the signature field and name prefix of each sort; a prefix alone names the
# sort's distractor, so it never equals a fresh name
_SORT_NAMES = {
    "C": ("concepts", "K"),
    "C-": ("concepts", "K"),
    "R": ("roles", "r"),
    "F": ("features", "f"),
    "I": ("individuals", "i"),
    "I!": ("individuals", "i"),
}


def _distractor(arg, sort):
    if isinstance(arg, Nominal):
        return "K"  # a concept name where a nominal binds its individual
    if sort == "O":
        return OPERATORS[(OPERATORS.index(arg) + 1) % len(OPERATORS)]
    return arg + 5 if sort == "V" else _SORT_NAMES[sort][1]


def _kernel_cases(domain):
    """Per rule of the calculus with a body (the body-less ones have no
    kernel): the rule alone, with a signature and the atoms of one grounding
    of its stored body patterns. Every variable is bound to a fresh name of
    its sort (its individual under a nominal), the values to 1, 2, ... and
    the operators so that the eval literals hold.
    Distractors follow: each body atom with one argument replaced by another
    value of its sort, so a dropped check or a wrong probe shows."""
    for template in (t for t in rule_templates(make_signature()) if t.body):
        patterns = template.body + ((template.head,) if template.head else ())
        variables = {}
        for arg in (a for p in patterns for a in p.args):
            var = arg.var if isinstance(arg, NomOf) else arg
            if isinstance(var, Var):
                variables.setdefault(var.name, var.sort)
        names = {field: {prefix} for field, prefix in _SORT_NAMES.values()}
        binding, values, ops = {}, itertools.count(1), []
        for name, sort in variables.items():
            if sort in _SORT_NAMES:
                field, prefix = _SORT_NAMES[sort]
                binding[name] = f"{prefix}_{name}"
                names[field].add(binding[name])
            elif sort == "V":
                binding[name] = Fraction(next(values))
            else:
                ops.append(name)
        evals = [p for p in template.body if p.pred == "eval"]
        for choice in itertools.product(OPERATORS, repeat=len(ops)):
            binding.update(zip(ops, choice))
            if all(eval_op(*(binding.get(getattr(a, "name", None), a) for a in p.args), domain=domain) for p in evals):
                break
        sig = make_signature(**names)
        template = next(t for t in rule_templates(sig) if t.id == template.id)
        body, distractors = [], set()
        for pattern in (p for p in template.body if p.pred != "eval"):
            atom = instantiate(pattern, binding)
            body.append(atom)
            for i, arg in enumerate(pattern.args):
                sort = arg.var.sort if isinstance(arg, NomOf) else arg.sort if isinstance(arg, Var) else PREDICATE_SORTS[atom.pred][i]
                args = list(atom.args)
                args[i] = _distractor(args[i], sort)
                distractors.add(Atom(atom.pred, tuple(args)))
        yield template, sig, body, distractors


@pytest.mark.parametrize("domain", ("real", "integer"))
def test_every_kernel_matches_the_naive_oracles(domain):
    # each rule alone, so the naive cross product stays small; every body
    # atom in turn is the chase's delta, so every anchored kernel runs
    for template, sig, body, distractors in _kernel_cases(domain):
        templates, plans = [template], plan_table([template])
        current = frozenset(body) | distractors
        fast = set(find_violated(plans, current, domain=domain))
        assert fast == naive_find_violated(templates, current, sig, domain), template.id
        assert any(c.negative == frozenset(body) for c in fast), f"{template.id} misses its grounding"
        closure, _ = naive_saturate(templates, current, sig, domain)
        for atom in body:
            base = extend_closure(plans, Closure.of(frozenset()), current - {atom}, domain=domain)
            fast = extend_closure(plans, base, (atom,), domain=domain).atoms
            assert fast == closure, (template.id, atom)


@pytest.mark.parametrize("domain", ("real", "integer"))
def test_one_pass_emits_each_grounding_once(domain):
    # every non-empty split of a grounding's body atoms into delta and old
    # atoms, the distractors among the old ones: one pass emits it exactly
    # once, whatever order each plan joins in. A pattern before the anchor
    # that read all the atoms, not the old ones, would emit it once per
    # delta atom it holds; find_violated and extend_closure collect
    # groundings into sets, so only this count shows that
    for template, _, body, distractors in _kernel_cases(domain):
        plans = plan_table([template])
        known = frozenset(body) | distractors
        for mask in range(1, 2 ** len(body)):
            fresh = frozenset(atom for i, atom in enumerate(body) if mask >> i & 1)
            old, delta = _index(known - fresh), _index(fresh)
            emitted = []
            _join(plans, delta, old, _merge(old, delta), known, fresh, domain,
                  lambda rule_id, head, atoms: emitted.append((rule_id, head, frozenset(atoms))))
            groundings = Counter(emitted)
            assert sum(n for (_, _, atoms), n in groundings.items() if atoms == frozenset(body)) == 1, (template.id, fresh)
            assert max(groundings.values()) == 1, (template.id, fresh)
            assert all(atoms & fresh for _, _, atoms in emitted), (template.id, fresh)
        emitted = []
        everything = _index(known)
        _join(plans, _index(()), everything, everything, known, frozenset(), domain, lambda *g: emitted.append(g))
        assert not emitted, template.id


def _pattern_variables(pattern) -> set:
    return {
        var.name
        for var in (arg.var if isinstance(arg, NomOf) else arg for arg in pattern.args)
        if isinstance(var, Var)
    }


def test_kernels_format_no_value_and_loop_only_to_bind():
    # no value is formatted into a kernel's source: its code holds only
    # None, slot numbers, argument positions and the empty default of a
    # lookup. A pattern whose variables are all bound before its turn is a
    # set lookup, so there is one loop per pattern that binds a variable
    kernels = 0
    for plans in CALCULUS.values():
        for plan in plans:
            stored = plan.rule[1]
            kernel = _kernel(*plan.rule, plan.anchor)
            consts = kernel.__code__.co_consts
            assert all(c is None or type(c) is int or c == () for c in consts), (kernel, consts)
            variables = [_pattern_variables(pattern) for pattern in stored]
            order = _join_order(variables, plan.anchor)
            assert order[0] == plan.anchor and sorted(order) == list(range(len(stored)))
            bound, binding = set(), 0
            for j in order:
                binding += not variables[j] <= bound
                bound |= variables[j]
            loops = sum(instruction.opname == "FOR_ITER" for instruction in dis.get_instructions(kernel))
            assert loops == binding, kernel
            kernels += 1
    assert kernels == sum(len(p.body) - sum(q.pred == "eval" for q in p.body) for p in rule_templates(make_signature()) if p.body)


_DEEP_SIG = make_signature(
    concepts=[f"C{i}" for i in range(12)],
    roles=("r", "s"),
    features=("f",),
    individuals=[f"i{i}" for i in range(6)],
)


def _deep_statements(rng: random.Random, count: int = 80) -> list:
    """``count`` distinct normal statements over _DEEP_SIG, mostly concept
    inclusions, conjunctions, existentials and assertions as in
    classify-deep, with nominals, data restrictions on halves next to the
    integers, feature values and role inclusions among them."""
    concepts, individuals = sorted(_DEEP_SIG.concepts - {TOP, BOT}), sorted(_DEEP_SIG.individuals)
    roles, features = sorted(_DEEP_SIG.roles), sorted(_DEEP_SIG.features)

    def concept():
        return Nominal(rng.choice(individuals)) if rng.random() < 0.03 else rng.choice(concepts)

    def value():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 2)))

    def some():
        return DataSome(rng.choice(features), Restriction(rng.choice(OPERATORS), value()))

    forms = {
        lambda: Gci(concept(), concept()): 30,
        lambda: Gci(And((concept(), concept())), concept()): 12,
        lambda: Gci(concept(), Exists(rng.choice(roles), concept())): 10,
        lambda: Gci(Exists(rng.choice(roles), concept()), concept()): 10,
        lambda: Gci(concept(), some()): 5,
        lambda: Gci(some(), concept()): 5,
        lambda: Gci(And((concept(), concept())), some()): 2,
        lambda: RoleInclusion((rng.choice(roles),), rng.choice(roles)): 2,
        lambda: RoleInclusion((rng.choice(roles), rng.choice(roles)), rng.choice(roles)): 2,
        lambda: ConceptAssertion(rng.choice(concepts), rng.choice(individuals)): 12,
        lambda: RoleAssertion(rng.choice(roles), rng.choice(individuals), rng.choice(individuals)): 6,
        lambda: FeatureAssertion(rng.choice(features), rng.choice(individuals), value()): 6,
    }
    statements = {}
    while len(statements) < count:
        statements.setdefault(rng.choices(list(forms), weights=list(forms.values()))[0](), None)
    return list(statements)


def test_the_chase_of_deep_kbs_is_independent_of_order_and_split():
    # KBs of classify-deep's size, far beyond the naive oracle: in either
    # domain, the chase of all the statements equals the chase of them
    # reversed and the extension of the chase of a prefix with the rest, at
    # several splits, so the planned kernels meet many passes and delta
    # shapes. The integers close one of the KBs differently from the reals
    templates = rule_templates(_DEEP_SIG)
    differ = []
    for seed in range(3):
        atoms = [phi(s) for s in _deep_statements(random.Random(seed))]
        closures = []
        for domain in ("real", "integer"):
            closure = saturate(templates, atoms, domain=domain).atoms
            assert len(closure) > 500
            assert saturate(templates, atoms[::-1], domain=domain).atoms == closure, (seed, domain)
            for split in (1, 20, 40, 60, 79):
                base = saturate(templates, atoms[:split], domain=domain)
                assert extend_closure(CALCULUS, base, atoms[split:], domain=domain).atoms == closure, (seed, domain, split)
            closures.append(closure)
        differ.append(closures[0] != closures[1])
    assert any(differ)
