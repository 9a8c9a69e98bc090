from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import Phase, find, given, settings

from probel.model import (
    BOT,
    OPERATORS,
    ConceptAssertion,
    DataSome,
    Exists,
    Gci,
    Nominal,
    Restriction,
    TOP,
    is_normal_form,
    make_signature,
)
from probel.translate import (
    Atom,
    NoAxiomCounterpart,
    NotNormal,
    PREDICATE_SORTS,
    RULES,
    atom_sort_key,
    make_atom,
    phi,
    phi_inverse,
    rule_templates,
    successor_name,
)

from oracles import nested_atom_key
from strategies import non_normal_statements, normal_statements


class TestPhi:
    def test_datatype_right(self):
        axiom = Gci("A", DataSome("f", Restriction("<", Fraction(5))))
        assert phi(axiom) == Atom("rsupEx", ("A", "f", "<", Fraction(5)))

    def test_concept_assertion(self):
        assert phi(ConceptAssertion("C", "a")) == Atom("inst", ("a", "C"))

    def test_top_sub_top(self):
        assert phi(Gci(TOP, TOP)) == Atom("sub", (TOP, TOP))

    def test_nominal_pair_keeps_sub(self):
        assert phi(Gci(Nominal("a"), Nominal("c"))) == Atom("sub", (Nominal("a"), Nominal("c")))

    def test_atomic_under_nominal_goes_to_subnom(self):
        assert phi(Gci("A", Nominal("c"))) == Atom("subNom", ("A", "c"))

    def test_nominal_assertion_is_ninst(self):
        assert phi(ConceptAssertion(Nominal("b"), "x")) == Atom("ninst", ("x", "b"))

    def test_rejects_non_normal(self):
        from probel.model import And

        with pytest.raises(NotNormal):
            phi(Gci("A", And(("B", "C"))))


class TestPhiInverse:
    def test_feature_left(self):
        atom = Atom("rsubEx", ("age", "<=", Fraction(3), "Toddler"))
        assert phi_inverse(atom) == Gci(
            DataSome("age", Restriction("<=", Fraction(3))), "Toddler"
        )

    def test_sub_self(self):
        assert phi_inverse(Atom("sub", ("A", "A"))) == Gci("A", "A")

    def test_role_chain(self):
        from probel.model import RoleInclusion

        assert phi_inverse(Atom("pcom", ("R1", "R2", "R"))) == RoleInclusion(("R1", "R2"), "R")

    def test_eval_rejected(self):
        with pytest.raises(NoAxiomCounterpart):
            phi_inverse(Atom("eval", ("=", Fraction(2), "<=", Fraction(3))))


@given(normal_statements)
def test_round_trip_statement(statement):
    atom = phi(statement)
    assert phi_inverse(atom) == statement
    assert phi(phi_inverse(atom)) == atom


@given(st.one_of(normal_statements, non_normal_statements))
def test_normal_exactly_when_phi_maps(statement):
    try:
        phi(statement)
    except NotNormal:
        assert not is_normal_form(statement)
    else:
        assert is_normal_form(statement)


@given(non_normal_statements)
def test_non_normal_shapes_are_rejected(statement):
    assert not is_normal_form(statement)


@pytest.mark.parametrize("pred", sorted(set(PREDICATE_SORTS) - {"eval"}))
def test_every_stored_predicate_is_the_image_of_a_statement(pred):
    # find raises NoSuchExample when no drawn statement maps to pred
    once = settings(database=None, max_examples=1000, phases=(Phase.generate,))
    find(normal_statements, lambda s: phi(s).pred == pred, settings=once)


# names that are prefixes of each other, or that differ where "_" and a
# digit sort apart from a letter
_KEY_NAMES = ("A", "A1", "A_1", "AB", "B", "a", "a1", "TOP", "BOT")
# values written as decimals and as n/d, negative ones included; hypothesis
# draws the first ones most, and 1/2 and 1 would sort apart if a value
# were written as n/d
_KEY_VALUES = tuple(Fraction(v) for v in ("1/2", "1", "-1/2", "-1", "1/4", "1/3", "0", "-3/2", "2/7", "10"))


def _key_atoms(names, operators, values):
    """Atoms of every stored predicate over ``names``, ``operators`` and
    ``values``: predicates that are prefixes of each other (int/intEx,
    sub/subNom, rsub/rsubEx) all occur, and rinst holds an individual or a
    value."""
    name, value = st.sampled_from(names), st.sampled_from(values)
    individual = st.one_of(name, st.builds(successor_name, name, name, st.one_of(name, st.builds(Nominal, name))))
    args = {
        "C": st.one_of(name, st.builds(Nominal, name)),
        "I": individual,
        "R": name,
        "F": name,
        "O": st.sampled_from(operators),
        "V": value,
    }
    return st.one_of(
        *(
            st.builds(lambda pred, *a: Atom(pred, a), st.just(pred), *(args[sort] for sort in sorts))
            for pred, sorts in PREDICATE_SORTS.items()
            if pred not in ("eval", "rinst")
        ),
        st.builds(lambda x, r, y: Atom("rinst", (x, r, y)), individual, name, individual),
        st.builds(lambda x, f, v: Atom("rinst", (x, f, v)), individual, name, value),
    )


@given(st.data())
def test_flat_atom_key_orders_as_the_nested_key(data):
    # few names, operators and values per draw, so that atoms often differ
    # in one argument only
    names = data.draw(st.lists(st.sampled_from(_KEY_NAMES), min_size=1, max_size=3, unique=True))
    operators = data.draw(st.lists(st.sampled_from(OPERATORS), min_size=1, max_size=2, unique=True))
    values = data.draw(st.lists(st.sampled_from(_KEY_VALUES), min_size=2, max_size=3, unique=True))
    atoms = data.draw(st.lists(_key_atoms(tuple(names), tuple(operators), tuple(values)), min_size=15, max_size=40))
    assert sorted(atoms, key=atom_sort_key) == sorted(atoms, key=nested_atom_key)
    for a in atoms:
        for b in atoms:
            flat, nested = (atom_sort_key(a), atom_sort_key(b)), (nested_atom_key(a), nested_atom_key(b))
            assert (flat[0] < flat[1], flat[0] == flat[1]) == (nested[0] < nested[1], nested[0] == nested[1])


def test_make_atom_canonicalizes_nominal_instance():
    assert make_atom("inst", "x", Nominal("a")) == Atom("ninst", ("x", "a"))


class TestRuleTemplates:
    def test_ids_complete_and_unique(self):
        sig = make_signature(concepts=("A",), individuals=("a", "b"))
        templates = rule_templates(sig)
        ids = [t.id for t in templates]
        assert len(ids) == len(set(ids))
        assert set(ids) == {f"F{i}" for i in range(1, 28)} | {"SUBNOM", "UNA", "COH"}

    def test_no_unique_name_clause_for_single_individual(self):
        sig = make_signature(concepts=("A",), individuals=("john",))
        una = next(t for t in rule_templates(sig) if t.id == "UNA")
        assert una.facts == ()

    def test_one_unique_name_clause_per_pair(self):
        sig = make_signature(concepts=(), individuals=("a", "b"))
        una = next(t for t in rule_templates(sig) if t.id == "UNA")
        assert una.facts == (Atom("int", (Nominal("a"), Nominal("b"), BOT)),)

    def test_head_predicates_stay_in_vocabulary(self):
        sig = make_signature(concepts=("A",), individuals=("a",))
        for template in rule_templates(sig):
            if template.head is not None:
                assert template.head.pred in PREDICATE_SORTS
            for pattern in template.body:
                assert pattern.pred in PREDICATE_SORTS

    def test_head_variables_bound_by_body_or_seeds(self):
        from probel.translate import NomOf, SuccessorOf, Var

        def var_names(pattern):
            for arg in pattern.args:
                if isinstance(arg, Var):
                    yield arg.name
                elif isinstance(arg, NomOf):
                    yield arg.var.name

        def instance_of(atom, pattern):
            binding = {}
            for arg, value in zip(pattern.args, atom.args):
                if isinstance(arg, NomOf):
                    if not isinstance(value, Nominal):
                        return False
                    arg, value = arg.var, value.individual
                if isinstance(arg, Var):
                    if binding.setdefault(arg.name, value) != value:
                        return False
                elif arg != value:
                    return False
            return atom.pred == pattern.pred and len(atom.args) == len(pattern.args)

        sig = make_signature(concepts=("A",), individuals=("a", "b"))
        for template in rule_templates(sig):
            if template.head is None:
                continue
            if not template.body:  # grounded once: every fact instantiates the head
                assert template.facts, template.id
                assert all(instance_of(fact, template.head) for fact in template.facts), template.id
                continue
            assert template.facts == (), template.id
            bound = {n for p in template.body for n in var_names(p)}
            for arg in template.head.args:
                if isinstance(arg, SuccessorOf):
                    continue  # anonymous successor, named from body bindings
                if isinstance(arg, Var):
                    assert arg.name in bound, (template.id, arg.name)
                elif isinstance(arg, NomOf):
                    assert arg.var.name in bound, (template.id, arg.var.name)

    def test_every_signature_shares_the_rules_with_a_body(self):
        # only the facts of the body-less rules are built per signature
        for sig in (make_signature(), make_signature(concepts=("A", "B"), roles=("r",), individuals=("a", "b"))):
            shared = [t for t in rule_templates(sig) if t.body]
            assert len(shared) == len(RULES) and all(t is rule for t, rule in zip(shared, RULES))

    def test_seed_clauses_depend_only_on_signature(self):
        sig = make_signature(concepts=("A", "B"), individuals=("a",))
        first = rule_templates(sig)
        second = rule_templates(sig)
        assert [t.id for t in first] == [t.id for t in second]
        assert [t.facts for t in first] == [t.facts for t in second]
