import random
from fractions import Fraction

import pytest

from probel.grounding import incoherence_atoms, saturate
from probel.model import (
    And,
    ConceptAssertion,
    DataSome,
    Diagnostic,
    Equiv,
    Exists,
    FeatureAssertion,
    Gci,
    INFINITE,
    Nominal,
    Restriction,
    RoleInclusion,
    is_infinite,
    is_normal_form,
    make_signature,
)
from probel.normalize import normalize
from probel.translate import Atom, phi, rule_templates


TEEN_SIG = make_signature(concepts=("Teenager", "Person"), features=("age",), individuals=("pat",))

TEEN_AXIOM = Equiv(
    "Teenager",
    And((
        "Person",
        DataSome("age", Restriction(">=", Fraction(13))),
        DataSome("age", Restriction("<=", Fraction(19))),
    )),
)


def _all_atoms(kb):
    return [phi(ws.statement) for ws in kb.deterministic + kb.uncertain]


def test_normal_axiom_passes_through():
    sig = make_signature(concepts=("A", "B"))
    result = normalize([(Gci("A", "B"), Fraction(1, 2))], sig)
    assert result.name_map == {}
    assert [ws.statement for ws in result.kb.uncertain] == [Gci("A", "B")]
    assert result.kb.deterministic == ()


def test_every_output_statement_is_normal():
    result = normalize([(TEEN_AXIOM, Fraction(9, 10))], TEEN_SIG)
    for ws in result.kb.deterministic + result.kb.uncertain:
        assert is_normal_form(ws.statement)


def test_weight_lands_on_exactly_one_statement_per_direction():
    result = normalize([(TEEN_AXIOM, Fraction(9, 10))], TEEN_SIG)
    assert len(result.kb.uncertain) == 2  # one carrier per inclusion direction
    assert all(ws.weight == Fraction(9, 10) for ws in result.kb.uncertain)
    assert all(is_infinite(ws.weight) for ws in result.kb.deterministic)


def test_fresh_names_recorded_for_each_decomposed_subexpression():
    result = normalize([(TEEN_AXIOM, Fraction(9, 10))], TEEN_SIG)
    named = set(result.name_map.values())
    assert DataSome("age", Restriction(">=", Fraction(13))) in named
    assert DataSome("age", Restriction("<=", Fraction(19))) in named


def test_teenager_membership_derivable_after_normalization():
    axioms = [
        (TEEN_AXIOM, INFINITE),
        (ConceptAssertion("Person", "pat"), INFINITE),
        (FeatureAssertion("age", "pat", Fraction(15)), INFINITE),
    ]
    result = normalize(axioms, TEEN_SIG)
    templates = rule_templates(result.kb.signature)
    closure = saturate(templates, _all_atoms(result.kb)).atoms
    assert not incoherence_atoms(closure)
    assert Atom("inst", ("pat", "Teenager")) in closure


def test_role_chain_binarization():
    sig = make_signature(roles=("R1", "R2", "R3", "R"))
    result = normalize([(RoleInclusion(("R1", "R2", "R3"), "R"), Fraction(1, 2))], sig)
    (aux,) = result.kb.deterministic
    (carrier,) = result.kb.uncertain
    fresh = aux.statement.sup
    assert fresh in result.name_map
    assert aux.statement == RoleInclusion(("R1", "R2"), fresh)
    assert carrier.statement == RoleInclusion((fresh, "R3"), "R")


def test_unknown_name_is_rejected_with_symbol():
    sig = make_signature(concepts=("A",))
    result = normalize([(Gci("A", "Mystery"), INFINITE)], sig)
    assert result.kb.deterministic == () and result.kb.uncertain == ()
    assert any("Mystery" in d.reason for d in result.diagnostics)


SHAPE_SIG = make_signature(concepts=("A", "B"), roles=("r", "s"), individuals=("a",))
EMPTY = And(())


@pytest.mark.parametrize("weight", [Fraction(1, 2), INFINITE], ids=["uncertain", "deterministic"])
@pytest.mark.parametrize("axiom, reason", [
    (RoleInclusion((), "r"), "empty role chain"),
    (Gci(EMPTY, "A"), "empty conjunction"),
    (Equiv(EMPTY, "A"), "empty conjunction"),
    (Gci("A", EMPTY), "empty conjunction"),
    (ConceptAssertion(EMPTY, "a"), "empty conjunction"),
    (Gci("A", Exists("r", EMPTY)), "empty conjunction"),
], ids=["chain", "gci-left", "equiv-left", "gci-right", "assertion", "nested"])
def test_an_axiom_with_an_empty_part_is_left_out(axiom, reason, weight):
    # only the API can build these: each used to raise IndexError, or to
    # become a statement over a fresh name nothing defines
    result = normalize([(axiom, weight)], SHAPE_SIG)
    assert result.diagnostics == [Diagnostic("input", 0, reason)]
    assert result.kb.deterministic == result.kb.uncertain == ()
    assert result.name_map == {}


def test_well_formed_axioms_normalize_beside_malformed_ones():
    axioms = [
        (RoleInclusion((), "r"), Fraction(1, 2)),
        (Gci("A", And(("B", Exists("r", "A")))), Fraction(1, 4)),
        (Gci(EMPTY, "A"), INFINITE),
        (Gci("A", "Mystery"), INFINITE),
        (RoleInclusion(("r", "s", "r"), "s"), INFINITE),
        (ConceptAssertion(EMPTY, "a"), Fraction(1, 3)),
    ]
    result = normalize(axioms, SHAPE_SIG)
    assert [(d.index, d.reason) for d in result.diagnostics] == [
        (0, "empty role chain"), (2, "empty conjunction"), (3, "unknown concept 'Mystery'"), (5, "empty conjunction"),
    ]
    well_formed = normalize([axioms[1], axioms[4]], SHAPE_SIG)
    assert well_formed.diagnostics == []
    assert (result.kb, result.name_map) == (well_formed.kb, well_formed.name_map)


def test_fresh_names_avoid_existing_signature_names():
    # an API-built signature may already hold reserved-looking names
    sig = make_signature(concepts=("A", "B", "C", "_C1"), roles=("r",))
    result = normalize([(Gci("A", And(("B", Exists("r", And(("B", "C")))))), Fraction(1, 2))], sig)
    assert "_C1" not in result.name_map
    from probel.model import validate

    assert validate(result.kb) == []


def test_deterministic_naming_is_reproducible():
    first = normalize([(TEEN_AXIOM, Fraction(9, 10))], TEEN_SIG)
    second = normalize([(TEEN_AXIOM, Fraction(9, 10))], TEEN_SIG)
    assert first.kb == second.kb
    assert first.name_map == second.name_map


def test_repeated_deterministic_statements_are_kept_once_in_first_order():
    sig = make_signature(concepts=("A", "B", "C", "D"), roles=("r",))
    axioms = [
        (Gci("A", "B"), INFINITE),
        # both composites define A <= C, and the first repeats A <= B
        (Gci("A", And(("B", "C"))), INFINITE),
        (Gci("A", And(("C", Exists("r", "D")))), INFINITE),
        (Gci(And(("B", "C")), "D"), INFINITE),
        (Gci(And(("B", "C")), "D"), INFINITE),
        (Gci("A", "B"), INFINITE),
        (Gci("A", "B"), Fraction(1, 2)),
        (Gci("A", "B"), Fraction(1, 2)),
    ]
    kb = normalize(axioms, sig).kb
    assert [ws.statement for ws in kb.deterministic] == [
        Gci("A", "B"),
        Gci("A", "C"),
        Gci("A", Exists("r", "D")),
        Gci(And(("B", "C")), "D"),
    ]
    # uncertain statements are never merged: each carries its own weight
    assert [ws.statement for ws in kb.uncertain] == [Gci("A", "B"), Gci("A", "B")]


def test_output_size_linear_in_tree_size():
    def tree_size(concept):
        if isinstance(concept, And):
            return 1 + sum(tree_size(p) for p in concept.parts)
        if isinstance(concept, Exists):
            return 1 + tree_size(concept.filler)
        return 1

    rng = random.Random(11)
    sig = make_signature(concepts=("A", "B", "C"), roles=("r",), features=("f",))
    for _ in range(20):
        axiom = Gci(_random_concept(rng, 3), _random_concept(rng, 3))
        result = normalize([(axiom, Fraction(1, 2))], sig)
        size = tree_size(axiom.left) + tree_size(axiom.right)
        emitted = len(result.kb.deterministic) + len(result.kb.uncertain)
        assert emitted <= 2 * size + 1


def _random_concept(rng, depth):
    options = ["atom"]
    if depth > 0:
        options += ["and", "exists", "data"]
    kind = rng.choice(options)
    if kind == "atom":
        return rng.choice(("A", "B", "C"))
    if kind == "and":
        return And(tuple(_random_concept(rng, depth - 1) for _ in range(rng.randint(2, 3))))
    if kind == "exists":
        return Exists("r", _random_concept(rng, depth - 1))
    return DataSome("f", Restriction(rng.choice(("<", "<=", "=", ">=", ">")), Fraction(rng.randint(-2, 2))))


def _original_closure(kb, original_sig):
    """sub/inst/rinst/ninst closure atoms that mention original names only."""
    names = original_sig.concepts | original_sig.roles | original_sig.features | original_sig.individuals

    def original(atom):
        for arg in atom.args:
            value = arg.individual if isinstance(arg, Nominal) else arg
            if isinstance(value, str) and value not in names and not value.startswith("_w:"):
                return False
        return True

    templates = rule_templates(kb.signature)
    closure = saturate(templates, _all_atoms(kb)).atoms
    kept = set()
    for atom in closure:
        if atom.pred in ("sub", "inst", "rinst", "ninst") and original(atom):
            if any(isinstance(a, str) and a.startswith("_w:") for a in atom.args):
                continue  # anonymous successors are representation detail
            kept.add(atom)
    return kept


def _variant(axiom):
    """A semantically equal axiom decomposed differently (reversed conjuncts)."""

    def flip(concept):
        if isinstance(concept, And):
            return And(tuple(flip(p) for p in reversed(concept.parts)))
        if isinstance(concept, Exists):
            return Exists(concept.role, flip(concept.filler))
        return concept

    if isinstance(axiom, Gci):
        return Gci(flip(axiom.left), flip(axiom.right))
    return axiom


def test_conservative_over_decomposition_variants():
    rng = random.Random(23)
    sig = make_signature(
        concepts=("A", "B", "C", "D", "E"),
        roles=("r", "s"),
        features=("f",),
        individuals=("a",),
    )
    for _ in range(12):
        axioms = []
        for _ in range(rng.randint(2, 4)):
            axioms.append((Gci(_random_concept(rng, 3), _random_concept(rng, 3)), INFINITE))
        axioms.append((ConceptAssertion(rng.choice(("A", "B")), "a"), INFINITE))
        variant = [(_variant(ax), w) for ax, w in axioms]
        left = _original_closure(normalize(axioms, sig).kb, sig)
        right = _original_closure(normalize(variant, sig).kb, sig)
        assert left == right


def test_chain_binarization_order_is_conservative():
    sig = make_signature(
        concepts=("A", "B"), roles=("R1", "R2", "R3", "R"), individuals=("x", "y", "z", "w")
    )
    from probel.model import RoleAssertion

    data = [
        (RoleAssertion("R1", "x", "y"), INFINITE),
        (RoleAssertion("R2", "y", "z"), INFINITE),
        (RoleAssertion("R3", "z", "w"), INFINITE),
    ]
    left_assoc = normalize(data + [(RoleInclusion(("R1", "R2", "R3"), "R"), INFINITE)], sig)
    # pre-split the other way around before normalizing
    pre = normalize(data, sig)
    right_sig = make_signature(
        sig.concepts, set(sig.roles) | {"U"}, sig.features, sig.individuals
    )
    right_assoc = normalize(
        data
        + [
            (RoleInclusion(("R2", "R3"), "U"), INFINITE),
            (RoleInclusion(("R1", "U"), "R"), INFINITE),
        ],
        right_sig,
    )
    assert Atom("rinst", ("x", "R", "w")) in _original_closure(left_assoc.kb, sig)
    assert Atom("rinst", ("x", "R", "w")) in _original_closure(right_assoc.kb, sig)
