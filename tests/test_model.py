import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given

from probel.model import (
    And,
    BOT,
    ConceptAssertion,
    DataSome,
    Equiv,
    Exists,
    FeatureAssertion,
    Gci,
    INFINITE,
    KnowledgeBase,
    Nominal,
    Restriction,
    RoleAssertion,
    RoleInclusion,
    TOP,
    WeightedStatement,
    exact_sum,
    format_value,
    is_normal_form,
    make_signature,
    normal_atom,
    validate,
)

from strategies import normal_statements


def kb_of(det=(), unc=(), **sig):
    signature = make_signature(
        sig.get("concepts", ()), sig.get("roles", ()), sig.get("features", ()), sig.get("individuals", ())
    )
    return KnowledgeBase(signature, tuple(det), tuple(unc))


class TestValidate:
    def test_hard_disjointness_alone_is_clean(self):
        kb = kb_of(
            det=[WeightedStatement(Gci(And(("Toddler", "Adult")), BOT), INFINITE)],
            concepts=("Toddler", "Adult"),
        )
        assert validate(kb) == []

    def test_empty_kb_is_clean(self):
        assert validate(kb_of()) == []

    def test_infinite_weight_in_uncertain_part(self):
        kb = kb_of(
            unc=[WeightedStatement(Gci("A", "B"), INFINITE)],
            concepts=("A", "B"),
        )
        diagnostics = validate(kb)
        assert len(diagnostics) == 1
        assert "infinite weight outside deterministic part" in diagnostics[0].reason

    def test_finite_weight_in_deterministic_part(self):
        kb = kb_of(
            det=[WeightedStatement(Gci("A", "B"), Fraction(1, 2))],
            concepts=("A", "B"),
        )
        assert any("finite weight" in d.reason for d in validate(kb))

    def test_unknown_name(self):
        kb = kb_of(unc=[WeightedStatement(Gci("A", "B"), Fraction(1))], concepts=("A",))
        assert any("unknown name 'B'" in d.reason for d in validate(kb))

    def test_statement_in_both_parts(self):
        statement = Gci("A", "B")
        kb = kb_of(
            det=[WeightedStatement(statement, INFINITE)],
            unc=[WeightedStatement(statement, Fraction(1, 2))],
            concepts=("A", "B"),
        )
        assert any("both parts" in d.reason for d in validate(kb))

    def test_sort_clash_in_statement(self):
        # "r" is declared a role but used as a concept
        kb = kb_of(unc=[WeightedStatement(Gci("r", "A"), Fraction(1))], concepts=("A",), roles=("r",))
        assert any("declared as role" in d.reason for d in validate(kb))

    @pytest.mark.parametrize("value", (2, 2.0, "2"), ids=("int", "float", "str"))
    def test_feature_value_must_be_exact_rational(self, value):
        # map_inference would derive nothing from an int and render a float
        for part in ("det", "unc"):
            weight = INFINITE if part == "det" else Fraction(1, 2)
            statement = WeightedStatement(FeatureAssertion("f", "a", value), weight)
            kb = kb_of(**{part: [statement]}, features=("f",), individuals=("a",))
            reasons = [d.reason for d in validate(kb)]
            assert reasons == ["feature value must be an exact rational"]
        statement = WeightedStatement(FeatureAssertion("f", "a", Fraction(2)), INFINITE)
        assert validate(kb_of(det=[statement], features=("f",), individuals=("a",))) == []

    def test_idempotent(self):
        kb = kb_of(
            unc=[WeightedStatement(Gci("A", "B"), INFINITE)],
            concepts=("A", "B"),
        )
        assert validate(kb) == validate(kb)


# one instance of each concept and statement class with its repr, which
# diagnostics and errors print; the texts are those the classes printed as
# frozen dataclasses
VALUES = (
    (And(("A", Nominal("a"))), "And(parts=('A', Nominal(individual='a')))"),
    (Exists("r", "A"), "Exists(role='r', filler='A')"),
    (
        DataSome("f", Restriction(">=", Fraction(3, 2))),
        "DataSome(feature='f', restriction=Restriction(op='>=', value=Fraction(3, 2)))",
    ),
    (Gci("A", "B"), "Gci(left='A', right='B')"),
    (Equiv("A", Exists("r", "B")), "Equiv(left='A', right=Exists(role='r', filler='B'))"),
    (RoleInclusion(("r", "s"), "t"), "RoleInclusion(chain=('r', 's'), sup='t')"),
    (ConceptAssertion("A", "a"), "ConceptAssertion(concept='A', individual='a')"),
    (RoleAssertion("r", "a", "b"), "RoleAssertion(role='r', subject='a', object='b')"),
    (FeatureAssertion("f", "a", Fraction(2)), "FeatureAssertion(feature='f', subject='a', value=Fraction(2, 1))"),
)


class TestValueTypes:
    @pytest.mark.parametrize("value, text", VALUES)
    def test_repr(self, value, text):
        assert repr(value) == text

    @pytest.mark.parametrize("value, text", VALUES)
    def test_equal_instances_hash_equally(self, value, text):
        # as a frozen dataclass did, a value hashes as the tuple of its
        # fields, so set and dict orders stay as they were
        copy = type(value)(*value)
        assert copy == value and not copy != value
        assert hash(copy) == hash(value) == hash(tuple(value))

    @pytest.mark.parametrize("value, text", VALUES)
    def test_fields_cannot_be_set(self, value, text):
        field = re.match(r"\w+\((\w+)=", text).group(1)
        with pytest.raises(AttributeError):
            setattr(value, field, "X")

    def test_classes_with_equal_fields_are_unequal(self):
        assert Gci("A", "B") != Equiv("A", "B")
        assert not Gci("A", "B") == Equiv("A", "B")
        assert ConceptAssertion("A", "a") != Gci("A", "a")
        assert len({Gci("A", "B"), Equiv("A", "B")}) == 2
        for (value, _), (other, _) in product(VALUES, VALUES):
            twin = type(other)(*value) if len(value) == len(other) else None
            if twin is not None:
                assert (twin == value) == (type(other) is type(value)), (value, twin)
                assert (twin != value) == (type(other) is not type(value)), (value, twin)
            assert value != tuple(value) and not value == tuple(value)


class TestNormalForm:
    def test_datatype_right(self):
        axiom = Gci("A", DataSome("f", Restriction("<=", Fraction(3))))
        assert is_normal_form(axiom)

    def test_top_left(self):
        assert is_normal_form(Gci(TOP, "C"))

    def test_composite_right_side(self):
        assert not is_normal_form(Gci("A", And(("B", "C"))))

    def test_nested_existential(self):
        assert not is_normal_form(Gci("A", Exists("r", Exists("s", "B"))))

    def test_conjunction_data_variant(self):
        axiom = Gci(And(("A", "B")), DataSome("f", Restriction("=", Fraction(2))))
        assert is_normal_form(axiom)

    def test_assertions(self):
        assert is_normal_form(ConceptAssertion("A", "a"))
        assert is_normal_form(ConceptAssertion(Nominal("b"), "a"))
        assert not is_normal_form(ConceptAssertion(And(("A", "B")), "a"))
        assert is_normal_form(FeatureAssertion("f", "a", Fraction(2)))

    def test_atom_of_conjunction_data_variant(self):
        restriction = Restriction("=", Fraction(2))
        axiom = Gci(And(("A", Nominal("b"))), DataSome("f", restriction))
        assert normal_atom(axiom) == ("intEx", ("A", Nominal("b"), "f", "=", Fraction(2)))

    @given(normal_statements)
    def test_deterministic_on_generated_statements(self, statement):
        assert is_normal_form(statement) is True


class TestFormatValue:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(3), "3"),
            (Fraction(-3), "-3"),
            (Fraction(22, 10), "2.2"),
            (Fraction(1, 2), "0.5"),
            (Fraction(-1, 4), "-0.25"),
            (Fraction(1, 3), "1/3"),
            (Fraction(0), "0"),
        ],
    )
    def test_exact_rendering(self, value, expected):
        assert format_value(value) == expected


class TestExactSum:
    def test_empty_and_cancelling_sums_are_fractions(self):
        for weights in ((), (Fraction(1, 2), Fraction(-1, 2), Fraction(10**400), Fraction(-(10**400)))):
            total = exact_sum(weights)
            assert total == 0 and type(total) is Fraction

    def test_matches_fraction_addition_on_drawn_weights(self):
        # mixed denominators and signs, and numerators of 400 digits like
        # those of weights beyond float range
        rng = random.Random(25)
        for _ in range(200):
            weights = []
            for _ in range(rng.randint(0, 30)):
                top = 10**400 if rng.random() < 0.2 else 50
                weights.append(Fraction(rng.randint(-top, top), rng.choice((1, 2, 3, 7, 10, 100, 10**400))))
            total = exact_sum(iter(weights))
            assert total == sum(weights, Fraction(0))
            assert type(total) is Fraction
