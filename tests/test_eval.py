"""The datatype containment check against its published rows and an
independent witness-sampling oracle."""
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from probel.grounding import INTEGER, eval_op
from probel.model import OPERATORS

from oracles import containment_oracle, containment_oracle_integer

GRID = [Fraction(v) for v in (-2, -1, 0, 1, 2)]
# integers, halves and thirds n/d with -7 <= n <= 7: 33 values, so that
# fractional endpoints meet integer ones and each other in every order
FRACTION_GRID = sorted({Fraction(n, d) for n in range(-7, 8) for d in (1, 2, 3)})

ops = st.sampled_from(OPERATORS)
vals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


# the ten published comparison rows
@pytest.mark.parametrize(
    "o1,o2,relation",
    [
        ("<=", "<", lambda v1, v2: v1 < v2),
        ("<=", "<=", lambda v1, v2: v1 <= v2),
        ("=", "<", lambda v1, v2: v1 < v2),
        ("=", "<=", lambda v1, v2: v1 <= v2),
        ("=", "=", lambda v1, v2: v1 == v2),
        ("=", ">=", lambda v1, v2: v1 >= v2),
        ("=", ">", lambda v1, v2: v1 > v2),
        (">=", ">=", lambda v1, v2: v1 >= v2),
        (">=", ">", lambda v1, v2: v1 > v2),
        (">", ">", lambda v1, v2: v1 >= v2),
    ],
)
def test_comparison_table_rows(o1, o2, relation):
    for v1 in GRID:
        for v2 in GRID:
            assert eval_op(o1, v1, o2, v2) == relation(v1, v2), (o1, v1, o2, v2)


def test_point_inside_ray():
    assert eval_op("=", Fraction(2), "<=", Fraction(3)) is True


def test_identity_containment():
    assert eval_op("<=", Fraction(5), "<=", Fraction(5)) is True


def test_open_ray_identity():
    assert eval_op(">", Fraction(1), ">", Fraction(1)) is True


def test_closed_not_inside_open():
    assert eval_op("<=", Fraction(3), "<", Fraction(3)) is False


def test_up_ray_not_inside_down_ray():
    # x = 1 satisfies >= 0 but not <= 0
    assert eval_op(">=", Fraction(0), "<=", Fraction(0)) is False


def test_all_operator_pairs_against_oracle():
    for o1 in OPERATORS:
        for o2 in OPERATORS:
            for v1 in FRACTION_GRID:
                for v2 in FRACTION_GRID:
                    assert eval_op(o1, v1, o2, v2) == containment_oracle(o1, v1, o2, v2), (
                        o1, v1, o2, v2,
                    )


@given(ops, vals)
def test_reflexive(o, v):
    assert eval_op(o, v, o, v) is True


@given(ops, vals, ops, vals, ops, vals)
def test_transitive(o1, v1, o2, v2, o3, v3):
    if eval_op(o1, v1, o2, v2) and eval_op(o2, v2, o3, v3):
        assert eval_op(o1, v1, o3, v3)


@given(ops, vals, ops, vals)
def test_matches_witness_oracle(o1, v1, o2, v2):
    assert eval_op(o1, v1, o2, v2) == containment_oracle(o1, v1, o2, v2)


class TestIntegerDomain:
    def test_open_bound_snaps(self):
        # over the integers, x > 1 means x >= 2
        assert eval_op(">", Fraction(1), ">=", Fraction(2), domain=INTEGER) is True
        assert eval_op(">", Fraction(1), ">=", Fraction(2)) is False

    def test_fractional_point_is_empty(self):
        assert eval_op("=", Fraction(1, 2), "=", Fraction(7), domain=INTEGER) is True

    def test_against_integer_oracle(self):
        for o1 in OPERATORS:
            for o2 in OPERATORS:
                for v1 in FRACTION_GRID:
                    for v2 in FRACTION_GRID:
                        assert eval_op(o1, v1, o2, v2, domain=INTEGER) == containment_oracle_integer(
                            o1, v1, o2, v2
                        ), (o1, v1, o2, v2)
