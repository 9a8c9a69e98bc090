"""Hypothesis strategies for normal and non-normal statements over a small
fixed signature."""
from fractions import Fraction

import hypothesis.strategies as st

from probel.model import (
    And,
    ConceptAssertion,
    DataSome,
    Equiv,
    Exists,
    FeatureAssertion,
    Gci,
    Nominal,
    OPERATORS,
    Restriction,
    RoleAssertion,
    RoleInclusion,
    make_signature,
)

SIG = make_signature(
    concepts=("A", "B", "C", "D"),
    roles=("r", "s"),
    features=("f", "g"),
    individuals=("a", "b", "c"),
)

concept_names = st.sampled_from(("A", "B", "C", "D", "TOP", "BOT"))
plain_concepts = st.sampled_from(("A", "B", "C", "D"))
roles = st.sampled_from(("r", "s"))
features = st.sampled_from(("f", "g"))
individuals = st.sampled_from(("a", "b", "c"))
nominals = st.builds(Nominal, individuals)
concept_refs = st.one_of(concept_names, nominals)
values = st.builds(Fraction, st.integers(-3, 3))
# halves and thirds too, so integer snapping moves interval ends
fine_values = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
restrictions = st.builds(Restriction, st.sampled_from(OPERATORS), values)
data_somes = st.builds(DataSome, features, restrictions)

normal_statements = st.one_of(
    st.builds(Gci, concept_refs, concept_refs),
    st.builds(lambda l, r, c: Gci(And((l, r)), c), concept_refs, concept_refs, concept_refs),
    st.builds(lambda l, r, d: Gci(And((l, r)), d), concept_refs, concept_refs, data_somes),
    st.builds(lambda r, f, c: Gci(Exists(r, f), c), roles, concept_refs, concept_refs),
    st.builds(lambda c, r, f: Gci(c, Exists(r, f)), concept_refs, roles, concept_refs),
    st.builds(Gci, concept_refs, data_somes),
    st.builds(Gci, data_somes, concept_refs),
    st.builds(lambda r1, r2: RoleInclusion((r1,), r2), roles, roles),
    st.builds(lambda r1, r2, r3: RoleInclusion((r1, r2), r3), roles, roles, roles),
    st.builds(ConceptAssertion, concept_names, individuals),
    st.builds(ConceptAssertion, nominals, individuals),
    st.builds(RoleAssertion, roles, individuals, individuals),
    st.builds(FeatureAssertion, features, individuals, values),
)

fine_data_somes = st.builds(DataSome, features, st.builds(Restriction, st.sampled_from(OPERATORS), fine_values))

data_statements = st.one_of(
    st.builds(lambda l, r, d: Gci(And((l, r)), d), concept_refs, concept_refs, fine_data_somes),
    st.builds(Gci, concept_refs, fine_data_somes),
    st.builds(Gci, fine_data_somes, concept_refs),
    st.builds(FeatureAssertion, features, individuals, fine_values),
)

pairs = st.builds(lambda p, q: And((p, q)), concept_refs, concept_refs)
existentials = st.builds(Exists, roles, concept_refs)
nested_existentials = st.builds(lambda r, s, c: Exists(r, Exists(s, c)), roles, roles, concept_refs)
equivalences = st.builds(Equiv, concept_refs, concept_refs)

# shapes that have no atom: the normalizer rewrites them first
non_normal_statements = st.one_of(
    st.builds(Gci, concept_refs, nested_existentials),
    st.builds(Gci, nested_existentials, concept_refs),
    st.builds(lambda p, q, t, c: Gci(And((p, q, t)), c), concept_refs, concept_refs, concept_refs, concept_refs),
    st.builds(Gci, concept_refs, pairs),
    st.builds(Gci, existentials, existentials),
    st.builds(Gci, data_somes, data_somes),
    st.builds(Gci, pairs, existentials),
    st.builds(lambda r1, r2, r3, r: RoleInclusion((r1, r2, r3), r), roles, roles, roles, roles),
    equivalences,
    st.builds(ConceptAssertion, st.one_of(pairs, existentials, data_somes), individuals),
)

# Rule coverage: statements over two concept names and TOP, two individuals
# and one feature, so that they meet at shared names; role assertions drawn as
# chains x -> y -> z; nominals on either side of an inclusion and under an
# existential; and feature values on the halves and thirds next to 0, 1 and
# 2, where snapping an interval to the integers moves its ends or empties it
shared_concepts = st.sampled_from(("A", "B", "TOP"))
shared_individuals = st.sampled_from(("a", "b"))
shared_refs = st.one_of(shared_concepts, st.builds(Nominal, shared_individuals))
boundary_values = st.builds(
    lambda n, offset: n + offset,
    st.integers(0, 2),
    st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 3))),
)
boundary_data_somes = st.builds(
    DataSome, st.just("f"), st.builds(Restriction, st.sampled_from(OPERATORS), boundary_values)
)
# two names under one nominal, and an existential to one of them
nominal_meets = st.builds(
    lambda c, d, x, e, r: [Gci(c, Nominal(x)), Gci(d, Nominal(x)), Gci(e, Exists(r, d))],
    shared_concepts, shared_concepts, shared_individuals, shared_refs, roles,
)
role_chains = st.builds(
    lambda r, s, x, y, z: [RoleAssertion(r, x, y), RoleAssertion(s, y, z)],
    roles, roles, shared_individuals, shared_individuals, shared_individuals,
)
# two concepts of one individual
shared_assertions = st.builds(
    lambda c, d, x: [ConceptAssertion(c, x), ConceptAssertion(d, x)], shared_refs, shared_refs, shared_individuals
)

targeted_statements = st.lists(
    st.one_of(
        st.builds(lambda l, r: [Gci(l, r)], shared_refs, st.one_of(shared_refs, st.just("BOT"))),
        st.builds(lambda l, r, c: [Gci(And((l, r)), c)], shared_concepts, shared_concepts, shared_refs),
        st.builds(lambda l, r, d: [Gci(And((l, r)), d)], shared_concepts, shared_concepts, boundary_data_somes),
        st.builds(lambda c, r, f: [Gci(c, Exists(r, f))], shared_refs, roles, shared_refs),
        st.builds(lambda r, f, c: [Gci(Exists(r, f), c)], roles, shared_refs, shared_refs),
        st.builds(lambda c, d: [Gci(c, d)], shared_refs, boundary_data_somes),
        st.builds(lambda d, c: [Gci(d, c)], boundary_data_somes, shared_refs),
        st.builds(lambda r1, r2: [RoleInclusion((r1,), r2)], roles, roles),
        st.builds(lambda r1, r2, r3: [RoleInclusion((r1, r2), r3)], roles, roles, roles),
        shared_assertions,
        st.builds(lambda x, v: [FeatureAssertion("f", x, v)], shared_individuals, boundary_values),
        role_chains,
        nominal_meets,
    ),
    min_size=8,
    max_size=16,
).map(lambda groups: [s for group in groups for s in group])
