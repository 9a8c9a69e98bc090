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
