"""Random normalized knowledge bases for agreement sweeps and tests."""
from __future__ import annotations

import random
from fractions import Fraction

from .grounding import incoherence_atoms, saturate
from .model import (
    And,
    BOT,
    ConceptAssertion,
    DataSome,
    Exists,
    FeatureAssertion,
    Gci,
    INFINITE,
    KnowledgeBase,
    Nominal,
    OPERATORS,
    Restriction,
    RoleAssertion,
    RoleInclusion,
    TOP,
    WeightedStatement,
    axiom_names,
    make_signature,
)
from .translate import phi, rule_templates

_CONCEPTS = ("A", "B", "C", "D", "E", "G")
_ROLES = ("r", "s")
_FEATURES = ("f",)
_INDIVIDUALS = ("a", "b", "c")
_VALUES = tuple(Fraction(v) for v in (-2, -1, 0, 1, 2))
_MAX_DETERMINISTIC = 3


class _Pool:
    def __init__(self, rng: random.Random, max_concepts, max_individuals):
        self.rng = rng
        self.concepts = list(_CONCEPTS[: rng.randint(2, max_concepts)])
        self.roles = list(_ROLES[: rng.randint(1, len(_ROLES))])
        self.features = list(_FEATURES[: rng.randint(1, len(_FEATURES))])
        self.individuals = list(_INDIVIDUALS[: rng.randint(1, max_individuals)]) if max_individuals else []

    def concept_ref(self, allow_special=True):
        choices = list(self.concepts)
        if self.individuals and self.rng.random() < 0.2:
            return Nominal(self.rng.choice(self.individuals))
        if allow_special and self.rng.random() < 0.1:
            return self.rng.choice((TOP, BOT))
        return self.rng.choice(choices)

    def restriction(self):
        return Restriction(self.rng.choice(OPERATORS), self.rng.choice(_VALUES))


def _random_statement(pool: _Pool):
    rng = pool.rng
    forms = ["sub", "sub", "conj", "exists_left", "exists_right"]
    if pool.features:
        forms += ["data_right", "data_left", "conj_data"]
    if pool.individuals:
        forms += ["concept_assert", "sub_nominal"]
        if pool.roles:
            forms.append("role_assert")
        if pool.features:
            forms.append("feature_assert")
    if pool.roles:
        forms.append("role_sub")
        if len(pool.roles) > 1 or rng.random() < 0.3:
            forms.append("role_chain")
    form = rng.choice(forms)
    if form == "sub":
        return Gci(pool.concept_ref(allow_special=False), pool.concept_ref())
    if form == "sub_nominal":
        return Gci(rng.choice(pool.concepts), Nominal(rng.choice(pool.individuals)))
    if form == "conj":
        return Gci(And((pool.concept_ref(False), pool.concept_ref(False))), pool.concept_ref())
    if form == "conj_data":
        return Gci(
            And((pool.concept_ref(False), pool.concept_ref(False))),
            DataSome(rng.choice(pool.features), pool.restriction()),
        )
    if form == "exists_left":
        return Gci(Exists(rng.choice(pool.roles), pool.concept_ref(False)), pool.concept_ref())
    if form == "exists_right":
        return Gci(pool.concept_ref(False), Exists(rng.choice(pool.roles), pool.concept_ref(False)))
    if form == "data_right":
        return Gci(pool.concept_ref(False), DataSome(rng.choice(pool.features), pool.restriction()))
    if form == "data_left":
        return Gci(DataSome(rng.choice(pool.features), pool.restriction()), pool.concept_ref())
    if form == "role_sub":
        return RoleInclusion((rng.choice(pool.roles),), rng.choice(pool.roles))
    if form == "role_chain":
        return RoleInclusion((rng.choice(pool.roles), rng.choice(pool.roles)), rng.choice(pool.roles))
    if form == "concept_assert":
        return ConceptAssertion(rng.choice(pool.concepts), rng.choice(pool.individuals))
    if form == "role_assert":
        return RoleAssertion(
            rng.choice(pool.roles), rng.choice(pool.individuals), rng.choice(pool.individuals)
        )
    return FeatureAssertion(
        rng.choice(pool.features), rng.choice(pool.individuals), rng.choice(_VALUES)
    )



def random_kb(
    rng: random.Random,
    max_concepts: int = 6,
    max_individuals: int = 3,
    max_uncertain: int = 10,
) -> KnowledgeBase:
    """A random normalized KB with a coherent deterministic part.

    Weights are drawn from -1.0 .. 1.0 in steps of 0.1.
    """
    while True:
        pool = _Pool(rng, max_concepts, max_individuals)
        statements = []
        seen = set()
        for _ in range(rng.randint(0, _MAX_DETERMINISTIC) + rng.randint(1, max_uncertain)):
            statement = _random_statement(pool)
            if statement not in seen:
                seen.add(statement)
                statements.append(statement)
        if not statements:
            continue
        det_count = min(rng.randint(0, _MAX_DETERMINISTIC), len(statements) - 1)
        deterministic = [WeightedStatement(s, INFINITE) for s in statements[:det_count]]
        uncertain = [
            WeightedStatement(s, Fraction(rng.randint(-10, 10), 10))
            for s in statements[det_count : det_count + max_uncertain]
        ]
        if not uncertain:
            continue

        pools = {"concept": set(), "role": set(), "feature": set(), "individual": set()}
        for ws in deterministic + uncertain:
            for sort, name in axiom_names(ws.statement):
                if name not in (TOP, BOT):
                    pools[sort].add(name)
        sig = make_signature(
            pools["concept"], pools["role"], pools["feature"], pools["individual"]
        )
        kb = KnowledgeBase(sig, tuple(deterministic), tuple(uncertain))

        templates = rule_templates(sig)
        closure, _ = saturate(templates, [phi(ws.statement) for ws in deterministic])
        if incoherence_atoms(closure):
            continue
        return kb
