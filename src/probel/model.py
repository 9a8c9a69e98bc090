"""Vocabulary, axiom trees and the normal-form grammar of weighted EL++ knowledge bases.

A knowledge base has a deterministic part (statements that must hold) and an
uncertain part (statements carrying finite weights). Weights are exact
rationals, never floats, so objective values and partition scores can be
compared exactly. TOP and BOT are ordinary concept names with reserved
spellings.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Union

TOP = "TOP"
BOT = "BOT"

OPERATORS = ("<", "<=", "=", ">=", ">")

# Names beginning with this prefix are owned by the system (fresh names from
# normalization, anonymous role successors) and are rejected in user input.
RESERVED_PREFIX = "_"


class Nominal(NamedTuple):
    """The concept {a} holding exactly the individual a."""

    individual: str

    def __str__(self) -> str:
        return "{%s}" % self.individual


#: An atomic concept position: a concept name (including TOP/BOT) or a nominal.
ConceptRef = Union[str, Nominal]


class Restriction(NamedTuple):
    """Numeric datatype restriction (o, v): the set of values x with x o v."""

    op: str
    value: Fraction

    def __str__(self) -> str:
        return f"({self.op}, {format_value(self.value)})"


@dataclass(frozen=True)
class And:
    parts: tuple  # two or more concept expressions


@dataclass(frozen=True)
class Exists:
    role: str
    filler: "Concept"


@dataclass(frozen=True)
class DataSome:
    feature: str
    restriction: Restriction


Concept = Union[str, Nominal, And, Exists, DataSome]


def is_ref(c: Concept) -> bool:
    return isinstance(c, (str, Nominal))


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Gci:
    """General concept inclusion left <= right."""

    left: Concept
    right: Concept


@dataclass(frozen=True)
class Equiv:
    """Concept equivalence; expanded to two inclusions before normalization."""

    left: Concept
    right: Concept


@dataclass(frozen=True)
class RoleInclusion:
    """chain[0] o ... o chain[k-1] <= sup; a single-role chain is plain R1 <= R2."""

    chain: tuple
    sup: str


@dataclass(frozen=True)
class ConceptAssertion:
    concept: Concept
    individual: str


@dataclass(frozen=True)
class RoleAssertion:
    role: str
    subject: str
    object: str


@dataclass(frozen=True)
class FeatureAssertion:
    feature: str
    subject: str
    value: Fraction


Axiom = Union[Gci, Equiv, RoleInclusion, ConceptAssertion, RoleAssertion, FeatureAssertion]


class Form(enum.Enum):
    """The admitted normal statement shapes."""

    CONCEPT_ASSERTION = "C(a)"
    ROLE_ASSERTION = "R(a,b)"
    FEATURE_ASSERTION = "F(a,v)"
    SUB = "A <= C"
    SUB_NOMINAL = "A <= {c}"
    CONJUNCTION = "A and B <= C"
    CONJUNCTION_DATA = "A and B <= some F.r"
    EXISTS_LEFT = "some R.A <= C"
    EXISTS_RIGHT = "A <= some R.B"
    DATA_RIGHT = "A <= some F.r"
    DATA_LEFT = "some F.r <= A"
    ROLE_SUB = "R1 <= R2"
    ROLE_CHAIN = "R1 o R2 <= R"


def classify_normal(axiom: Axiom) -> Optional[Form]:
    """Return the normal-form shape of an axiom, or None if it has none.

    Atomic positions admit concept names and nominals; composite expressions
    anywhere else disqualify the axiom (the normalizer rewrites those).
    """
    if isinstance(axiom, ConceptAssertion):
        return Form.CONCEPT_ASSERTION if is_ref(axiom.concept) else None
    if isinstance(axiom, RoleAssertion):
        return Form.ROLE_ASSERTION
    if isinstance(axiom, FeatureAssertion):
        return Form.FEATURE_ASSERTION
    if isinstance(axiom, RoleInclusion):
        if len(axiom.chain) == 1:
            return Form.ROLE_SUB
        if len(axiom.chain) == 2:
            return Form.ROLE_CHAIN
        return None
    if isinstance(axiom, Gci):
        left, right = axiom.left, axiom.right
        if is_ref(left) and is_ref(right):
            if isinstance(left, str) and isinstance(right, Nominal):
                return Form.SUB_NOMINAL
            return Form.SUB
        if isinstance(left, And) and len(left.parts) == 2 and all(is_ref(p) for p in left.parts):
            if is_ref(right):
                return Form.CONJUNCTION
            if isinstance(right, DataSome):
                return Form.CONJUNCTION_DATA
            return None
        if isinstance(left, Exists) and is_ref(left.filler) and is_ref(right):
            return Form.EXISTS_LEFT
        if is_ref(left) and isinstance(right, Exists) and is_ref(right.filler):
            return Form.EXISTS_RIGHT
        if is_ref(left) and isinstance(right, DataSome):
            return Form.DATA_RIGHT
        if isinstance(left, DataSome) and is_ref(right):
            return Form.DATA_LEFT
        return None
    return None  # Equiv is never normal


def is_normal_form(axiom: Axiom) -> bool:
    return classify_normal(axiom) is not None


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

class _InfiniteWeight:
    """Distinguished weight of deterministic statements."""

    _singleton = None

    def __new__(cls):
        if cls._singleton is None:
            cls._singleton = super().__new__(cls)
        return cls._singleton

    def __repr__(self) -> str:
        return "INF"


INFINITE = _InfiniteWeight()

Weight = Union[Fraction, _InfiniteWeight]


def is_infinite(weight: Weight) -> bool:
    return weight is INFINITE


def format_value(value: Fraction) -> str:
    """Exact textual form of a rational: decimal when finite, n/d otherwise."""
    if value.denominator == 1:
        return str(value.numerator)
    den = value.denominator
    tens = 0
    while den % 2 == 0:
        den //= 2
        tens += 1
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    shift = max(tens, fives)
    scaled = value.numerator * 10**shift // value.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    return f"{sign}{digits[:-shift]}.{digits[-shift:]}" if shift else f"{sign}{digits}"


# ---------------------------------------------------------------------------
# Signature and knowledge base
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Signature:
    concepts: frozenset
    roles: frozenset
    features: frozenset
    individuals: frozenset


def make_signature(concepts=(), roles=(), features=(), individuals=()) -> Signature:
    """Build a signature, always including TOP and BOT among the concepts."""
    return Signature(
        concepts=frozenset(concepts) | {TOP, BOT},
        roles=frozenset(roles),
        features=frozenset(features),
        individuals=frozenset(individuals),
    )


class Diagnostic(NamedTuple):
    part: Optional[str]  # "deterministic" | "uncertain" | None for signature-level
    index: Optional[int]
    reason: str

    def __str__(self) -> str:
        where = f"{self.part}[{self.index}]" if self.part is not None else "signature"
        return f"{where}: {self.reason}"


@dataclass(frozen=True)
class WeightedStatement:
    statement: Axiom
    weight: Weight


@dataclass(frozen=True)
class KnowledgeBase:
    signature: Signature
    deterministic: tuple
    uncertain: tuple


def make_kb(signature: Signature, deterministic=(), uncertain=()) -> KnowledgeBase:
    return KnowledgeBase(signature, tuple(deterministic), tuple(uncertain))


def axiom_names(axiom: Axiom) -> Iterator[tuple]:
    """Yield (sort, name) for every signature element an axiom mentions."""

    def walk(concept: Concept):
        if isinstance(concept, str):
            yield "concept", concept
        elif isinstance(concept, Nominal):
            yield "individual", concept.individual
        elif isinstance(concept, And):
            for part in concept.parts:
                yield from walk(part)
        elif isinstance(concept, Exists):
            yield "role", concept.role
            yield from walk(concept.filler)
        elif isinstance(concept, DataSome):
            yield "feature", concept.feature

    if isinstance(axiom, (Gci, Equiv)):
        yield from walk(axiom.left)
        yield from walk(axiom.right)
    elif isinstance(axiom, RoleInclusion):
        for role in axiom.chain:
            yield "role", role
        yield "role", axiom.sup
    elif isinstance(axiom, ConceptAssertion):
        yield from walk(axiom.concept)
        yield "individual", axiom.individual
    elif isinstance(axiom, RoleAssertion):
        yield "role", axiom.role
        yield "individual", axiom.subject
        yield "individual", axiom.object
    elif isinstance(axiom, FeatureAssertion):
        yield "feature", axiom.feature
        yield "individual", axiom.subject


def _restrictions(axiom: Axiom) -> Iterator[Restriction]:
    def walk(concept: Concept):
        if isinstance(concept, And):
            for part in concept.parts:
                yield from walk(part)
        elif isinstance(concept, Exists):
            yield from walk(concept.filler)
        elif isinstance(concept, DataSome):
            yield concept.restriction

    if isinstance(axiom, (Gci, Equiv)):
        yield from walk(axiom.left)
        yield from walk(axiom.right)
    elif isinstance(axiom, ConceptAssertion):
        yield from walk(axiom.concept)


def validate(kb: KnowledgeBase) -> list:
    """Check every statement and invariant; one Diagnostic per violation.

    Returns the empty list iff all statements are in normal form over the
    signature and the weight/part invariant holds.
    """
    diagnostics = []
    sig = kb.signature
    sorts = {}
    for sort, names in (
        ("concept", sig.concepts),
        ("role", sig.roles),
        ("feature", sig.features),
        ("individual", sig.individuals),
    ):
        for name in sorted(names):
            if name in sorts and sorts[name] != sort:
                diagnostics.append(Diagnostic(None, None, f"name '{name}' declared as both {sorts[name]} and {sort}"))
            sorts.setdefault(name, sort)
    if TOP not in sig.concepts or BOT not in sig.concepts:
        diagnostics.append(Diagnostic(None, None, "signature must contain TOP and BOT"))

    seen = {}
    for part, statements in (("deterministic", kb.deterministic), ("uncertain", kb.uncertain)):
        for index, weighted in enumerate(statements):
            statement, weight = weighted.statement, weighted.weight
            if not is_normal_form(statement):
                diagnostics.append(Diagnostic(part, index, "statement is not in normal form"))
                continue
            for sort, name in axiom_names(statement):
                declared = sorts.get(name)
                if declared is None:
                    diagnostics.append(Diagnostic(part, index, f"unknown name '{name}'"))
                elif declared != sort:
                    diagnostics.append(Diagnostic(part, index, f"'{name}' used as {sort} but declared as {declared}"))
            for restriction in _restrictions(statement):
                if restriction.op not in OPERATORS:
                    diagnostics.append(Diagnostic(part, index, f"unknown comparison operator '{restriction.op}'"))
                if not isinstance(restriction.value, Fraction):
                    diagnostics.append(Diagnostic(part, index, "restriction value must be an exact rational"))
            if part == "deterministic" and not is_infinite(weight):
                diagnostics.append(Diagnostic(part, index, "finite weight inside deterministic part"))
            if part == "uncertain" and is_infinite(weight):
                diagnostics.append(Diagnostic(part, index, "infinite weight outside deterministic part"))
            if statement in seen and seen[statement] != part:
                diagnostics.append(Diagnostic(part, index, "statement appears in both parts"))
            seen.setdefault(statement, part)
    return diagnostics
