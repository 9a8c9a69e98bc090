"""Vocabulary, axiom trees and the normal-form grammar of weighted EL++ knowledge bases.

A knowledge base has a deterministic part (statements that must hold) and an
uncertain part (statements carrying finite weights). Weights are exact
rationals, never floats, so objective values and partition scores can be
compared exactly. TOP and BOT are ordinary concept names with reserved
spellings.

Every value type is a ``typing.NamedTuple``, which costs a tenth of a
millisecond to create at import; a class with generated methods costs about
a millisecond, in every process. Concepts and statements are immutable, hash
as the tuple of their fields and are equal only to an instance of their own
class, so ``Gci('A', 'B')`` is not ``Equiv('A', 'B')``.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Tuple, Union

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


def _value_type(cls):
    """Make a NamedTuple class equal only to instances of itself: a plain
    tuple comparison would equate two statement kinds with equal fields."""
    cls.__eq__ = _eq
    cls.__ne__ = _ne
    cls.__hash__ = tuple.__hash__
    return cls


def _eq(self, other) -> bool:
    return self.__class__ is other.__class__ and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return self.__class__ is not other.__class__ or tuple.__ne__(self, other)


class Restriction(NamedTuple):
    """Numeric datatype restriction (o, v): the set of values x with x o v."""

    op: str
    value: Fraction

    def __str__(self) -> str:
        return f"({self.op}, {format_value(self.value)})"


@_value_type
class And(NamedTuple):
    parts: tuple  # two or more concept expressions


@_value_type
class Exists(NamedTuple):
    role: str
    filler: "Concept"


@_value_type
class DataSome(NamedTuple):
    feature: str
    restriction: Restriction


Concept = Union[str, Nominal, And, Exists, DataSome]


def is_ref(c: Concept) -> bool:
    return isinstance(c, (str, Nominal))


# ---------------------------------------------------------------------------
# Axioms
# ---------------------------------------------------------------------------

@_value_type
class Gci(NamedTuple):
    """General concept inclusion left <= right."""

    left: Concept
    right: Concept


@_value_type
class Equiv(NamedTuple):
    """Concept equivalence; expanded to two inclusions before normalization."""

    left: Concept
    right: Concept


@_value_type
class RoleInclusion(NamedTuple):
    """chain[0] o ... o chain[k-1] <= sup; a single-role chain is plain R1 <= R2."""

    chain: tuple
    sup: str


@_value_type
class ConceptAssertion(NamedTuple):
    concept: Concept
    individual: str


@_value_type
class RoleAssertion(NamedTuple):
    role: str
    subject: str
    object: str


@_value_type
class FeatureAssertion(NamedTuple):
    feature: str
    subject: str
    value: Fraction


Axiom = Union[Gci, Equiv, RoleInclusion, ConceptAssertion, RoleAssertion, FeatureAssertion]


def normal_atom(axiom: Axiom) -> Optional[Tuple[str, tuple]]:
    """The predicate and arguments of a normal statement's ground atom, or
    None if the statement has no normal shape.

    This is the one table from the normal shapes to the stored predicates.
    Atomic positions admit concept names and nominals; composite expressions
    anywhere else disqualify the axiom (the normalizer rewrites those).
    ``translate.make_atom`` builds the atom, turning inst with a nominal
    concept into ninst.
    """
    if isinstance(axiom, Gci):
        left, right = axiom.left, axiom.right
        if is_ref(left):
            if is_ref(right):
                if isinstance(right, Nominal) and isinstance(left, str):
                    return "subNom", (left, right.individual)
                return "sub", (left, right)
            if isinstance(right, Exists) and is_ref(right.filler):
                return "rsup", (left, right.role, right.filler)
            if isinstance(right, DataSome):
                return "rsupEx", (left, right.feature, *right.restriction)
        elif isinstance(left, And):
            if len(left.parts) == 2 and is_ref(left.parts[0]) and is_ref(left.parts[1]):
                if is_ref(right):
                    return "int", (*left.parts, right)
                if isinstance(right, DataSome):
                    return "intEx", (*left.parts, right.feature, *right.restriction)
        elif is_ref(right):
            if isinstance(left, Exists) and is_ref(left.filler):
                return "rsub", (left.filler, left.role, right)
            if isinstance(left, DataSome):
                return "rsubEx", (left.feature, *left.restriction, right)
        return None
    if isinstance(axiom, ConceptAssertion):
        return ("inst", (axiom.individual, axiom.concept)) if is_ref(axiom.concept) else None
    if isinstance(axiom, RoleAssertion):
        return "rinst", (axiom.subject, axiom.role, axiom.object)
    if isinstance(axiom, FeatureAssertion):
        return "rinst", (axiom.subject, axiom.feature, axiom.value)
    if isinstance(axiom, RoleInclusion):
        if len(axiom.chain) == 1:
            return "psub", (axiom.chain[0], axiom.sup)
        if len(axiom.chain) == 2:
            return "pcom", (*axiom.chain, axiom.sup)
    return None  # Equiv is never normal


def is_normal_form(axiom: Axiom) -> bool:
    return normal_atom(axiom) is not None


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


def exact_sum(values: Iterable[Fraction]) -> Fraction:
    """The exact sum of rationals, ``Fraction(0)`` when there is none.

    The numerators are added as ints per denominator, and one ``Fraction``
    is made per denominator: adding ``Fraction``s one at a time takes a gcd
    at every step.
    """
    numerators = {}
    for value in values:
        den = value.denominator
        numerators[den] = numerators.get(den, 0) + value.numerator
    total = Fraction(0)
    for den, num in numerators.items():
        total += Fraction(num, den)
    return total


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

class Signature(NamedTuple):
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


class WeightedStatement(NamedTuple):
    statement: Axiom
    weight: Weight


class KnowledgeBase(NamedTuple):
    signature: Signature
    deterministic: tuple
    uncertain: tuple


def make_kb(signature: Signature, deterministic=(), uncertain=()) -> KnowledgeBase:
    return KnowledgeBase(signature, tuple(deterministic), tuple(uncertain))


def _walk(concept: Concept, names: list, restrictions: list) -> None:
    """Append the names and restrictions of ``concept`` to the two lists; a
    nested function that calls itself would be a reference cycle per call."""
    if isinstance(concept, str):
        names.append(("concept", concept))
    elif isinstance(concept, Nominal):
        names.append(("individual", concept.individual))
    elif isinstance(concept, And):
        for part in concept.parts:
            _walk(part, names, restrictions)
    elif isinstance(concept, Exists):
        names.append(("role", concept.role))
        _walk(concept.filler, names, restrictions)
    elif isinstance(concept, DataSome):
        names.append(("feature", concept.feature))
        restrictions.append(concept.restriction)


def _mentions(axiom: Axiom) -> tuple:
    """The (sort, name) of every signature element an axiom mentions, and
    its datatype restrictions, in one walk."""
    names: list = []
    restrictions: list = []
    if isinstance(axiom, (Gci, Equiv)):
        _walk(axiom.left, names, restrictions)
        _walk(axiom.right, names, restrictions)
    elif isinstance(axiom, RoleInclusion):
        names += [("role", role) for role in axiom.chain]
        names.append(("role", axiom.sup))
    elif isinstance(axiom, ConceptAssertion):
        _walk(axiom.concept, names, restrictions)
        names.append(("individual", axiom.individual))
    elif isinstance(axiom, RoleAssertion):
        names += (("role", axiom.role), ("individual", axiom.subject), ("individual", axiom.object))
    elif isinstance(axiom, FeatureAssertion):
        names += (("feature", axiom.feature), ("individual", axiom.subject))
    return names, restrictions


def axiom_names(axiom: Axiom) -> list:
    """(sort, name) for every signature element an axiom mentions."""
    return _mentions(axiom)[0]


class Diagnostics(list):
    """What validate finds, one Diagnostic per violation, and each
    statement's ``normal_atom`` pair in the order of its part:
    ``deterministic`` and ``uncertain``, whole only when the list is empty."""

    __slots__ = ("deterministic", "uncertain")


def validate(kb: KnowledgeBase) -> Diagnostics:
    """Check every statement and invariant; one Diagnostic per violation.

    Returns the empty list iff all statements are in normal form over the
    signature and the weight/part invariant holds. The list also carries
    each statement's normal atom, so that no caller computes it again.
    """
    diagnostics = Diagnostics()
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
    parts = []
    for part, statements in (("deterministic", kb.deterministic), ("uncertain", kb.uncertain)):
        atoms = []
        parts.append(atoms)
        for index, weighted in enumerate(statements):
            statement, weight = weighted.statement, weighted.weight
            atom = normal_atom(statement)
            if atom is None:
                diagnostics.append(Diagnostic(part, index, "statement is not in normal form"))
                continue
            atoms.append(atom)
            names, restrictions = _mentions(statement)
            for sort, name in names:
                declared = sorts.get(name)
                if declared is None:
                    diagnostics.append(Diagnostic(part, index, f"unknown name '{name}'"))
                elif declared != sort:
                    diagnostics.append(Diagnostic(part, index, f"'{name}' used as {sort} but declared as {declared}"))
            for restriction in restrictions:
                if restriction.op not in OPERATORS:
                    diagnostics.append(Diagnostic(part, index, f"unknown comparison operator '{restriction.op}'"))
                if not isinstance(restriction.value, Fraction):
                    diagnostics.append(Diagnostic(part, index, "restriction value must be an exact rational"))
            if isinstance(statement, FeatureAssertion) and not isinstance(statement.value, Fraction):
                diagnostics.append(Diagnostic(part, index, "feature value must be an exact rational"))
            if part == "deterministic" and not is_infinite(weight):
                diagnostics.append(Diagnostic(part, index, "finite weight inside deterministic part"))
            if part == "uncertain" and is_infinite(weight):
                diagnostics.append(Diagnostic(part, index, "infinite weight outside deterministic part"))
            if seen.setdefault(statement, part) != part:
                diagnostics.append(Diagnostic(part, index, "statement appears in both parts"))
    diagnostics.deterministic, diagnostics.uncertain = parts
    return diagnostics
