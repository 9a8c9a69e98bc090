"""Seeded generators of knowledge-base text for the benchmark workloads.

The generators live here, not in ``probel.randgen``, so that a change to
the program cannot change what the benchmark feeds it. They import nothing
from ``probel`` and emit only KB text; the same seed gives byte-identical
texts, and :func:`digest` fingerprints a batch.
"""
from __future__ import annotations

import hashlib
import random
from decimal import Decimal
from fractions import Fraction

# ---------------------------------------------------------------------------
# Shared pieces
# ---------------------------------------------------------------------------


def _weight(rng: random.Random) -> str:
    """A weight from -1.0 .. 1.0 in steps of 0.1, as KB text."""
    return str(Decimal(rng.randint(-10, 10)) / 10)


def digest(texts) -> str:
    """sha256 over a batch of KB texts, length-prefixed so that the batch
    boundaries are part of the fingerprint."""
    h = hashlib.sha256()
    for text in texts:
        data = text.encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# G(N, U, K): N concepts, 2 roles, K individuals, U distinct statements
# ---------------------------------------------------------------------------

_ROLES = ("r0", "r1")


# The G statement mix, in parts of 20: 50 % A SUBCLASSOF B, 15 % A AND B
# SUBCLASSOF C, 10 % A SUBCLASSOF r SOME B, 10 % r SOME A SUBCLASSOF B and
# 15 % assertions, two thirds of them concept and one third role assertions.
_G_MIX = (("sub", 10), ("conj", 3), ("exists_right", 2), ("exists_left", 2),
          ("concept_assert", 2), ("role_assert", 1))


def _g_forms(u: int) -> list:
    """Exactly ``u`` form names in the proportions of :data:`_G_MIX`, the
    remainders going to the largest fractions (ties in mix order). Fixing
    the counts, instead of drawing each form, keeps KBs of one size alike
    in cost, so that one seed's batch costs about what another's does."""
    exact = [(form, parts * u / 20) for form, parts in _G_MIX]
    counts = {form: int(share) for form, share in exact}
    by_fraction = sorted(exact, key=lambda fs: -(fs[1] - int(fs[1])))
    for form, _ in by_fraction[: u - sum(counts.values())]:
        counts[form] += 1
    return [form for form, _ in _G_MIX for _ in range(counts[form])]


def _g_statement(rng: random.Random, form: str, n: int, k: int) -> str:
    if form == "sub":
        a, b = rng.sample(range(n), 2)
        return f"C{a} SUBCLASSOF C{b}"
    if form == "conj":
        a, b, c = rng.sample(range(n), 3)
        a, b = min(a, b), max(a, b)
        return f"C{a} AND C{b} SUBCLASSOF C{c}"
    if form == "exists_right":
        a, b = rng.sample(range(n), 2)
        return f"C{a} SUBCLASSOF {rng.choice(_ROLES)} SOME C{b}"
    if form == "exists_left":
        a, b = rng.sample(range(n), 2)
        return f"{rng.choice(_ROLES)} SOME C{a} SUBCLASSOF C{b}"
    if form == "concept_assert":
        return f"C{rng.randrange(n)}(i{rng.randrange(k)})"
    s, o = rng.sample(range(k), 2)
    return f"{rng.choice(_ROLES)}(i{s}, i{o})"


def _balanced_weights(rng: random.Random, u: int) -> list:
    """``u`` weights as KB text: half of them (rounded down) from -1.0 ..
    -0.1 and the rest from 0.1 .. 1.0, in steps of 0.1, in random order.
    The share of positive weights sets much of the ILP's cost, so it is
    fixed rather than drawn."""
    signs = [-1] * (u // 2) + [1] * (u - u // 2)
    rng.shuffle(signs)
    return [str(Decimal(sign * rng.randint(1, 10)) / 10) for sign in signs]


def g_kb(rng: random.Random, n: int, u: int, k: int, weighted: bool = True) -> str:
    """G(N, U, K) as KB text: U distinct statements in the exact G mix, in
    random order.

    Weighted: U uncertain statements, half with a negative weight, plus the
    one deterministic statement ``C0 AND C1 SUBCLASSOF BOT``. Unweighted: U
    deterministic statements and no BOT axiom, so the KB is coherent by
    construction.
    """
    forms = _g_forms(u)
    rng.shuffle(forms)
    seen = set()
    statements = []
    for form in forms:
        statement = _g_statement(rng, form, n, k)
        while statement in seen:
            statement = _g_statement(rng, form, n, k)
        seen.add(statement)
        statements.append(statement)
    if not weighted:
        return "\n".join(statements) + "\n"
    weights = _balanced_weights(rng, u)
    lines = ["C0 AND C1 SUBCLASSOF BOT"]
    lines += [f"{w} {statement}" for w, statement in zip(weights, statements)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Independent family: n statements A_i SUBCLASSOF B_i
# ---------------------------------------------------------------------------


def independent_kb(rng: random.Random, n: int) -> str:
    """n unrelated weighted statements; the MAP objective is the sum of the
    positive weights."""
    return "".join(f"{_weight(rng)} A{i} SUBCLASSOF B{i}\n" for i in range(n))


def independent_objective(text: str) -> Fraction:
    """The closed-form MAP objective of an :func:`independent_kb` text."""
    total = Fraction(0)
    for line in text.splitlines():
        weight = Fraction(line.split(" ", 1)[0])
        if weight > 0:
            total += weight
    return total


# ---------------------------------------------------------------------------
# Small random KBs (the randgen statement mix), for the exhaustive oracle
# ---------------------------------------------------------------------------

_SMALL_CONCEPTS = ("A", "B", "C", "D", "E", "G")
_SMALL_ROLES = ("r", "s")
_SMALL_INDIVIDUALS = ("a", "b", "c")
_SMALL_VALUES = ("-2", "-1", "0", "1", "2")
_OPERATORS = ("<", "<=", "=", ">=", ">")


class _SmallPool:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.concepts = _SMALL_CONCEPTS[: rng.randint(2, 6)]
        self.roles = _SMALL_ROLES[: rng.randint(1, 2)]
        self.individuals = _SMALL_INDIVIDUALS[: rng.randint(1, 3)]

    def ref(self, special: bool) -> str:
        rng = self.rng
        if special and rng.random() < 0.2:
            return "{" + rng.choice(self.individuals) + "}"
        if special and rng.random() < 0.1:
            return rng.choice(("TOP", "BOT"))
        return rng.choice(self.concepts)

    def restriction(self) -> str:
        return f"f SOME ({self.rng.choice(_OPERATORS)}, {self.rng.choice(_SMALL_VALUES)})"


# Forms whose deterministic use can never make a KB incoherent: no BOT, no
# nominal, no datatype restriction and no feature value in any of them.
_SAFE_FORMS = (
    "sub", "sub", "conj", "exists_left", "exists_right",
    "concept_assert", "role_assert", "role_sub", "role_chain",
)
_ALL_FORMS = _SAFE_FORMS + (
    "data_right", "data_left", "conj_data", "sub_nominal", "feature_assert",
)


def _small_statement(pool: _SmallPool, form: str, special: bool) -> str:
    rng = pool.rng
    ref = pool.ref
    if form == "sub":
        return f"{ref(False)} SUBCLASSOF {ref(special)}"
    if form == "conj":
        return f"{ref(False)} AND {ref(False)} SUBCLASSOF {ref(special)}"
    if form == "exists_left":
        return f"{rng.choice(pool.roles)} SOME {ref(False)} SUBCLASSOF {ref(special)}"
    if form == "exists_right":
        return f"{ref(False)} SUBCLASSOF {rng.choice(pool.roles)} SOME {ref(False)}"
    if form == "concept_assert":
        return f"{rng.choice(pool.concepts)}({rng.choice(pool.individuals)})"
    if form == "role_assert":
        return (f"{rng.choice(pool.roles)}({rng.choice(pool.individuals)}, "
                f"{rng.choice(pool.individuals)})")
    if form == "role_sub":
        return f"ROLECHAIN {rng.choice(pool.roles)} SUBROLEOF {rng.choice(pool.roles)}"
    if form == "role_chain":
        first, second, sup = (rng.choice(pool.roles) for _ in range(3))
        return f"ROLECHAIN {first} {second} SUBROLEOF {sup}"
    if form == "data_right":
        return f"{ref(False)} SUBCLASSOF {pool.restriction()}"
    if form == "data_left":
        return f"{pool.restriction()} SUBCLASSOF {ref(True)}"
    if form == "conj_data":
        return f"{ref(False)} AND {ref(False)} SUBCLASSOF {pool.restriction()}"
    if form == "sub_nominal":
        return f"{rng.choice(pool.concepts)} SUBCLASSOF {{{rng.choice(pool.individuals)}}}"
    if form == "feature_assert":
        return f"f({rng.choice(pool.individuals)}, {rng.choice(_SMALL_VALUES)})"
    raise ValueError(form)


def small_kb(rng: random.Random, uncertain: int, max_deterministic: int = 3) -> str:
    """A small KB: exactly ``uncertain`` distinct uncertain statements over
    the full statement mix and 0..max_deterministic deterministic ones over
    the forms that keep the deterministic part coherent."""
    pool = _SmallPool(rng)
    seen = set()
    lines = []
    for _ in range(rng.randint(0, max_deterministic)):
        statement = _small_statement(pool, rng.choice(_SAFE_FORMS), special=False)
        if statement not in seen:
            seen.add(statement)
            lines.append(statement)
    while uncertain:
        statement = _small_statement(pool, rng.choice(_ALL_FORMS), special=True)
        if statement not in seen:
            seen.add(statement)
            lines.append(f"{_weight(rng)} {statement}")
            uncertain -= 1
    return "\n".join(lines) + "\n"
