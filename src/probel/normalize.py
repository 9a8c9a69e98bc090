"""Rewriting arbitrary EL++ axioms into the admitted normal statement shapes.

Each rewrite preserves satisfiability: complex subexpressions are named by
fresh concepts, conjunctions are binarized, role chains longer than two are
split with fresh roles. For an uncertain axiom the original weight is
attached to exactly one carrier statement linking the (possibly fresh) left
name to the (possibly fresh) right name; all definitional statements
introduced along the way are deterministic, so selecting the carrier is
selecting the original axiom.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .model import (
    And,
    Axiom,
    Concept,
    ConceptAssertion,
    Diagnostic,
    Equiv,
    Exists,
    DataSome,
    Gci,
    INFINITE,
    KnowledgeBase,
    RESERVED_PREFIX,
    RoleInclusion,
    Signature,
    Weight,
    WeightedStatement,
    axiom_names,
    is_infinite,
    is_normal_form,
    is_ref,
    make_signature,
)

FRESH_CONCEPT = RESERVED_PREFIX + "C"
FRESH_ROLE = RESERVED_PREFIX + "R"


@dataclass
class NormalizeResult:
    kb: KnowledgeBase
    name_map: dict  # fresh name -> original subexpression (Concept or role chain tuple)
    diagnostics: list


class _Rewriter:
    def __init__(self, sig: Signature):
        self.sig = sig
        self.concepts = set(sig.concepts)
        self.roles = set(sig.roles)
        self.deterministic: list = []
        self.uncertain: list = []
        self.name_map: dict = {}
        self.cache: dict = {}  # (side, expression) -> fresh name
        self.counter = 0

    def fresh_concept(self, expr) -> str:
        name = self._next_name(FRESH_CONCEPT)
        self.concepts.add(name)
        self.name_map[name] = expr
        return name

    def fresh_role(self, chain) -> str:
        name = self._next_name(FRESH_ROLE)
        self.roles.add(name)
        self.name_map[name] = chain
        return name

    def _next_name(self, prefix: str) -> str:
        # skip names an (API-built) signature may already carry
        while True:
            self.counter += 1
            name = f"{prefix}{self.counter}"
            if name not in self.concepts and name not in self.roles:
                return name

    def emit(self, axiom: Axiom, weight: Weight):
        assert is_normal_form(axiom), axiom
        statement = WeightedStatement(axiom, weight)
        if is_infinite(weight):
            if statement not in self.deterministic:
                self.deterministic.append(statement)
        else:
            self.uncertain.append(statement)

    # -- left side: returns a ref with (expr <= ref) among the definitions --

    def left_ref(self, expr: Concept):
        if is_ref(expr):
            return expr
        key = ("left", expr)
        if key not in self.cache:
            name = self.fresh_concept(expr)
            self.cache[key] = name
            self.define_left(expr, name)
        return self.cache[key]

    def define_left(self, expr: Concept, target):
        if isinstance(expr, And):
            refs = [self.left_ref(p) for p in expr.parts]
            acc = refs[0]
            for middle in refs[1:-1]:
                step = self.fresh_concept(And((acc, middle)))
                self.emit(Gci(And((acc, middle)), step), INFINITE)
                acc = step
            self.emit(Gci(And((acc, refs[-1])), target), INFINITE)
        elif isinstance(expr, Exists):
            filler = self.left_ref(expr.filler)
            self.emit(Gci(Exists(expr.role, filler), target), INFINITE)
        elif isinstance(expr, DataSome):
            self.emit(Gci(expr, target), INFINITE)
        else:  # ref
            self.emit(Gci(expr, target), INFINITE)

    # -- right side: returns a ref with (ref <= expr) among the definitions --

    def right_ref(self, expr: Concept):
        if is_ref(expr):
            return expr
        key = ("right", expr)
        if key not in self.cache:
            name = self.fresh_concept(expr)
            self.cache[key] = name
            self.define_right(name, expr)
        return self.cache[key]

    def define_right(self, source, expr: Concept):
        if isinstance(expr, And):
            for part in expr.parts:
                self.define_right(source, part)
        elif isinstance(expr, Exists):
            filler = self.right_ref(expr.filler)
            self.emit(Gci(source, Exists(expr.role, filler)), INFINITE)
        else:  # DataSome or ref
            self.emit(Gci(source, expr), INFINITE)


def _flatten(concept: Concept) -> Concept:
    """Flatten nested conjunctions; single-part conjunctions collapse."""
    if isinstance(concept, And):
        parts = []
        for part in concept.parts:
            flat = _flatten(part)
            if isinstance(flat, And):
                parts.extend(flat.parts)
            else:
                parts.append(flat)
        return parts[0] if len(parts) == 1 else And(tuple(parts))
    if isinstance(concept, Exists):
        return Exists(concept.role, _flatten(concept.filler))
    return concept


def _check_names(axiom: Axiom, sig: Signature) -> Optional[str]:
    pools = {
        "concept": sig.concepts,
        "role": sig.roles,
        "feature": sig.features,
        "individual": sig.individuals,
    }
    for sort, name in axiom_names(axiom):
        if name not in pools[sort]:
            for other, pool in pools.items():
                if other != sort and name in pool:
                    return f"'{name}' used as {sort} but declared as {other}"
            return f"unknown {sort} '{name}'"
    return None


def normalize(
    axioms: Sequence[Tuple[Axiom, Weight]], sig: Signature
) -> NormalizeResult:
    """Rewrite weighted axioms into normal statements over an extended
    signature. Already-normal axioms pass through unchanged; equivalences
    contribute their weight to both directions.
    """
    rewriter = _Rewriter(sig)
    diagnostics = []

    expanded = []
    for index, (axiom, weight) in enumerate(axioms):
        problem = _check_names(axiom, sig)
        if problem is not None:
            diagnostics.append(Diagnostic("input", index, problem))
            continue
        if isinstance(axiom, Equiv):
            left, right = _flatten(axiom.left), _flatten(axiom.right)
            expanded.append((Gci(left, right), weight))
            expanded.append((Gci(right, left), weight))
        elif isinstance(axiom, Gci):
            expanded.append((Gci(_flatten(axiom.left), _flatten(axiom.right)), weight))
        elif isinstance(axiom, ConceptAssertion):
            expanded.append((ConceptAssertion(_flatten(axiom.concept), axiom.individual), weight))
        else:
            expanded.append((axiom, weight))

    for axiom, weight in expanded:
        if is_normal_form(axiom):
            rewriter.emit(axiom, weight)
            continue
        if isinstance(axiom, Gci):
            if is_infinite(weight):
                # no carrier needed: decompose in place
                if is_ref(axiom.left):
                    rewriter.define_right(axiom.left, axiom.right)
                elif is_ref(axiom.right):
                    rewriter.define_left(axiom.left, axiom.right)
                else:
                    left = rewriter.left_ref(axiom.left)
                    rewriter.define_right(left, axiom.right)
            else:
                left = rewriter.left_ref(axiom.left)
                right = rewriter.right_ref(axiom.right)
                rewriter.emit(Gci(left, right), weight)
        elif isinstance(axiom, ConceptAssertion):
            name = rewriter.right_ref(axiom.concept)
            rewriter.emit(ConceptAssertion(name, axiom.individual), weight)
        elif isinstance(axiom, RoleInclusion):
            chain = axiom.chain
            acc = chain[0]
            for role in chain[1:-1]:
                step = rewriter.fresh_role((acc, role))
                rewriter.emit(RoleInclusion((acc, role), step), INFINITE)
                acc = step
            rewriter.emit(RoleInclusion((acc, chain[-1]), axiom.sup), weight)
        else:  # pragma: no cover - assertions and role axioms are always normal
            diagnostics.append(Diagnostic("input", None, f"cannot normalize {axiom!r}"))

    out_sig = make_signature(
        rewriter.concepts, rewriter.roles, sig.features, sig.individuals
    )
    kb = KnowledgeBase(out_sig, tuple(rewriter.deterministic), tuple(rewriter.uncertain))
    return NormalizeResult(kb, rewriter.name_map, diagnostics)
