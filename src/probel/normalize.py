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

from typing import NamedTuple, Optional, Sequence, Tuple

from .model import (
    And,
    Axiom,
    Concept,
    ConceptAssertion,
    Diagnostic,
    Equiv,
    Exists,
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


class NormalizeResult(NamedTuple):
    kb: KnowledgeBase
    name_map: dict  # fresh name -> original subexpression (Concept or role chain tuple)
    diagnostics: list


class _Rewriter:
    def __init__(self, sig: Signature):
        self.sig = sig
        self.concepts = set(sig.concepts)
        self.roles = set(sig.roles)
        self.deterministic: dict = {}  # statement -> None, in first-occurrence order
        self.uncertain: list = []
        self.name_map: dict = {}
        self.cache: dict = {}  # (side, expression) -> fresh name
        self.counter = 0
        self.diagnostics: list = []

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
        self.add(axiom, weight)

    def add(self, axiom: Axiom, weight: Weight):
        statement = WeightedStatement(axiom, weight)
        if is_infinite(weight):
            self.deterministic[statement] = None
        else:
            self.uncertain.append(statement)

    def rewrite(self, axiom: Axiom, weight: Weight):
        """Add a flattened axiom: as it is when it is normal, else as the
        normal statements it rewrites into."""
        if is_normal_form(axiom):
            self.add(axiom, weight)
        elif isinstance(axiom, Gci):
            if is_infinite(weight):
                # no carrier needed: decompose in place
                if is_ref(axiom.left):
                    self.define_right(axiom.left, axiom.right)
                elif is_ref(axiom.right):
                    self.define_left(axiom.left, axiom.right)
                else:
                    self.define_right(self.left_ref(axiom.left), axiom.right)
            else:
                self.emit(Gci(self.left_ref(axiom.left), self.right_ref(axiom.right)), weight)
        elif isinstance(axiom, ConceptAssertion):
            self.emit(ConceptAssertion(self.right_ref(axiom.concept), axiom.individual), weight)
        elif isinstance(axiom, RoleInclusion):
            chain = axiom.chain
            acc = chain[0]
            for role in chain[1:-1]:
                step = self.fresh_role((acc, role))
                self.emit(RoleInclusion((acc, role), step), INFINITE)
                acc = step
            self.emit(RoleInclusion((acc, chain[-1]), axiom.sup), weight)
        else:  # pragma: no cover - assertions and role axioms are always normal
            self.diagnostics.append(Diagnostic("input", None, f"cannot normalize {axiom!r}"))

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
        else:  # DataSome or ref
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
    contribute their weight to both directions. An axiom with a name the
    signature lacks, or holds with another sort, is left out with a
    diagnostic.
    """
    diagnostics = []
    known = []
    for index, (axiom, weight) in enumerate(axioms):
        problem = _check_names(axiom, sig)
        if problem is not None:
            diagnostics.append(Diagnostic("input", index, problem))
        else:
            known.append((axiom, weight))
    result = rewrite(known, sig)
    result.diagnostics[:0] = diagnostics
    return result


def rewrite(
    axioms: Sequence[Tuple[Axiom, Weight]], sig: Signature
) -> NormalizeResult:
    """The rewriting of :func:`normalize` alone, for axioms whose every name
    the signature already holds with the sort the axiom uses it with."""
    rewriter = _Rewriter(sig)
    for axiom, weight in axioms:
        if is_normal_form(axiom):  # most axioms: kept where they stand, as they are
            rewriter.add(axiom, weight)
        elif isinstance(axiom, Equiv):
            left, right = _flatten(axiom.left), _flatten(axiom.right)
            rewriter.rewrite(Gci(left, right), weight)
            rewriter.rewrite(Gci(right, left), weight)
        elif isinstance(axiom, Gci):
            rewriter.rewrite(Gci(_flatten(axiom.left), _flatten(axiom.right)), weight)
        elif isinstance(axiom, ConceptAssertion):
            rewriter.rewrite(ConceptAssertion(_flatten(axiom.concept), axiom.individual), weight)
        else:
            rewriter.rewrite(axiom, weight)

    out_sig = make_signature(
        rewriter.concepts, rewriter.roles, sig.features, sig.individuals
    )
    kb = KnowledgeBase(out_sig, tuple(rewriter.deterministic), tuple(rewriter.uncertain))
    return NormalizeResult(kb, rewriter.name_map, rewriter.diagnostics)
