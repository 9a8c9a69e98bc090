"""Line-based text format for weighted knowledge bases.

One statement per line, optional leading decimal weight (absent means the
statement is deterministic), ``#`` comments. Names are declared on first
use; the sort of a name follows from its position. Examples::

    Toddler AND Adult SUBCLASSOF BOT
    0.8 Toddler SUBCLASSOF age SOME (<=, 3)
    0.7 age(john, 2)
    ROLECHAIN hasParent hasParent SUBROLEOF hasGrandparent
    {mary} SUBCLASSOF Person
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .model import (
    And,
    Axiom,
    Concept,
    ConceptAssertion,
    DataSome,
    Exists,
    FeatureAssertion,
    Gci,
    INFINITE,
    KnowledgeBase,
    Nominal,
    RESERVED_PREFIX,
    Restriction,
    RoleAssertion,
    RoleInclusion,
    WeightedStatement,
    axiom_names,
    format_value,
    is_infinite,
    is_ref,
    make_signature,
)
from .normalize import normalize

KEYWORDS = {"AND", "SOME", "SUBCLASSOF", "ROLECHAIN", "SUBROLEOF", "TOP", "BOT"}

_TOKEN = re.compile(
    r"\s*(?:(?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|<|>|=)"
    r"|(?P<punct>[(){},]))"
)


class ParseError(NamedTuple):
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class _Token(NamedTuple):
    kind: str  # number | name | keyword | op | punct | end
    value: str
    column: int


class _LineSyntax(Exception):
    def __init__(self, column: int, message: str):
        self.column = column
        self.message = message


def _tokenize(line: str) -> List[_Token]:
    text = line.split("#", 1)[0]
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            if text[pos:].strip():
                raise _LineSyntax(pos + 1, f"unexpected character {text[pos:].strip()[0]!r}")
            break
        pos = match.end()
        column = match.start(match.lastgroup) + 1
        value = match.group(match.lastgroup)
        kind = match.lastgroup
        if kind == "name" and value in KEYWORDS:
            kind = "keyword"
        tokens.append(_Token(kind, value, column))
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


def _parse_number(token: _Token) -> Fraction:
    try:
        return Fraction(token.value)
    except ZeroDivisionError:
        raise _LineSyntax(token.column, f"zero denominator in {token.value!r}") from None


class _LineParser:
    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        token = self.tokens[self.pos]
        if token.kind != "end":
            self.pos += 1
        return token

    def expect(self, kind: str, value: Optional[str] = None) -> _Token:
        token = self.peek()
        if token.kind != kind or (value is not None and token.value != value):
            want = value or kind
            raise _LineSyntax(token.column, f"expected {want}, found {token.value or 'end of line'!r}")
        return self.take()

    def name(self, what: str) -> str:
        token = self.peek()
        if token.kind != "name":
            raise _LineSyntax(token.column, f"expected {what}, found {token.value or 'end of line'!r}")
        if token.value.startswith(RESERVED_PREFIX):
            raise _LineSyntax(token.column, f"names starting with '{RESERVED_PREFIX}' are reserved")
        return self.take().value

    # ---- grammar ----

    def statement(self) -> Tuple[Axiom, Optional[Fraction]]:
        weight = None
        if self.peek().kind == "number":
            weight = _parse_number(self.take())
        token = self.peek()
        if token.kind == "keyword" and token.value == "ROLECHAIN":
            axiom = self.role_inclusion()
        elif token.kind == "name" and self.peek(1).kind == "punct" and self.peek(1).value == "(":
            axiom = self.assertion()
        elif token.value in ("TOP", "BOT", "{") and self.peek(1 if token.kind == "keyword" else 3).value == "(":
            concept = self.primary()  # TOP(a), BOT(a) or {b}(a)
            self.expect("punct", "(")
            axiom = ConceptAssertion(concept, self.name("individual name"))
            self.expect("punct", ")")
        else:
            left = self.expression()
            self.expect("keyword", "SUBCLASSOF")
            right = self.expression()
            axiom = Gci(left, right)
        end = self.peek()
        if end.kind != "end":
            raise _LineSyntax(end.column, f"unexpected trailing {end.value!r}")
        return axiom, weight

    def role_inclusion(self) -> RoleInclusion:
        self.expect("keyword", "ROLECHAIN")
        chain = [self.name("role name")]
        while self.peek().kind == "name":
            chain.append(self.name("role name"))
        self.expect("keyword", "SUBROLEOF")
        sup = self.name("role name")
        return RoleInclusion(tuple(chain), sup)

    def assertion(self) -> Axiom:
        predicate = self.name("predicate name")
        self.expect("punct", "(")
        subject = self.name("individual name")
        if self.peek().kind == "punct" and self.peek().value == ",":
            self.take()
            token = self.peek()
            if token.kind == "number":
                value = _parse_number(self.take())
                self.expect("punct", ")")
                return FeatureAssertion(predicate, subject, value)
            obj = self.name("individual name")
            self.expect("punct", ")")
            return RoleAssertion(predicate, subject, obj)
        self.expect("punct", ")")
        return ConceptAssertion(predicate, subject)

    def expression(self) -> Concept:
        parts = [self.term()]
        while self.peek().kind == "keyword" and self.peek().value == "AND":
            self.take()
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def term(self) -> Concept:
        token = self.peek()
        if token.kind == "name" and self.peek(1).kind == "keyword" and self.peek(1).value == "SOME":
            name = self.name("role or feature name")
            self.take()  # SOME
            return self.some_argument(name)
        return self.primary()

    def some_argument(self, name: str) -> Concept:
        token = self.peek()
        if token.kind == "punct" and token.value == "(":
            if self.peek(1).kind == "op":
                self.take()
                op = self.take().value
                self.expect("punct", ",")
                number = self.peek()
                if number.kind != "number":
                    raise _LineSyntax(number.column, "expected a numeric value")
                value = _parse_number(self.take())
                self.expect("punct", ")")
                return DataSome(name, Restriction(op, value))
            self.take()
            inner = self.expression()
            self.expect("punct", ")")
            return Exists(name, inner)
        return Exists(name, self.primary())

    def primary(self) -> Concept:
        token = self.peek()
        if token.kind == "keyword" and token.value in ("TOP", "BOT"):
            return self.take().value
        if token.kind == "punct" and token.value == "{":
            self.take()
            individual = self.name("individual name")
            self.expect("punct", "}")
            return Nominal(individual)
        if token.kind == "punct" and token.value == "(":
            self.take()
            inner = self.expression()
            self.expect("punct", ")")
            return inner
        return self.name("concept name")


@dataclass
class ParseResult:
    kb: Optional[KnowledgeBase]
    errors: List[ParseError]
    name_map: dict
    lines: List[int]  # input line number per parsed axiom


def parse_kb(text: str) -> ParseResult:
    """Parse the text format into a validated, normalized knowledge base."""
    axioms: List[Tuple[Axiom, object]] = []
    lines: List[int] = []
    errors: List[ParseError] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            parser = _LineParser(_tokenize(raw))
            axiom, weight = parser.statement()
        except _LineSyntax as err:
            errors.append(ParseError(lineno, err.column, err.message))
            continue
        except RecursionError:  # the descent is recursive: one frame chain per nesting level
            errors.append(ParseError(lineno, parser.peek().column, "nesting too deep"))
            continue
        axioms.append((axiom, INFINITE if weight is None else weight))
        lines.append(lineno)

    sorts: dict = {}
    pools = {"concept": set(), "role": set(), "feature": set(), "individual": set()}
    for (axiom, _), lineno in zip(axioms, lines):
        for sort, name in axiom_names(axiom):
            previous = sorts.get(name)
            if previous is None:
                sorts[name] = sort
                pools[sort].add(name)
            elif previous != sort:
                was, now = (("an " if noun[0] in "aeiou" else "a ") + noun for noun in (previous, sort))
                errors.append(ParseError(lineno, 1, f"'{name}' already used as {was}, now as {now}"))
    for keyword in ("TOP", "BOT"):
        pools["concept"].discard(keyword)

    if errors:
        return ParseResult(None, errors, {}, lines)

    sig = make_signature(pools["concept"], pools["role"], pools["feature"], pools["individual"])
    result = normalize(axioms, sig)
    for diag in result.diagnostics:
        lineno = lines[diag.index] if diag.index is not None and diag.index < len(lines) else 0
        errors.append(ParseError(lineno, 1, diag.reason))
    if errors:
        return ParseResult(None, errors, {}, lines)
    return ParseResult(result.kb, [], result.name_map, lines)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_concept(concept: Concept) -> str:
    if isinstance(concept, str):
        return concept
    if isinstance(concept, Nominal):
        return str(concept)
    if isinstance(concept, And):
        return " AND ".join(
            f"({render_concept(p)})" if isinstance(p, And) else render_concept(p)
            for p in concept.parts
        )
    if isinstance(concept, Exists):
        filler = render_concept(concept.filler)
        if not is_ref(concept.filler):
            filler = f"({filler})"
        return f"{concept.role} SOME {filler}"
    if isinstance(concept, DataSome):
        return f"{concept.feature} SOME {concept.restriction}"
    raise TypeError(f"not a concept: {concept!r}")


def render_axiom(axiom: Axiom) -> str:
    if isinstance(axiom, Gci):
        return f"{render_concept(axiom.left)} SUBCLASSOF {render_concept(axiom.right)}"
    if isinstance(axiom, RoleInclusion):
        return f"ROLECHAIN {' '.join(axiom.chain)} SUBROLEOF {axiom.sup}"
    if isinstance(axiom, ConceptAssertion):
        return f"{render_concept(axiom.concept)}({axiom.individual})"
    if isinstance(axiom, RoleAssertion):
        return f"{axiom.role}({axiom.subject}, {axiom.object})"
    if isinstance(axiom, FeatureAssertion):
        return f"{axiom.feature}({axiom.subject}, {format_value(axiom.value)})"
    raise TypeError(f"not a statement: {axiom!r}")


def render_statement(ws: WeightedStatement) -> str:
    if is_infinite(ws.weight):
        return render_axiom(ws.statement)
    return f"{format_value(ws.weight)} {render_axiom(ws.statement)}"


def serialize_kb(kb: KnowledgeBase) -> str:
    lines = [render_statement(ws) for ws in kb.deterministic]
    lines += [render_statement(ws) for ws in kb.uncertain]
    return "\n".join(lines) + ("\n" if lines else "")
