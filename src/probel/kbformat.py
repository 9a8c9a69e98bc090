"""Line-based text format for weighted knowledge bases.

One statement per line, optional leading weight (absent means the
statement is deterministic), ``#`` comments. A weight or a value is a
decimal or a ``p/q`` rational; a decimal takes no denominator. Names are
declared on first use; the sort of a name follows from its position.
Examples::

    Toddler AND Adult SUBCLASSOF BOT
    0.8 Toddler SUBCLASSOF age SOME (<=, 3)
    0.7 age(john, 2)
    ROLECHAIN hasParent hasParent SUBROLEOF hasGrandparent
    {mary} SUBCLASSOF Person

``parse_kb`` makes one pass per line: it tokenizes the line, reads it by
recursive descent, converts each distinct number literal once and records
each name's sort as it reads the name. It then normalizes the statements.
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
    Equiv,
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
    format_value,
    is_infinite,
    is_ref,
    make_signature,
)
# the parse path needs no name check (see parse_kb); the name keeps the
# normalization layer where perfbench/tracing.py times it
from .normalize import rewrite as normalize

KEYWORDS = {"AND", "SOME", "SUBCLASSOF", "ROLECHAIN", "SUBROLEOF", "TOP", "BOT"}

# The most parentheses a concept may nest, those of ``r SOME (...)``
# included. Reading, normalizing and rendering a concept recurse once per
# level: a line at the limit needs about half of the interpreter's default
# stack in every command, and the first parenthesis past it is reported at
# the same column from any caller.
MAX_NESTING = 100

_TOKEN = re.compile(
    r"(?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|<|>|=)"
    r"|(?P<punct>[(){},])"
    r"|(?P<bad>\S)"
)


class ParseError(NamedTuple):
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class _LineSyntax(Exception):
    def __init__(self, column: int, message: str):
        self.column = column
        self.message = message


def _tokenize(line: str) -> list:
    """The (kind, text, column) tokens of one line without its comment,
    then four end tokens, so that every lookahead is a plain index. The
    kind of a keyword or of punctuation is its text."""
    tokens = []
    end = 0  # an unexpected character is reported where the last token ends
    for match in _TOKEN.finditer(line):
        kind, text = match.lastgroup, match.group()
        if kind == "bad":
            raise _LineSyntax(end + 1, f"unexpected character {text!r}")
        if kind == "punct" or (kind == "name" and text in KEYWORDS):
            kind = text
        tokens.append((kind, text, match.start() + 1))
        end = match.end()
    return tokens + [("end", "", len(line) + 1)] * 4


class _LineParser:
    """Recursive descent over one line. ``names`` gets each name's
    (sort, name) as the name is read, in text order, which is
    ``axiom_names`` order; ``numbers`` maps each literal read so far to
    its value."""

    def __init__(self, line: str, numbers: dict):
        self.tokens = _tokenize(line)
        self.pos = 0
        self.depth = 0  # parentheses open around the position
        self.names: List[Tuple[str, str]] = []
        self.numbers = numbers

    def expect(self, kind: str):
        token = self.tokens[self.pos]
        if token[0] != kind:
            raise _LineSyntax(token[2], f"expected {kind}, found {token[1] or 'end of line'!r}")
        self.pos += 1

    def name(self, what: str, sort: Optional[str] = None) -> str:
        kind, text, column = self.tokens[self.pos]
        if kind != "name":
            raise _LineSyntax(column, f"expected {what}, found {text or 'end of line'!r}")
        if text.startswith(RESERVED_PREFIX):
            raise _LineSyntax(column, f"names starting with '{RESERVED_PREFIX}' are reserved")
        self.pos += 1
        if sort is not None:
            self.names.append((sort, text))
        return text

    def number(self) -> Fraction:
        _, text, column = self.tokens[self.pos]
        self.pos += 1
        value = self.numbers.get(text)
        if value is None:
            try:
                value = self.numbers[text] = Fraction(text)
            except ZeroDivisionError:
                raise _LineSyntax(column, f"zero denominator in {text!r}") from None
            except ValueError:  # a decimal with a denominator, or too many digits
                raise _LineSyntax(column, f"invalid number {text!r}") from None
        return value

    # ---- grammar ----

    def statement(self) -> Tuple[Axiom, Optional[Fraction]]:
        tokens = self.tokens
        weight = self.number() if tokens[0][0] == "number" else None
        kind = tokens[self.pos][0]
        if kind == "ROLECHAIN":
            axiom = self.role_inclusion()
        elif kind == "name" and tokens[self.pos + 1][0] == "(":
            axiom = self.assertion()
        elif kind in ("TOP", "BOT", "{") and tokens[self.pos + (3 if kind == "{" else 1)][0] == "(":
            concept = self.primary()  # TOP(a), BOT(a) or {b}(a)
            self.expect("(")
            axiom = ConceptAssertion(concept, self.name("individual name", "individual"))
            self.expect(")")
        else:
            left = self.expression()
            self.expect("SUBCLASSOF")
            axiom = Gci(left, self.expression())
        kind, text, column = tokens[self.pos]
        if kind != "end":
            raise _LineSyntax(column, f"unexpected trailing {text!r}")
        return axiom, weight

    def role_inclusion(self) -> RoleInclusion:
        self.pos += 1  # ROLECHAIN
        chain = [self.name("role name", "role")]
        while self.tokens[self.pos][0] == "name":
            chain.append(self.name("role name", "role"))
        self.expect("SUBROLEOF")
        return RoleInclusion(tuple(chain), self.name("role name", "role"))

    def assertion(self) -> Axiom:
        predicate = self.name("predicate name")
        self.pos += 1  # (
        subject = self.name("individual name")
        if self.tokens[self.pos][0] == ",":
            self.pos += 1
            if self.tokens[self.pos][0] == "number":
                value = self.number()
                self.expect(")")
                self.names += (("feature", predicate), ("individual", subject))
                return FeatureAssertion(predicate, subject, value)
            obj = self.name("individual name")
            self.expect(")")
            self.names += (("role", predicate), ("individual", subject), ("individual", obj))
            return RoleAssertion(predicate, subject, obj)
        self.expect(")")
        self.names += (("concept", predicate), ("individual", subject))
        return ConceptAssertion(predicate, subject)

    def expression(self) -> Concept:
        parts = [self.term()]
        while self.tokens[self.pos][0] == "AND":
            self.pos += 1
            parts.append(self.term())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def term(self) -> Concept:
        if self.tokens[self.pos][0] == "name" and self.tokens[self.pos + 1][0] == "SOME":
            name = self.name("role or feature name")
            self.pos += 1  # SOME
            return self.some_argument(name)
        return self.primary()

    def some_argument(self, name: str) -> Concept:
        tokens = self.tokens
        if tokens[self.pos][0] == "(":
            kind, op, _ = tokens[self.pos + 1]
            if kind == "op":
                self.pos += 2
                self.expect(",")
                if tokens[self.pos][0] != "number":
                    raise _LineSyntax(tokens[self.pos][2], "expected a numeric value")
                value = self.number()
                self.expect(")")
                self.names.append(("feature", name))
                return DataSome(name, Restriction(op, value))
            self.names.append(("role", name))
            return Exists(name, self.nested())
        self.names.append(("role", name))
        return Exists(name, self.primary())

    def nested(self) -> Concept:
        """The parenthesized expression at the position, parentheses and all."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise _LineSyntax(self.tokens[self.pos][2], "nesting too deep")
        self.pos += 1
        inner = self.expression()
        self.expect(")")
        self.depth -= 1
        return inner

    def primary(self) -> Concept:
        kind = self.tokens[self.pos][0]
        if kind == "TOP" or kind == "BOT":
            self.pos += 1
            return kind
        if kind == "{":
            self.pos += 1
            individual = self.name("individual name", "individual")
            self.expect("}")
            return Nominal(individual)
        if kind == "(":
            return self.nested()
        return self.name("concept name", "concept")


@dataclass
class ParseResult:
    kb: Optional[KnowledgeBase]
    errors: List[ParseError]
    name_map: dict


def parse_kb(text: str) -> ParseResult:
    """Parse the text format into a normalized knowledge base.

    Parsing checks each line's syntax and number literals, rejects reserved
    names and checks that each name keeps one sort; ``errors`` lists the
    syntax errors in line order, then the sort clashes. The KB is not
    validated: one with a statement in both parts comes back in ``kb``, and
    ``model.validate`` reports it.
    """
    axioms: List[Tuple[Axiom, object]] = []
    errors: List[ParseError] = []
    clashes: List[ParseError] = []
    sorts: dict = {}  # name -> sort, in order of first use
    numbers: dict = {}  # literal -> value, for this call only

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line or line.isspace():
            continue
        try:
            parser = _LineParser(line, numbers)
            axiom, weight = parser.statement()
        except _LineSyntax as err:
            errors.append(ParseError(lineno, err.column, err.message))
            continue
        for sort, name in parser.names:
            previous = sorts.setdefault(name, sort)
            if previous != sort:
                was, now = (("an " if noun[0] in "aeiou" else "a ") + noun for noun in (previous, sort))
                clashes.append(ParseError(lineno, 1, f"'{name}' already used as {was}, now as {now}"))
        axioms.append((axiom, INFINITE if weight is None else weight))

    errors += clashes
    if errors:
        return ParseResult(None, errors, {})

    pools: dict = {"concept": [], "role": [], "feature": [], "individual": []}
    for name, sort in sorts.items():
        pools[sort].append(name)
    sig = make_signature(pools["concept"], pools["role"], pools["feature"], pools["individual"])
    # the signature holds each name with the sort it is used with, so the
    # rewriting needs no name check; it has nothing to report on parsed axioms
    result = normalize(axioms, sig)
    return ParseResult(result.kb, [], result.name_map)


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
    """The KB as text, deterministic statements first. The format has no
    equivalence: one is written as its two inclusions, each with the
    statement's weight, as normalization expands it."""
    lines = []
    for ws in kb.deterministic + kb.uncertain:
        axiom = ws.statement
        if isinstance(axiom, Equiv):
            halves = (Gci(axiom.left, axiom.right), Gci(axiom.right, axiom.left))
            lines += [render_statement(WeightedStatement(half, ws.weight)) for half in halves]
        else:
            lines.append(render_statement(ws))
    return "\n".join(lines) + ("\n" if lines else "")
