"""Ground reasoner atoms, the axiom/atom mapping, and the completion-rule templates.

Thirteen stored predicates (sub, subNom, int, intEx, rsub, rsup, rsupEx,
rsubEx, psub, pcom, inst, rinst, ninst) plus the computed predicate eval.
Concept arguments are concept names or nominals; rinst is dual-sorted,
holding either (individual, role, individual) or (individual, feature, value).

inst atoms never carry a nominal concept: constructing inst(x, {a})
canonicalizes to ninst(x, a), which is what the nominal-instance rules
consume. Likewise the calculus reads "x has a nominal-rooted role filler"
directly off rsup atoms whose first argument is a nominal.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional

from .model import (
    BOT,
    TOP,
    And,
    Axiom,
    ConceptAssertion,
    DataSome,
    Exists,
    FeatureAssertion,
    Gci,
    Nominal,
    Restriction,
    RoleAssertion,
    RoleInclusion,
    Signature,
    format_value,
    normal_atom,
)


_new = tuple.__new__


class Atom(NamedTuple):
    pred: str
    args: tuple

    def __str__(self) -> str:
        return f"{self.pred}({', '.join(_arg_str(a) for a in self.args)})"


def _arg_str(arg) -> str:
    if isinstance(arg, str):
        return arg
    if isinstance(arg, Nominal):
        return str(arg)
    return format_value(arg)


def make_atom(pred: str, *args) -> Atom:
    if pred == "inst" and isinstance(args[1], Nominal):
        return _new(Atom, ("ninst", (args[0], args[1].individual)))
    return _new(Atom, (pred, args))  # Atom(...) without its Python-level __new__


def atom_sort_key(atom: Atom) -> tuple:
    """The canonical order of atoms: the flat tuple of the predicate and the
    arguments' strings, or of the predicate and the arguments themselves
    when they are all strings. Like the nested key ``(pred, (arg
    strings...))`` it compares the predicates first and then the argument
    strings lexicographically, so it orders every pair of atoms as that key
    does, without building an inner tuple."""
    pred, args = atom
    for arg in args:
        if arg.__class__ is not str:
            return (pred, *map(_arg_str, args))
    return (pred, *args)


# Argument sorts per predicate, used for validation and by the grounding
# machinery ("C" concept ref, "I" individual, "R" role, "F" feature,
# "O" operator, "V" value; rinst is checked structurally).
PREDICATE_SORTS = {
    "sub": ("C", "C"),
    "subNom": ("C", "I"),
    "int": ("C", "C", "C"),
    "intEx": ("C", "C", "F", "O", "V"),
    "rsub": ("C", "R", "C"),
    "rsup": ("C", "R", "C"),
    "rsupEx": ("C", "F", "O", "V"),
    "rsubEx": ("F", "O", "V", "C"),
    "psub": ("R", "R"),
    "pcom": ("R", "R", "R"),
    "inst": ("I", "C"),
    "rinst": ("I", None, None),
    "ninst": ("I", "I"),
    "eval": ("O", "V", "O", "V"),
}


class NotNormal(ValueError):
    """Raised when a non-normal axiom reaches the atom mapping."""


class NoAxiomCounterpart(ValueError):
    """Raised for atoms outside the axiom/atom bijection (eval)."""


def phi(axiom: Axiom) -> Atom:
    """Map a normal statement to its ground atom (see ``model.normal_atom``)."""
    atom = normal_atom(axiom)
    if atom is None:
        raise NotNormal(f"not a normal statement: {axiom!r}")
    return make_atom(atom[0], *atom[1])


def phi_inverse(atom: Atom) -> Axiom:
    """Map a stored ground atom back to a normal statement.

    subNom is the canonical carrier of "atomic under a nominal": sub atoms
    with an atomic left and nominal right (produced by the bridging rule)
    invert to the same inclusion axiom and are the one non-injective corner.
    """
    pred, args = atom.pred, atom.args
    if pred == "eval":
        raise NoAxiomCounterpart("eval atoms have no axiom counterpart")
    if pred == "inst":
        return ConceptAssertion(args[1], args[0])
    if pred == "ninst":
        return ConceptAssertion(Nominal(args[1]), args[0])
    if pred == "rinst":
        if isinstance(args[2], Fraction):
            return FeatureAssertion(args[1], args[0], args[2])
        return RoleAssertion(args[1], args[0], args[2])
    if pred == "sub":
        return Gci(args[0], args[1])
    if pred == "subNom":
        return Gci(args[0], Nominal(args[1]))
    if pred == "int":
        return Gci(And((args[0], args[1])), args[2])
    if pred == "intEx":
        return Gci(And((args[0], args[1])), DataSome(args[2], Restriction(args[3], args[4])))
    if pred == "rsub":
        return Gci(Exists(args[1], args[0]), args[2])
    if pred == "rsup":
        return Gci(args[0], Exists(args[1], args[2]))
    if pred == "rsupEx":
        return Gci(args[0], DataSome(args[1], Restriction(args[2], args[3])))
    if pred == "rsubEx":
        return Gci(DataSome(args[0], Restriction(args[1], args[2])), args[3])
    if pred == "psub":
        return RoleInclusion((args[0],), args[1])
    if pred == "pcom":
        return RoleInclusion((args[0], args[1]), args[2])
    raise NoAxiomCounterpart(f"unknown predicate {pred}")


# ---------------------------------------------------------------------------
# Clause templates
# ---------------------------------------------------------------------------

# Variable sorts used in templates.
S_CONCEPT = "C"
S_CONCEPT_NONBOT = "C-"  # any concept ref except BOT
S_ROLE = "R"
S_FEATURE = "F"
S_IND = "I"
S_NAMED_IND = "I!"  # individuals that are not anonymous successors
S_OP = "O"
S_VALUE = "V"


class Var(NamedTuple):
    name: str
    sort: str


class NomOf(NamedTuple):
    """Pattern argument matching/building a nominal over an individual variable."""

    var: Var


class SuccessorOf(NamedTuple):
    """Head-only argument naming the anonymous role successor for (x, R, B)."""

    x: str
    r: str
    b: str


class PatternAtom(NamedTuple):
    pred: str
    args: tuple


def successor_name(x: str, role: str, concept) -> str:
    # ":" never occurs in names, so the encoding is injective.
    return f"_w:{x}:{role}:{_arg_str(concept)}"


def is_anonymous(individual: str) -> bool:
    return individual.startswith("_w:")


class ClauseTemplate(NamedTuple):
    """Universally quantified definite implication; head None means FALSE.
    Every rule is hard.

    A rule with an empty body (reflexivity F1, F2 and the unique-name clause
    UNA) is grounded once, per signature: ``facts`` holds its ground heads,
    one per concept constant or pair of individuals. The grounder joins only
    rules with a body and takes these facts as they are.
    """

    id: str
    body: tuple
    head: Optional[PatternAtom]
    facts: tuple = ()


def _p(pred, *args):
    return PatternAtom(pred, tuple(args))


TEMPLATE_ORDER = {f"F{i}": i for i in range(1, 28)}
TEMPLATE_ORDER.update({"SUBNOM": 28, "UNA": 29, "COH": 30})


def concept_constants(sig: Signature) -> list:
    """All concept-sort constants: names plus one nominal per individual."""
    names = sorted(sig.concepts)
    noms = [Nominal(a) for a in sorted(sig.individuals)]
    return names + noms


def _calculus() -> tuple:
    """The completion calculus, which names nothing from any signature, with
    the body-less F1, F2 and UNA still without facts. F1-F9 are the
    concept-level saturation rules (reflexivity, transitivity, conjunction,
    existentials on both sides, bottom propagation, role hierarchy and
    composition); F10-F13 handle nominals and datatype restrictions at the
    concept level; F14-F27 are the assertion-level rules; then come the
    subNom bridge, the unique-name clause and the coherence rule. eval
    literals are evaluated by the grounder, not stored."""
    c, d, e, f_ = Var("c", S_CONCEPT), Var("d", S_CONCEPT), Var("e", S_CONCEPT), Var("f", S_CONCEPT)
    d1, d2 = Var("d1", S_CONCEPT), Var("d2", S_CONCEPT)
    r, s, r1, r2 = Var("r", S_ROLE), Var("s", S_ROLE), Var("r1", S_ROLE), Var("r2", S_ROLE)
    a_i, b_i = Var("a", S_IND), Var("b", S_IND)
    feat = Var("ft", S_FEATURE)
    o1, v1, o2, v2 = Var("o1", S_OP), Var("v1", S_VALUE), Var("o2", S_OP), Var("v2", S_VALUE)

    A, B, A1, A2, C_ = Var("A", S_CONCEPT), Var("B", S_CONCEPT), Var("A1", S_CONCEPT), Var("A2", S_CONCEPT), Var("C", S_CONCEPT)
    x, y, z = Var("x", S_IND), Var("y", S_IND), Var("z", S_IND)
    xn = Var("x", S_NAMED_IND)
    R_, S_, R1_, R2_, R3_ = Var("R", S_ROLE), Var("S", S_ROLE), Var("R1", S_ROLE), Var("R2", S_ROLE), Var("R3", S_ROLE)

    return (
        ClauseTemplate("F1", (), _p("sub", c, c)),
        ClauseTemplate("F2", (), _p("sub", c, TOP)),
        ClauseTemplate("F3", (_p("sub", c, d), _p("sub", d, e)), _p("sub", c, e)),
        ClauseTemplate("F4", (_p("sub", c, d1), _p("sub", c, d2), _p("int", d1, d2, e)), _p("sub", c, e)),
        ClauseTemplate("F5", (_p("sub", c, d), _p("rsup", d, r, e)), _p("rsup", c, r, e)),
        ClauseTemplate("F6", (_p("rsup", c, r, d), _p("sub", d, e), _p("rsub", e, r, f_)), _p("sub", c, f_)),
        ClauseTemplate("F7", (_p("rsup", c, r, d), _p("sub", d, BOT)), _p("sub", c, BOT)),
        ClauseTemplate("F8", (_p("rsup", c, r, d), _p("psub", r, s)), _p("rsup", c, s, d)),
        ClauseTemplate("F9", (_p("rsup", c, r1, d), _p("rsup", d, r2, e), _p("pcom", r1, r2, r)), _p("rsup", c, r, e)),
        ClauseTemplate("F10", (_p("subNom", c, a_i), _p("subNom", d, a_i), _p("rsup", c, r, d)), _p("sub", c, d)),
        ClauseTemplate("F11", (_p("subNom", c, a_i), _p("subNom", d, a_i), _p("rsup", NomOf(b_i), r, d)), _p("sub", c, d)),
        ClauseTemplate("F12", (_p("sub", c, d), _p("rsupEx", d, feat, o1, v1)), _p("rsupEx", c, feat, o1, v1)),
        ClauseTemplate(
            "F13",
            (_p("rsupEx", c, feat, o1, v1), _p("rsubEx", feat, o2, v2, d), _p("eval", o1, v1, o2, v2)),
            _p("sub", c, d),
        ),
        ClauseTemplate("F14", (_p("inst", x, A), _p("sub", A, B)), _p("inst", x, B)),
        ClauseTemplate("F15", (_p("inst", x, A1), _p("inst", x, A2), _p("int", A1, A2, B)), _p("inst", x, B)),
        ClauseTemplate("F16", (_p("rinst", x, R_, y), _p("inst", y, A), _p("rsub", A, R_, B)), _p("inst", x, B)),
        ClauseTemplate("F17", (_p("rinst", x, R_, y), _p("psub", R_, S_)), _p("rinst", x, S_, y)),
        ClauseTemplate("F18", (_p("rinst", x, R1_, y), _p("rinst", y, R2_, z), _p("pcom", R1_, R2_, R3_)), _p("rinst", x, R3_, z)),
        ClauseTemplate("F19", (_p("ninst", x, a_i), _p("inst", x, B)), _p("inst", a_i, B)),
        ClauseTemplate("F20", (_p("ninst", x, a_i), _p("inst", a_i, B)), _p("inst", x, B)),
        ClauseTemplate("F21", (_p("ninst", x, a_i), _p("rinst", z, R_, x)), _p("rinst", z, R_, a_i)),
        ClauseTemplate("F22", (_p("sub", TOP, A), _p("inst", x, B)), _p("inst", x, A)),
        ClauseTemplate("F23", (_p("inst", xn, A), _p("rsup", A, R_, B)), _p("rinst", xn, R_, SuccessorOf("x", "R", "B"))),
        ClauseTemplate("F24", (_p("inst", xn, A), _p("rsup", A, R_, B)), _p("inst", SuccessorOf("x", "R", "B"), B)),
        ClauseTemplate(
            "F25",
            (_p("rsubEx", feat, o1, v1, C_), _p("rinst", a_i, feat, v2), _p("eval", "=", v2, o1, v1)),
            _p("inst", a_i, C_),
        ),
        ClauseTemplate("F26", (_p("inst", a_i, A), _p("rsupEx", A, feat, "=", v1)), _p("rinst", a_i, feat, v1)),
        ClauseTemplate(
            "F27",
            (_p("inst", a_i, A1), _p("inst", a_i, A2), _p("intEx", A1, A2, feat, o1, v1)),
            _p("rinst", a_i, feat, v1),
        ),
        ClauseTemplate("SUBNOM", (_p("subNom", c, a_i),), _p("sub", c, NomOf(a_i))),
        ClauseTemplate("UNA", (), _p("int", NomOf(a_i), NomOf(b_i), BOT)),
        ClauseTemplate("COH", (_p("sub", Var("c", S_CONCEPT_NONBOT), BOT),), None),
    )


_TEMPLATES = _calculus()
RULES = tuple(t for t in _TEMPLATES if t.body)  # built once per process, shared by every KB


def rule_templates(sig: Signature) -> list:
    """The completion calculus of ``sig``: RULES, with F1, F2 and UNA ground
    as ``facts``, one per concept constant or pair of distinct individuals.
    Only the facts are built per call, as the join kernels build atoms."""
    consts = concept_constants(sig)
    nominals = consts[len(consts) - len(sig.individuals):]  # one per individual, in name order
    facts = {
        "F1": tuple(_new(Atom, ("sub", (cc, cc))) for cc in consts),
        "F2": tuple(_new(Atom, ("sub", (cc, TOP))) for cc in consts),
        "UNA": tuple(_new(Atom, ("int", (p, q, BOT))) for p, q in combinations(nominals, 2)),
    }
    return [t if t.body else t._replace(facts=facts[t.id]) for t in _TEMPLATES]
