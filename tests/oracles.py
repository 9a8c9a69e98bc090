"""Independent reference implementations the test suite checks against.

Everything here trades efficiency for obviousness: a tokenizer that reads
one match object per token, cross-product grounding, exhaustive 0/1
enumeration, and witness-sampled interval containment.
"""
import re
from fractions import Fraction

from probel.grounding import ViolatedClause, eval_op
from probel.kbformat import KEYWORDS
from probel.model import BOT, Nominal, OPERATORS, format_value
from probel.translate import (
    Atom,
    NomOf,
    S_CONCEPT,
    S_CONCEPT_NONBOT,
    S_FEATURE,
    S_IND,
    S_NAMED_IND,
    S_OP,
    S_ROLE,
    S_VALUE,
    SuccessorOf,
    Var,
    concept_constants,
    is_anonymous,
    make_atom,
    successor_name,
)


# ---------------------------------------------------------------------------
# tokenizing one line of the text format
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"(?P<number>-?\d+(?:\.\d+)?(?:/\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op><=|>=|<|>|=)"
    r"|(?P<punct>[(){},])"
    r"|(?P<bad>\S)"
)


def tokenize(line):
    """The (kind, text, column) tokens of a line without its comment, or
    ("error", column, message) at its first unexpected character, which is
    reported where the token before it ends. The kind of a keyword or of
    punctuation is its text; no end tokens are appended."""
    tokens = []
    end = 0
    for match in _TOKEN.finditer(line):
        kind, text = match.lastgroup, match.group()
        if kind == "bad":
            return ("error", end + 1, f"unexpected character {text!r}")
        if kind == "punct" or (kind == "name" and text in KEYWORDS):
            kind = text
        tokens.append((kind, text, match.start() + 1))
        end = match.end()
    return tokens


def _instantiate_raw(pattern, binding):
    """Instantiate without atom canonicalization: body patterns match stored
    atoms literally (inst never aliases to ninst on the matching side)."""
    args = []
    for parg in pattern.args:
        if isinstance(parg, Var):
            args.append(binding[parg.name])
        elif isinstance(parg, NomOf):
            args.append(Nominal(binding[parg.var.name]))
        elif isinstance(parg, SuccessorOf):
            args.append(successor_name(binding[parg.x], binding[parg.r], binding[parg.b]))
        else:
            args.append(parg)
    return Atom(pattern.pred, tuple(args))


def instantiate(pattern, binding):
    """Instantiate a head pattern: as _instantiate_raw, then canonicalized
    (inst(x, {a}) becomes ninst(x, a))."""
    return make_atom(pattern.pred, *_instantiate_raw(pattern, binding).args)


def _universes(sig, current):
    concepts = list(concept_constants(sig))
    individuals = set(sig.individuals)
    values = set()
    for atom in current:
        for arg in atom.args:
            if isinstance(arg, Fraction):
                values.add(arg)
            elif isinstance(arg, str) and is_anonymous(arg):
                individuals.add(arg)
    return {
        S_CONCEPT: concepts,
        S_CONCEPT_NONBOT: [c for c in concepts if c != BOT],
        S_ROLE: sorted(sig.roles),
        S_FEATURE: sorted(sig.features),
        S_IND: sorted(individuals),
        S_NAMED_IND: sorted(i for i in individuals if not is_anonymous(i)),
        S_OP: list(OPERATORS),
        S_VALUE: sorted(values),
    }


def _template_vars(template):
    names = {}
    for pattern in list(template.body) + ([template.head] if template.head else []):
        for arg in pattern.args:
            if isinstance(arg, Var):
                names.setdefault(arg.name, arg.sort)
            elif isinstance(arg, NomOf):
                names.setdefault(arg.var.name, arg.var.sort)
    return names


def naive_find_violated(templates, current, sig, domain="real"):
    """Cross-product grounding over the full per-sort universes. A body-less
    template is never violated: its facts hold in every world."""
    universes = _universes(sig, current)
    found = set()
    for template in templates:
        if not template.body:
            continue
        body = [p for p in template.body if p.pred != "eval"]
        evals = [p for p in template.body if p.pred == "eval"]
        free = list(_template_vars(template).items())

        def assignments(i, binding):
            if i == len(free):
                yield binding
                return
            name, sort = free[i]
            for value in universes[sort]:
                binding[name] = value
                yield from assignments(i + 1, binding)
                del binding[name]

        for binding in assignments(0, {}):
            if any(_instantiate_raw(p, binding) not in current for p in body):
                continue
            if template.head is not None:
                head = instantiate(template.head, binding)
                if head in current:
                    continue
                positive = frozenset((head,))
            else:
                positive = frozenset()
            if evals:
                def value_of(arg):
                    return binding[arg.name] if isinstance(arg, Var) else arg
                if not all(eval_op(*(value_of(a) for a in ev.args), domain=domain) for ev in evals):
                    continue
            negative = frozenset(_instantiate_raw(p, binding) for p in body)
            found.add(ViolatedClause(positive, negative, template.id))
    return found


def naive_saturate(templates, atoms, sig, domain="real"):
    """Naive fixpoint of the hard rules from ``atoms`` and the facts:
    re-ground everything by cross product until no pass adds a head. Returns
    (closure, set of FALSE-headed clauses that hold in it): the COH clauses,
    one per concept under BOT."""
    current = frozenset(atoms).union(*(t.facts for t in templates))
    while True:
        violated = naive_find_violated(templates, current, sig, domain)
        heads = {atom for clause in violated for atom in clause.positive}
        if not heads:
            return current, {clause for clause in violated if not clause.positive}
        current |= heads


def nested_atom_key(atom):
    """The canonical atom order as a nested key: the predicate, then the
    tuple of the arguments' strings (a name as it is, a nominal as {a}, a
    value in its exact textual form)."""
    def text(arg):
        if isinstance(arg, Fraction):
            return format_value(arg)
        return str(arg)
    return (atom.pred, tuple(text(arg) for arg in atom.args))


# ---------------------------------------------------------------------------
# exhaustive 0/1 program enumeration
# ---------------------------------------------------------------------------

def enumerate_solve(program):
    """Optimum of a binary program by checking all 2^n assignments.

    Returns (assignment, value), the assignment a list of the variables'
    values in declared order, with the same lexicographic tie-break as the
    solver, or None when infeasible.
    """
    found = enumerate_optima(program)
    return found and (found[0][0], found[1])


def enumerate_optima(program):
    """Every optimal assignment of a binary program, by checking all 2^n.

    Returns (assignments, value), the assignments lists of the variables'
    values in declared order, sorted lexicographically, or None when
    infeasible.
    """
    import numpy as np

    n = len(program.variables)
    if n == 0:
        return [[]], Fraction(0)
    assert n <= 20, "enumeration oracle capped at 20 variables"
    rows = np.arange(1 << n, dtype=np.int64)
    cols = np.empty((1 << n, n), dtype=np.int8)
    for i in range(n):
        cols[:, i] = (rows >> i) & 1
    feasible = np.ones(1 << n, dtype=bool)
    for positive, negative in program.constraints:
        # a clause holds where some positive variable is 1 or some negative one is 0
        holds = np.zeros(1 << n, dtype=bool)
        for var in positive:
            holds |= cols[:, var] == 1
        for var in negative:
            holds |= cols[:, var] == 0
        feasible &= holds
    if not feasible.any():
        return None

    weights = {}
    for var, w in program.objective:
        weights[var] = weights.get(var, Fraction(0)) + w
    scale = 1
    for w in weights.values():
        scale = scale * w.denominator // __import__("math").gcd(scale, w.denominator)
    scaled = np.zeros(n, dtype=np.int64)
    for i, w in weights.items():
        scaled[i] = int(w * scale)
    totals = cols.astype(np.int64) @ scaled
    totals[~feasible] = np.iinfo(np.int64).min
    best = totals.max()
    ties = np.nonzero(totals == best)[0]
    return sorted([int(b) for b in cols[row]] for row in ties), Fraction(int(best), scale)


# ---------------------------------------------------------------------------
# interval containment by witness sampling
# ---------------------------------------------------------------------------

def _satisfies(x, op, v):
    return {
        "<": x < v,
        "<=": x <= v,
        "=": x == v,
        ">=": x >= v,
        ">": x > v,
    }[op]


def containment_oracle(o1, v1, o2, v2):
    """Subset check over witnesses that pin down every ray/point relation:
    both endpoints, the midpoint, unit offsets, and far-out sentinels."""
    witnesses = {
        v1, v2, (v1 + v2) / 2,
        v1 - 1, v1 + 1, v2 - 1, v2 + 1,
        Fraction(10**6), Fraction(-(10**6)),
    }
    return all(_satisfies(x, o2, v2) for x in witnesses if _satisfies(x, o1, v1))


def containment_oracle_integer(o1, v1, o2, v2):
    reach = int(max(abs(v1), abs(v2))) + 3
    witnesses = [Fraction(k) for k in range(-reach, reach + 1)]
    witnesses += [Fraction(10**6), Fraction(-(10**6))]
    return all(_satisfies(x, o2, v2) for x in witnesses if _satisfies(x, o1, v1))
