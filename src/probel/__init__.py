"""Weighted EL++ reasoning: most probable coherent classified ontologies.

Deterministic and weighted axioms over EL++ with nominals, assertions and
numeric datatype restrictions are compiled to ground reasoner atoms; MAP
inference runs a cutting-plane loop over an exact 0/1 ILP, and an
exhaustive oracle exposes the full world distribution for small knowledge
bases.
"""

from .engine import (
    EnumerationCapExceeded,
    ExpSum,
    IncoherentDeterministic,
    MapResult,
    Probability,
    ReasonerConfig,
    ValidationFailed,
    WorldDistribution,
    brute_force_distribution,
    classify_deterministic,
    map_inference,
    probability_of,
)
from .grounding import eval_op, find_violated, incoherence_atoms, saturate
from .kbformat import parse_kb, render_axiom, render_statement, serialize_kb
from .model import (
    And,
    BOT,
    ConceptAssertion,
    DataSome,
    Equiv,
    Exists,
    FeatureAssertion,
    Gci,
    INFINITE,
    KnowledgeBase,
    Nominal,
    Restriction,
    RoleAssertion,
    RoleInclusion,
    Signature,
    TOP,
    WeightedStatement,
    is_normal_form,
    make_kb,
    make_signature,
    validate,
)
from .normalize import normalize
from .translate import phi, phi_inverse, rule_templates

__version__ = "0.1.0"
