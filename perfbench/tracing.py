"""Spans recorded from outside the program, around calls into its modules.

Each public function listed in :data:`SPANS` is replaced, by module
attribute, with a wrapper that records one span per call: name, start,
end, parent span and op id. A function is wrapped where its caller looks it
up (``probel.engine.find_violated``, not ``probel.grounding.find_violated``),
so only the calls the caller makes are timed: ``find_violated`` counts the
engine loop's calls, and the ones ``saturate`` makes stay in its self time.
Per-atom helpers (``phi``, ``phi_inverse``, ``atom_sort_key``) are never
wrapped; they run millions of times.

A name that no longer exists is skipped, and every metric derived from it
reads ``None``, so renaming a function never breaks the benchmark.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional


def _closure_atoms(args, result):
    return {"atoms": len(result[0])}


def _clauses(args, result):
    return {"clauses": len(result)}


def _program_size(args, result):
    program = args[0]
    return {"variables": len(program.variables), "constraints": len(program.constraints)}


def _rounds(args, result):
    return {"rounds": result.iterations}


def _worlds(args, result):
    return {"worlds": len(result.worlds)}


# (span name, module, attribute, counter over (args, result) or None)
SPANS = (
    ("cli.main", "probel.cli", "main", None),
    ("kbformat.parse_kb", "probel.cli", "parse_kb", None),
    ("normalize.normalize", "probel.kbformat", "normalize", None),
    ("model.validate", "probel.engine", "validate", None),
    ("translate.rule_templates", "probel.engine", "rule_templates", None),
    ("grounding.saturate", "probel.engine", "saturate", _closure_atoms),
    ("grounding.find_violated", "probel.engine", "find_violated", _clauses),
    ("grounding.extend_closure", "probel.engine", "extend_closure", None),
    ("ilp.translate_clause", "probel.ilp", "translate_clause", None),
    ("ilp.solve", "probel.ilp", "solve", _program_size),
    ("engine.map_inference", "probel.engine", "map_inference", _rounds),
    ("engine.brute_force_distribution", "probel.engine", "brute_force_distribution", _worlds),
    ("engine.classify_deterministic", "probel.engine", "classify_deterministic", None),
)


class Recorder:
    """Spans kept in memory as lists: [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans: List[list] = []
        self.op: Optional[int] = None
        self._stack: List[int] = []
        self._installed: list = []
        self.missing: List[str] = []

    def _wrap(self, name: str, fn: Callable, counter) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                try:
                    span[5] = counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass
            return result

        return wrapper

    def install(self):
        self.missing = []
        for name, module_name, attribute, counter in SPANS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attribute)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._installed.append((module, attribute, fn))
            setattr(module, attribute, self._wrap(name, fn, counter))

    def uninstall(self):
        for module, attribute, fn in reversed(self._installed):
            setattr(module, attribute, fn)
        self._installed.clear()


# Every per-layer metric and its unit. Times and calls are per op; sizes
# are means per call of the span that reports them.
UNITS = {
    "cli.main.self_s": "s/op",
    "kbformat.parse_kb.self_s": "s/op",
    "normalize.normalize.s": "s/op",
    "model.validate.s": "s/op",
    "translate.rule_templates.s": "s/op",
    "grounding.saturate.self_s": "s/op",
    "grounding.saturate.calls": "calls/op",
    "grounding.closure_atoms": "atoms",
    "grounding.find_violated.s": "s/op",
    "grounding.find_violated.calls": "calls/op",
    "grounding.find_violated.clauses": "clauses/op",
    "grounding.extend_closure.s": "s/op",
    "grounding.extend_closure.calls": "calls/op",
    "grounding.fresh_ratio": "ratio",
    "ilp.translate_clause.s": "s/op",
    "ilp.translate_clause.calls": "calls/op",
    "ilp.solve.s": "s/op",
    "ilp.solve.calls": "calls/op",
    "ilp.solve.max_s": "s",
    "ilp.variables": "count",
    "ilp.constraints": "count",
    "engine.map_inference.self_s": "s/op",
    "engine.map_inference.rounds": "rounds",
    "engine.brute_force_distribution.self_s": "s/op",
    "engine.worlds": "worlds",
    "engine.classify_deterministic.self_s": "s/op",
    "trace.overhead_ratio": "ratio",
}

# Metrics not named after the one span they come from.
_SOURCES = {
    "grounding.closure_atoms": ("grounding.saturate",),
    "grounding.fresh_ratio": ("grounding.find_violated", "ilp.translate_clause"),
    "ilp.variables": ("ilp.solve",),
    "ilp.constraints": ("ilp.solve",),
    "engine.worlds": ("engine.brute_force_distribution",),
}


def _sources(metric: str):
    return _SOURCES.get(metric) or (metric.rsplit(".", 1)[0],)


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def per_layer(spans: List[list], ops: int, missing=()) -> Dict[str, Optional[float]]:
    """Per-layer metrics over ``ops`` traced ops, from the spans alone.

    Times and call counts are per op; ``self_s`` is a span's duration minus
    its direct children's (calls are sequential, so children never overlap).
    Sizes are means per call of the span that produces them.
    """
    total = defaultdict(float)
    child = defaultdict(float)
    calls = defaultdict(int)
    longest = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    last_solve = {}
    for name, start, end, parent, op, extra in spans:
        duration = end - start
        total[name] += duration
        calls[name] += 1
        longest[name] = max(longest[name], duration)
        if parent is not None:
            child[parent] += duration
        if extra:
            for key, value in extra.items():
                counts[name][key] += value
            if name == "ilp.solve":
                last_solve[op] = extra
    self_time = defaultdict(float)
    for index, span in enumerate(spans):
        self_time[span[0]] += span[2] - span[1] - child[index]

    def mean_count(name, key):
        return _per(counts[name][key], calls[name])

    metrics = {
        "cli.main.self_s": _per(self_time["cli.main"], ops),
        "kbformat.parse_kb.self_s": _per(self_time["kbformat.parse_kb"], ops),
        "normalize.normalize.s": _per(total["normalize.normalize"], ops),
        "model.validate.s": _per(total["model.validate"], ops),
        "translate.rule_templates.s": _per(total["translate.rule_templates"], ops),
        "grounding.saturate.self_s": _per(self_time["grounding.saturate"], ops),
        "grounding.saturate.calls": _per(calls["grounding.saturate"], ops),
        "grounding.closure_atoms": mean_count("grounding.saturate", "atoms"),
        "grounding.find_violated.s": _per(total["grounding.find_violated"], ops),
        "grounding.find_violated.calls": _per(calls["grounding.find_violated"], ops),
        "grounding.find_violated.clauses": _per(counts["grounding.find_violated"]["clauses"], ops),
        "grounding.extend_closure.s": _per(total["grounding.extend_closure"], ops),
        "grounding.extend_closure.calls": _per(calls["grounding.extend_closure"], ops),
        "grounding.fresh_ratio": _per(
            calls["ilp.translate_clause"], counts["grounding.find_violated"]["clauses"]
        ),
        "ilp.translate_clause.s": _per(total["ilp.translate_clause"], ops),
        "ilp.translate_clause.calls": _per(calls["ilp.translate_clause"], ops),
        "ilp.solve.s": _per(total["ilp.solve"], ops),
        "ilp.solve.calls": _per(calls["ilp.solve"], ops),
        "ilp.solve.max_s": longest["ilp.solve"],
        "ilp.variables": _per(sum(e["variables"] for e in last_solve.values()), len(last_solve)),
        "ilp.constraints": _per(sum(e["constraints"] for e in last_solve.values()), len(last_solve)),
        "engine.map_inference.self_s": _per(self_time["engine.map_inference"], ops),
        "engine.map_inference.rounds": mean_count("engine.map_inference", "rounds"),
        "engine.brute_force_distribution.self_s": _per(
            self_time["engine.brute_force_distribution"], ops
        ),
        "engine.worlds": mean_count("engine.brute_force_distribution", "worlds"),
        "engine.classify_deterministic.self_s": _per(
            self_time["engine.classify_deterministic"], ops
        ),
    }
    for key in metrics:
        if any(source in missing for source in _sources(key)):
            metrics[key] = None
    return metrics


def coverage(spans: List[list], op_walls: List[float]) -> List[float]:
    """Per op, the share of its wall time that its top-level spans cover."""
    covered = [0.0] * len(op_walls)
    for name, start, end, parent, op, extra in spans:
        if parent is None and op is not None:
            covered[op] += end - start
    return [c / w if w > 0 else 1.0 for c, w in zip(covered, op_walls)]
