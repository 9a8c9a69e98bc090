"""Command-line front end.

Subcommands: solve (MAP inference), classify (deterministic saturation),
prob (exact query probability via the enumeration oracle), oracle (full
world distribution), dump-ilp (the program of the cutting-plane loop's
round 0, which starts from the deterministic closure, in the LP text
format), check (parse and validation diagnostics).

Exit codes: 0 success, 1 incoherent deterministic KB, 2 parse or validation
error, 3 enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import engine, ilp
from .engine import ReasonerConfig
from .grounding import INTEGER, REAL
from .kbformat import parse_kb, render_statement, render_axiom
from .model import format_value, validate
from .translate import NotNormal

EXIT_OK = 0
EXIT_INCOHERENT = 1
EXIT_INVALID = 2
EXIT_CAP = 3


class _NonNegative(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"N must be >= 0, not {value}")
        setattr(namespace, self.dest, value)


_FLAGS = {
    "--format": dict(choices=("text", "json"), default="text"),
    "--max-worlds": dict(type=int, default=engine.DEFAULT_CONFIG.enumeration_cap, metavar="N",
                         action=_NonNegative,
                         help="enumeration cap on the number of uncertain statements (default %(default)s)"),
    "--domain": dict(choices=(REAL, INTEGER), default=engine.DEFAULT_CONFIG.domain,
                     help="value domain for datatype comparisons"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first ``main`` call;
    each ``parse_args`` returns a new namespace, so no call sees another's."""
    parser = argparse.ArgumentParser(prog="probel", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, *flags):
        sub = commands.add_parser(name, help=help_text)
        sub.add_argument("kb", help="knowledge base file")
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        return sub

    solve = command("solve", "most probable coherent classified ontology", "--format", "--domain")
    solve.add_argument("--explain", action="store_true",
                       help="re-solve once per uncertain statement and report the objective delta")
    command("classify", "saturate the deterministic part only", "--format", "--domain")
    prob = command("prob", "probability that every query statement is entailed",
                   "--format", "--max-worlds", "--domain")
    prob.add_argument("--query", required=True, help="file with normal-form query statements")
    command("oracle", "full world distribution by exhaustive enumeration",
            "--format", "--max-worlds", "--domain")
    command("dump-ilp", "round-0 ILP, from the deterministic closure, in the LP text format", "--domain")
    command("check", "validate and report diagnostics", "--format")
    return parser


def _read(path: str):
    """The text of a UTF-8 file, or None after reporting why it cannot be read."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"cannot read {path}: {err}", file=sys.stderr)
        return None


def _load(path: str):
    """The parse result of a KB file, or None after reporting why it has no KB."""
    text = _read(path)
    if text is None:
        return None
    result = parse_kb(text)
    if result.kb is None:
        for problem in result.errors:
            print(f"{path}:{problem}", file=sys.stderr)
        return None
    return result


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2)`` of a report, whose dicts have str
    keys. The standard encoder writes indented JSON in pure Python, through
    nested functions that leave reference cycles; here every string goes
    through the C string encoder, and every other scalar through the C
    encoder of ``json.dumps`` without an indent."""
    if value.__class__ is str:
        return encode_basestring_ascii(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [
            f"{encode_basestring_ascii(key)}: "
            + (encode_basestring_ascii(item) if item.__class__ is str else _json(item, inner))
            for key, item in value.items()
        ]
        ends = "{}"
    elif isinstance(value, list):
        try:  # most lists hold only strings
            items = list(map(encode_basestring_ascii, value))
        except TypeError:
            items = [_json(item, inner) for item in value]
        ends = "[]"
    else:
        return json.dumps(value)
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _emit(report: dict, fmt: str):
    if fmt == "json":
        sys.stdout.write(_json(report) + "\n")
        return
    for key, value in report.items():
        if isinstance(value, list):
            sys.stdout.write(f"{key}:\n")
            for item in value:
                if isinstance(item, dict):
                    fields = ", ".join(f"{k}={v}" for k, v in item.items())
                    sys.stdout.write(f"  {fields}\n")
                else:
                    sys.stdout.write(f"  {item}\n")
        else:
            sys.stdout.write(f"{key}: {value}\n")


def _probability_repr(p: engine.Probability):
    if p.is_zero():
        return "0"
    if p.is_one():
        return "1"
    return repr(float(p))


def _config(args) -> ReasonerConfig:
    """The reasoner settings; only ``prob`` and ``oracle`` take ``--max-worlds``."""
    if "max_worlds" in args:
        return ReasonerConfig(domain=args.domain, enumeration_cap=args.max_worlds)
    return ReasonerConfig(domain=args.domain)


def _cmd_solve(args) -> int:
    source = _load(args.kb)
    if source is None:
        return EXIT_INVALID
    config = _config(args)
    result = engine.map_inference(source.kb, config)
    report = {
        "objective": format_value(result.objective),
        "coherent": True,
        "iterations": result.iterations,
        "selected": [render_statement(ws) for ws in result.selected],
        "rejected": [render_statement(ws) for ws in result.rejected],
        "classified": [render_axiom(ax) for ax in result.classified],
    }
    if args.explain:
        report["explain"] = [
            {
                "statement": render_statement(entry.statement),
                "selected": entry.selected,
                "delta": "incoherent" if entry.delta is None else format_value(entry.delta),
            }
            for entry in engine.explain_selection(source.kb, result, config)
        ]
    _emit(report, args.format)
    return EXIT_OK


def _cmd_classify(args) -> int:
    source = _load(args.kb)
    if source is None:
        return EXIT_INVALID
    classified = engine.classify_deterministic(source.kb, _config(args))
    _emit({"coherent": True, "classified": [render_axiom(ax) for ax in classified]}, args.format)
    return EXIT_OK


def _cmd_prob(args) -> int:
    source = _load(args.kb)
    if source is None:
        return EXIT_INVALID
    parsed = _load(args.query)
    if parsed is None:
        return EXIT_INVALID
    if parsed.name_map:
        # splitting a query into normal statements is exact, but fresh names
        # would never occur in any world's closure
        print(
            f"{args.query}: query statements must normalize without fresh names",
            file=sys.stderr,
        )
        return EXIT_INVALID
    query = [ws.statement for ws in parsed.kb.deterministic + parsed.kb.uncertain]
    probability = engine.probability_of(source.kb, query, _config(args))
    _emit({
        "query": [render_axiom(ax) for ax in query],
        "probability": _probability_repr(probability),
    }, args.format)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    source = _load(args.kb)
    if source is None:
        return EXIT_INVALID
    distribution = engine.brute_force_distribution(source.kb, _config(args))
    # each distinct statement is rendered once; the worlds share the oracle's
    # statement objects, and the distribution keeps them all alive, so an
    # object's id names it for as long as the report is built
    rendered = {}

    def render(axiom) -> str:
        text = rendered.get(id(axiom))
        if text is None:
            text = rendered[id(axiom)] = render_axiom(axiom)
        return text

    # worlds of one score share one Probability, so its id names the score too
    scores = {}

    def render_score(world) -> tuple:
        texts = scores.get(id(world.probability))
        if texts is None:
            texts = scores[id(world.probability)] = (
                format_value(world.score), _probability_repr(world.probability)
            )
        return texts

    worlds = []
    for world in distribution.worlds:
        score, probability = render_score(world)
        worlds.append({
            "score": score,
            "probability": probability,
            "statements": "; ".join(map(render, world.statements)),
        })
    report = {"worlds": worlds}
    _emit(report, args.format)
    return EXIT_OK


def _cmd_dump_ilp(args) -> int:
    source = _load(args.kb)
    if source is None:
        return EXIT_INVALID
    program = engine.first_iteration_program(source.kb, _config(args))
    sys.stdout.write(ilp.dump(program))
    return EXIT_OK


def _cmd_check(args) -> int:
    text = _read(args.kb)
    if text is None:
        return EXIT_INVALID
    result = parse_kb(text)
    if result.kb is None:
        # the report's diagnostics, on stdout, named by file as _load's are
        _emit({"ok": False, "diagnostics": [f"{args.kb}:{p}" for p in result.errors]}, args.format)
        return EXIT_INVALID
    diagnostics = validate(result.kb)
    report = {"ok": not diagnostics, "diagnostics": [str(d) for d in diagnostics]}
    _emit(report, args.format)
    return EXIT_OK if not diagnostics else EXIT_INVALID


_COMMANDS = {
    "solve": _cmd_solve,
    "classify": _cmd_classify,
    "prob": _cmd_prob,
    "oracle": _cmd_oracle,
    "dump-ilp": _cmd_dump_ilp,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except engine.ValidationFailed as err:
        for diagnostic in err.diagnostics:
            print(str(diagnostic), file=sys.stderr)
        return EXIT_INVALID
    except NotNormal as err:
        print(str(err), file=sys.stderr)
        return EXIT_INVALID
    except engine.IncoherentDeterministic as err:
        print(str(err), file=sys.stderr)
        for ws in err.core:
            print(f"  {render_statement(ws)}", file=sys.stderr)
        return EXIT_INCOHERENT
    except engine.EnumerationCapExceeded as err:
        print(str(err), file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
