import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from probel.cli import _json, main
from probel.kbformat import MAX_NESTING, _LineSyntax, _tokenize, parse_kb, serialize_kb
from probel.model import (
    INFINITE,
    And,
    ConceptAssertion,
    DataSome,
    Exists,
    Gci,
    Nominal,
    Restriction,
    RoleInclusion,
    WeightedStatement,
    make_kb,
)
from probel.normalize import normalize
from probel.randgen import random_kb

from oracles import tokenize
from strategies import (
    SIG,
    data_statements,
    equivalences,
    fine_values,
    non_normal_statements,
    normal_statements,
)


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


class TestParse:
    def test_weighted_datatype_line(self):
        result = parse_kb("0.8 Toddler SUBCLASSOF age SOME (<=, 3)\n")
        assert not result.errors
        (ws,) = result.kb.uncertain
        assert ws.weight == Fraction(8, 10)
        assert ws.statement == Gci(
            "Toddler", DataSome("age", Restriction("<=", Fraction(3)))
        )

    def test_unweighted_line_is_deterministic(self):
        result = parse_kb("Toddler AND Adult SUBCLASSOF BOT\n")
        assert not result.errors
        assert len(result.kb.deterministic) == 1
        assert result.kb.uncertain == ()

    def test_empty_input(self):
        result = parse_kb("")
        assert not result.errors
        assert result.kb.deterministic == () and result.kb.uncertain == ()
        from probel.model import validate

        assert validate(result.kb) == []

    def test_comments_and_blank_lines(self):
        result = parse_kb("# intro\n\nA SUBCLASSOF B  # trailing\n")
        assert not result.errors
        assert len(result.kb.deterministic) == 1

    def test_nominals_and_chains(self):
        text = "{mary} SUBCLASSOF Person\nROLECHAIN r s SUBROLEOF t\nr(a, b)\nf(a, -1.5)\n"
        result = parse_kb(text)
        assert not result.errors
        statements = [ws.statement for ws in result.kb.deterministic]
        assert Gci(Nominal("mary"), "Person") in statements
        assert RoleInclusion(("r", "s"), "t") in statements

    def test_syntax_error_carries_line_and_column(self):
        result = parse_kb("A SUBCLASSOF B\nA SUBCLASSOF\n")
        assert result.kb is None
        (error,) = result.errors
        assert error.line == 2
        assert error.column > 0

    def test_zero_denominator_is_a_parse_error(self):
        for text, column in (
            ("1/0 A SUBCLASSOF B\n", 1),
            ("A SUBCLASSOF f SOME (<=, 0/0)\n", 26),
        ):
            result = parse_kb(text)
            assert result.kb is None
            (error,) = result.errors
            assert (error.line, error.column) == (1, column)
            assert "zero denominator" in error.message

    def test_sort_clash_reported(self):
        result = parse_kb("r(a, b)\nA SUBCLASSOF r\n")
        assert result.kb is None
        assert any("already used as a role" in e.message for e in result.errors)
        result = parse_kb("C(x)\nx SUBCLASSOF D\n")
        assert result.kb is None
        assert [e.message for e in result.errors] == ["'x' already used as an individual, now as a concept"]

    def test_reserved_prefix_rejected(self):
        result = parse_kb("_X SUBCLASSOF A\n")
        assert result.kb is None
        assert any("reserved" in e.message for e in result.errors)

    def test_non_normal_input_is_normalized(self):
        result = parse_kb("0.5 A SUBCLASSOF B AND (r SOME C)\n")
        assert not result.errors
        from probel.model import is_normal_form

        for ws in result.kb.deterministic + result.kb.uncertain:
            assert is_normal_form(ws.statement)


class TestRoundTrip:
    def test_serialize_parse_identity_on_random_kbs(self):
        rng = random.Random(4321)
        for _ in range(40):
            kb = random_kb(rng)
            text = serialize_kb(kb)
            reparsed = parse_kb(text)
            assert not reparsed.errors, (text, reparsed.errors)
            assert reparsed.kb == kb

    def test_example_round_trip(self, toddler_path):
        kb = parse_kb(toddler_path.read_text()).kb
        assert parse_kb(serialize_kb(kb)).kb == kb

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.one_of(normal_statements, data_statements), unique=True, max_size=8),
        st.lists(fine_values, max_size=8),
    )
    def test_drawn_statements_round_trip(self, statements, weights):
        # concept assertions of TOP, BOT and nominals are drawn too; the
        # statements with a drawn weight are uncertain, the rest deterministic
        uncertain = [WeightedStatement(s, w) for s, w in zip(statements, weights)]
        deterministic = [WeightedStatement(s, INFINITE) for s in statements[len(uncertain):]]
        kb = make_kb(SIG, deterministic, uncertain)
        reparsed = parse_kb(serialize_kb(kb))
        assert not reparsed.errors, (serialize_kb(kb), reparsed.errors)
        assert (reparsed.kb.deterministic, reparsed.kb.uncertain) == (kb.deterministic, kb.uncertain)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(non_normal_statements, max_size=6),
        st.lists(st.one_of(fine_values, st.just(Fraction(0))), max_size=6),
        equivalences,
        equivalences,
        fine_values,
    )
    def test_non_normal_kbs_reparse_to_their_normalization(self, statements, weights, hard, soft, weight):
        # the text format has no equivalence: serialize_kb writes one as its
        # two inclusions, which is what normalization makes of it
        uncertain = [WeightedStatement(s, w) for s, w in zip(statements, weights)]
        uncertain.append(WeightedStatement(soft, weight))
        deterministic = [WeightedStatement(s, INFINITE) for s in statements[len(weights):]]
        deterministic.append(WeightedStatement(hard, INFINITE))
        axioms = [(ws.statement, ws.weight) for ws in deterministic + uncertain]
        expected = normalize(axioms, SIG)
        reparsed = parse_kb(serialize_kb(make_kb(SIG, deterministic, uncertain)))
        assert not reparsed.errors
        assert (reparsed.kb.deterministic, reparsed.kb.uncertain, reparsed.name_map) == (
            expected.kb.deterministic, expected.kb.uncertain, expected.name_map
        )

    def test_composite_assertions_round_trip(self):
        # a composite concept is asserted in parentheses, weighted or not
        deterministic = [
            WeightedStatement(ConceptAssertion(Exists("r", "A"), "a"), INFINITE),
            WeightedStatement(ConceptAssertion(And(("A", Exists("s", And(("B", "C"))))), "b"), INFINITE),
        ]
        uncertain = [
            WeightedStatement(ConceptAssertion(DataSome("f", Restriction("<", Fraction(3))), "c"), Fraction(1, 2)),
            WeightedStatement(ConceptAssertion(And(("A", "B")), "a"), Fraction(-3, 10)),
        ]
        text = serialize_kb(make_kb(SIG, deterministic, uncertain))
        assert text.splitlines() == [
            "(r SOME A)(a)",
            "(A AND s SOME (B AND C))(b)",
            "0.5 (f SOME (<, 3))(c)",
            "-0.3 (A AND B)(a)",
        ]
        expected = normalize([(ws.statement, ws.weight) for ws in deterministic + uncertain], SIG)
        reparsed = parse_kb(text)
        assert not reparsed.errors
        assert (reparsed.kb.deterministic, reparsed.kb.uncertain, reparsed.name_map) == (
            expected.kb.deterministic, expected.kb.uncertain, expected.name_map
        )
        # the assertion's parentheses count toward the nesting limit
        assert not parse_kb(f"{'(' * MAX_NESTING}r SOME B{')' * MAX_NESTING}(a)\n").errors

    def test_non_decimal_rationals_round_trip(self):
        text = "1/3 A SUBCLASSOF B\nf(a, 2/7)\n"
        kb = parse_kb(text).kb
        assert kb.uncertain[0].weight == Fraction(1, 3)
        assert parse_kb(serialize_kb(kb)).kb == kb


class TestCommands:
    def test_solve_json_report(self, toddler_path):
        code, out = run_cli("solve", str(toddler_path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["objective"] == "2.2"
        assert report["coherent"] is True
        assert "0.1 Toddler SUBCLASSOF Adult" in report["rejected"]
        assert "Person(john)" in report["classified"]
        assert set(report) >= {"objective", "selected", "rejected", "classified", "iterations", "coherent"}

    def test_text_and_json_reports_carry_the_same_fields(self, toddler_path):
        _, text_out = run_cli("solve", str(toddler_path))
        _, json_out = run_cli("solve", str(toddler_path), "--format", "json")
        report = json.loads(json_out)
        for key, value in report.items():
            assert f"{key}:" in text_out
            if isinstance(value, list):
                for item in value:
                    assert str(item) in text_out

    def test_prob_command_zero(self, toddler_path, toddler_query_path):
        code, out = run_cli("prob", str(toddler_path), "--query", str(toddler_query_path))
        assert code == 0
        assert "probability: 0" in out

    def test_solve_empty_kb(self, tmp_path):
        empty = tmp_path / "empty.kb"
        empty.write_text("")
        code, out = run_cli("solve", str(empty), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert report["objective"] == "0"
        # nothing beyond the reflexivity seeds over TOP and BOT
        assert all("SUBCLASSOF" in line for line in report["classified"])

    def test_oracle_command(self, two_year_old_path):
        code, out = run_cli("oracle", str(two_year_old_path), "--format", "json")
        assert code == 0
        report = json.loads(out)
        assert len(report["worlds"]) == 4
        assert report["worlds"][0]["score"] == "1.5"

    def test_classify_command(self, toddler_path):
        code, out = run_cli("classify", str(toddler_path))
        assert code == 0
        assert "Toddler AND Adult SUBCLASSOF BOT" in out

    def test_check_command_ok(self, toddler_path):
        code, out = run_cli("check", str(toddler_path))
        assert code == 0
        assert "ok: True" in out

    def test_explain_flag(self, toddler_path):
        code, out = run_cli("solve", str(toddler_path), "--format", "json", "--explain")
        assert code == 0
        report = json.loads(out)
        deltas = {entry["statement"]: entry["delta"] for entry in report["explain"]}
        assert deltas["0.1 Toddler SUBCLASSOF Adult"] == "incoherent"
        assert deltas["0.7 age(john, 2)"] == "0.7"

    def test_dump_ilp_stable(self, toddler_path):
        code1, out1 = run_cli("dump-ilp", str(toddler_path))
        code2, out2 = run_cli("dump-ilp", str(toddler_path))
        assert code1 == code2 == 0
        assert out1 == out2
        # the facts of F1, F2 and UNA hold in every world: no variable, no
        # constraint and no body term stands for one
        golden = Path(__file__).resolve().parent / "data" / "toddler.ilp"
        assert out1.encode() == golden.read_bytes()

    def test_dump_ilp_lists_the_weights_in_statement_order(self, tmp_path):
        # one objective entry per uncertain statement, in statement order, so
        # the first and third share a variable, declared where the first
        # statement is weighed: the tie-break reads variables in that order
        kb = tmp_path / "shared.kb"
        kb.write_text("0.5 A SUBCLASSOF B\n0.3 C SUBCLASSOF D\n0.2 A SUBCLASSOF B\n")
        code, out = run_cli("dump-ilp", str(kb))
        assert code == 0
        assert out == (
            "OBJECTIVE\n"
            "  0.5 x_sub_A_B\n"
            "  0.3 x_sub_C_D\n"
            "  0.2 x_sub_A_B\n"
            "CONSTRAINTS\n"
            "BINARY\n"
            "  x_sub_A_B\n"
            "  x_sub_C_D\n"
        )


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_text("A SUBCLASSOF\n")
        code, _ = run_cli("solve", str(bad))
        assert code == 2

    def test_missing_file_is_2(self):
        code, _ = run_cli("solve", "no_such_file.kb")
        assert code == 2

    def test_non_utf8_input_is_2(self, tmp_path, toddler_path, capsys):
        latin = tmp_path / "latin1.kb"
        latin.write_bytes("Caf\u00e9 SUBCLASSOF B\n".encode("latin-1"))
        for argv in (
            ("solve", str(latin)),
            ("check", str(latin)),
            ("prob", str(toddler_path), "--query", str(latin)),
        ):
            code, _ = run_cli(*argv)
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"cannot read {latin}:")
            assert "Traceback" not in err

    def test_zero_denominator_is_2(self, tmp_path):
        bad = tmp_path / "zero.kb"
        bad.write_text("1/0 A SUBCLASSOF B\n")
        for command in ("solve", "check"):
            code, _ = run_cli(command, str(bad))
            assert code == 2

    @pytest.mark.parametrize("text, diagnostic", (
        ("0.5/3 A SUBCLASSOF B\n", "line 1, column 1: invalid number '0.5/3'"),
        ("f(a, 1.5/2)\n", "line 1, column 6: invalid number '1.5/2'"),
    ))
    def test_unreadable_number_literal_is_2(self, tmp_path, capsys, text, diagnostic):
        # the token pattern admits a decimal with a denominator, which
        # Fraction cannot read
        bad = tmp_path / "literal.kb"
        bad.write_text(text)
        for command in ("check", "solve"):
            assert run_cli(command, str(bad))[0] == 2
            assert "Traceback" not in capsys.readouterr().err
        assert [str(error) for error in parse_kb(text).errors] == [diagnostic]

    @pytest.mark.parametrize("opening", ("r SOME (", "("))
    def test_deep_nesting_is_2(self, tmp_path, capsys, opening):
        # MAX_NESTING levels parse; past them, the first parenthesis too many
        # is reported, at one column whatever the caller's stack
        deep = tmp_path / "deep.kb"
        deep.write_text(f"A SUBCLASSOF {opening * MAX_NESTING}B{')' * MAX_NESTING}\n")
        assert run_cli("check", str(deep)) == (0, "ok: True\ndiagnostics:\n")
        column = len("A SUBCLASSOF ") + (MAX_NESTING + 1) * len(opening)
        diagnostic = f"{deep}:line 1, column {column}: nesting too deep\n"
        for levels in (MAX_NESTING + 1, 1000):
            deep.write_text(f"A SUBCLASSOF {opening * levels}B{')' * levels}\n")
            assert run_cli("check", str(deep)) == (2, f"ok: False\ndiagnostics:\n  {diagnostic}")
            assert run_cli("solve", str(deep)) == (2, "")
            assert capsys.readouterr().err == diagnostic
        child = subprocess.run(
            [sys.executable, "-m", "probel.cli", "check", str(deep)], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert (child.returncode, child.stdout, child.stderr) == (2, f"ok: False\ndiagnostics:\n  {diagnostic}", "")

    @pytest.mark.parametrize("weight", ("", "0.5 "))
    def test_nesting_at_the_limit_on_either_side_runs(self, tmp_path, capsys, weight):
        # each level of r SOME ({a} AND ...) is a conjunction and an
        # existential for the normalizer to name, the deepest rewriting per level
        def nest(levels):
            return f"{'r SOME ({a} AND ' * levels}B{')' * levels}"

        kb = tmp_path / "kb.kb"
        for line in (f"{weight}{nest(MAX_NESTING)} SUBCLASSOF C", f"{weight}C SUBCLASSOF {nest(MAX_NESTING)}"):
            kb.write_text(line + "\n")
            for command in ("check", "solve", "classify"):
                assert run_cli(command, str(kb))[0] == 0, (command, line[:20])
            assert capsys.readouterr().err == ""
        # 200 levels once passed the parser and overflowed the normalizer
        kb.write_text(f"{weight}{nest(200)} SUBCLASSOF C\n")
        column = len(weight) + MAX_NESTING * len("r SOME ({a} AND ") + len("r SOME (")
        for command in ("check", "solve", "classify"):
            assert run_cli(command, str(kb))[0] == 2
            assert "Traceback" not in capsys.readouterr().err
        assert [str(error) for error in parse_kb(kb.read_text()).errors] == [
            f"line 1, column {column}: nesting too deep"
        ]

    def test_incoherent_deterministic_is_1(self, tmp_path):
        bad = tmp_path / "incoherent.kb"
        bad.write_text("A SUBCLASSOF B\nA SUBCLASSOF BOT\nB AND A SUBCLASSOF BOT\n")
        code, _ = run_cli("solve", str(bad))
        assert code == 1

    def test_cap_exceeded_is_3(self, tmp_path):
        lines = [f"0.5 A{i} SUBCLASSOF B{i}" for i in range(5)]
        kb = tmp_path / "wide.kb"
        kb.write_text("\n".join(lines) + "\n")
        code, _ = run_cli("oracle", str(kb), "--max-worlds", "4")
        assert code == 3

    def test_enumeration_cap_is_checked_after_validation_and_before_coherence(
        self, tmp_path, toddler_query_path
    ):
        dup = tmp_path / "dup.kb"
        dup.write_text("A SUBCLASSOF B\n0.5 A SUBCLASSOF B\n0.5 C SUBCLASSOF D\n")
        incoherent = tmp_path / "incoherent.kb"
        incoherent.write_text("A SUBCLASSOF BOT\n0.5 B SUBCLASSOF C\n0.5 C SUBCLASSOF D\n")
        for command in (("oracle",), ("prob", "--query", str(toddler_query_path))):
            for kb, expected in ((dup, 2), (incoherent, 3)):
                code, _ = run_cli(command[0], str(kb), *command[1:], "--max-worlds", "1")
                assert code == expected
        code, _ = run_cli("oracle", str(incoherent))
        assert code == 1

    def test_flags_a_subcommand_does_not_read_are_usage_errors(self, toddler_path, capsys):
        for argv in (
            ("solve", "--max-worlds", "4"),
            ("classify", "--max-worlds", "4"),
            ("dump-ilp", "--max-worlds", "4"),
            ("check", "--max-worlds", "4"),
            ("check", "--domain", "integer"),
            ("dump-ilp", "--format", "json"),
        ):
            with pytest.raises(SystemExit) as exit_info:
                run_cli(argv[0], str(toddler_path), *argv[1:])
            assert exit_info.value.code == 2, argv
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_negative_max_worlds_is_a_usage_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.kb"
        empty.write_text("")
        for command in (("oracle",), ("prob", "--query", str(empty))):
            with pytest.raises(SystemExit) as exit_info:
                run_cli(command[0], str(empty), *command[1:], "--max-worlds", "-1")
            assert exit_info.value.code == 2, command
            assert "error: argument --max-worlds: N must be >= 0, not -1" in capsys.readouterr().err
        assert run_cli("oracle", str(empty), "--max-worlds", "0")[0] == 0

    def test_check_reports_invalid(self, tmp_path):
        bad = tmp_path / "bad.kb"
        bad.write_text("A SUBCLASSOF B AND\n")
        code, _ = run_cli("check", str(bad))
        assert code == 2

    def test_check_parse_diagnostics_name_the_file(self, tmp_path, capsys):
        # as every other command's do, but on stdout, where they are the report
        bad = tmp_path / "bad.kb"
        bad.write_text("A SUBCLASSOF B\nA SUBCLASSOF\n")
        assert run_cli("solve", str(bad)) == (2, "")
        (diagnostic,) = capsys.readouterr().err.splitlines()
        assert diagnostic.startswith(f"{bad}:line 2, column ")
        assert run_cli("check", str(bad)) == (2, f"ok: False\ndiagnostics:\n  {diagnostic}\n")
        code, out = run_cli("check", str(bad), "--format", "json")
        assert code == 2
        assert json.loads(out) == {"ok": False, "diagnostics": [diagnostic]}
        assert capsys.readouterr().err == ""

    def test_statement_in_both_parts_is_2(self, tmp_path):
        dup = tmp_path / "dup.kb"
        dup.write_text("A SUBCLASSOF B\n0.5 A SUBCLASSOF B\n")
        code, out = run_cli("check", str(dup))
        assert code == 2
        assert "both parts" in out
        code, _ = run_cli("solve", str(dup))
        assert code == 2

    @pytest.mark.parametrize("sign", ["", "-"], ids=["positive", "negative"])
    def test_weights_beyond_float_range_end_in_a_report(self, tmp_path, capsys, sign):
        # scores stay exact, but a probability is a float: exp of a score
        # beyond float range is never taken
        kb = tmp_path / "huge.kb"
        kb.write_text(f"{sign}1{'0' * 400} A SUBCLASSOF B\n0.5 B SUBCLASSOF C\n")
        query = tmp_path / "query.kb"
        query.write_text("B SUBCLASSOF C\n")
        code, out = run_cli("oracle", str(kb), "--format", "json")
        assert code == 0
        probabilities = [float(world["probability"]) for world in json.loads(out)["worlds"]]
        assert len(probabilities) == 4
        assert sum(probabilities) == pytest.approx(1)
        code, out = run_cli("prob", str(kb), "--query", str(query), "--format", "json")
        assert code == 0
        # B SUBCLASSOF C holds in the worlds of weight 0.5 against those of 0
        assert float(json.loads(out)["probability"]) == pytest.approx(1 / (1 + math.exp(-0.5)))
        assert capsys.readouterr().err == ""



# One input per parse diagnostic, each with the exact `check --format json`
# diagnostics.
DIAGNOSTICS = (
    ("A SUBCLASSOF B $\n", ["kb.kb:line 1, column 15: unexpected character '$'"]),
    ("$A\n", ["kb.kb:line 1, column 1: unexpected character '$'"]),
    ("A B\n", ["kb.kb:line 1, column 3: expected SUBCLASSOF, found 'B'"]),
    ("A SUBCLASSOF (B\n", ["kb.kb:line 1, column 16: expected ), found 'end of line'"]),
    ("A SUBCLASSOF f SOME (<=, 0/0)\n", ["kb.kb:line 1, column 26: zero denominator in '0/0'"]),
    ("_X SUBCLASSOF A\n", ["kb.kb:line 1, column 1: names starting with '_' are reserved"]),
    ("A(a) B\n", ["kb.kb:line 1, column 6: unexpected trailing 'B'"]),
    ("(A AND B)(\n", ["kb.kb:line 1, column 11: expected individual name, found 'end of line'"]),
    (f"{'(' * 1000}B{')' * 1000}(a)\n", [f"kb.kb:line 1, column {1 + MAX_NESTING}: nesting too deep"]),
    ("A SUBCLASSOF f SOME (<=, x)\n", ["kb.kb:line 1, column 26: expected a numeric value"]),
    (f"A SUBCLASSOF {'(' * 1000}B{')' * 1000}\n", [f"kb.kb:line 1, column {14 + MAX_NESTING}: nesting too deep"]),
    ("r(a, b)\nA SUBCLASSOF r\n", ["kb.kb:line 2, column 1: 'r' already used as a role, now as a concept"]),
    ("C(x)\nx SUBCLASSOF D\n", ["kb.kb:line 2, column 1: 'x' already used as an individual, now as a concept"]),
    ("A SUBCLASSOF B\n0.5 A SUBCLASSOF B\n", ["uncertain[0]: statement appears in both parts"]),
    (
        "r(a, b)\n0.5 A SUBCLASSOF\nA SUBCLASSOF r  # comment\n\n{a} SUBCLASSOF B\n"
        "ROLECHAIN r SUBROLEOF\nB(r)\nf(a, 1/0)\nx SUBCLASSOF f SOME (<, 1)\n  TOP(x) $\n"
        "f SOME (=, 2) SUBCLASSOF a\n",
        [
            "kb.kb:line 2, column 17: expected concept name, found 'end of line'",
            "kb.kb:line 6, column 22: expected role name, found 'end of line'",
            "kb.kb:line 8, column 6: zero denominator in '1/0'",
            "kb.kb:line 10, column 9: unexpected character '$'",
            "kb.kb:line 3, column 1: 'r' already used as a role, now as a concept",
            "kb.kb:line 7, column 1: 'r' already used as a role, now as an individual",
            "kb.kb:line 11, column 1: 'a' already used as an individual, now as a concept",
        ],
    ),
)


@pytest.mark.parametrize("text, expected", DIAGNOSTICS)
def test_check_reports_each_diagnostic_exactly(tmp_path, monkeypatch, text, expected):
    monkeypatch.chdir(tmp_path)
    Path("kb.kb").write_text(text)
    code, out = run_cli("check", "kb.kb", "--format", "json")
    report = json.loads(out)
    assert (code, report["ok"], len(report["diagnostics"])) == (2, False, len(expected))
    assert report["diagnostics"] == expected


# Lines of two kinds: runs of the grammar's tokens, stray characters and
# number-like runs of digits, '.', '/' and '-', joined with or without
# spaces; and statements of the grammar whose numbers are such runs.
_GRAMMAR_TOKENS = (
    "A", "B", "r", "f", "a", "_x", "TOP", "BOT", "AND", "SOME", "SUBCLASSOF",
    "ROLECHAIN", "SUBROLEOF", "(", ")", "{", "}", ",", "<", "<=", "=", ">=", ">",
)
_numbers = st.builds(
    "".join,
    st.tuples(
        st.sampled_from(("", "-")),
        st.text("0123456789", min_size=1, max_size=3),
        st.sampled_from(("", "", ".", ".5", ".25")),
        st.sampled_from(("", "", "/", "/3", "/0")),
    ),
)
_pieces = st.one_of(
    st.sampled_from(_GRAMMAR_TOKENS),
    _numbers,
    st.text("0123456789./-", min_size=1, max_size=4),
    st.sampled_from(("$", "!", "\u00e9", "#", "\t", "  ")),
)
_token_runs = st.lists(st.tuples(_pieces, st.sampled_from((" ", ""))), max_size=10).map(
    lambda pairs: "".join(piece + gap for piece, gap in pairs)
)
_concepts = st.recursive(
    st.sampled_from(("A", "B", "C", "TOP", "BOT", "{a}")),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(" AND ".join),
        inner.map(lambda filler: f"r SOME ({filler})"),
        st.tuples(st.sampled_from(("<", "<=", "=", ">=", ">")), _numbers).map(
            lambda pair: f"f SOME ({pair[0]}, {pair[1]})"
        ),
    ),
    max_leaves=4,
)
_statements = st.one_of(
    st.tuples(_concepts, _concepts).map(" SUBCLASSOF ".join),
    st.lists(st.sampled_from(("r", "s")), min_size=1, max_size=3).map(
        lambda chain: f"ROLECHAIN {' '.join(chain)} SUBROLEOF r"
    ),
    st.sampled_from(("A(a)", "{b}(a)", "TOP(b)", "r(a, b)")),
    _numbers.map(lambda value: f"f(a, {value})"),
)
_lines = st.one_of(
    _token_runs,
    st.tuples(st.one_of(st.just(""), _numbers.map(lambda weight: weight + " ")), _statements).map("".join),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_lines, min_size=1, max_size=4))
def test_parser_fuzz(lines):
    text = "\n".join(lines) + "\n"
    result = parse_kb(text)
    for error in result.errors:
        line = lines[error.line - 1]
        assert error.line >= 1 and line.split("#", 1)[0].strip(), error
        assert 1 <= error.column <= len(line) + 1, error
    if result.kb is not None and not result.name_map:
        assert parse_kb(serialize_kb(result.kb)).kb == result.kb


# grammar tokens run together or apart, and characters that start no token:
# a lone "-", "$", and letters outside the ASCII name class
_fragments = st.sampled_from((
    "A", "ab_1", "_x", "AND", "SOME", "SUBCLASSOF", "ROLECHAIN", "SUBROLEOF", "TOP", "BOT",
    "0", "-2", "0.5", "3/4", "1.5/2", "<=", ">=", "<", ">", "=", "(", ")", "{", "}", ",",
    " ", "   ", "\t", "-", ".", "$", "\u00e9", "\u00df",
))


@settings(max_examples=400, deadline=None)
@given(st.lists(_fragments, max_size=12).map("".join))
def test_tokenizer_matches_one_match_object_per_token(line):
    expected = tokenize(line)
    try:
        tokens = _tokenize(line)
    except _LineSyntax as err:
        assert expected == ("error", err.column, err.message)
    else:
        assert tokens == expected + [("end", "", len(line) + 1)] * 4


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.one_of(normal_statements, data_statements, non_normal_statements), min_size=1, max_size=12),
    st.lists(st.one_of(fine_values, st.just(Fraction(0))), max_size=10),
)
def test_cli_fuzz(tmp_path_factory, statements, weights):
    # every command on drawn KBs: the statements with a drawn weight are
    # uncertain, the rest deterministic, so a statement drawn twice may land
    # in both parts; each run ends in a documented exit code, 0 to 3
    uncertain = [WeightedStatement(s, w) for s, w in zip(statements, weights)]
    deterministic = [WeightedStatement(s, INFINITE) for s in statements[len(uncertain):]]
    path = tmp_path_factory.mktemp("fuzz") / "drawn.kb"
    path.write_text(serialize_kb(make_kb(SIG, deterministic, uncertain)))
    runs = [("check", str(path))]
    for domain in ("real", "integer"):
        for command in (("solve",), ("classify",), ("oracle", "--max-worlds", "6"), ("dump-ilp",)):
            runs.append((*command, str(path), "--domain", domain))
    for argv in runs:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(list(argv))
        assert code in (0, 1, 2, 3), (argv, path.read_text())


class TestMoreSurface:
    def test_integer_domain_flag_changes_classification(self, tmp_path):
        kb = tmp_path / "snap.kb"
        kb.write_text("0.7 A SUBCLASSOF age SOME (>, 1)\n0.8 age SOME (>=, 2) SUBCLASSOF B\n")
        _, real_out = run_cli("solve", str(kb), "--format", "json")
        _, int_out = run_cli("solve", str(kb), "--format", "json", "--domain", "integer")
        assert "A SUBCLASSOF B" not in json.loads(real_out)["classified"]
        assert "A SUBCLASSOF B" in json.loads(int_out)["classified"]

    def test_prob_splits_composite_queries_exactly(self, toddler_path, tmp_path):
        # a right-side conjunction decomposes without fresh names: entailing
        # the original is entailing both parts
        query = tmp_path / "query.kb"
        query.write_text("Toddler SUBCLASSOF age SOME (<=, 3) AND Adult\n")
        code, out = run_cli("prob", str(toddler_path), "--query", str(query))
        assert code == 0
        assert "probability: 0" in out

    def test_prob_rejects_queries_needing_fresh_names(self, toddler_path, tmp_path):
        query = tmp_path / "query.kb"
        query.write_text("Toddler AND Adult AND Person SUBCLASSOF Toddler\n")
        code, _ = run_cli("prob", str(toddler_path), "--query", str(query))
        assert code == 2

    def test_classify_incoherent_exits_1(self, tmp_path):
        kb = tmp_path / "bad.kb"
        kb.write_text("A SUBCLASSOF BOT\n")
        code, _ = run_cli("classify", str(kb))
        assert code == 1

    def test_oracle_text_format(self, two_year_old_path):
        code, out = run_cli("oracle", str(two_year_old_path))
        assert code == 0
        assert "score=1.5" in out


class TestDeterminism:
    def test_json_reports_are_the_standard_encoders(self, toddler_query_path):
        # every command's report, each KB of kbs/ in both domains: the same
        # bytes as json.dumps(report, indent=2), non-ASCII and empty
        # containers included
        query = str(toddler_query_path)
        runs = []
        for kb in sorted(str(path) for path in toddler_query_path.parents[1].glob("*.kb")):
            runs.append(("check", kb))
            for domain in ("--domain", "real"), ("--domain", "integer"):
                runs += [("solve", kb, "--explain", *domain), ("classify", kb, *domain),
                         ("oracle", kb, *domain), ("prob", kb, "--query", query, *domain)]
        for argv in runs:
            code, out = run_cli(*argv, "--format", "json")
            assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n", argv
        report = {"caf\u00e9": ["\u00df\n\"", {}, []], "empty": {}, "flags": [True, None, 3]}
        assert _json(report) == json.dumps(report, indent=2)

    def test_json_report_leaves_no_cyclic_garbage(self, toddler_path):
        run_cli("solve", str(toddler_path), "--format", "json")  # builds the cached parser
        gc.collect()
        gc.disable()
        try:
            code, out = run_cli("solve", str(toddler_path), "--format", "json")
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert code == 0 and json.loads(out)["coherent"] is True

    def test_repeated_invocations_byte_identical(self, toddler_path, two_year_old_path):
        for path in (toddler_path, two_year_old_path):
            for fmt in ("text", "json"):
                outputs = {run_cli("solve", str(path), "--format", fmt)[1] for _ in range(3)}
                assert len(outputs) == 1

    def test_consecutive_calls_carry_no_parsed_state(self, toddler_path, two_year_old_path):
        # one parser serves every main call of a process; what one call
        # parses must not reach the next
        code, out = run_cli("solve", str(toddler_path), "--format", "json", "--explain")
        assert code == 0 and "explain" in json.loads(out)
        code, out = run_cli("solve", str(toddler_path))
        assert code == 0
        assert out.startswith("objective: 2.2\n") and "explain" not in out
        assert run_cli("oracle", str(two_year_old_path), "--max-worlds", "1")[0] == 3
        assert run_cli("oracle", str(two_year_old_path))[0] == 0


def test_import_loads_neither_dataclasses_nor_inspect():
    # every process pays for its imports: dataclasses, with the inspect, ast
    # and dis it loads, cost about a third of the CPU time to the end of
    # import probel.cli. -S keeps site hooks out of the count. The import
    # builds the calculus's plan table but generates none of its join
    # kernels: each plan still has its lazy first run
    code = (
        "import sys; import probel.cli; from probel.grounding import CALCULUS; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)), "
        "sum(p.run != p._generate for plans in CALCULUS.values() for p in plans))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert child.stdout == "[] 0\n"
