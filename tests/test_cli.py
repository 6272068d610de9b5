"""Expression parsing, command dispatch, output formats, and exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import folinv
from folinv import cli
from folinv.cli import ParseError, _tokenize, canonical, evaluate, main, parse_poly
from folinv.invariants import PreconditionError, milnor_k_closed
from folinv.ring import Poly, X, Y
from folinv.scenarios import load_registry
from folinv.stdbasis import INFINITE


class TestParsePoly:
    def test_basic_polynomials(self):
        assert parse_poly("x^4 - y^3") == X**4 - Y**3
        assert parse_poly("y^5 - x^7 + x^4*y^4") == Y**5 - X**7 + X**4 * Y**4
        assert parse_poly("x^5+y^5+x^3*y^3") == X**5 + Y**5 + X**3 * Y**3

    def test_rational_literals(self):
        assert parse_poly("-2/5") == Poly.constant(Fraction(-2, 5))
        assert parse_poly("3/4*x") == X * Fraction(3, 4)

    def test_slash_only_inside_literals(self):
        for bad in ("x/2", "1/2/3", "x/y"):
            with pytest.raises(ParseError, match="unexpected character '/'"):
                parse_poly(bad)

    def test_parentheses_and_whitespace(self):
        assert parse_poly("(x + y)^2") == X**2 + 2 * X * Y + Y**2
        assert parse_poly("2*(x - (y + 1))") == 2 * X - 2 * Y - Poly.constant(2)
        assert parse_poly("  x ^ 4   -   y ^ 3 ") == X**4 - Y**3

    def test_unary_minus(self):
        assert parse_poly("-x") == -1 * X
        assert parse_poly("-x^2 + -3*y") == -1 * X**2 - 3 * Y
        with pytest.raises(ParseError):
            parse_poly("+x")

    def test_syntax_error_offsets(self):
        with pytest.raises(ParseError, match="offset 2"):
            parse_poly("x^")
        with pytest.raises(ParseError, match="offset 0"):
            parse_poly("*x")
        with pytest.raises(ParseError, match="offset 4"):
            parse_poly("x + $")

    def test_non_ascii_error_offsets_count_bytes(self):
        # U+00A0 and U+0661 take two UTF-8 bytes, U+2003 three
        cases = {
            "x\u00a0+ $": 5,
            "x\u00a0+": 4,
            "\u00a0\u00a01/0": 6,
            "\u0661/x": 2,
            "(x\u2003+ y": 8,
        }
        for text, offset in cases.items():
            with pytest.raises(ParseError) as info:
                parse_poly(text)
            assert info.value.offset == offset, text

    def test_only_decimal_digits_are_digits(self):
        # superscripts pass str.isdigit() but int() rejects them; they are
        # unexpected characters like any other, with their byte offset
        for text, offset in {"x\u00b2+y^3": 1, "x^\u00b3": 2, "\u2074/3*x": 0}.items():
            with pytest.raises(ParseError, match="unexpected character") as info:
                parse_poly(text)
            assert info.value.offset == offset, text
        # decimal digits of other scripts stay digits
        assert parse_poly("x^\u0663 + \u0662/\u0665*y") == X**3 + Fraction(2, 5) * Y

    def test_long_input_tokenizes_in_linear_time(self):
        def best_time(text):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                tokens = _tokenize(text)
                times.append(time.perf_counter() - start)
            assert tokens[-1].offset == len(text.encode("utf-8"))
            return min(times)

        assert best_time("+".join(["x*y"] * 32000)) < 0.3  # 127 999 characters
        # not ASCII: quadratic offsets took over 2 s on these 64 000 characters
        assert best_time("\u00a0" + "+".join(["x*y"] * 16000)) < 1.0

    def test_expected_token_set_reported(self):
        with pytest.raises(ParseError, match="expected"):
            parse_poly("x^")
        with pytest.raises(ParseError, match="unclosed parenthesis"):
            parse_poly("(x + y")

    def test_implicit_multiplication_rejected(self):
        for bad in ("2x", "x y", "x(x+1)", "x^2y"):
            with pytest.raises(ParseError):
                parse_poly(bad)

    def test_exponent_rules(self):
        assert parse_poly("x^0") == Poly.one()
        with pytest.raises(ParseError):
            parse_poly("x^-2")
        with pytest.raises(ParseError):
            parse_poly("x^1000001")
        with pytest.raises(ParseError):
            parse_poly("x^(2)")

    def test_rational_exponent_rejected(self):
        # 4/2 is one rational literal, but an exponent is written as an
        # integer: x^4/2 is not read as x^2, nor x^4/1 as x^4
        cases = {
            "x^4/2+y^3": 2, "x^4/1+y^3": 2, "x^ 4/2": 3, "\u00a0x^4/2": 4, "x^3/2": 2,
        }
        for text, offset in cases.items():
            with pytest.raises(ParseError, match="exponent must be a nonnegative integer") as info:
                parse_poly(text)
            assert info.value.offset == offset, text
        assert parse_poly("2/4*x") == Fraction(1, 2) * X
        assert parse_poly("x^2*1/2") == Fraction(1, 2) * X**2
        with pytest.raises(ParseError, match="denominator is zero") as info:
            parse_poly("x^2/0")
        assert info.value.offset == 4

    def test_zero_denominator_rejected(self):
        with pytest.raises(ParseError):
            parse_poly("1/0")

    def test_round_trip(self):
        corpus = [
            Poly.zero(),
            Poly.one(),
            Poly.constant(Fraction(-2, 5)),
            X**4 - Y**3,
            Y**5 - X**7 + X**4 * Y**4,
            X**5 + Y**5 + X**3 * Y**3,
            X**2 + Y**2,
            2 * X + X * Y,
            X * Fraction(3, 4) - Y**2 * Fraction(7, 2),
        ]
        for p in corpus:
            assert parse_poly(str(p)) == p


class TestParseCache:
    def test_one_value_per_text(self):
        parse_poly.cache_clear()
        first = parse_poly("x^4 - y^3")
        assert parse_poly("x^4 - y^3") is first
        assert parse_poly.cache_info().misses == 1

    def test_refused_texts_raise_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ParseError, match="offset 2"):
                parse_poly("x^")
            with pytest.raises(PreconditionError, match="terms times bits"):
                parse_poly("(x+y)^100000")

    def test_cache_is_bounded(self):
        assert parse_poly.cache_info().maxsize is not None


class TestCanonical:
    def test_scalars(self):
        assert canonical(5) == "5"
        assert canonical(Fraction(3, 2)) == "3/2"
        assert canonical(True) == "true"
        assert canonical(False) == "false"
        assert canonical(INFINITE) == "infinite"

    def test_tuples_comma_joined(self):
        assert canonical((78, 50, True)) == "78,50,true"
        assert canonical((INFINITE, 1)) == "infinite,1"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


class TestDispatch:
    def test_outcome_is_an_immutable_record(self):
        one, two = evaluate(["milnor", "x^2+y^3"]), evaluate(["milnor", "x^2+y^3"])
        assert one is not two and one == two
        assert (one.command, one.k, one.result) == ("milnor", 0, 2)
        with pytest.raises(AttributeError):
            one.result = 3

    def test_tjurina_example(self, capsys):
        assert run_cli(capsys, "tjurina", "--k", "8", "x^5+y^5+x^3*y^3")[:2] == (0, "50")

    def test_gsv_example(self, capsys):
        code, out, _ = run_cli(capsys, "gsv", "--P", "4*x*y", "--Q", "y-2*x^2", "--f", "y")
        assert (code, out) == (0, "2")

    def test_vdim_example(self, capsys):
        code, out, _ = run_cli(capsys, "vdim", "x^4-y^3", "y^5-x^7+x^4*y^4", "--mk", "4")
        assert (code, out) == (0, "39")

    def test_vdim_without_generators(self, capsys):
        assert run_cli(capsys, "vdim", "--mk", "2")[:2] == (0, "3")
        assert run_cli(capsys, "vdim", "--mk", "0")[:2] == (0, "0")
        code, out, _ = run_cli(capsys, "vdim", "--mk", "2", "--plus", "x^4-y^3")
        assert (code, out) == (0, "3")

    def test_echoed_inputs_do_not_alias_parser_defaults(self):
        evaluate(["vdim", "x"]).inputs["plus"].append("y^2")
        outcome = evaluate(["vdim", "x"])
        assert (outcome.inputs["plus"], outcome.result) == ([], INFINITE)

    def test_intersect(self, capsys):
        code, out, _ = run_cli(capsys, "intersect", "x^4-y^3", "y^5-x^7+x^4*y^4")
        assert (code, out) == (0, "20")

    def test_equals_form_for_leading_minus(self, capsys):
        code, out, _ = run_cli(
            capsys, "fol-milnor", "--P=-3*y", "--Q", "2*x", "--k", "2"
        )
        assert (code, out) == (0, "6")

    def test_fol_tjurina(self, capsys):
        code, out, _ = run_cli(
            capsys, "fol-tjurina", "--P", "4*x*y", "--Q", "y-2*x^2", "--f", "y",
            "--k", "3",
        )
        assert (code, out) == (0, "5")

    def test_invariant_true_false(self, capsys):
        base = ("invariant", "--P", "4*x*y", "--Q", "y-2*x^2")
        assert run_cli(capsys, *base, "--f", "y")[:2] == (0, "true")
        assert run_cli(capsys, *base, "--f", "x")[:2] == (1, "false")

    def test_qh_check(self, capsys):
        code, out, _ = run_cli(
            capsys, "qh-check", "--P=-3*y", "--Q", "2*x", "--f", "y^2-x^3"
        )
        assert (code, out) == (0, "true")

    def test_check_false_exits_1(self, capsys):
        code, out, _ = run_cli(capsys, "check", "ratio", "--f", "x^4-y^3", "--k", "2")
        assert (code, out) == (1, "12,11,false")

    def test_check_true_exits_0(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "conjecture1", "--f", "x^4-y^3", "--k", "2"
        )
        assert (code, out) == (0, "11,11,true")

    @pytest.mark.parametrize("name", ["ratio", "conjecture1"])
    def test_k_max_is_another_spelling_of_k(self, capsys, name):
        base = ("check", name, "--f", "x^3+y^4")
        table = [run_cli(capsys, *base, flag, "3") for flag in ("--k", "--k-max")]
        assert table[0] == table[1]
        js = [
            json.loads(run_cli(capsys, *base, flag, "3", "--format", "json")[1])
            for flag in ("--k", "--k-max")
        ]
        assert js[0]["k"] == js[1]["k"] == 3 and js[0]["result"] == js[1]["result"]

    def test_infinite_table(self, capsys):
        assert run_cli(capsys, "milnor", "x^2")[:2] == (0, "infinite")

    def test_infinite_json(self, capsys):
        code, out, _ = run_cli(capsys, "milnor", "x^2", "--format", "json")
        obj = json.loads(out)
        assert code == 0
        assert obj["result"] is None
        assert obj["finite"] is False

    def test_json_schema_keys(self, capsys):
        code, out, _ = run_cli(
            capsys, "milnor", "--k", "8", "x^5+y^5+x^3*y^3", "--format", "json"
        )
        obj = json.loads(out)
        assert code == 0
        assert list(obj.keys()) == [
            "command", "inputs", "k", "result", "finite", "elapsed_ms",
        ]
        assert obj["command"] == "milnor"
        assert obj["k"] == 8
        assert obj["result"] == 78
        assert obj["finite"] is True

    def test_json_tuple_result(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "ratio", "--f", "x^4-y^3", "--k", "2",
            "--format", "json",
        )
        assert json.loads(out)["result"] == [12, 11, False]
        assert code == 1


class TestExitCodeMatrix:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run_cli(capsys, "milnor", "x^")
        assert code == 2
        assert err.startswith("error:") and "offset 2" in err

    def test_rational_exponent_is_2(self, capsys):
        for text in ("x^4/2+y^3", "x^4/1+y^3"):
            code, out, err = run_cli(capsys, "milnor", text)
            assert (code, out) == (2, "")
            assert err == (
                "error: syntax error at byte offset 2: exponent must be a "
                "nonnegative integer; expected integer exponent\n"
            )

    def test_superscript_is_a_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "milnor", "x\u00b2+y^3")
        assert code == 2
        assert err.startswith("error: syntax error at byte offset 1:")

    def test_gated_check_without_assertion_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "check", "qh-identity", "--P=-3*y", "--Q", "2*x",
            "--f", "y^2-x^3", "--k-max", "3",
        )
        assert code == 2
        assert "--assert-generalized-curve" in err

    def test_gated_check_with_assertion_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "check", "qh-identity", "--P=-3*y", "--Q", "2*x",
            "--f", "y^2-x^3", "--k-max", "3", "--assert-generalized-curve",
        )
        assert (code, out) == (0, "true")

    def test_precondition_violation_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "gsv", "--P", "4*x*y", "--Q", "y-2*x^2", "--f", "x"
        )
        assert code == 2
        assert "invariant" in err

    def test_missing_argument_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["milnor"])
        assert exc.value.code == 2

    def test_unknown_verb_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate", "x"])
        assert exc.value.code == 2

    def test_unknown_check_name_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "nonsense", "--f", "x^2"])
        assert exc.value.code == 2

    def test_negative_k_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["milnor", "--k", "-1", "x^2+y^3"])
        assert exc.value.code == 2

    def test_non_integer_k_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["milnor", "x^2", "--k", "abc"])
        assert exc.value.code == 2
        assert "'abc' is not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["1_0", " 7", "7 ", "+7", "\u0663", "9" * 5000 + "x"], ids=repr
    )
    def test_orders_are_ascii_digits(self, capsys, text):
        # int() reads each of these; an order is ASCII digits only, written
        # --k X or --k=X, on a plain line or on one argparse reads (the
        # abbreviated --form sends it there), and a long text is cut short
        assert cli._reader("milnor")(["x^2+y^3", "--k", text]) is None
        for argv in (["--k", text], [f"--k={text}"], ["--form", "table", "--k", text]):
            with pytest.raises(SystemExit) as exc:
                main(["milnor", "x^2+y^3", *argv])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "argument --k: " in err and "is not an integer" in err
            assert len(err) < 300

    def test_long_orders_follow_the_digit_rule(self, capsys):
        # at most 4 300 digits, as a literal of the polynomial grammar
        for text, reason in (
            ("9" * 4300, "must be at most 100"),
            ("9" * 5000, "must have at most 4300 digits"),
            ("0" * 5000 + "7", "must have at most 4300 digits"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["milnor", "x^2+y^3", "--k", text])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"argument --k: {reason}\n")
        assert cli._nonneg("0" * 4299 + "7") == 7

    def test_unrecognized_option_names_the_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["milnor", "x^2", "--bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "folinv milnor: error: unrecognized arguments: --bogus" in err

    def test_empty_argv_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# (line, read by the plain reader): each line a reader could misread, with
# argparse as the reference.  A line the reader declines goes to argparse.
EDGE_LINES = [
    ("milnor x^3+y^4 --for json", False),  # abbreviated option
    ("vdim x^2 --mk 3 y^3", False),  # split positional run, refused
    ("vdim --mk 3 x^2 y^3", True),
    ("vdim x --plus y --plus x^2", True),
    ("fol-milnor --P -y --Q x", False),  # value starting with '-'
    ("milnor --k -1 x^3", False),
    ("milnor --k=3 x^3", True),
    ("milnor -- -x^2+y^3", False),
    ("milnor x^2 x^3", False),  # more positionals than the verb takes
    ("milnor x^2 -h", False),
    ("milnor x^2 --format xml", False),  # choices
    ("check ratio --f x^3+y^4 --k-m 2", False),
    ("check ratio --f x --k 1 --k-max 2", True),  # the last spelling wins
    ("check nosuch --f x", False),
    ("frobnicate x", False),
    ("scenarios run --all", True),
    ("", False),
    ("milnor x^2 --k 101", False),  # type
    ("milnor x^2 --k", False),
    ("fol-milnor --P=-y", False),  # a required option missing
    ("scenarios run --all=1", False),  # a flag with a value
    ("intersect x --format json y", False),  # split run, accepted by argparse
    ("fol-milnor --P=-y --Q=x --P 2*y", True),
]


class TestArgv:
    """A plain line naming a verb is read from the verb table; argparse,
    the reference, reads every other line."""

    @pytest.mark.parametrize(
        "argv", [pytest.param(shlex.split(sc.expression), id=sc.id) for sc in load_registry()]
    )
    def test_scenario_namespaces_match_the_top_level_parser(self, argv):
        read = cli._reader(argv[0])(argv[1:])
        assert read is not None  # every bundled row is plain
        assert vars(read) == vars(cli._parse_args(argv))
        assert vars(read) == vars(cli._parser().parse_args(argv))

    @pytest.mark.parametrize("line, plain", EDGE_LINES, ids=[line for line, _ in EDGE_LINES])
    def test_edge_lines_match_argparse(self, line, plain):
        argv = line.split()

        def parsed(parse):
            try:
                return vars(parse(argv))
            except cli.UsageError as exc:
                return type(exc), str(exc)

        assert parsed(cli._parse_args) == parsed(cli._parser().parse_args)
        read = cli._reader(argv[0])(argv[1:]) if argv and argv[0] in cli.VERBS else None
        assert (read is not None) == plain

    def test_each_plain_line_gets_a_fresh_plus_list(self):
        one, two = cli._parse_args(["vdim", "x"]), cli._parse_args(["vdim", "x"])
        assert one.plus == two.plus == [] and one.plus is not two.plus
        assert cli._parse_args(["vdim", "--plus", "y"]).plus == ["y"]
        assert cli._parse_args(["vdim", "x"]).plus == []

    def test_k_max_leaves_the_default_to_k(self):
        assert cli._parse_args(["check", "ratio", "--f", "x"]).k == 0
        assert cli._parse_args(["check", "ratio", "--f", "x", "--k-max", "3"]).k == 3

    def test_help_lists_every_verb(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(verb in out for verb in cli.VERBS)

    def test_verb_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["milnor", "x^2", "-h"])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: folinv milnor") and "--k K" in out and err == ""

    def test_none_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["folinv", "milnor", "x^2+y^3"])
        assert main() == 0
        assert capsys.readouterr().out == "2\n"


class TestInputLimits:
    """Inputs that would run for hours are refused before any computation."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["milnor", "x^2+y^3", "--k", "101"],
            ["vdim", "x", "--mk", "101"],
            ["check", "ratio", "--f", "x^3+y^4", "--k-max", "101"],
            ["polar", "--P", "x", "--Q", "y", "--f", "x", "--k", "101"],
        ],
    )
    def test_counts_above_the_cap_are_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {argv[-2]}: must be at most 100" in capsys.readouterr().err

    def test_counts_at_the_cap_are_accepted(self, capsys):
        assert run_cli(capsys, "milnor", "--k", "100", "x^2+y^3")[:2] == (
            0, str(milnor_k_closed(2, 2, 100)),
        )
        assert run_cli(capsys, "vdim", "--mk", "100")[:2] == (0, "5050")

    def test_hanging_inputs_exit_2_at_once(self, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["milnor", "x^2+y^3", "--k", "100000"])
        assert exc.value.code == 2
        assert "must be at most 100" in capsys.readouterr().err
        code, _, err = run_cli(capsys, "milnor", "(x+y)^100000+y^7")
        assert code == 2
        assert err.startswith("error: '^' at byte offset 5") and "limit is 1000000" in err
        # one-term factors share the budget: their size is their coefficient
        code, _, err = run_cli(capsys, "milnor", "*".join(["2^1000000"] * 400))
        assert code == 2
        assert err.startswith("error: '^' at byte offset 1") and "1000001 bits" in err
        assert time.perf_counter() - start < 1

    def test_literals_have_at_most_4300_digits(self, capsys):
        nines = "9" * 4300
        assert parse_poly(nines + "*x") == int(nines) * X
        assert parse_poly("x+1/" + nines) == X + Poly.constant(Fraction(1, int(nines)))
        for text, offset in [
            (nines + "9*x", 0),  # coefficient
            ("x^" + nines + "9", 2),  # exponent
            ("x+1/" + nines + "9", 4),  # denominator
            ("y+\u00a0" + nines + "9", 4),  # past a 2-byte space
        ]:
            with pytest.raises(ParseError, match="more than 4300 digits") as info:
                parse_poly(text)
            assert info.value.offset == offset
        code, out, err = run_cli(capsys, "milnor", "9" * 5000 + "*x")
        assert (code, out) == (2, "")
        assert err == (
            "error: syntax error at byte offset 0: number has more than 4300 digits\n"
        )

    def test_literal_length_is_decided_by_digit_count(self):
        # as on Python 3.10.0-3.10.6, which convert strings of any length
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("this Python has no int() digit limit")
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ParseError, match="more than 4300 digits"):
                parse_poly("x^" + "9" * 5000)
        finally:
            sys.set_int_max_str_digits(previous)

    def test_parentheses_nest_at_most_100_deep(self, capsys):
        for depth in (1, 99, 100):
            assert parse_poly("(" * depth + "x-y^2" + ")" * depth) == X - Y**2
        for depth in (101, 199, 10000):
            text = "(" * depth + "x" + ")" * depth
            with pytest.raises(ParseError, match="nested deeper than 100") as info:
                parse_poly(text)
            assert info.value.offset == 100
        # the 101st parenthesis is refused wherever it opens
        with pytest.raises(ParseError) as info:
            parse_poly("x+" + "(y*" * 100 + "(x" + ")" * 101)
        assert info.value.offset == 2 + 3 * 100
        code, out, err = run_cli(capsys, "milnor", "(" * 199 + "x" + ")" * 199)
        assert (code, out) == (2, "")
        assert err == (
            "error: syntax error at byte offset 100: parentheses nested deeper than 100\n"
        )

    def test_unary_minus_signs_cancel_without_recursion(self, capsys):
        assert parse_poly("y+" + "-" * 1000 + "x") == X + Y
        assert parse_poly("y+" + "-" * 1001 + "x") == Y - X
        assert parse_poly("-" * 3 + "x^2*--y") == -(X**2) * Y
        assert run_cli(capsys, "milnor", "y+" + "-" * 1000 + "x") == (0, "0", "")

    def test_single_terms_keep_the_exponent_cap(self):
        assert parse_poly("x^100000*y^7") == X**100000 * Y**7
        assert parse_poly("(2*x)^20") == 2**20 * X**20

    def test_size_bound_covers_the_result(self, monkeypatch):
        # with the budget just below the true size, terms times the bits of
        # the larger of numerator and denominator, every input is refused: the
        # bound is never below the result
        for text in (
            "(x+y)^7",
            "(1+x+y)^6",
            "(2/3*x-5*y+x*y)^5",
            "(x-y)^4*(3*x+1/2)^3",
            "(x^3-y^2)*(x^2*y+7/9*y^5)",
            "(x+y)^0",
        ):
            p = parse_poly(text)
            bits = max(
                max(c.numerator.bit_length(), c.denominator.bit_length())
                for _, c in p.terms
            )
            monkeypatch.setattr(cli, "_SIZE_BUDGET", len(p.terms) * bits - 1)
            cli.parse_poly.cache_clear()
            with pytest.raises(PreconditionError, match="terms times bits"):
                parse_poly(text)
            monkeypatch.undo()

    def test_products_share_the_budget(self, monkeypatch):
        monkeypatch.setattr(cli, "_SIZE_BUDGET", 100)
        cli.parse_poly.cache_clear()
        assert parse_poly("(x+y)^5") == (X + Y) ** 5
        with pytest.raises(PreconditionError, match="'\\*' at byte offset 7"):
            parse_poly("(x+y)^5*(x-y)^5")


REGISTRY_TEXT = """\
# test registry
ok | passes | section-1 | milnor x^2+y^3 | 2
bad | fails | section-1 | milnor x^2+y^3 | 3
"""


# Every verb and every check name in both formats: exit code, stdout with
# elapsed_ms masked, and stderr.  A case run with --plus or an --assert-...
# flag is followed by one without it, so a value carried over between calls
# that share one parser shows up as a changed output.
GOLDEN = [
    ('vdim x^4-y^3 y^5-x^7+x^4*y^4 --mk 4', 'table', 0, '39\n', ''),
    ('vdim x^4-y^3 y^5-x^7+x^4*y^4 --mk 4', 'json', 0, '{"command": "vdim", "inputs": {"gens": ["x^4-y^3", "y^5-x^7+x^4*y^4"], "plus": [], "mk": 4}, "k": 4, "result": 39, "finite": true, "elapsed_ms": 0}\n', ''),
    ('vdim x --plus y^2', 'table', 0, '2\n', ''),
    ('vdim x --plus y^2', 'json', 0, '{"command": "vdim", "inputs": {"gens": ["x"], "plus": ["y^2"], "mk": 0}, "k": 0, "result": 2, "finite": true, "elapsed_ms": 0}\n', ''),
    ('vdim x', 'table', 0, 'infinite\n', ''),
    ('vdim x', 'json', 0, '{"command": "vdim", "inputs": {"gens": ["x"], "plus": [], "mk": 0}, "k": 0, "result": null, "finite": false, "elapsed_ms": 0}\n', ''),
    ('vdim --mk 2', 'table', 0, '3\n', ''),
    ('vdim --mk 2', 'json', 0, '{"command": "vdim", "inputs": {"gens": [], "plus": [], "mk": 2}, "k": 2, "result": 3, "finite": true, "elapsed_ms": 0}\n', ''),
    ('vdim 0', 'table', 0, 'infinite\n', ''),
    ('vdim 0', 'json', 0, '{"command": "vdim", "inputs": {"gens": ["0"], "plus": [], "mk": 0}, "k": 0, "result": null, "finite": false, "elapsed_ms": 0}\n', ''),
    ('intersect x^4-y^3 y^5-x^7+x^4*y^4', 'table', 0, '20\n', ''),
    ('intersect x^4-y^3 y^5-x^7+x^4*y^4', 'json', 0, '{"command": "intersect", "inputs": {"f": "x^4-y^3", "g": "y^5-x^7+x^4*y^4"}, "k": null, "result": 20, "finite": true, "elapsed_ms": 0}\n', ''),
    ('intersect 0 0', 'table', 0, 'infinite\n', ''),
    ('intersect 0 0', 'json', 0, '{"command": "intersect", "inputs": {"f": "0", "g": "0"}, "k": null, "result": null, "finite": false, "elapsed_ms": 0}\n', ''),
    ('milnor --k 3 x^4-y^3', 'table', 0, '17\n', ''),
    ('milnor --k 3 x^4-y^3', 'json', 0, '{"command": "milnor", "inputs": {"f": "x^4-y^3"}, "k": 3, "result": 17, "finite": true, "elapsed_ms": 0}\n', ''),
    ('milnor x^2', 'table', 0, 'infinite\n', ''),
    ('milnor x^2', 'json', 0, '{"command": "milnor", "inputs": {"f": "x^2"}, "k": 0, "result": null, "finite": false, "elapsed_ms": 0}\n', ''),
    ('milnor x^', 'table', 2, '', 'error: syntax error at byte offset 2: exponent must be a nonnegative integer; expected integer exponent\n'),
    ('milnor x^', 'json', 2, '', 'error: syntax error at byte offset 2: exponent must be a nonnegative integer; expected integer exponent\n'),
    ('tjurina --k 2 x^4-y^3', 'table', 0, '11\n', ''),
    ('tjurina --k 2 x^4-y^3', 'json', 0, '{"command": "tjurina", "inputs": {"f": "x^4-y^3"}, "k": 2, "result": 11, "finite": true, "elapsed_ms": 0}\n', ''),
    ('fol-milnor --P=-3*y --Q 2*x --k 2', 'table', 0, '6\n', ''),
    ('fol-milnor --P=-3*y --Q 2*x --k 2', 'json', 0, '{"command": "fol-milnor", "inputs": {"P": "-3*y", "Q": "2*x"}, "k": 2, "result": 6, "finite": true, "elapsed_ms": 0}\n', ''),
    ('fol-tjurina --P 4*x*y --Q y-2*x^2 --f y --k 3', 'table', 0, '5\n', ''),
    ('fol-tjurina --P 4*x*y --Q y-2*x^2 --f y --k 3', 'json', 0, '{"command": "fol-tjurina", "inputs": {"P": "4*x*y", "Q": "y-2*x^2", "f": "y"}, "k": 3, "result": 5, "finite": true, "elapsed_ms": 0}\n', ''),
    ('gsv --P 4*x*y --Q y-2*x^2 --f y', 'table', 0, '2\n', ''),
    ('gsv --P 4*x*y --Q y-2*x^2 --f y', 'json', 0, '{"command": "gsv", "inputs": {"P": "4*x*y", "Q": "y-2*x^2", "f": "y"}, "k": null, "result": 2, "finite": true, "elapsed_ms": 0}\n', ''),
    ('gsv --P 4*x*y --Q y-2*x^2 --f x', 'table', 2, '', 'error: the curve is not invariant by the foliation\n'),
    ('gsv --P 4*x*y --Q y-2*x^2 --f x', 'json', 2, '', 'error: the curve is not invariant by the foliation\n'),
    ('polar --P 2*x --Q 2*y --f x^2+y^2 --k 1', 'table', 0, '4\n', ''),
    ('polar --P 2*x --Q 2*y --f x^2+y^2 --k 1', 'json', 0, '{"command": "polar", "inputs": {"P": "2*x", "Q": "2*y", "f": "x^2+y^2"}, "k": 1, "result": 4, "finite": true, "elapsed_ms": 0}\n', ''),
    ('polar --P 2*x --Q 2*y --f x^2+y^2', 'table', 0, '2\n', ''),
    ('polar --P 2*x --Q 2*y --f x^2+y^2', 'json', 0, '{"command": "polar", "inputs": {"P": "2*x", "Q": "2*y", "f": "x^2+y^2"}, "k": 0, "result": 2, "finite": true, "elapsed_ms": 0}\n', ''),
    ('invariant --P 4*x*y --Q y-2*x^2 --f y', 'table', 0, 'true\n', ''),
    ('invariant --P 4*x*y --Q y-2*x^2 --f y', 'json', 0, '{"command": "invariant", "inputs": {"P": "4*x*y", "Q": "y-2*x^2", "f": "y"}, "k": null, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('invariant --P 4*x*y --Q y-2*x^2 --f x', 'table', 1, 'false\n', ''),
    ('invariant --P 4*x*y --Q y-2*x^2 --f x', 'json', 1, '{"command": "invariant", "inputs": {"P": "4*x*y", "Q": "y-2*x^2", "f": "x"}, "k": null, "result": false, "finite": true, "elapsed_ms": 0}\n', ''),
    ('qh-check --P=-3*y --Q 2*x --f y^2-x^3', 'table', 0, 'true\n', ''),
    ('qh-check --P=-3*y --Q 2*x --f y^2-x^3', 'json', 0, '{"command": "qh-check", "inputs": {"P": "-3*y", "Q": "2*x", "f": "y^2-x^3"}, "k": null, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('qh-check --P=-7*x^6+5*x^4*y --Q 3*y^2+x^5 --f y^3-x^7+x^5*y', 'table', 1, 'false\n', ''),
    ('qh-check --P=-7*x^6+5*x^4*y --Q 3*y^2+x^5 --f y^3-x^7+x^5*y', 'json', 1, '{"command": "qh-check", "inputs": {"P": "-7*x^6+5*x^4*y", "Q": "3*y^2+x^5", "f": "y^3-x^7+x^5*y"}, "k": null, "result": false, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check gsv-theorem --P 4*x*y --Q y-2*x^2 --f y --k-max 2', 'table', 0, 'true\n', ''),
    ('check gsv-theorem --P 4*x*y --Q y-2*x^2 --f y --k-max 2', 'json', 0, '{"command": "check gsv-theorem", "inputs": {"P": "4*x*y", "Q": "y-2*x^2", "f": "y"}, "k": 2, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check gsv-theorem --P 4*x*y --Q y-2*x^2 --f y --k 1', 'table', 0, 'true\n', ''),
    ('check gsv-theorem --P 4*x*y --Q y-2*x^2 --f y --k 1', 'json', 0, '{"command": "check gsv-theorem", "inputs": {"P": "4*x*y", "Q": "y-2*x^2", "f": "y"}, "k": 1, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check gsv-theorem --Q y-2*x^2 --f y', 'table', 2, '', 'error: --P is required for this command\n'),
    ('check gsv-theorem --Q y-2*x^2 --f y', 'json', 2, '', 'error: --P is required for this command\n'),
    ('check teissier-k --f x^4-y^3 --k-max 2', 'table', 0, 'true\n', ''),
    ('check teissier-k --f x^4-y^3 --k-max 2', 'json', 0, '{"command": "check teissier-k", "inputs": {"f": "x^4-y^3"}, "k": 2, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check teissier-k --k-max 2', 'table', 2, '', 'error: --f is required for this command\n'),
    ('check teissier-k --k-max 2', 'json', 2, '', 'error: --f is required for this command\n'),
    ('check polar-gsv --P=-2*y --Q 3*x --f y^3-x^2 --k-max 2 --assert-second-type', 'table', 0, 'true\n', ''),
    ('check polar-gsv --P=-2*y --Q 3*x --f y^3-x^2 --k-max 2 --assert-second-type', 'json', 0, '{"command": "check polar-gsv", "inputs": {"P": "-2*y", "Q": "3*x", "f": "y^3-x^2"}, "k": 2, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check polar-gsv --P=-2*y --Q 3*x --f y^3-x^2 --k-max 2', 'table', 2, '', 'error: check polar-gsv requires --assert-second-type (non-dicritical second-type hypothesis is not decidable here)\n'),
    ('check polar-gsv --P=-2*y --Q 3*x --f y^3-x^2 --k-max 2', 'json', 2, '', 'error: check polar-gsv requires --assert-second-type (non-dicritical second-type hypothesis is not decidable here)\n'),
    ('check polar-gsv --P=-2*y --f y^3-x^2 --assert-second-type', 'table', 2, '', 'error: --Q is required for this command\n'),
    ('check polar-gsv --P=-2*y --f y^3-x^2 --assert-second-type', 'json', 2, '', 'error: --Q is required for this command\n'),
    ('check bound --P 2*x --Q 2*y --f x^2+y^2 --k-max 2 --assert-second-type', 'table', 0, 'true\n', ''),
    ('check bound --P 2*x --Q 2*y --f x^2+y^2 --k-max 2 --assert-second-type', 'json', 0, '{"command": "check bound", "inputs": {"P": "2*x", "Q": "2*y", "f": "x^2+y^2"}, "k": 2, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check bound --P 2*x --Q 2*y --f x^2+y^2 --k-max 2', 'table', 2, '', 'error: check bound requires --assert-second-type (the balanced-divisor hypothesis is not decidable here)\n'),
    ('check bound --P 2*x --Q 2*y --f x^2+y^2 --k-max 2', 'json', 2, '', 'error: check bound requires --assert-second-type (the balanced-divisor hypothesis is not decidable here)\n'),
    ('check bound --P 2*x --Q 2*y', 'table', 2, '', 'error: --f is required for this command\n'),
    ('check bound --P 2*x --Q 2*y', 'json', 2, '', 'error: --f is required for this command\n'),
    ('check qh-identity --P=-3*y --Q 2*x --f y^2-x^3 --k-max 2 --assert-generalized-curve', 'table', 0, 'true\n', ''),
    ('check qh-identity --P=-3*y --Q 2*x --f y^2-x^3 --k-max 2 --assert-generalized-curve', 'json', 0, '{"command": "check qh-identity", "inputs": {"P": "-3*y", "Q": "2*x", "f": "y^2-x^3"}, "k": 2, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check qh-identity --P=-3*y --Q 2*x --f y^2-x^3 --assert-generalized-curve', 'table', 0, 'true\n', ''),
    ('check qh-identity --P=-3*y --Q 2*x --f y^2-x^3 --assert-generalized-curve', 'json', 0, '{"command": "check qh-identity", "inputs": {"P": "-3*y", "Q": "2*x", "f": "y^2-x^3"}, "k": 1, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check qh-identity --P=-3*y --Q 2*x --f y^2-x^3 --k-max 2', 'table', 2, '', 'error: check qh-identity requires --assert-generalized-curve (the generalized-curve hypothesis is not decidable here)\n'),
    ('check qh-identity --P=-3*y --Q 2*x --f y^2-x^3 --k-max 2', 'json', 2, '', 'error: check qh-identity requires --assert-generalized-curve (the generalized-curve hypothesis is not decidable here)\n'),
    ('check qh-identity --f y^2-x^3 --assert-generalized-curve', 'table', 2, '', 'error: --P is required for this command\n'),
    ('check qh-identity --f y^2-x^3 --assert-generalized-curve', 'json', 2, '', 'error: --P is required for this command\n'),
    ('check second-type --P=-3*y --Q 2*x --f y^2-x^3 --k-max 2 --assert-second-type', 'table', 0, 'true\n', ''),
    ('check second-type --P=-3*y --Q 2*x --f y^2-x^3 --k-max 2 --assert-second-type', 'json', 0, '{"command": "check second-type", "inputs": {"P": "-3*y", "Q": "2*x", "f": "y^2-x^3"}, "k": 2, "result": true, "finite": true, "elapsed_ms": 0}\n', ''),
    ('check second-type --P=-3*y --Q 2*x --f y^2-x^3 --k-max 2', 'table', 2, '', 'error: check second-type requires --assert-second-type (second-type hypothesis is not decidable here)\n'),
    ('check second-type --P=-3*y --Q 2*x --f y^2-x^3 --k-max 2', 'json', 2, '', 'error: check second-type requires --assert-second-type (second-type hypothesis is not decidable here)\n'),
    ('check second-type --P=-3*y --Q 2*x --assert-second-type', 'table', 2, '', 'error: --f is required for this command\n'),
    ('check second-type --P=-3*y --Q 2*x --assert-second-type', 'json', 2, '', 'error: --f is required for this command\n'),
    ('check conjecture1 --f x^4-y^3 --k 2', 'table', 0, '11,11,true\n', ''),
    ('check conjecture1 --f x^4-y^3 --k 2', 'json', 0, '{"command": "check conjecture1", "inputs": {"f": "x^4-y^3"}, "k": 2, "result": [11, 11, true], "finite": true, "elapsed_ms": 0}\n', ''),
    ('check conjecture1 --f x^3*y+y^5 --k 4', 'table', 0, '24,755/32,true\n', ''),
    ('check conjecture1 --f x^3*y+y^5 --k 4', 'json', 0, '{"command": "check conjecture1", "inputs": {"f": "x^3*y+y^5"}, "k": 4, "result": [24, "755/32", true], "finite": true, "elapsed_ms": 0}\n', ''),
    ('check conjecture1 --P 2*x', 'table', 2, '', 'error: --f is required for this command\n'),
    ('check conjecture1 --P 2*x', 'json', 2, '', 'error: --f is required for this command\n'),
    ('check ratio --f x^4-y^3 --k 2', 'table', 1, '12,11,false\n', ''),
    ('check ratio --f x^4-y^3 --k 2', 'json', 1, '{"command": "check ratio", "inputs": {"f": "x^4-y^3"}, "k": 2, "result": [12, 11, false], "finite": true, "elapsed_ms": 0}\n', ''),
    ('check ratio', 'table', 2, '', 'error: --f is required for this command\n'),
    ('check ratio', 'json', 2, '', 'error: --f is required for this command\n'),
    ('scenarios run --filter section-5', 'table', 0, 'PASS tau0-topology-f: 12\nPASS tau0-topology-g: 11\nPASS tau1-topology-f: 14\nPASS tau1-topology-g: 13\n4/4 scenarios passed, 0 failed\n', ''),
    ('scenarios run --filter section-5', 'json', 0, '{"id": "tau0-topology-f", "computed": "12", "expected": "12", "pass": true, "elapsed_ms": 0}\n{"id": "tau0-topology-g", "computed": "11", "expected": "11", "pass": true, "elapsed_ms": 0}\n{"id": "tau1-topology-f", "computed": "14", "expected": "14", "pass": true, "elapsed_ms": 0}\n{"id": "tau1-topology-g", "computed": "13", "expected": "13", "pass": true, "elapsed_ms": 0}\n{"total": 4, "passed": 4, "failed": 0}\n', ''),
    ('scenarios run --all --registry {registry}', 'table', 1, 'FAIL bad: 2 != 3\nPASS ok: 2\n1/2 scenarios passed, 1 failed\n', ''),
    ('scenarios run --all --registry {registry}', 'json', 1, '{"id": "bad", "computed": "2", "expected": "3", "pass": false, "elapsed_ms": 0}\n{"id": "ok", "computed": "2", "expected": "2", "pass": true, "elapsed_ms": 0}\n{"total": 2, "passed": 1, "failed": 1}\n', ''),
    ('scenarios run', 'table', 2, '', 'error: scenarios run needs --all or --filter\n'),
    ('scenarios run', 'json', 2, '', 'error: scenarios run needs --all or --filter\n'),
    ('scenarios list --registry {registry}', 'table', 0, 'bad  [section-1]  fails\nok  [section-1]  passes\n', ''),
    ('scenarios list --registry {registry}', 'json', 0, '{"id": "bad", "location": "section-1", "description": "fails"}\n{"id": "ok", "location": "section-1", "description": "passes"}\n', ''),
]


@pytest.mark.parametrize(
    "argv, fmt, code, out, err", GOLDEN, ids=[f"{a} {f}" for a, f, *_ in GOLDEN]
)
def test_golden_output(argv, fmt, code, out, err, capsys, tmp_path):
    registry = tmp_path / "reg.txt"
    registry.write_text(REGISTRY_TEXT, encoding="utf-8")
    args = shlex.split(argv.format(registry=registry)) + ["--format", fmt]
    assert main(args) == code
    captured = capsys.readouterr()
    assert re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', captured.out) == out
    assert captured.err == err


class TestScenariosVerb:
    def test_run_requires_selection(self, capsys):
        code, _, err = run_cli(capsys, "scenarios", "run")
        assert code == 2
        assert "--all" in err or "--filter" in err

    def test_run_with_registry_table(self, capsys, tmp_path):
        reg = tmp_path / "reg.txt"
        reg.write_text(REGISTRY_TEXT, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "scenarios", "run", "--all", "--registry", str(reg)
        )
        lines = out.splitlines()
        assert code == 1
        assert lines[0] == "FAIL bad: 2 != 3"
        assert lines[1] == "PASS ok: 2"
        assert lines[2] == "1/2 scenarios passed, 1 failed"

    def test_run_with_registry_json(self, capsys, tmp_path):
        reg = tmp_path / "reg.txt"
        reg.write_text(REGISTRY_TEXT, encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "scenarios", "run", "--all", "--registry", str(reg),
            "--format", "json",
        )
        lines = [json.loads(line) for line in out.splitlines()]
        assert code == 1
        assert lines[0] == {
            "id": "bad", "computed": "2", "expected": "3", "pass": False,
            "elapsed_ms": lines[0]["elapsed_ms"],
        }
        assert lines[1]["pass"] is True
        assert lines[2] == {"total": 2, "passed": 1, "failed": 1}

    def test_filter_no_match_is_success(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "run", "--filter", "zzz-none")
        assert code == 0
        assert out.endswith("0/0 scenarios passed, 0 failed")

    def test_filter_subset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "run", "--filter", "section-5")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert lines[-1] == "4/4 scenarios passed, 0 failed"

    def test_list_table(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "list")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 212
        assert any("[section-5]" in line for line in lines)

    def test_list_json(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios", "list", "--format", "json")
        objs = [json.loads(line) for line in out.splitlines()]
        assert code == 0
        assert len(objs) == 212
        assert all(set(o) == {"id", "location", "description"} for o in objs)

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_list_filter_lists_what_run_runs(self, capsys, fmt):
        run = next(g for g in GOLDEN if g[:2] == ("scenarios run --filter section-5", "table"))
        ran = re.findall(r"^PASS ([\w-]+):", run[3], re.M)
        code, out, _ = run_cli(capsys, "scenarios", "list", "--filter", "section-5", "--format", fmt)
        if fmt == "json":
            listed = [json.loads(line)["id"] for line in out.splitlines()]
        else:
            listed = [line.split()[0] for line in out.splitlines()]
        assert code == 0
        assert len(ran) == 4 and listed == ran

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_list_filter_without_match_prints_nothing(self, capsys, fmt):
        assert main(["scenarios", "list", "--filter", "zzz-none", "--format", fmt]) == 0
        assert capsys.readouterr() == ("", "")

    def test_evaluate_refuses_the_scenarios_verb(self):
        with pytest.raises(PreconditionError, match="may not invoke the scenarios verb"):
            evaluate(["scenarios", "list"])

    @pytest.mark.parametrize("name, reason", [("missing.txt", "No such file"), ("", "Is a directory")])
    def test_unreadable_registry_is_2(self, capsys, tmp_path, name, reason):
        path = str(tmp_path / name)
        code, out, err = run_cli(capsys, "scenarios", "run", "--all", "--registry", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read registry {path!r}: {reason}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_registry_that_is_not_utf8_is_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"a | d | section-1 | milnor x^2 | 1\n# \xff\n")
        argv = ("scenarios", "run", "--all", "--registry", str(path))
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: cannot read registry {str(path)!r}: 'utf-8' codec can't decode "
            "byte 0xff in position 37: invalid start byte\n"
        )

    def test_list_with_custom_registry(self, capsys, tmp_path):
        reg = tmp_path / "reg.txt"
        reg.write_text(REGISTRY_TEXT, encoding="utf-8")
        code, out, _ = run_cli(capsys, "scenarios", "list", "--registry", str(reg))
        assert code == 0
        assert len(out.splitlines()) == 2


def _child_env() -> dict:
    """The environment of a child interpreter that imports this folinv."""
    return {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(folinv.__file__))}


@pytest.mark.parametrize(
    "argv, code",
    [(["milnor", "x^4-y^3", "--k", "2"], 0), (["milnor", "x\u00b2"], 2), (["frobnicate"], 2)],
)
def test_python_m_folinv_matches_cli_module(argv, code):
    def run(module):
        out = subprocess.run(
            [sys.executable, "-m", module, *argv, "--format", "json"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=60,
        )
        return out.returncode, re.sub(r'"elapsed_ms": \d+', "", out.stdout), out.stderr

    got = run("folinv")
    assert got == run("folinv.cli")
    assert got[0] == code
    assert bool(got[1]) == (code == 0)


def test_closed_stdout_pipe_exits_0_quietly():
    # the read end is closed before the child writes, so its first flush
    # raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        out = subprocess.run(
            [sys.executable, "-m", "folinv", "scenarios", "list"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_child_env(),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (out.returncode, out.stderr) == (0, b"")
