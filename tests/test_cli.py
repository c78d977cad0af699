import json
import math
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twobridge
import twobridge.cli
import twobridge.table
from twobridge.cli import main
from twobridge.core import (
    Expansion,
    ExtendedRational,
    KnotId,
    division_expansion,
    eval_expansion,
    format_expansion,
    format_fraction,
)
from twobridge.invariants import genus
from twobridge.table import load_table

from make_cli_golden import ERRORS, SWEEP, SWEEP_FILE, run_main, sweep_digest
from test_table import CORRUPTED_TABLE_LINES, corrupted_table
from worst_operands import largest_convergent

# stdout of `shortest` and `shortest --all` as the breadth-first closure printed it,
# on [5,(2,5)*4] and on fractions whose reduced expansion has an interacting run
SHORTEST_PINS = json.loads((Path(__file__).parent / "shortest_pins.json").read_text(encoding="ascii"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "[3,2]")
        assert code == 0 and out.strip() == "2/5"

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "[5,2,2,5]")
        assert code == 0 and out.strip() == "[4,-3,4]"

    def test_reduce_trace(self, capsys):
        code, out, _ = run(capsys, "reduce", "[5,2,2,5]", "--trace")
        assert code == 0
        assert out.splitlines() == ["RemoveBlock 2 1 2 | [4,-3,4]", "[4,-3,4]"]

    def test_depth(self, capsys):
        code, out, _ = run(capsys, "depth", "21/55")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run(capsys, "depth", "1/0")
        assert code == 0 and out.strip() == "0"

    def test_shortest(self, capsys):
        code, out, _ = run(capsys, "shortest", "2/5", "--all")
        assert code == 0
        assert out.splitlines() == ["1+[-2,-3]", "[2,-2]", "[3,2]"]
        code, out, _ = run(capsys, "shortest", "2/5")
        assert code == 0 and out.strip() == "1+[-2,-3]"

    def test_invariants_flat(self, capsys):
        code, out, _ = run(capsys, "invariants", "7_4")
        assert code == 0
        assert "crosscap=3" in out
        assert "table_name=7_4" in out
        assert "starred=true" in out

    def test_invariants_json(self, capsys):
        code, out, _ = run(capsys, "invariants", "2/9", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["crosscap"] == 2
        assert payload["table_name"] == "6_1"
        assert payload["boundary"] == "BoundaryIncompressible"

    def test_conway(self, capsys):
        code, out, _ = run(capsys, "conway", "4/15")
        assert code == 0
        assert out.splitlines() == ["C(3,-1,5,1,2)", "verified=true"]

    def test_table_verify(self, capsys):
        code, out, _ = run(capsys, "table", "verify")
        assert code == 0
        assert out.splitlines()[-1] == "OK"

    def test_table_lookup(self, capsys):
        code, out, _ = run(capsys, "table", "lookup", "12a_1287")
        assert code == 0
        assert out.strip() == "name=12a_1287 fraction=6/37 gamma=3 expansion=[6,-6] starred=true"

    def test_names_with_surrounding_whitespace(self, capsys):
        # `table lookup` and `invariants` read a name by one rule, in `find_record`
        code, out, err = run(capsys, "table", "lookup", " 7_4 ")
        assert (code, out, err) == (0, "name=7_4 fraction=4/15 gamma=3 expansion=[4,4] starred=true\n", "")
        assert run(capsys, "invariants", " 7_4 ")[:2] == run(capsys, "invariants", "7_4")[:2]
        assert run(capsys, "table", "lookup", " 99_99 ") == run(capsys, "invariants", " 99_99 ")
        assert run(capsys, "invariants", " 99_99 ") == (2, "", "error: no knot named '99_99' in the table\n")


# argv -> (exit code, stdout); stdout is empty on exit 2
CLI_PINS = {
    # the one memo of quotients, reduced expansion and the rule's verdict, by name
    ("conway", "7_4"): (0, "C(3,-1,5,1,2)\nverified=true\n"),
    ("invariants", "7_4", "--json"): (
        0,
        '{\n  "knot": "S(15,4)",\n  "fraction": "4/15",\n  "crosscap": 3,\n  "genus": 1,\n  "reduced": "[4,4]",\n'
        '  "even_expansion": "[4,4]",\n  "odd_shortest_exists": false,\n  "boundary": "BoundaryCompressible",\n'
        '  "table_name": "7_4",\n  "starred": true\n}\n',
    ),
    # the step editor's trimmed ends: a block at both ends, a unit at both ends, a zero at the tail
    ("reduce", "[2,3,2]", "--trace"): (0, "RemoveBlock 1 1 3 | 1+[-3,-3]\n1+[-3,-3]\n"),
    ("reduce", "2+[-1]"): (0, "1+[]\n"),
    ("reduce", "[5,3,0]"): (0, "[5]\n"),
    # the one-pass reducer's -r and dummy neighbours
    ("invariants", "2/3"): (
        0,
        "knot=S(3,2)\nfraction=2/3\ncrosscap=1\ngenus=1\nreduced=1+[-3]\neven_expansion=[2,2]\n"
        "odd_shortest_exists=true\nboundary=BoundaryIncompressible\n",
    ),
    # the reduced length of fractions that name no knot
    ("depth", "2/4"): (0, "1\n"),
    ("depth", "5/1"): (0, "0\n"),
    ("depth", "--", "-7/2"): (0, "1\n"),
    # the diagram bytes: an even crosscap, a negative region, the rule firing on a 2 (one rectangle move)
    ("conway", "2/9"): (0, "C(4,-1,2,1)\nverified=true\n"),
    ("conway", "8_3"): (0, "C(3,-1,-3,1,2)\nverified=true\n"),
    ("conway", "11a_119"): (0, "C(1,-1,-4,1,-5,-1,-2,1)\nverified=true\n"),
    # 6_1 is 2/9 in the table, found by the row's second Schubert pair
    ("invariants", "5/9"): (
        0,
        "knot=S(9,5)\nfraction=5/9\ncrosscap=2\ngenus=1\nreduced=[2,5]\neven_expansion=1+[-2,4]\n"
        "odd_shortest_exists=true\nboundary=BoundaryIncompressible\ntable_name=6_1\nstarred=false\n",
    ),
    # past the table's q, one dict lookup that finds nothing
    ("invariants", f"2/{10**30 + 1}"): (
        0,
        f"knot=S({10**30 + 1},2)\nfraction=2/{10**30 + 1}\ncrosscap=2\ngenus=1\nreduced=[{5 * 10**29 + 1},2]\n"
        f"even_expansion=[{5 * 10**29},-2]\nodd_shortest_exists=true\nboundary=BoundaryIncompressible\n",
    ),
}


@pytest.mark.parametrize("argv", list(CLI_PINS), ids=" ".join)
def test_pinned_command_output(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == CLI_PINS[argv]
    assert bool(err) == (code == 2)


class TestGolden:
    """The CLI's bytes, written by tests/make_cli_golden.py before the output or the reducer last changed."""

    # shlex.join(argv) -> [exit code, stdout, stderr]
    CALLS = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="ascii"))

    def test_calls_cover_the_table_and_the_pins(self):
        argvs = {tuple(shlex.split(key)) for key in self.CALLS}
        records = load_table()
        names = {rec.name for rec in records}
        for command in (("invariants",), ("conway",), ("table", "lookup")):
            assert {argv[-1] for argv in argvs if argv[:-1] == command} >= names
        assert {argv[1] for argv in argvs if argv[0] == "invariants" and argv[2:] == ("--json",)} == names
        fractions = {f"{rec.fraction.numerator}/{rec.fraction.denominator}" for rec in records}
        assert {argv[1] for argv in argvs if argv[0] == "shortest" and len(argv) == 2} == fractions
        assert {argv[1] for argv in argvs if argv[0] == "shortest" and argv[2:] == ("--all",)} == fractions
        seeds = {format_expansion(division_expansion(rec.fraction)) for rec in records}
        assert {argv[1] for argv in argvs if argv[0] == "reduce" and argv[2:] == ("--trace",)} >= seeds
        assert ("table", "verify") in argvs and set(CLI_PINS) <= argvs and set(ERRORS) <= argvs
        assert all(self.CALLS[shlex.join(argv)][:2] == [2, ""] for argv in ERRORS)

    def test_every_call_gives_the_same_bytes(self):
        for key, expected in self.CALLS.items():
            assert list(run_main(shlex.split(key))) == expected, key

    @pytest.mark.parametrize("command", SWEEP)
    def test_the_sweep_below_q_60_gives_the_same_bytes(self, command):
        # past the table rows: a_0 != 0, p > q, integers and even q
        expected = json.loads(SWEEP_FILE.read_text(encoding="ascii"))[command]
        assert list(sweep_digest(command)) == expected


class TestSharedParser:
    def test_calls_do_not_leak_options(self, capsys):
        code, out, _ = run(capsys, "reduce", "[5,2,2,5]", "--trace")
        assert code == 0 and out.splitlines() == ["RemoveBlock 2 1 2 | [4,-3,4]", "[4,-3,4]"]
        code, out, _ = run(capsys, "reduce", "[5,2,2,5]")
        assert code == 0 and out.splitlines() == ["[4,-3,4]"]
        code, out, _ = run(capsys, "shortest", "2/5", "--all")
        assert code == 0 and len(out.splitlines()) == 3
        code, out, _ = run(capsys, "shortest", "2/5")
        assert code == 0 and out.splitlines() == ["1+[-2,-3]"]


class TestShortest:
    @pytest.mark.parametrize("argv", sorted(SHORTEST_PINS))
    def test_pinned_output(self, capsys, argv):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0 and out == SHORTEST_PINS[argv]

    def test_first_line_of_a_class_of_2_to_the_40(self, capsys):
        x = eval_expansion(Expansion(0, (5,) + (2, 5) * 40))
        started = time.perf_counter()
        code, out, _ = run(capsys, "shortest", str(x))
        assert code == 0 and out == "[4," + "-2,3," * 39 + "-2,4]\n"
        # the class has 2**40 members; building it would not finish
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("n", [25, 2001])
    def test_first_line_of_a_fence(self, capsys, n):
        # the fence [2,4,2,4,...,2] of n coefficients; a search over its members took seconds at n = 25
        x = eval_expansion(Expansion(0, (2, 4) * (n // 2) + (2,)))
        started = time.perf_counter()
        code, out, _ = run(capsys, "shortest", str(x))
        assert code == 0 and out == "1+[" + "-2,2," * (n // 2) + "-2]\n"
        assert time.perf_counter() - started < 1


class TestNegativeOperands:
    @pytest.mark.parametrize(
        "argv,dashed",
        [
            (("depth", "-2/3"), ("depth", "--", "-2/3")),
            (("eval", "-1+[2]"), ("eval", "--", "-1+[2]")),
            (("shortest", "-2/3", "--all"), ("shortest", "--all", "--", "-2/3")),
            (("shortest", "-7/15"), ("shortest", "--", "-7/15")),
            (("reduce", "-1+[2,2]", "--trace"), ("reduce", "--trace", "--", "-1+[2,2]")),
            (("invariants", "-2/9", "--json"), ("invariants", "--json", "--", "-2/9")),
            (("conway", "-4/15"), ("conway", "--", "-4/15")),
        ],
    )
    def test_same_as_after_double_dash(self, capsys, argv, dashed):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == run(capsys, *dashed)
        assert code == 0 and out and not err

    def test_depth_of_negative_fraction(self, capsys):
        code, out, _ = run(capsys, "depth", "-2/3")
        assert code == 0 and out == "1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("depth", "\u0663/\u0667"),
            ("eval", "[\u0663,\u0662]"),
            ("depth", "3\u00b2/7"),
            ("depth", "-\u0663/7"),  # '-' then a non-ASCII digit is a flag, not a negative operand
        ],
    )
    def test_only_ascii_digits(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2 and captured.out == "" and captured.err.startswith(("error: ", "usage: "))

    def test_options_still_parsed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["depth", "-h"])
        assert exc.value.code == 0 and "usage:" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["depth", "-x", "2/3"])
        assert exc.value.code == 2


class TestHugeIntegers:
    # past the interpreter's default 4,300-digit int-string limit
    DIGITS = "7" * 5000

    def test_eval_huge_coefficient(self, capsys):
        code, out, _ = run(capsys, "eval", f"[{self.DIGITS}]")
        assert code == 0 and out == f"1/{self.DIGITS}\n"

    def test_reduce_huge_coefficient(self, capsys):
        code, out, _ = run(capsys, "reduce", f"[{self.DIGITS}]")
        assert code == 0 and out == f"[{self.DIGITS}]\n"

    def test_eval_huge_result(self, capsys):
        code, out, _ = run(capsys, "eval", "[" + ",".join(["3"] * 12000) + "]")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 1
        numerator, denominator = lines[0].split("/")
        assert numerator.isdigit() and denominator.isdigit() and len(denominator) > 4300

    def test_limit_is_restored(self, capsys):
        # main leaves the limit as it found it, also when argparse exits, and
        # needs no lift: the parsers and formatters take integers of any length
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, _ = run(capsys, "eval", f"[{self.DIGITS}]")
            assert code == 0 and out == f"1/{self.DIGITS}\n"
            assert sys.get_int_max_str_digits() == 4300
            with pytest.raises(SystemExit) as exc:
                main(["no-such-command"])
            assert exc.value.code == 2
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(saved)

    def test_conway_huge_torus_knot(self, capsys):
        # the even expansion of T(2,q) has q-1 coefficients; conway must not build it
        q = 10**30 + 1
        code, out, _ = run(capsys, "conway", f"1/{q}")
        assert code == 0 and out.splitlines() == [f"C({q})", "verified=true"]


class TestOutputBound:
    # a command whose output would pass cli._MAX_OUTPUT characters is refused
    # from a lower bound on that output, before anything is built

    def refused(self, code, out, err):
        return code == 2 and out == "" and len(err.splitlines()) == 1 and "more than" in err

    def test_shortest_all_at_the_boundary(self, capsys, monkeypatch):
        # 3 members of 2 coefficients: at least 3 * (2*2 + 1) = 15 characters
        monkeypatch.setattr(twobridge.cli, "_MAX_OUTPUT", 15)
        code, out, _ = run(capsys, "shortest", "2/5", "--all")
        assert code == 0 and out.splitlines() == ["1+[-2,-3]", "[2,-2]", "[3,2]"]
        monkeypatch.setattr(twobridge.cli, "_MAX_OUTPUT", 14)
        assert self.refused(*run(capsys, "shortest", "2/5", "--all"))
        code, out, _ = run(capsys, "shortest", "2/5")
        assert code == 0 and out == "1+[-2,-3]\n"

    @pytest.mark.parametrize("flags", [(), ("--json",)])
    def test_invariants_at_the_boundary(self, capsys, monkeypatch, flags):
        # genus 2: the even expansion 1+[-2,-2,-2,-2] has at least 4 * 2 = 8 characters
        monkeypatch.setattr(twobridge.cli, "_MAX_OUTPUT", 8)
        code, out, _ = run(capsys, "invariants", "1/5", *flags)
        assert code == 0 and "1+[-2,-2,-2,-2]" in out
        monkeypatch.setattr(twobridge.cli, "_MAX_OUTPUT", 7)
        assert self.refused(*run(capsys, "invariants", "1/5", *flags))
        assert self.refused(*run(capsys, "invariants", "5_1", *flags))

    def test_knots_below_half_the_bound_need_no_genus(self):
        # 2*genus <= q - 1, a bound on the genus: the even expansion's 2*genus
        # coefficients are at least 2 in size, so its denominator is at least
        # 2*genus + 1
        for q in range(3, 302, 2):
            assert max(genus(KnotId(q, p)) for p in range(1, q) if math.gcd(p, q) == 1) * 2 <= q - 1
        assert 2 * genus(KnotId(10**30 + 1, 1)) == 10**30

    def test_reduce_trace_at_the_boundary(self, capsys, monkeypatch):
        # one move leaves [4,-3,4], 3 coefficients: at least 2*3 + 1 = 7 characters
        monkeypatch.setattr(twobridge.cli, "_MAX_OUTPUT", 7)
        code, out, _ = run(capsys, "reduce", "[5,2,2,5]", "--trace")
        assert code == 0 and out.splitlines() == ["RemoveBlock 2 1 2 | [4,-3,4]", "[4,-3,4]"]
        monkeypatch.setattr(twobridge.cli, "_MAX_OUTPUT", 6)
        assert self.refused(*run(capsys, "reduce", "[5,2,2,5]", "--trace"))
        code, out, _ = run(capsys, "reduce", "[5,2,2,5]")
        assert code == 0 and out == "[4,-3,4]\n"

    def test_long_trace_is_refused_at_once(self, capsys):
        # 4,000 twos take 3,999 moves, whose lines would print about 1.6 * 10**7 characters
        started = time.perf_counter()
        assert self.refused(*run(capsys, "reduce", "[" + ",".join(["2"] * 4000) + "]", "--trace"))
        assert time.perf_counter() - started < 1
        code, out, _ = run(capsys, "reduce", "[" + ",".join(["2"] * 4000) + "]")
        assert code == 0 and out == "1+[-4001]\n"

    def test_huge_torus_knot_is_refused_at_once(self, capsys):
        started = time.perf_counter()
        assert self.refused(*run(capsys, "invariants", f"1/{10**30 + 1}"))
        assert time.perf_counter() - started < 1

    def test_all_members_of_a_fence_are_refused_at_once(self, capsys):
        # the fence [2,4,2,4,...,2] of 2,001 coefficients has about 10**418 members
        x = eval_expansion(Expansion(0, (2, 4) * 1000 + (2,)))
        started = time.perf_counter()
        assert self.refused(*run(capsys, "shortest", str(x), "--all"))
        assert time.perf_counter() - started < 1

    # Operands whose output is long for its digits, not for its coefficient count: a
    # bound that counts one digit per number lets each print more than 10**7 characters.
    # Each text is built without str() of a big int, so the int-string limit plays no part.
    TRACES_OF_MANY_DIGITS = {
        # a 60,000-digit coefficient in each of about 2,000 trace lines
        "long_coefficient": "[" + "9" * 60000 + ",2" * 2000 + "]",
        # a 6,000-digit integer part in each of about 2,000 trace lines
        "long_integer_part": "9" * 6000 + "+[" + ",".join(["2"] * 2000) + "]",
        # [1 x 2,000, 10**3000, 1, 1, 5 - 10**3000], an integer: a bound read off the value misses it
        "integer_value": "[" + "1," * 2000 + "1" + "0" * 3000 + ",1,1,-" + "9" * 2999 + "5]",
    }

    @pytest.mark.parametrize("kind", TRACES_OF_MANY_DIGITS)
    def test_trace_of_many_digits_is_refused_at_once(self, capsys, kind):
        started = time.perf_counter()
        assert self.refused(*run(capsys, "reduce", self.TRACES_OF_MANY_DIGITS[kind], "--trace"))
        assert time.perf_counter() - started < 1

    def test_members_of_many_digits_are_refused_at_once(self, capsys):
        # 10**3000 + [5,(2,5)*12]: 4,096 members, each with a 3,000-digit integer part
        x = eval_expansion(Expansion(10**3000, (5,) + (2, 5) * 12))
        started = time.perf_counter()
        assert self.refused(*run(capsys, "shortest", format_fraction(x), "--all"))
        assert time.perf_counter() - started < 1


class TestQuarterOfTheLongestOperand:
    # One argv string holds at most 131,071 characters, so a fraction operand has at
    # most about 217,000 bits (tests/worst_operands.py runs every command there, each
    # in a child process).  These operands are a quarter of that; the bounds are
    # about 5 times the time measured on two shared cores.

    @pytest.mark.parametrize("kind", ["ones_and_twos", "fibonacci"])
    def test_every_fraction_command_in_bounded_time(self, capsys, kind):
        rng = random.Random(54000)
        next_quotient = {"ones_and_twos": lambda: rng.randint(1, 2), "fibonacci": lambda: 1}[kind]
        fraction = format_fraction(ExtendedRational(*largest_convergent(next_quotient, 2**54000)))
        assert 32000 < len(fraction) < 32768
        started = time.perf_counter()
        results = {
            argv: run(capsys, *argv, fraction)
            for argv in [("depth",), ("invariants",), ("conway",), ("shortest",), ("shortest", "--all")]
        }
        assert time.perf_counter() - started < 15
        code, out, err = results.pop(("shortest", "--all"))
        assert code == 2 and out == "" and "shortest --all would print more than" in err
        assert all(code == 0 and err == "" for code, _, err in results.values())
        # the shortest expansion has depth-many coefficients and evaluates to the operand
        least = results[("shortest",)][1].strip()
        assert least.count(",") + 1 == int(results[("depth",)][1])
        assert run(capsys, "eval", least) == (0, fraction + "\n", "")

    @pytest.mark.parametrize("word", [(2,), (1, 3), (2, 3)])
    def test_eval_and_reduce_in_bounded_time(self, capsys, word):
        expansion = "[" + ",".join(map(str, word * (16384 // len(word)))) + "]"
        started = time.perf_counter()
        evaluated, reduced = run(capsys, "eval", expansion), run(capsys, "reduce", expansion)
        assert time.perf_counter() - started < 3
        assert evaluated[0] == reduced[0] == 0 and evaluated[2] == reduced[2] == ""
        assert run(capsys, "eval", reduced[1].strip()) == evaluated


COMMANDS = ["eval", "reduce", "depth", "shortest", "invariants", "conway", "table verify", "table lookup"]


class TestDispatcher:
    def exits(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    def test_top_level_help_lists_every_command(self, capsys):
        for flag in ("-h", "--help"):
            code, out, err = self.exits(capsys, [flag])
            assert code == 0 and out.startswith("usage:") and not err
            for name in COMMANDS:
                assert f"  {name} " in out

    @pytest.mark.parametrize("argv", [("table", "-h")] + [(*name.split(), "-h") for name in COMMANDS])
    def test_help_of_each_command(self, capsys, argv):
        code, out, err = self.exits(capsys, argv)
        assert code == 0 and out.startswith("usage:") and not err

    def test_table_help_lists_its_commands(self, capsys):
        code, out, _ = self.exits(capsys, ["table", "--help"])
        assert code == 0 and "  verify " in out and "  lookup " in out

    @pytest.mark.parametrize(
        "argv",
        [
            (),
            ("no-such-command",),
            ("table",),
            ("table", "no-such-command"),
            ("depth", "--no-such-flag", "2/3"),
            ("eval", "--trace", "[3,2]"),
            ("invariants", "--js", "2/9"),
            ("depth",),
            ("table", "lookup"),
            ("depth", "2/3", "2/5"),
            ("table", "verify", "extra"),
            ("reduce", "--trace", "--", "[3,2]", "--trace"),
        ],
    )
    def test_usage_errors(self, capsys, argv):
        code, out, err = self.exits(capsys, argv)
        assert code == 2 and not out
        lines = err.splitlines()
        assert len(lines) == 2 and lines[0].startswith("usage:") and "error:" in lines[1]

    @pytest.mark.parametrize(
        "before,after",
        [
            (("reduce", "--trace", "[5,2,2,5]"), ("reduce", "[5,2,2,5]", "--trace")),
            (("shortest", "--all", "2/5"), ("shortest", "2/5", "--all")),
            (("invariants", "--json", "7_4"), ("invariants", "7_4", "--json")),
        ],
    )
    def test_flag_in_any_position(self, capsys, before, after):
        code, out, err = run(capsys, *before)
        assert code == 0 and out and not err
        assert (code, out, err) == run(capsys, *after)

    def test_repeated_flag(self, capsys):
        once = run(capsys, "shortest", "2/5", "--all")
        assert once[0] == 0 and len(once[1].splitlines()) == 3
        assert run(capsys, "shortest", "--all", "2/5", "--all") == once

    @pytest.mark.parametrize(
        "argv,operand",
        [
            (("depth", "--", "-x"), "-x"),
            (("eval", "--", "--trace"), "--trace"),
            (("table", "lookup", "--", "-h"), "-h"),
        ],
    )
    def test_operand_after_double_dash(self, capsys, argv, operand):
        # read as the operand, so the parser refuses it and names it
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err.startswith("error:") and operand in err

    def test_dash_alone_is_an_operand(self, capsys):
        code, out, err = run(capsys, "depth", "-")
        assert code == 2 and not out and err.startswith("error:")

    def test_entry_reads_sys_argv_and_exits_with_the_status(self, capsys, monkeypatch):
        # the console script's target, run in process
        monkeypatch.setattr(sys, "argv", ["twobridge", "depth", "2/5"])
        with pytest.raises(SystemExit) as exc:
            twobridge.cli.entry()
        assert exc.value.code == 0
        assert capsys.readouterr() == ("2\n", "")


class TestHandlers:
    """A handler returns its exit code and its text and writes nothing; `main` prints the text."""

    OPERANDS = {
        "eval": "[3,2]",
        "reduce": "[5,2,2,5]",
        "depth": "2/5",
        "shortest": "2/5",
        "invariants": "7_4",
        "conway": "7_4",
        "table verify": None,
        "table lookup": "7_4",
    }

    def test_every_handler_returns_its_text_and_main_prints_it(self, capsys):
        seen = set()
        for name, command in twobridge.cli._listing(twobridge.cli._COMMANDS):
            operand = self.OPERANDS[name]
            seen.add(name)
            for flagged in (False, True) if command.flag else (False,):
                result = command.run(operand, flagged)
                assert capsys.readouterr() == ("", ""), name
                assert type(result) is tuple and len(result) == 2, name
                code, text = result
                assert type(code) is int and type(text) is str, name
                argv = name.split() + ([operand] if operand else []) + ([command.flag] if flagged else [])
                assert run(capsys, *argv) == (code, text + "\n", ""), name
        assert seen == set(self.OPERANDS) == set(COMMANDS)


def test_cli_import_leaves_oracles_unloaded():
    # The cold start: the command table is the only parser, the values need no
    # class generator, json waits for --json and the table is read as a file.
    # -S runs no site hook, which could load any of these first.
    src = os.path.dirname(os.path.dirname(twobridge.__file__))
    unloaded = ["dataclasses", "inspect", "json", "importlib.resources", "typing", "argparse", "twobridge.oracles"]
    code = (
        "import sys, twobridge.cli, twobridge.table; twobridge.table.load_table();"
        f" print(sorted(set({unloaded!r}) & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-S", "-c", code]
    result = subprocess.run(command, env=env, capture_output=True, text=True, check=True, timeout=60)
    assert result.stdout.strip() == "[]"


def test_entry_point_help():
    src = os.path.dirname(os.path.dirname(twobridge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    command = [sys.executable, "-m", "twobridge.cli", "-h"]
    result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0 and result.stdout.startswith("usage:") and not result.stderr
    for name in COMMANDS:
        assert f"  {name} " in result.stdout


def test_entry_point_under_the_smallest_limit():
    # the interpreter's least int-string limit, 640 digits; main lifts nothing
    src = os.path.dirname(os.path.dirname(twobridge.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    q, low, high = "7" * 700, "7" * 699 + "6", "3" + "8" * 699  # q, q - 1 and (q - 1)/2
    expected = {
        ("eval", f"[{q}]"): f"1/{q}\n",
        ("reduce", f"[{q},2,2,{q}]", "--trace"): f"RemoveBlock 2 1 2 | [{low},-3,{low}]\n[{low},-3,{low}]\n",
        ("invariants", f"2/{q}"): (
            f"knot=S({q},2)\nfraction=2/{q}\ncrosscap=2\ngenus=1\nreduced=[{high[:-1]}9,2]\n"
            f"even_expansion=[{high},-2]\nodd_shortest_exists=true\nboundary=BoundaryIncompressible\n"
        ),
        ("conway", f"2/{q}"): f"C({high},-1,2,1)\nverified=true\n",
    }
    for argv, out in expected.items():
        command = [sys.executable, "-X", "int_max_str_digits=640", "-m", "twobridge.cli", *argv]
        result = subprocess.run(command, env=env, capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stdout, result.stderr) == (0, out, ""), argv[0]


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run(capsys, "eval", "[3,2")
        assert code == 2 and not out and "error:" in err

    def test_whitespace_inside_an_integer_is_2(self, capsys):
        code, out, err = run(capsys, "eval", "[3 2]")
        assert code == 2 and not out and "at position 3 in '[3 2]'" in err

    def test_leading_whitespace_is_indexed_alike(self, capsys):
        # every command quotes the fraction text as given and counts its position there
        results = {command: run(capsys, command, "  x/3") for command in ("invariants", "conway", "depth")}
        assert set(results.values()) == {(2, "", "error: unexpected character in fraction (at position 2 in '  x/3')\n")}

    def test_domain_error_is_2(self, capsys):
        code, _, err = run(capsys, "invariants", "1/2")
        assert code == 2 and "link" in err

    def test_unknown_name_is_2(self, capsys):
        code, _, err = run(capsys, "table", "lookup", "99_99")
        assert code == 2 and "99_99" in err

    def test_failed_table_check_is_1(self, capsys, monkeypatch):
        corrupted = corrupted_table()
        monkeypatch.setattr(twobridge.table, "_table", lambda: corrupted)
        code, out, err = run(capsys, "table", "verify")
        assert (code, out.splitlines(), err) == (1, CORRUPTED_TABLE_LINES, "")

    def test_failed_diagram_check_is_1(self, capsys, monkeypatch):
        monkeypatch.setattr(twobridge.cli, "verify_diagram", lambda diagram, knot: False)
        assert run(capsys, "conway", "7_4") == (1, "C(3,-1,5,1,2)\nverified=false\n", "")

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
