import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import twobridge
import twobridge.cli
from twobridge.cli import main
from twobridge.core import Expansion, KnotId, eval_expansion
from twobridge.invariants import genus

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
            f"even_expansion=[{high},-2]\nodd_shortest_exists=True\nboundary=BoundaryIncompressible\n"
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

    def test_domain_error_is_2(self, capsys):
        code, _, err = run(capsys, "invariants", "1/2")
        assert code == 2 and "link" in err

    def test_unknown_name_is_2(self, capsys):
        code, _, err = run(capsys, "table", "lookup", "99_99")
        assert code == 2 and "99_99" in err

    def test_usage_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2
