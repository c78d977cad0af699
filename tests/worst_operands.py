"""Time every command on the longest operands that one argv string allows.

    PYTHONPATH=src python tests/worst_operands.py

Linux caps one argv string at 131,071 characters.  For each command the
script builds the longest operand of each kind that fits:

- fractions p/q with 0 < p < q, q odd and below 10**65535, for `depth`,
  `invariants`, `conway`, `shortest` and `shortest --all`: from seeded
  quotients 1-2 (the most quotients per bit after all 1s), from seeded
  quotients 1-4, a Fibonacci ratio (every quotient 1) and (q-1)/q;
- the expansions [2]*65534, [1,3]*32767 and [2,3]*32767, for `eval`,
  `reduce` and `reduce --trace`;
- operands whose output is long for its digits rather than for its
  number of coefficients: for `reduce --trace`, a 120,000-digit
  coefficient before 5,000 twos, a 100,000-digit integer part before
  15,000 twos, and 20,000 ones before 10**45000, 1, 1, 5 - 10**45000 (an
  integer); for `shortest --all`, 10**130000 + [5,(2,5)*16], whose 65,536
  members each print the integer part.

Each call runs as `python -m twobridge.cli` in a child process of its
own, one at a time, under a timeout and an address-space cap
(`RLIMIT_AS`) that the child sets before it runs Python.  The child's
peak RSS comes from `os.wait4`, which reports that one child;
`RUSAGE_CHILDREN` is a running maximum over all children and could not.

One JSON row per call goes to stdout as the call ends.  The exit status
is 1 when a call timed out, hit the cap or exited with a code other
than the expected one: 2 for the calls in `REFUSED` and on the digit
operands, whose output would pass the CLI's bound, and 0 for every
other call.  A run takes 60 to 120 s on two shared cores.  pytest does
not collect this script; tier-1 runs every command on operands of a
quarter of this size, in process (`tests/test_cli.py`).
"""

from __future__ import annotations

import json
import os
import random
import resource
import signal
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable

from twobridge.core import Expansion, ExtendedRational, eval_expansion, format_fraction

TIMEOUT_S = 60
MEMORY_CAP_BYTES = 1 << 30
DIGITS = 65535  # p/q with both below 10**DIGITS has at most 2 * DIGITS + 1 = 131,071 characters
SEED = 31

FRACTION_COMMANDS = (("depth",), ("invariants",), ("conway",), ("shortest",), ("shortest", "--all"))
EXPANSION_COMMANDS = (("eval",), ("reduce",), ("reduce", "--trace"))
# The calls refused with exit 2, as their output would pass the CLI's bound: every
# `shortest --all` but that of (q-1)/q, whose set has one member, `invariants` of the
# torus knot (q-1)/q, whose even expansion has q - 1 coefficients, and every
# `reduce --trace`.  Every call on the digit operands is refused too.
REFUSED = {(("shortest", "--all"), kind) for kind in ("quotients_1_2", "quotients_1_4", "fibonacci")}
REFUSED.add((("invariants",), "q_minus_1_over_q"))
REFUSED.update((("reduce", "--trace"), kind) for kind in ("twos", "ones_and_threes", "twos_and_threes"))


def largest_convergent(next_quotient: Callable[[], int], bound: int) -> tuple[int, int]:
    """The last convergent p/q of [0; a_1, a_2, ...] with q odd and below bound."""
    p0, q0, p, q = 1, 0, 0, 1
    best = p, q
    while True:
        a = next_quotient()
        p0, q0, p, q = p, q, a * p + p0, a * q + q0
        if q >= bound:
            return best
        if q % 2:
            best = p, q


def fraction_operands() -> dict[str, str]:
    rng = random.Random(SEED)
    bound = 10**DIGITS
    fractions = {
        "quotients_1_2": largest_convergent(lambda: rng.randint(1, 2), bound),
        "quotients_1_4": largest_convergent(lambda: rng.randint(1, 4), bound),
        "fibonacci": largest_convergent(lambda: 1, bound),
        "q_minus_1_over_q": (bound - 2, bound - 1),
    }
    return {kind: format_fraction(ExtendedRational(p, q)) for kind, (p, q) in fractions.items()}


def expansion_operands() -> dict[str, str]:
    words = {"twos": ["2"] * 65534, "ones_and_threes": ["1", "3"] * 32767, "twos_and_threes": ["2", "3"] * 32767}
    return {kind: "[" + ",".join(w) + "]" for kind, w in words.items()}


def digit_operands() -> dict[str, tuple[tuple[str, ...], str]]:
    """(command, operand) of each call whose output is long for its digits, by kind.

    The texts are built without str() of a big int, except the last
    fraction's, which `format_fraction` writes whatever the limit.
    """
    operands = {
        "long_coefficient": (("reduce", "--trace"), "[" + "9" * 120000 + ",2" * 5000 + "]"),
        "long_integer_part": (("reduce", "--trace"), "9" * 100000 + "+[" + ",".join(["2"] * 15000) + "]"),
        "integer_value": (("reduce", "--trace"), "[" + "1," * 20000 + "1" + "0" * 45000 + ",1,1,-" + "9" * 44999 + "5]"),
        "many_members": (
            ("shortest", "--all"),
            format_fraction(eval_expansion(Expansion(10**130000, (5,) + (2, 5) * 16))),
        ),
    }
    assert all(len(operand) <= 2 * DIGITS + 1 for _, operand in operands.values())
    return operands


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_call(command: tuple[str, ...], kind: str, operand: str, expected_exit: int) -> dict:
    """Run one CLI call in a child process and describe it as one row."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "twobridge.cli", *command, operand],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            preexec_fn=_cap_memory,
        )
        timed_out = False
        while True:
            pid, status, usage = os.wait4(child.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - started > TIMEOUT_S:
                child.kill()
                timed_out = True
                _, status, usage = os.wait4(child.pid, 0)
                break
            time.sleep(0.005)
        wall = time.perf_counter() - started
        child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        err.seek(0)
        stderr = err.read().decode("ascii", "replace")
        stdout_bytes = out.seek(0, os.SEEK_END)
    problem = None
    if timed_out:
        problem = f"timed out after {TIMEOUT_S} s"
    elif "MemoryError" in stderr:
        problem = f"hit the {MEMORY_CAP_BYTES >> 20} MB cap"
    elif code < 0:
        problem = f"killed by {signal.Signals(-code).name}"
    elif code != expected_exit:
        problem = f"exit {code}, expected {expected_exit}: {stderr.strip()[-300:]}"
    return {
        "command": " ".join(command),
        "operand": kind,
        "characters": len(operand),
        "exit": code,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),  # ru_maxrss is in KiB on Linux
        "stdout_bytes": stdout_bytes,
        "problem": problem,
    }


def calls():
    """(command, operand kind, operand, expected exit code) of every call, operands built as needed."""
    for kind, operand in fraction_operands().items():
        for command in FRACTION_COMMANDS:
            yield command, kind, operand, 2 if (command, kind) in REFUSED else 0
    for kind, operand in expansion_operands().items():
        for command in EXPANSION_COMMANDS:
            yield command, kind, operand, 2 if (command, kind) in REFUSED else 0
    for kind, (command, operand) in digit_operands().items():
        yield command, kind, operand, 2


def main() -> int:
    problems = 0
    for command, kind, operand, expected_exit in calls():
        row = run_call(command, kind, operand, expected_exit)
        print(json.dumps(row), flush=True)
        problems += row["problem"] is not None
    if problems:
        print(f"{problems} call(s) timed out, hit the memory cap or exited with an unexpected code", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
