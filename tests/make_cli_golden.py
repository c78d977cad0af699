"""Write tests/cli_golden.json and tests/cli_sweep.json: the exact output of the CLI.

    PYTHONPATH=src python tests/make_cli_golden.py

Each entry is one in-process `twobridge.cli.main` call: its argv, joined
as a shell would quote it (`shlex.join`), maps to its exit code, stdout
and stderr, in the shape of tests/shortest_pins.json.  The calls are
`invariants <name>`, `invariants <name> --json`, `invariants <p^-1/q>`,
`conway <name>`, `table lookup <name>`, `shortest <p/q>`, `shortest
<p/q> --all` and `reduce '<division expansion of p/q>' --trace` on
every table row, `table verify`, every argv pinned in
`test_cli.CLI_PINS`, and `ERRORS`: refusals that quote a parse
position, whitespace, a non-ASCII digit or an unknown name, and usage
errors.

tests/cli_sweep.json holds one sha256 digest per command of `SWEEP`:
the command on every p/q in lowest terms with 1 <= q < 60 and -q <= p <
2q, which reaches negative p, p > q, integers and even q (refused by
every command but `depth` and `shortest`).  Each call adds the JSON
text of [argv, exit code, stdout, stderr] and a newline to its
command's digest, in call order.

`test_cli.TestGolden` replays both.  Rewrite the files only when a
change to the output is meant, and say why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"
SWEEP_FILE = HERE / "cli_sweep.json"
SWEEP = ("depth", "shortest", "invariants", "conway")

# each exits 2 with one diagnostic on stderr; argparse-style usage errors raise SystemExit
ERRORS = [
    ("eval", "[3,2"),
    ("eval", "[3 2]"),
    ("reduce", "[3,,2]"),
    ("invariants", "  x/3"),
    ("depth", "\u0663/\u0667"),
    ("eval", "[\u0663,\u0662]"),
    ("depth", "3\u00b2/7"),
    ("table", "lookup", "99_99"),
    ("invariants", "99_99"),
    ("no-such-command",),
    ("depth", "2/3", "2/5"),
    ("table", "verify", "extra"),
    ("depth", "-x", "2/3"),
    ("reduce", "--trace", "--", "[3,2]", "--trace"),
]


def golden_argvs() -> list[tuple[str, ...]]:
    """Every argv the golden file holds, in its order."""
    sys.path.insert(0, str(HERE))
    from test_cli import CLI_PINS

    from twobridge import load_table
    from twobridge.core import division_expansion, format_expansion

    argvs = []
    for rec in load_table():
        p, q = rec.fraction.numerator, rec.fraction.denominator
        argvs += [
            ("invariants", rec.name),
            ("invariants", rec.name, "--json"),
            ("invariants", f"{pow(p, -1, q)}/{q}"),
            ("conway", rec.name),
            ("table", "lookup", rec.name),
            ("shortest", f"{p}/{q}"),
            ("shortest", f"{p}/{q}", "--all"),
            ("reduce", format_expansion(division_expansion(rec.fraction)), "--trace"),
        ]
    argvs.append(("table", "verify"))
    argvs += list(CLI_PINS)
    argvs += ERRORS
    return argvs


def run_main(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call, run in this process."""
    from twobridge.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # usage errors and help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def sweep_digest(command: str) -> tuple[int, str]:
    """The number of calls of `command` in the q < 60 sweep and the hex sha256 of their results."""
    digest = hashlib.sha256()
    calls = 0
    for q in range(1, 60):
        for p in range(-q, 2 * q):
            if gcd(p, q) == 1:
                argv = [command, f"{p}/{q}"]
                digest.update(json.dumps([argv, *run_main(argv)]).encode("ascii") + b"\n")
                calls += 1
    return calls, digest.hexdigest()


def main() -> None:
    calls = {shlex.join(argv): run_main(argv) for argv in golden_argvs()}
    # one call a line, so that a changed output is a one-line diff
    lines = [f"{json.dumps(key)}: {json.dumps(result)}" for key, result in calls.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="ascii")
    print(f"wrote {len(calls)} calls to {GOLDEN}")
    digests = {command: sweep_digest(command) for command in SWEEP}
    SWEEP_FILE.write_text(json.dumps(digests, indent=1) + "\n", encoding="ascii")
    print(f"wrote the digests of {sum(n for n, _ in digests.values())} calls to {SWEEP_FILE}")


if __name__ == "__main__":
    main()
