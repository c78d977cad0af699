"""Command-line interface.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors and
output refused for passing `_MAX_OUTPUT` characters.
Diagnostics go to stderr; results to stdout, ASCII only.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache

from .conway import conway_diagram, format_diagram, verify_diagram
from .core import (
    format_expansion,
    format_fraction,
    eval_expansion,
    parse_expansion,
    parse_fraction,
)
from .diagram import all_shortest_expansions, depth
from .errors import DomainError, TwoBridgeError
from .invariants import invariant_report
from .reduction import format_trace, reduce_expansion
from .table import find_record, resolve, verify_table

__all__ = ["main", "entry"]

# The most characters a command may print.  A command whose output would
# be longer is refused before it builds that output.
_MAX_OUTPUT = 10**7


def _check_output_size(at_least: int, command: str) -> None:
    """Refuse `command` when its output, of at least `at_least` characters, would pass the bound."""
    if at_least > _MAX_OUTPUT:
        raise DomainError(f"{command} would print more than {_MAX_OUTPUT} characters")


def _cmd_eval(args) -> int:
    print(format_fraction(eval_expansion(parse_expansion(args.expansion))))
    return 0


def _cmd_reduce(args) -> int:
    reduced, trace = reduce_expansion(parse_expansion(args.expansion))
    if args.trace and trace.moves:
        # each line ends in the expansion that its move left, of L coefficients: at least 2*L + 1 characters
        _check_output_size(sum(2 * n + 1 for n in trace.lengths()), "reduce --trace")
        print(format_trace(trace))
    print(format_expansion(reduced))
    return 0


def _cmd_depth(args) -> int:
    print(depth(parse_fraction(args.fraction)))
    return 0


def _cmd_shortest(args) -> int:
    shortest = all_shortest_expansions(parse_fraction(args.fraction))
    if args.all:
        # every member has len(T) coefficients, each with its "," or "]", after a "["
        _check_output_size(shortest.size * (2 * len(shortest.reduced) + 1), "shortest --all")
        print("\n".join(shortest.sorted_text()))
    else:
        print(format_expansion(shortest.least()))
    return 0


def _cmd_invariants(args) -> int:
    knot, record = resolve(args.knot)
    report = invariant_report(knot)
    # the even expansion has 2*genus coefficients, each with its "," or "]"
    _check_output_size(4 * report.genus, "invariants")
    if args.json:
        payload = report.to_dict()
        if record is not None:
            payload["table_name"] = record.name
            payload["starred"] = record.starred
        print(json.dumps(payload, indent=2))
    else:
        for line in report.to_lines():
            print(line)
        if record is not None:
            print(f"table_name={record.name}")
            print(f"starred={str(record.starred).lower()}")
    return 0


def _cmd_conway(args) -> int:
    knot, _ = resolve(args.knot)
    diagram = conway_diagram(knot)
    ok = verify_diagram(diagram, knot)
    print(format_diagram(diagram))
    print(f"verified={str(ok).lower()}")
    return 0 if ok else 1


def _cmd_table_verify(_args) -> int:
    report = verify_table()
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _cmd_table_lookup(args) -> int:
    rec = find_record(args.name)
    print(
        f"name={rec.name} fraction={format_fraction(rec.fraction)} gamma={rec.gamma}"
        f" expansion={format_expansion(rec.expansion)} starred={str(rec.starred).lower()}"
    )
    return 0


_NEGATIVE_OPERAND = re.compile(r"-\d")


class _Parser(argparse.ArgumentParser):
    """An argparse parser that reads a token like '-2/3' or '-1+[2]' as an operand.

    argparse only takes '-2' or '-.5' for a negative number and reads
    every other token that starts with '-' as an option.  No option of
    this CLI starts with '-' and a digit, so such a token is always an
    operand.  `add_subparsers` builds the subcommand parsers from this
    class too; '--' keeps working.
    """

    def _parse_optional(self, arg_string):
        if _NEGATIVE_OPERAND.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every call.

    Building it costs about as much as the rest of a typical command;
    parsing leaves it unchanged, so calls cannot leak options into each
    other.
    """
    parser = _Parser(
        prog="twobridge",
        description="Crosscap numbers and spanning-surface data of 2-bridge knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a subtractive continued fraction")
    p.add_argument("expansion", help="e.g. '[3,2]' or '1+[-2,-2]'")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("reduce", help="reduce an expansion to a shortest one")
    p.add_argument("expansion")
    p.add_argument("--trace", action="store_true", help="print one line per rewrite step")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("depth", help="depth of a fraction in the Farey diagram")
    p.add_argument("fraction", help="e.g. '2/5' (the literal '1/0' is allowed)")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("shortest", help="a shortest expansion of a fraction")
    p.add_argument("fraction")
    p.add_argument("--all", action="store_true", help="print the whole rectangle-move closure")
    p.set_defaults(func=_cmd_shortest)

    p = sub.add_parser("invariants", help="crosscap, genus and boundary data of a knot")
    p.add_argument("knot", help="fraction like '4/15' or table name like '7_4'")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("conway", help="Conway diagram realizing the crosscap number")
    p.add_argument("knot", help="fraction or table name")
    p.set_defaults(func=_cmd_conway)

    p = sub.add_parser("table", help="operations on the embedded knot table")
    table_sub = p.add_subparsers(dest="table_command", required=True)
    q = table_sub.add_parser("verify", help="recompute and check all 362 rows")
    q.set_defaults(func=_cmd_table_verify)
    q = table_sub.add_parser("lookup", help="print one table record")
    q.add_argument("name")
    q.set_defaults(func=_cmd_table_lookup)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except TwoBridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
