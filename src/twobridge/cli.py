"""Command-line interface.

Each command is one entry of `_COMMANDS`: its handler, at most one operand
and at most one boolean flag.  `main` reads argv against that table with
one loop, and the help texts are written from it.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors and
output refused for passing `_MAX_OUTPUT` characters.
Diagnostics go to stderr; results to stdout, ASCII only.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator
from types import SimpleNamespace

from .conway import conway_diagram, format_diagram, verify_diagram
from .core import (
    _set_field,
    _Value,
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

# `typing` is for type checkers only: importing it costs the cold start.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import NoReturn

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
        import json  # only here: the other commands do not pay its import

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


class _Command(_Value):
    """One command: its handler, its operand and its flag (None when it has none), and their help."""

    __slots__ = ("run", "operand", "flag", "help", "operand_help", "flag_help")

    def __init__(
        self,
        run: Callable[[SimpleNamespace], int],
        operand: str | None,
        flag: str | None,
        help: str,
        operand_help: str = "",
        flag_help: str = "",
    ):
        _set_field(self, "run", run)
        _set_field(self, "operand", operand)
        _set_field(self, "flag", flag)
        _set_field(self, "help", help)
        _set_field(self, "operand_help", operand_help)
        _set_field(self, "flag_help", flag_help)


# Every command, by the word that names it; the two `table` commands sit in
# a table of their own under that word.  The parser in `main` and every
# help text read this table and nothing else.
_COMMANDS = {
    "eval": _Command(
        _cmd_eval, "expansion", None, "evaluate a subtractive continued fraction", "e.g. '[3,2]' or '1+[-2,-2]'"
    ),
    "reduce": _Command(
        _cmd_reduce, "expansion", "--trace", "reduce an expansion to a shortest one",
        flag_help="print one line per rewrite step",
    ),
    "depth": _Command(
        _cmd_depth, "fraction", None, "depth of a fraction in the Farey diagram",
        "e.g. '2/5' (the literal '1/0' is allowed)",
    ),
    "shortest": _Command(
        _cmd_shortest, "fraction", "--all", "a shortest expansion of a fraction",
        flag_help="print every shortest expansion, in text order",
    ),
    "invariants": _Command(
        _cmd_invariants, "knot", "--json", "crosscap, genus and boundary data of a knot",
        "fraction like '4/15' or table name like '7_4'", "print one JSON object",
    ),
    "conway": _Command(
        _cmd_conway, "knot", None, "Conway diagram realizing the crosscap number", "fraction or table name"
    ),
    "table": {
        "verify": _Command(_cmd_table_verify, None, None, "recompute and check all 362 rows"),
        "lookup": _Command(_cmd_table_lookup, "name", None, "print one table record", "table name like '7_4'"),
    },
}

_HELP_FLAGS = ("-h", "--help")


def _listing(table: dict, prefix: str = "") -> Iterator[tuple[str, str]]:
    """(name, help) of every command in `table`, its words after `prefix`."""
    for word, entry in table.items():
        if isinstance(entry, dict):
            yield from _listing(entry, f"{prefix}{word} ")
        else:
            yield prefix + word, entry.help


def _group_usage(prog: str) -> str:
    return f"usage: {prog} [-h] <command> ..."


def _group_help(prog: str, table: dict) -> str:
    rows = list(_listing(table))
    width = max(len(name) for name, _ in rows)
    lines = [_group_usage(prog), ""]
    if table is _COMMANDS:
        lines += ["Crosscap numbers and spanning-surface data of 2-bridge knots.", ""]
    lines.append("commands:")
    lines += [f"  {name:<{width}}  {text}" for name, text in rows]
    lines += [
        "",
        "A command reads its operand and its flag, if it has them, in any order;",
        "'--' ends the flags, and an operand may start with '-' and a digit",
        "('depth -2/3').",
        f"'{prog} <command> -h' describes one command.",
    ]
    return "\n".join(lines)


def _command_usage(prog: str, command: _Command) -> str:
    flag = f" [{command.flag}]" if command.flag else ""
    operand = f" {command.operand}" if command.operand else ""
    return f"usage: {prog} [-h]{flag}{operand}"


def _command_help(prog: str, command: _Command) -> str:
    rows = [(command.operand, command.operand_help)] if command.operand else []
    if command.flag:
        rows.append((command.flag, command.flag_help))
    rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    lines = [_command_usage(prog, command), "", command.help, ""]
    lines += [f"  {left:<{width}}  {right}".rstrip() for left, right in rows]
    return "\n".join(lines)


def _usage_error(usage: str, message: str) -> NoReturn:
    print(usage, file=sys.stderr)
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _show_help(text: str) -> NoReturn:
    print(text)
    raise SystemExit(0)


def _find_command(argv: list[str]) -> tuple[str, _Command, list[str]]:
    """The command that the first one or two words name, its name and the words after them."""
    prog, entry, rest = "twobridge", _COMMANDS, argv
    while isinstance(entry, dict):
        word = rest[0] if rest else None
        if word in _HELP_FLAGS:
            _show_help(_group_help(prog, entry))
        if word not in entry:
            _usage_error(_group_usage(prog), "a command is required" if word is None else f"unknown command {word!r}")
        prog, entry, rest = f"{prog} {word}", entry[word], rest[1:]
    return prog, entry, rest


def _read_arguments(prog: str, command: _Command, tokens: list[str]) -> SimpleNamespace:
    """The operand and flag of one call, as the attributes that the handler reads.

    A token that starts with '-' and then a non-digit, before '--', is a
    flag; every other token is an operand.
    """
    operands = []
    flagged = False
    for i, token in enumerate(tokens):
        if token == "--":
            operands += tokens[i + 1 :]
            break
        if len(token) < 2 or token[0] != "-" or token[1].isdecimal():
            operands.append(token)
        elif token in _HELP_FLAGS:
            _show_help(_command_help(prog, command))
        elif token == command.flag:
            flagged = True
        else:
            _usage_error(_command_usage(prog, command), f"unknown flag {token!r}")
    wanted = 1 if command.operand else 0
    if len(operands) < wanted:
        _usage_error(_command_usage(prog, command), f"the operand {command.operand} is required")
    if len(operands) > wanted:
        _usage_error(_command_usage(prog, command), f"unexpected operand {operands[wanted]!r}")
    args = SimpleNamespace()
    if command.operand:
        setattr(args, command.operand, operands[0])
    if command.flag:
        setattr(args, command.flag[2:], flagged)
    return args


def main(argv: list[str] | None = None) -> int:
    """Run one command; usage errors and help leave by `SystemExit`, with code 2 and 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    prog, command, rest = _find_command(argv)
    args = _read_arguments(prog, command, rest)
    try:
        return command.run(args)
    except TwoBridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
