"""Command-line interface.

Each command is one entry of `_COMMANDS`: its handler, at most one operand
and at most one boolean flag.  `main` reads argv against that table with
one loop, and the help texts are written from it.  A handler does no I/O:
it returns its exit code and its text, and `main` prints the text, so a
command's result is written in one place.

Exit codes: 0 success, 1 verification failure, 2 usage or parse errors and
output refused for passing `_MAX_OUTPUT` characters.
Diagnostics go to stderr; results to stdout, ASCII only.
"""

from __future__ import annotations

import sys
from collections.abc import Callable, Iterator

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
from .reduction import format_trace, reduce_expansion
from .table import find_record, lookup, resolve, verify_table

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


def _cmd_eval(expansion: str, _flagged: bool) -> tuple[int, str]:
    return 0, format_fraction(eval_expansion(parse_expansion(expansion)))


def _cmd_reduce(expansion: str, trace_steps: bool) -> tuple[int, str]:
    reduced, trace = reduce_expansion(parse_expansion(expansion))
    if trace_steps and trace.moves:
        # each line ends in the expansion that its move left, of L coefficients: at least 2*L + 1 characters
        _check_output_size(sum(2 * n + 1 for n in trace.lengths()), "reduce --trace")
        return 0, f"{format_trace(trace)}\n{format_expansion(reduced)}"
    return 0, format_expansion(reduced)


def _cmd_depth(fraction: str, _flagged: bool) -> tuple[int, str]:
    return 0, str(depth(parse_fraction(fraction)))


def _cmd_shortest(fraction: str, every: bool) -> tuple[int, str]:
    shortest = all_shortest_expansions(parse_fraction(fraction))
    if every:
        # every member has len(T) coefficients, each with its "," or "]", after a "["
        _check_output_size(shortest.size * (2 * len(shortest.reduced) + 1), "shortest --all")
        return 0, "\n".join(shortest.sorted_text())
    return 0, format_expansion(shortest.least())


def _cmd_invariants(knot_text: str, as_json: bool) -> tuple[int, str]:
    report, record = lookup(knot_text)
    # the even expansion has 2*genus coefficients, each with its "," or "]"
    _check_output_size(4 * report.genus, "invariants")
    fields = report.to_dict()
    if record is not None:
        fields["table_name"] = record.name
        fields["starred"] = record.starred
    if as_json:
        import json  # only here: the other commands do not pay its import

        return 0, json.dumps(fields, indent=2)
    # a boolean reads true or false, as in the JSON form
    return 0, "\n".join(f"{k}={str(v).lower() if v is True or v is False else v}" for k, v in fields.items())


def _cmd_conway(knot_text: str, _flagged: bool) -> tuple[int, str]:
    knot, _ = resolve(knot_text)
    diagram = conway_diagram(knot)
    ok = verify_diagram(diagram, knot)
    return (0 if ok else 1), f"{format_diagram(diagram)}\nverified={str(ok).lower()}"


def _cmd_table_verify(_operand: None, _flagged: bool) -> tuple[int, str]:
    report = verify_table()
    return (0 if report.ok else 1), "\n".join(report.lines())


def _cmd_table_lookup(name: str, _flagged: bool) -> tuple[int, str]:
    rec = find_record(name)
    return 0, (
        f"name={rec.name} fraction={format_fraction(rec.fraction)} gamma={rec.gamma}"
        f" expansion={format_expansion(rec.expansion)} starred={str(rec.starred).lower()}"
    )


class _Command(_Value):
    """One command: its handler, its operand and its flag (None when it has none), and their help.

    `run(operand, flagged)` gets the operand's text (None for a command
    without one) and whether the flag was given, and returns the exit
    code and the text to print; it writes nothing itself.
    """

    __slots__ = ("run", "operand", "flag", "help", "operand_help", "flag_help")

    def __init__(
        self,
        run: Callable[[str | None, bool], tuple[int, str]],
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


def _listing(table: dict, prefix: str = "") -> Iterator[tuple[str, _Command]]:
    """(name, command) of every command in `table`, its words after `prefix`."""
    for word, entry in table.items():
        if isinstance(entry, dict):
            yield from _listing(entry, f"{prefix}{word} ")
        else:
            yield prefix + word, entry


def _group_usage(prog: str) -> str:
    return f"usage: {prog} [-h] <command> ..."


def _group_help(prog: str, table: dict) -> str:
    rows = [(name, command.help) for name, command in _listing(table)]
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


def _read_arguments(prog: str, command: _Command, tokens: list[str]) -> tuple[str | None, bool]:
    """The operand of one call (None for a command without one) and whether its flag was given.

    A token that starts with '-' and then anything but an ASCII digit
    0-9, before '--', is a flag; every other token is an operand.
    """
    operands = []
    flagged = False
    for i, token in enumerate(tokens):
        if token == "--":
            operands += tokens[i + 1 :]
            break
        if len(token) < 2 or token[0] != "-" or token[1] in "0123456789":
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
    return (operands[0] if operands else None), flagged


def main(argv: list[str] | None = None) -> int:
    """Run one command, print the text its handler returns and return its exit code.

    A refused operand prints its error to stderr and returns 2; usage
    errors and help leave by `SystemExit`, with code 2 and 0.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    prog, command, rest = _find_command(argv)
    operand, flagged = _read_arguments(prog, command, rest)
    try:
        code, text = command.run(operand, flagged)
    except TwoBridgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
