"""List the serving statements that no tier-1 test runs.

    PYTHONPATH=src python tests/untested_lines.py [pytest arguments]

Runs the tests in this process under `sys.settrace`, recording the lines
run in the package's modules other than `oracles`, and prints each
statement none of them ran, as `path:line: text`, then their count.  A
statement counts as run when any of its own lines ran: a simple
statement's lines, and a compound statement's header, from its first
decorator to the line before its body.  Statements that compile to no
code (docstrings, `global`) are not listed.  Lines run only in a child
process, as the CLI tests' subprocess calls, are not seen.

The exit status is pytest's when a test fails.  Otherwise it is 1 when
a statement is listed that `BY_DESIGN` does not name, matched by file
and text rather than by line, and 0 when none is.  Pass
`--hypothesis-seed=0` to fix Hypothesis's examples, and so the lines
they reach.

A stand-in for a coverage tool, with the standard library alone; pytest
does not collect it.  Tracing makes tier-1 several times slower.
"""

from __future__ import annotations

import ast
import sys
from collections import defaultdict
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"

# (file, statement text) of the statements that no test can run in process
BY_DESIGN = {
    ("src/twobridge/cli.py", "from typing import NoReturn"),  # under `if TYPE_CHECKING:`
    ("src/twobridge/cli.py", "entry()"),  # under `if __name__ == "__main__":`
}


def _code_lines(code) -> set[int]:
    """The lines of code and of every code object nested in it that hold an instruction."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node: ast.stmt) -> range:
    """The lines that belong to the statement node itself, not to a statement nested in it."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, body[0].lineno)
    return range(first, node.end_lineno + 1)


def untested(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, text) of each statement of path that holds code and of which no line ran."""
    source = path.read_text(encoding="utf-8")
    code = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt):
            own = set(_own_lines(node)) & code
            if own and not own & ran:
                out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def main(args: list[str]) -> int:
    watched = {str(p): p for p in PACKAGE.glob("*.py") if p.name != "oracles.py"}
    names = {}  # co_filename -> resolved path, or None when not watched
    ran = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[names[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in names:
            resolved = str(Path(filename).resolve())
            names[filename] = resolved if resolved in watched else None
        return None if names[filename] is None else local

    sys.settrace(call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    total = unexpected = 0
    for filename, path in sorted(watched.items()):
        name = path.relative_to(PACKAGE.parent.parent).as_posix()
        for line, text in untested(path, ran[filename]):
            print(f"{name}:{line}: {text}")
            total += 1
            unexpected += (name, text) not in BY_DESIGN
    print(f"{total} statements that no test runs, {unexpected} of them not by design")
    return int(status) or int(unexpected > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
