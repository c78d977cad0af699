"""Count the serving lines of the package: the code lines of every module but `oracles`.

    python tests/count_serving_lines.py

A serving line holds a token of code: blank lines, comments and
docstrings (a string that stands as a statement of its own) do not
count.  Prints each module's count and the total.
"""

from __future__ import annotations

import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twobridge"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code."""
    lines = set()
    statement_start = True  # whether the next token opens a statement
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            if tok.type in NOT_CODE:
                statement_start = statement_start or tok.type in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
                continue
            docstring = statement_start and tok.type == tokenize.STRING
            statement_start = False
            if not docstring:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    counts = {path.name: code_lines(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracles.py"}
    for name, n in counts.items():
        print(f"{name:16} {n:5}")
    print(f"{'total':16} {sum(counts.values()):5}")


if __name__ == "__main__":
    main()
