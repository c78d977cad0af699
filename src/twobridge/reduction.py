"""Three-rule rewrite system that shortens subtractive continued fractions.

The rules remove a zero coefficient, a +-1 coefficient, or a run
2e,3e,...,3e,2e of total length m >= 2 (e = +-1), in every interior and
boundary form.  Each application preserves the exact value and strictly
shortens the coefficient list, so iteration reaches a fixpoint whose
length is the minimal expansion length of the value.

`reduce_expansion` drives any expansion to its fixpoint leftmost site
first and records each step; `reduced_from_quotients` reaches the
fixpoint of a fraction's seed in one pass over its partial quotients and
records nothing.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from functools import cached_property

from .core import Expansion, _format_int, _set_field, _Value, format_expansion, partial_quotients
from .errors import InternalError, PatternMatchError

__all__ = [
    "Rule",
    "ReductionStep",
    "ReductionTrace",
    "apply_rule",
    "reduce_expansion",
    "reduced_from_quotients",
    "format_trace",
]


class Rule(Enum):
    REMOVE_ZERO = "RemoveZero"
    REMOVE_UNIT = "RemoveUnit"
    REMOVE_BLOCK = "RemoveBlock"


class ReductionStep(_Value):
    """One rule application site.

    position is the 1-based index of the removed coefficient (for blocks,
    of the first block entry).  epsilon is the unit sign where the rule
    has one, block_length the total block size m >= 2.
    """

    __slots__ = ("rule", "position", "epsilon", "block_length")

    def __init__(self, rule: Rule, position: int, epsilon: int = 0, block_length: int = 0):
        _set_field(self, "rule", rule)
        _set_field(self, "position", position)
        _set_field(self, "epsilon", epsilon)
        _set_field(self, "block_length", block_length)


class ReductionTrace(_Value):
    """Replayable record of a reduction run: the start, each step, the fixpoint.

    `steps` pairs each move with the expansion it produced.  It is rebuilt
    from `moves` through `apply_rule` on first use, so a run whose trace
    is never read keeps no intermediate expansions.
    """

    _FIELDS = ("initial", "moves", "final")

    def __init__(self, initial: Expansion, moves: tuple[ReductionStep, ...], final: Expansion):
        _set_field(self, "initial", initial)
        _set_field(self, "moves", moves)
        _set_field(self, "final", final)

    def lengths(self) -> Iterator[int]:
        """The length of the expansion after each move, read off the rules without replaying them.

        A zero step turns a,0,b into a+b, or drops the 0 and its one
        neighbour at an end: it removes two coefficients.  A unit or a block
        step removes one.
        """
        n = len(self.initial)
        for step in self.moves:
            n -= 2 if step.rule is Rule.REMOVE_ZERO else 1
            yield n

    @cached_property
    def steps(self) -> tuple[tuple[ReductionStep, Expansion], ...]:
        out = []
        current = self.initial
        for step in self.moves:
            current = apply_rule(current, step)
            out.append((step, current))
        return tuple(out)


def _require(condition: bool, step: ReductionStep, c, r: int, why: str):
    if not condition:
        raise PatternMatchError(
            f"{step.rule.value} at position {_format_int(step.position)} does not match {Expansion(r, c)}: {why}"
        )


def _splice(c, r: int, s: ReductionStep) -> tuple[int, int, tuple[int, ...], int]:
    """Validate step s on the expansion r+c and describe its edit.

    Returns (lo, hi, new, r2): applying s replaces c[lo:hi] by new and the
    integer part by r2.  c is a tuple or a list and is left unchanged.
    """
    n = len(c)
    j = s.position - 1
    _require(0 <= j < n, s, c, r, "position out of range")

    if s.rule is Rule.REMOVE_ZERO:
        _require(c[j] == 0, s, c, r, "coefficient is not 0")
        _require(n >= 2, s, c, r, "a lone [0] is the value 1/0 and cannot be removed")
        if 0 < j < n - 1:
            return j - 1, j + 2, (c[j - 1] + c[j + 1],), r
        if j == n - 1:
            return n - 2, n, (), r
        return 0, 2, (), r - c[1]

    if s.rule is Rule.REMOVE_UNIT:
        eps = s.epsilon
        _require(eps in (1, -1), s, c, r, "epsilon must be +-1")
        _require(c[j] == eps, s, c, r, f"coefficient is not {eps}")
        if n == 1:
            return 0, 1, (), r + eps
        if 0 < j < n - 1:
            return j - 1, j + 2, (c[j - 1] - eps, c[j + 1] - eps), r
        if j == n - 1:
            return j - 1, n, (c[j - 1] - eps,), r
        return 0, 2, (c[1] - eps,), r + eps

    if s.rule is Rule.REMOVE_BLOCK:
        eps, m = s.epsilon, s.block_length
        _require(eps in (1, -1), s, c, r, "epsilon must be +-1")
        _require(m >= 2, s, c, r, "block length must be at least 2")
        end = j + m  # one past the block
        _require(end <= n, s, c, r, "block overruns the coefficients")
        expected = (2 * eps,) + (3 * eps,) * (m - 2) + (2 * eps,)
        _require(tuple(c[j:end]) == expected, s, c, r, f"coefficients are not {expected}")
        body = (-3 * eps,) * (m - 1)
        if j > 0 and end < n:
            return j - 1, end + 1, (c[j - 1] - eps,) + body + (c[end] - eps,), r
        if j > 0:
            return j - 1, n, (c[j - 1] - eps,) + body, r
        if end < n:
            return 0, end + 1, body + (c[end] - eps,), r + eps
        return 0, n, body, r + eps

    raise PatternMatchError(f"unknown rule {s.rule!r}")


def apply_rule(e: Expansion, s: ReductionStep) -> Expansion:
    """Apply one reduction step, validating that its pattern matches."""
    c = e.coefficients
    lo, hi, new, r = _splice(c, e.integer_part, s)
    return Expansion(r, c[:lo] + new + c[hi:])


def _blocks_from(c, j: int):
    """Yield (start, length) of every block starting at index j or later, leftmost first."""
    n = len(c)
    while j < n:
        v = c[j]
        if v != 2 and v != -2:
            j += 1
            continue
        three = 3 if v > 0 else -3
        k = j + 1
        while k < n and c[k] == three:
            k += 1
        if k < n and c[k] == v:
            yield j, k - j + 1
        # c[j+1:k] are all 3s of one sign, so the next possible start is k.
        j = k


def _block_search_start(c, b: int) -> int:
    """Leftmost index a block can start at, given that every block starting left of b covers b.

    Such a block is a +-2 followed by a run of 3s of its sign that reaches
    b, so only the run just left of b needs a look.
    """
    if b >= len(c):
        return b
    v = c[b]
    if v in (3, 2):
        three, two = 3, 2
    elif v in (-3, -2):
        three, two = -3, -2
    else:
        return b
    t = b
    while t > 0 and c[t - 1] == three:
        t -= 1
    return t - 1 if t > 0 and c[t - 1] == two else b


class _Sites:
    """Leftmost-first site search over a coefficient list edited in place.

    Keeps the counts of -1, 0 and 1 in c, and one index per rule left of
    which the rule has no site: no 0 left of zero_from, no +-1 left of
    unit_from, and no block starting left of block_from that does not
    cover it.  An edit at c[lo:...] lowers each index to at most lo, since
    every site it creates reaches into the edited slice.
    """

    def __init__(self, c):
        self.c = c
        self.tally = [c.count(-1), c.count(0), c.count(1)]
        self.zero_from = self.unit_from = self.block_from = 0

    def next_step(self) -> ReductionStep | None:
        """The leftmost zero, else the leftmost unit, else the leftmost block; None at a fixpoint."""
        c, tally = self.c, self.tally
        if tally[1] and len(c) >= 2:
            i = self.zero_from = c.index(0, self.zero_from)
            return ReductionStep(Rule.REMOVE_ZERO, i + 1)
        if tally[0] or tally[2]:
            i = c.index(-1, self.unit_from) if tally[0] else len(c)
            if tally[2]:
                try:
                    i = c.index(1, self.unit_from, i)
                except ValueError:
                    pass
            self.unit_from = i
            return ReductionStep(Rule.REMOVE_UNIT, i + 1, epsilon=c[i])
        block = next(_blocks_from(c, _block_search_start(c, self.block_from)), None)
        if block is None:
            return None
        j, m = block
        self.block_from = j
        return ReductionStep(Rule.REMOVE_BLOCK, j + 1, epsilon=c[j] // 2, block_length=m)

    def replace(self, lo: int, hi: int, new: tuple[int, ...]):
        """Set c[lo:hi] = new, keeping the counts and search indices valid."""
        c, tally = self.c, self.tally
        for v in c[lo:hi]:
            if -1 <= v <= 1:
                tally[v + 1] -= 1
        for v in new:
            if -1 <= v <= 1:
                tally[v + 1] += 1
        c[lo:hi] = new
        self.zero_from = min(self.zero_from, lo)
        self.unit_from = min(self.unit_from, lo)
        self.block_from = min(self.block_from, lo)


def reduce_expansion(e: Expansion) -> tuple[Expansion, ReductionTrace]:
    """Drive e to a fixpoint of the three rules, recording every step.

    For an expansion the user gives, whose leftmost-first trace is the
    answer (`twobridge reduce --trace`, the table's shortest check, the
    oracles).  The pipeline derives a knot's reduced expansion with
    `reduced_from_quotients`, which keeps no trace.

    The fixpoint length is the minimal length over all expansions of all
    fractions equivalent to the value; the empty list (integer values)
    and a lone [0] (the value 1/0) are legal degenerate outputs.

    Each step is the leftmost zero, else the leftmost unit, else the
    leftmost block.  One list is edited in place and searched
    incrementally: the counts of 0 and +-1 say whether a zero or unit
    step is due, `list.index` finds the leftmost one, and each search
    resumes no further left than the last edit could have created a site.
    """
    c = list(e.coefficients)
    r = e.integer_part
    sites = _Sites(c)
    moves = []
    while (step := sites.next_step()) is not None:
        lo, hi, new, r = _splice(c, r, step)
        sites.replace(lo, hi, new)
        moves.append(step)
    final = Expansion(r, c) if moves else e
    return final, ReductionTrace(e, tuple(moves), final)


def _block_start(c: list[int]) -> int:
    """Index of the 2e that opens a block 2e,3e,...,3e,2e ending at the top of c, else -1.

    The top is +-2; the scan passes the 3e run below it once.
    """
    t = c[-1]
    three = t + t // 2
    j = len(c) - 2
    while j >= 0 and c[j] == three:
        j -= 1
    return j if j >= 0 and c[j] == t else -1


def _settle(c: list[int], todo: list[int]) -> int:
    """Push the values of todo, last first, onto c; returns the change in the integer part.

    c has no site of the three rules except at its top: a top of 0 or +-1,
    or a +-2 that closes a block, waits for the right neighbour that the
    interior form needs.  A push supplies it, so that rule applies, and
    the pushed value, edited by the rule, is pushed onto what is left;
    a block leaves its body -3e,...,-3e to push first.  The head forms
    apply where the site starts at c[0].
    """
    dr = 0
    while todo:
        v = todo.pop()
        while c:
            t = c[-1]
            if t == 0:  # [..., a, 0, v] = [..., a + v]; [0, v, ...] = -v + [...]
                c.pop()
                if not c:
                    dr -= v
                    break
                v += c.pop()
            elif t == 1 or t == -1:  # [..., a, e, v] = [..., a - e, v - e]; [e, v, ...] = e + [v - e, ...]
                c.pop()
                v -= t
                if c:
                    c[-1] -= t
                else:
                    dr += t
            elif (t == 2 or t == -2) and (j := _block_start(c)) >= 0:
                # [..., a, 2e, 3e, ..., 3e, 2e, v] = [..., a - e, -3e, ..., -3e, v - e]
                eps = t // 2
                body = len(c) - j - 1
                del c[j:]
                if c:
                    c[-1] -= eps
                else:
                    dr += eps
                todo.append(v - eps)
                todo += [-3 * eps] * body
                break
            else:
                c.append(v)
                break
        else:
            c.append(v)
    return dr


def _close(c: list[int]) -> int:
    """Apply the tail forms of the rules at the top of c until none applies; returns the change in r."""
    dr = 0
    while c:
        t = c[-1]
        if t == 0:  # [..., a, 0] = [...]
            if len(c) == 1:
                raise InternalError("a lone [0] is the value 1/0, which no fraction reduces to")
            del c[-2:]
        elif t == 1 or t == -1:  # [..., a, e] = [..., a - e]; [e] = e + []
            c.pop()
            if c:
                c[-1] -= t
            else:
                dr += t
        elif (t == 2 or t == -2) and (j := _block_start(c)) >= 0:
            # [..., a, 2e, 3e, ..., 3e, 2e] = [..., a - e, -3e, ..., -3e]
            eps = t // 2
            body = len(c) - j - 1
            del c[j:]
            if c:
                c[-1] -= eps
            else:
                dr += eps
            dr += _settle(c, [-3 * eps] * body)
        else:
            break
    return dr


def reduced_from_quotients(p: int, q: int) -> Expansion:
    """The reduced expansion of p/q, in one pass over its partial quotients a_0; a_1, ..., a_n.

    The pass forms the seed (`oracles.seed_expansion`) inline: an
    odd-position a_i gives a_i, an even-position a_i >= 3 gives -a_i, an
    even-position 1 raises both neighbours, and an even-position 2 raises
    both and gives 2.  Each coefficient is pushed onto a list kept a
    fixpoint of the three rules but at its top, so that the rules apply
    as the list grows and the tail forms once at the end.  A push onto a
    top of absolute value 3 or more, or onto a +-2 whose left neighbour
    is neither 2e nor 3e, is one append, with no call; the rest go
    through `_settle`.  The result equals the fixpoint that
    `reduce_expansion` reaches from the seed, the one shortest
    expansion with no -2 (held to it in the tests), without building the
    seed, the steps or the trace.
    """
    cf = partial_quotients(p, q)
    r = cf[0]
    c: list[int] = []
    odd, even = cf[1::2], cf[2::2]
    bump = 0  # true after an even-position 1 or 2, which raises the next odd-position term by 1
    for a, b in zip(odd, even):
        v = a + bump if b > 2 else a + bump + 1  # an even-position 1 or 2 raises its left neighbour too
        if c and -3 < (t := c[-1]) < 3 and (-2 < t < 2 or len(c) > 1 and c[-2] in (t, t + t // 2)):
            r += _settle(c, [v])
        else:
            c.append(v)
        if b != 1:
            v = -b if b > 2 else 2
            if c and -3 < (t := c[-1]) < 3 and (-2 < t < 2 or len(c) > 1 and c[-2] in (t, t + t // 2)):
                r += _settle(c, [v])
            else:
                c.append(v)
        bump = b < 3
    if len(odd) > len(even):
        r += _settle(c, [odd[-1] + bump])
    r += _close(c)
    return Expansion(r, tuple(c))


def format_trace(trace: ReductionTrace) -> str:
    """One line per step: `rule pos eps m | resulting-expansion`."""
    lines = []
    for step, result in trace.steps:
        lines.append(
            f"{step.rule.value} {step.position} {step.epsilon} {step.block_length}"
            f" | {format_expansion(result)}"
        )
    return "\n".join(lines)
