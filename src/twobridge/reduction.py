"""Three-rule rewrite system that shortens subtractive continued fractions.

The rules remove a zero coefficient, a +-1 coefficient, or a run
2e,3e,...,3e,2e of total length m >= 2 (e = +-1).  `_splice` writes
each once, in its interior form, which edits the site's two neighbours:
at the head -r stands left of the coefficients, since
r + [b_1, ...] = -[-r, b_1, ...], and at the tail a dummy stands right,
which no rule reads.  The one-pass reducer keeps both in its list, so it
has no head or tail form either, and it writes only the two forms that a
seed meets: the +1 unit and the block 2,3,...,3,2.  Each application
preserves the exact value and strictly shortens the coefficient list, so
iteration reaches a fixpoint whose length is the minimal expansion
length of the value.

`reduce_expansion` drives any expansion to its fixpoint leftmost site
first and records each step; `reduce_fraction` reaches the fixpoint of
a fraction's seed in one Euclid loop, which forms the seed as the
partial quotients come, and records nothing.  The loop takes a quotient
by subtraction first and divides only for a quotient of 2 or more: 1
is the commonest quotient, and the only one of a Fibonacci ratio.
`invariants.analyze`, the package's one memo per fraction, calls
`reduce_fraction` once per fraction.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from functools import cached_property

from .core import Expansion, _format_int, _set_field, _Value, format_expansion
from .errors import DomainError, InternalError, PatternMatchError

__all__ = [
    "Rule",
    "ReductionStep",
    "ReductionTrace",
    "apply_rule",
    "is_reduced",
    "reduce_expansion",
    "reduce_fraction",
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

    The edit is the rule's interior form on the site's left neighbour,
    c[j-1] or -r at the head, and its right neighbour, c[end] or a dummy
    at the tail.  The ends are then trimmed: at the head the new first
    entry, negated, is the integer part, and at the tail the dummy's
    entry is dropped.
    """
    n = len(c)
    j = s.position - 1
    _require(0 <= j < n, s, c, r, "position out of range")

    if s.rule is Rule.REMOVE_ZERO:
        _require(c[j] == 0, s, c, r, "coefficient is not 0")
        _require(n >= 2, s, c, r, "a lone [0] is the value 1/0 and cannot be removed")
        end = j + 1
    elif s.rule is Rule.REMOVE_UNIT:
        eps = s.epsilon
        _require(eps in (1, -1), s, c, r, "epsilon must be +-1")
        _require(c[j] == eps, s, c, r, f"coefficient is not {eps}")
        end = j + 1
    elif s.rule is Rule.REMOVE_BLOCK:
        eps, m = s.epsilon, s.block_length
        _require(eps in (1, -1), s, c, r, "epsilon must be +-1")
        _require(m >= 2, s, c, r, "block length must be at least 2")
        end = j + m  # one past the block
        _require(end <= n, s, c, r, "block overruns the coefficients")
        expected = (2 * eps,) + (3 * eps,) * (m - 2) + (2 * eps,)
        _require(tuple(c[j:end]) == expected, s, c, r, f"coefficients are not {expected}")
    else:
        raise PatternMatchError(f"unknown rule {s.rule!r}")

    left = c[j - 1] if j else -r
    right = c[end] if end < n else 0
    if s.rule is Rule.REMOVE_ZERO:  # [a, 0, b] = [a + b]
        new = (left + right,)
    else:  # [a, e, b] = [a - e, b - e]; [a, 2e, 3e, ..., 3e, 2e, b] = [a - e, -3e, ..., -3e, b - e]
        new = (left - eps,) + (-3 * eps,) * (end - j - 1) + (right - eps,)
    lo, hi, r2 = j - 1, end + 1, r
    if j == 0:
        lo, r2, new = 0, -new[0], new[1:]
    if end == n:
        hi, new = n, new[:-1]
    return lo, hi, new, r2


def apply_rule(e: Expansion, s: ReductionStep) -> Expansion:
    """Apply one reduction step, validating that its pattern matches."""
    c = e.coefficients
    lo, hi, new, r = _splice(c, e.integer_part, s)
    return Expansion(r, c[:lo] + new + c[hi:])


def _opening(c, end: int, two: int) -> int:
    """Index j of a `two` (+-2) with c[j+1:end] all 3e, e the sign of `two`; else -1.

    A block two, 3e, ..., 3e, two whose last entry is c[end] opens at j.
    The scan passes the 3e run once, back to front.
    """
    three = two + two // 2
    j = end - 1
    while j >= 0 and c[j] == three:
        j -= 1
    return j if j >= 0 and c[j] == two else -1


def _first_block(c, end: int) -> tuple[int, int] | None:
    """(start, length) of the leftmost block ending at index end or later; None if there is none.

    Each +-2 from c[end] on is asked where a block ending there opens.
    The first hit is the leftmost block: a block's inside is all 3e, so
    no block starts inside another, and blocks end in the order they
    start.  Each 3e run is passed once, by the entry after it.
    """
    for k in range(end, len(c)):
        v = c[k]
        if (v == 2 or v == -2) and (j := _opening(c, k, v)) >= 0:
            return j, k - j + 1
    return None


class _Sites:
    """Leftmost-first site search over a coefficient list edited in place.

    Keeps the counts of -1, 0 and 1 in c, and one index per rule left of
    which the rule has no site: no 0 left of zero_from, no +-1 left of
    unit_from, and no block ending left of block_from.  An edit at
    c[lo:...] lowers each index to at most lo, since every site it
    creates reaches into the edited slice.
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
        block = _first_block(c, self.block_from)
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


def is_reduced(c) -> bool:
    """Whether no rule applies to the coefficients c, a tuple or a list, which are left unchanged.

    Every rule strictly shortens the list, so this is the same test as
    "reduction preserves the length", without the reduction.
    """
    return _Sites(list(c)).next_step() is None


def reduce_expansion(e: Expansion) -> tuple[Expansion, ReductionTrace]:
    """Drive e to a fixpoint of the three rules, recording every step.

    For an expansion the user gives, whose leftmost-first trace is the
    answer (`twobridge reduce --trace`, the table's shortest check, the
    oracles).  The pipeline derives a knot's reduced expansion with
    `reduce_fraction`, which keeps no trace.

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


def _settle(c: list[int], todo: list[int]) -> None:
    """Pop the values of todo onto c, its last value first, applying the two rule forms that a seed meets.

    c[0] is -r, the left neighbour of the first coefficient, since
    r + [b_1, ...] = -[-r, b_1, ...]; it is never a site, whatever its
    value.  todo ends empty.  A top of 1, or a 2 that closes a block
    2,3,...,3,2, waits for the right neighbour v that the interior form
    needs, and a push supplies it:

    - [..., a, 1, v] = [..., a - 1, v - 1]: v - 1 is pushed onto a - 1;
    - [..., a, 2, 3, ..., 3, 2, v] = [..., a - 1, -3, ..., -3, v - 1]:
      the body and then v - 1 go back on todo.

    A 2 whose opening 2 would be c[0] closes no block.  `reduce_fraction`
    pushes a seed and then a dummy, and before each push of the seed's
    line this holds: above c[0] the list has no 0, -1 or -2, a 1 only on
    top and there on c[0] or a value <= -3, and no block ends below the
    top.  Each push keeps it:

    - the values pushed are the seed's a >= 1, 2 and -b <= -3, a block's
      body of -3s, and v - 1 for a v that met a rule;
    - a push of a value <= -3 ends by appending a value <= -3, since the
      rules only lower it;
    - a positive value is lowered once at most: after a unit the top is
      a - 1 with a what the 1 stood on, so c[0] or <= -4, and after a
      block v - 1 follows the body, whose pushes end on a value <= -3;
    - so a 1 is pushed only onto c[0] or a value <= -3, and never onto a
      site: a seed 1 (a = 1 between even quotients >= 3) follows -b',
      and a v - 1 = 1 lands as just said;
    - a lowered top a - 1 is none of 0, -1, -2 and 1: under a 1, a is
      c[0] or <= -3, and under an opening 2, a is not 1, which stands
      only on top, nor 2, as 2, 2 would be a block ending below the top;
    - every value enters on top and the next push meets it there, so no
      block ends below the top.

    The dummy is pushed last, and its line applies the tail forms, as no
    rule reads its right neighbour.  A top of 0, -1 or -2 would break the
    argument, and raises rather than giving a wrong expansion.
    """
    while todo:
        v = todo.pop()
        while -3 < (t := c[-1]) < 3 and len(c) > 1:
            if t == 1:  # [..., a, 1, v] = [..., a - 1, v - 1]
                c.pop()
                c[-1] -= 1
                v -= 1
            elif t != 2:
                raise InternalError("a push met a top of 0, -1 or -2 above -r, which no seed leaves")
            elif (j := _opening(c, len(c) - 1, 2)) > 0:  # at 0 the opening 2 is -r
                # [..., a, 2, 3, ..., 3, 2, v] = [..., a - 1, -3, ..., -3, v - 1]
                body = len(c) - j - 1
                del c[j:]
                c[-1] -= 1
                todo.append(v - 1)
                todo += [-3] * body
                break
            else:
                c.append(v)
                break
        else:
            c.append(v)


def reduce_fraction(p: int, q: int) -> tuple[tuple[int, ...], Expansion]:
    """The partial quotients (a_0, a_1, ..., a_n) of p/q and its reduced expansion, from one Euclid loop.

    p/q = a_0 + 1/(a_1 + 1/(... + 1/a_n)) with a_0 = floor(p/q), every
    later quotient >= 1 and the last one >= 2 when n >= 1.  Each turn of
    the loop takes an odd-position quotient a and the even-position
    quotient b after it, and forms their seed coefficients
    (`oracles.seed_expansion`) as they come: a, raised by 1 after an
    even-position 1 or 2 and by 1 before one, then -b for b >= 3, 2 for
    b = 2 and nothing for b = 1.  A quotient is taken by subtracting the
    divisor once, and by a `divmod` of what is left only when that is
    still at least the divisor: a random real has a quotient 1 with
    probability log2(4/3), about 41.5% (Gauss-Kuzmin), a Fibonacci ratio
    has nothing else, and on a 694-bit pair a subtraction and a compare
    take about a third of the time of a `divmod`.  The dividend always
    exceeds the divisor, so a subtraction alone never leaves a zero
    remainder, and the loop stops at one, after the `divmod` of a last
    quotient >= 2.
    The first coefficient goes straight onto -a_0, and one `_settle` call
    pushes the rest of the seed, applying the +1 unit and the 2,3,...,3,2
    block, the only forms a seed meets, as the list grows, and then a
    dummy as the last coefficient's right neighbour, whose push applies
    the tail forms.  Every push ends by appending a value, so the list
    then reads [-r, T..., dummy]: r is -c[0], and c[1:-1] drops -r and
    the dummy together.  The seed is built first to last and reversed
    once.

    This is the only big-integer pass on the serving path; the pipeline
    calls it through `invariants.analyze`, the package's one memo per
    fraction.  The quotients equal `oracles.partial_quotients(p, q)` and
    the expansion the fixpoint that `reduce_expansion` reaches from the
    seed, the one shortest expansion with no -2 (held to both in the
    tests), without building the steps or the trace.
    """
    if q <= 0:
        raise DomainError(f"partial quotients need a positive denominator, got {_format_int(p)}/{_format_int(q)}")
    a0, y = divmod(p, q)
    x = q  # Euclid's pair is (x, y), with y the remainder
    cf = [a0]
    seed = []
    bump = 0  # true after an even-position 1 or 2, which raises the next odd-position term by 1
    while y:  # x > y here
        x -= y
        if x < y:
            a = 1
        else:
            a, x = divmod(x, y)
            a += 1
        cf.append(a)
        if not x:
            seed.append(a + bump)
            break
        y -= x
        if y < x:
            b = 1
        else:
            b, y = divmod(y, x)
            b += 1
        cf.append(b)
        seed.append(a + bump if b > 2 else a + bump + 1)  # an even-position 1 or 2 raises its left neighbour too
        if b != 1:
            seed.append(-b if b > 2 else 2)
        bump = b < 3
    # A dummy right neighbour for the last coefficient: each tail form is the interior
    # form with a right neighbour, and any integer serves, as the rules read only c.
    seed.append(0)
    seed.reverse()  # popped from the end, so the first coefficient comes first
    c = [-a0, seed.pop()]  # -r is no site, so the first coefficient needs no test
    _settle(c, seed)
    return tuple(cf), Expansion(-c[0], tuple(c[1:-1]))


def format_trace(trace: ReductionTrace) -> str:
    """One line per step: `rule pos eps m | resulting-expansion`."""
    lines = []
    for step, result in trace.steps:
        lines.append(
            f"{step.rule.value} {step.position} {step.epsilon} {step.block_length}"
            f" | {format_expansion(result)}"
        )
    return "\n".join(lines)
