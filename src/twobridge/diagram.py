"""Depth on the Farey diagram and the structure of shortest expansions.

Vertices of the diagram are Q together with 1/0; two fractions a/b, c/d
are joined by an edge iff |ad - bc| = 1, and each edge spans a triangle
with the mediant (a+c)/(b+d).  Depth is 0 on Z and 1/0 and one more than
the shallower Farey parent elsewhere; it equals the minimal length of a
subtractive continued fraction expansion of the vertex, which makes it
an oracle for the rewrite system that is computed along a completely
independent route: the edge path read off the partial quotients of the
regular continued fraction, with no rewriting at all.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from math import prod

from .core import Expansion, ExtendedRational, _format_int, _join_ints, partial_quotients, seed_expansion
from .errors import DomainError, PatternMatchError
from .invariants import Boundary, _crosscap_and_boundary
from .reduction import reduce_expansion

__all__ = [
    "depth",
    "rectangle_move",
    "rectangle_positions",
    "ShortestSet",
    "all_shortest_expansions",
]


def depth(x: ExtendedRational) -> int:
    """Depth of a vertex: 0 on Z and 1/0, min(parents) + 1 elsewhere.

    Read off the regular continued fraction a_0 + [0; a_1, ..., a_n] of
    x.  The walk down the diagram from the interval 0/1 < x - a_0 < 1/1
    makes runs of a_1-1, a_2, ..., a_(n-1), a_n-1 mediant steps (a_1-2
    for n = 1); odd runs move the right end of the Farey interval, even
    runs the left end.  A run of k >= 1 steps leaves its end at depth
    min(depth(other end) + 1, depth(it) + k), and the two ends are
    neighbours whose depths differ by at most 1, so for k >= 2 that is
    the other end's depth plus 1.  The answer is one more than the
    shallower end.  Only the Euclid pass touches big integers.
    """
    if x.is_infinite:
        return 0
    quotients = partial_quotients(x.numerator, x.denominator)
    n = len(quotients) - 1
    if n == 0:
        return 0
    left = right = 0
    for i in range(1, n + 1):
        k = quotients[i] - (i == 1) - (i == n)
        if k == 0:
            continue
        if i % 2:
            right = left + 1 if k > 1 else min(left, right) + 1
        else:
            left = right + 1 if k > 1 else min(left, right) + 1
    return min(left, right) + 1


def rectangle_move(e: Expansion, position: int) -> Expansion:
    """Flip the path across the rectangle at a +-2 coefficient.

    [...,a,2e,b,...] = [...,a-e,-2e,b-e,...] and its boundary forms;
    preserves value and length exactly and is an involution at the
    same position.
    """
    c = e.coefficients
    n = len(c)
    j = position - 1
    if not 0 <= j < n:
        raise PatternMatchError(f"rectangle move position {position} out of range for {e}")
    if abs(c[j]) != 2:
        raise PatternMatchError(f"rectangle move needs coefficient +-2 at position {position} in {e}")
    eps = c[j] // 2
    r = e.integer_part
    if n == 1:
        return Expansion(r + eps, (-2 * eps,))
    if j == 0:
        return Expansion(r + eps, (-2 * eps, c[1] - eps) + c[2:])
    if j == n - 1:
        return Expansion(r, c[: j - 1] + (c[j - 1] - eps, -2 * eps))
    return Expansion(r, c[: j - 1] + (c[j - 1] - eps, -2 * eps, c[j + 1] - eps) + c[j + 2 :])


def rectangle_positions(e: Expansion) -> list[int]:
    """1-based positions carrying a +-2 coefficient."""
    return [i + 1 for i, v in enumerate(e.coefficients) if abs(v) == 2]


@lru_cache(maxsize=128)
def _run_states(t: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The bit states of one run reachable from all zeros, in increasing order.

    Position j may toggle iff t_j - x_(j-1) - x_(j+1) = 2; the positions
    beside the run never toggle, so they count as 0.  Short runs such as
    (2,), (2, 3) and (2, 4, 2) recur from knot to knot (59 distinct runs
    among the 292 of the 362 table knots), and the search costs about as
    much as the rest of a small class, so the last 128 results are kept.
    """
    start = (0,) * len(t)
    padded = (0,) + start + (0,)
    seen = {start}
    frontier = [padded]
    while frontier:
        x = frontier.pop()
        for j, tj in enumerate(t, 1):
            if tj - x[j - 1] - x[j + 1] == 2:
                y = x[:j] + (1 - x[j],) + x[j + 1 :]
                if y[1:-1] not in seen:
                    seen.add(y[1:-1])
                    frontier.append(y)
    return tuple(sorted(seen))


@dataclass(frozen=True)
class ShortestSet:
    """All shortest expansions of one fraction, kept as the structure of the class.

    With T = `reduced`, the member with no -2, every member is T - A x
    for a 0/1 vector x, where A is tridiagonal with 4 on the diagonal and
    1 beside it, and the integer part is r + x_1: a rectangle move at j
    toggles x_j.  Position j may toggle iff T_j - x_(j-1) - x_(j+1) = 2,
    the same condition in both directions, and T has no 0, +-1 or -2, so
    x never leaves {0, 1}.  Only positions with T_j in {2, 3, 4} ever
    toggle, and the others separate them, so the class is the product of
    the states each maximal run of such positions reaches on its own.
    `runs` holds (start, states) for every run with more than one state;
    start is the 0-based index of its first position.

    Methods that take bits x read the bit of position j at x[j + 2]; the
    padding around the positions stays 0.
    """

    value: ExtendedRational
    reduced: Expansion
    runs: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...]

    @property
    def size(self) -> int:
        return prod(len(states) for _, states in self.runs)

    @property
    def has_odd_type(self) -> bool:
        """Whether some member has an odd coefficient, by the paper's rule on T.

        The rule holds on every class but that of r + 1/2, whose two
        members r + [2] and r+1 + [-2] are both even.
        """
        if self.reduced.coefficients == (2,):
            return False
        return _crosscap_and_boundary(self.reduced)[1] is Boundary.INCOMPRESSIBLE

    def _member(self, x: list[int]) -> Expansion:
        t = self.reduced.coefficients
        coeffs = tuple(tj - 4 * x[j + 2] - x[j + 1] - x[j + 3] for j, tj in enumerate(t))
        return Expansion(self.reduced.integer_part + x[2], coeffs)

    def _members(self) -> Iterator[Expansion]:
        x = [0] * (len(self.reduced) + 3)
        for combo in product(*(states for _, states in self.runs)):
            for (start, _), state in zip(self.runs, combo):
                x[start + 2 : start + 2 + len(state)] = state
            yield self._member(x)

    @cached_property
    def expansions(self) -> frozenset[Expansion]:
        """Every member, built on first use: the class may be exponentially large."""
        return frozenset(self._members())

    def _text(self, x: list[int], lo: int, hi: int) -> str:
        """Tokens lo to hi-1 of the member of x.

        Token -1 is the prefix "r+[" (or "[") and token j the coefficient
        at position j with its "," or "]".  No token is a prefix of
        another and every member has the same number of them, so text
        order is the order of the token tuples, and equally long slices
        compare as their tuples do.
        """
        t = self.reduced.coefficients
        text = ""
        if lo < 0 <= hi:
            r = self.reduced.integer_part + x[2]
            text = f"{_format_int(r)}+[" if r else "["
        if max(lo, 0) < hi:
            coeffs = [t[j] - 4 * x[j + 2] - x[j + 1] - x[j + 3] for j in range(max(lo, 0), hi)]
            text += _join_ints(coeffs) + ("]" if hi == len(t) else ",")
        return text

    def least(self) -> Expansion:
        """The member whose text is least, chosen run by run from the left.

        The tokens before a run's left side are fixed once the runs to
        its left are chosen.  From that side on, each token fixes the
        next bit of the run, so two states differ before the run's right
        side: the least text over the run's positions and its left side
        (the prefix, when the run starts at position 1) picks the state,
        whatever the runs to the right do.
        """
        if not self.runs:
            return self.reduced
        x = [0] * (len(self.reduced) + 3)
        for start, states in self.runs:
            end = start + len(states[0])
            texts = []
            for state in states:
                x[start + 2 : end + 2] = state
                texts.append((self._text(x, start - 1, end), state))
            x[start + 2 : end + 2] = min(texts)[1]
        return self._member(x)

    def sorted_text(self) -> list[str]:
        """The text of every member, in text order.

        Run i adds the tokens after run i-1 through its last position.
        They depend only on the last bit of run i-1 and the state of run
        i, so each is formatted once per pair, and a member's text is one
        piece per run and a tail.
        """
        x = [0] * (len(self.reduced) + 3)
        heads = [("", 0)]  # texts so far, each with the last bit of its last run
        lo = -1
        for start, states in self.runs:
            end = start + len(states[0])
            pieces = {}
            for bit in {bit for _, bit in heads}:
                x[lo + 1] = bit  # the last position of the run before
                fixed = self._text(x, lo, start - 1)
                for state in states:
                    x[start + 2 : end + 2] = state
                    pieces[bit, state] = fixed + self._text(x, start - 1, end)
            x[start + 2 : end + 2] = states[0]
            heads = [(head + pieces[bit, state], state[-1]) for head, bit in heads for state in states]
            lo = end
        tails = {}
        for bit in {bit for _, bit in heads}:
            x[lo + 1] = bit
            tails[bit] = self._text(x, lo, len(self.reduced))
        return sorted(head + tails[bit] for head, bit in heads)


def all_shortest_expansions(x: ExtendedRational) -> ShortestSet:
    """The shortest expansions of x, read off its reduced expansion.

    Only a run containing a 2 can move from all zeros, and each such
    run's states come from a search over its own bits, so the cost is
    the sum over runs, not the size of the class.  `oracles` keeps the
    breadth-first closure under rectangle moves as the reference.
    """
    if x.is_infinite or x.is_integer:
        raise DomainError(f"shortest expansions are defined for non-integer finite values, got {x}")
    reduced, _ = reduce_expansion(seed_expansion(x))
    t = reduced.coefficients
    runs = []
    end = 0
    for j, c in enumerate(t):
        if c == 2 and j >= end:  # a 2 not in the last run found: extend to its maximal run
            start, end = j, j + 1
            while start and 2 <= t[start - 1] <= 4:
                start -= 1
            while end < len(t) and 2 <= t[end] <= 4:
                end += 1
            runs.append((start, _run_states(t[start:end])))
    return ShortestSet(x, reduced, tuple(runs))
