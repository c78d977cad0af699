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

from collections import deque
from dataclasses import dataclass

from .core import Expansion, ExtendedRational, partial_quotients, seed_expansion
from .errors import DomainError, PatternMatchError
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


@dataclass(frozen=True)
class ShortestSet:
    """All shortest expansions of one fraction, closed under rectangle moves."""

    value: ExtendedRational
    expansions: frozenset[Expansion]

    @property
    def has_odd_type(self) -> bool:
        return any(e.odd_type for e in self.expansions)

    def sorted(self) -> list[Expansion]:
        return sorted(self.expansions, key=str)


def all_shortest_expansions(x: ExtendedRational) -> ShortestSet:
    """Breadth-first closure of one reduced expansion under rectangle moves.

    Rectangle moves connect all shortest expansions of a fraction, so a
    single seed reaches the whole (finite) set.
    """
    if x.is_infinite or x.is_integer:
        raise DomainError(f"shortest expansions are defined for non-integer finite values, got {x}")
    seed, _ = reduce_expansion(seed_expansion(x))
    seen = {seed}
    frontier = deque([seed])
    while frontier:
        e = frontier.popleft()
        for pos in rectangle_positions(e):
            neighbor = rectangle_move(e, pos)
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    return ShortestSet(x, frozenset(seen))
