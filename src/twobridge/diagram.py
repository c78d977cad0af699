"""Depth on the Farey diagram and the structure of shortest expansions.

Vertices of the diagram are Q together with 1/0; two fractions a/b, c/d
are joined by an edge iff |ad - bc| = 1, and each edge spans a triangle
with the mediant (a+c)/(b+d).  Depth is 0 on Z and 1/0 and one more than
the shallower Farey parent elsewhere; it equals the minimal length of a
subtractive continued fraction expansion of the vertex, so `depth` is
the length of the reduced expansion that the memo `invariants.analyze`
keeps.  The Farey routes that hold it to that equality, the parent
recursion and the mediant walk, are in `twobridge.oracles`.

`ShortestSet` keeps only T, the reduced expansion, and reads every
shortest expansion off it.  The paper's odd-type rule over such a set
is a cross-check kept in `twobridge.oracles`, not a serving view, as is
the list of a member's +-2 positions (`oracles.rectangle_positions`)
that the breadth-first closure under rectangle moves walks.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cached_property

from .core import Expansion, ExtendedRational, _format_int, _set_field, _Value
from .errors import DomainError, PatternMatchError
from .invariants import analyze

__all__ = [
    "depth",
    "rectangle_move",
    "ShortestSet",
    "all_shortest_expansions",
]


def depth(x: ExtendedRational) -> int:
    """Depth of a vertex: 0 on Z and 1/0, min(parents) + 1 elsewhere.

    It equals the minimal expansion length, so it is 0 for 1/0 and the
    length of the memoized reduced expansion otherwise; after the knot's
    report it makes no pass of its own.  `oracles.depth_by_parents` and
    `oracles.depth_by_mediant_walk` are the Farey routes to the same
    number.
    """
    if x.is_infinite:
        return 0
    return len(analyze(x.numerator, x.denominator)[1])


def rectangle_move(e: Expansion, position: int) -> Expansion:
    """Flip the path across the rectangle at a +-2 coefficient.

    [...,a,2e,b,...] = [...,a-e,-2e,b-e,...]; preserves value and length
    exactly and is an involution at the same position.

    The edit is this interior form on a padded copy, as in
    `reduction._splice`: -r stands left of the head and a dummy right of
    the tail, and the ends are then trimmed, the new head negated into
    the integer part and the dummy dropped.
    """
    c = e.coefficients
    j = position - 1
    if not 0 <= j < len(c):
        raise PatternMatchError(f"rectangle move position {_format_int(position)} out of range for {e}")
    if abs(c[j]) != 2:
        raise PatternMatchError(f"rectangle move needs coefficient +-2 at position {position} in {e}")
    eps = c[j] // 2
    t = (-e.integer_part,) + c + (0,)
    t = t[:j] + (t[j] - eps, -2 * eps, t[j + 2] - eps) + t[j + 3 :]
    return Expansion(-t[0], t[1:-1])


class ShortestSet(_Value):
    """All shortest expansions of one fraction, kept as an automaton over T = `reduced`.

    T is the member with no -2.  Every member is T - A x for a 0/1 vector
    x, where A is tridiagonal with 4 on the diagonal and 1 beside it, and
    the integer part is r + x_1: a rectangle move at j toggles x_j.  x is
    0 where T_j is not in {2, 3, 4}, and T - A x is a member iff it is a
    fixpoint of the three rewrite rules: no 0, no +-1 and no block
    2e,3e,...,3e,2e.  The edges at j depend on T_j only through its
    letter in {2, 3, 4, 5, >=6, -3, <=-4}, and the tests check every T of
    length 1 to 5 over one value per letter, {-4, -3, 2, 3, 4, 5, 6},
    against the breadth-first closure under rectangle moves: the set,
    its size and its text order agree.  Not proved: runs of 3e longer
    than that window, which a pumping argument over `open` would
    cover.  The automaton reads T from the left.  Before
    position j its state is (x_(j-1), x_j, open), where open is the sign
    e of an unfinished 2e,3e,...,3e ending at j-1, or 0; choosing x_(j+1)
    fixes c_j = T_j - 4 x_j - x_(j-1) - x_(j+1), and the edge is rejected
    when c_j is 0 or +-1 or would close a block (c_j = 2 open).  A
    forward pass keeps the reachable states and a backward pass drops
    those that cannot finish, so each path left is one member.

    A member's text is a sequence of tokens: the prefix "r+[" (or "["),
    then each coefficient with its "," or "]".  No token is a prefix of
    another and every member has as many, so text order is token order,
    and each state keeps its edges in the order of their tokens.

    A copy or a pickle holds the one field only, as the base makes it: the
    cached automaton nests as deep as T is long, too deep for pickle.
    """

    _FIELDS = ("reduced",)

    def __init__(self, reduced: Expansion):
        _set_field(self, "reduced", reduced)

    @cached_property
    def _automaton(self) -> tuple[int, list]:
        """The number of members and the pruned automaton's first node.

        Layer 0 leaves the start by edges labelled with the integer part
        r + x_1; layer j + 1 leaves the states before position j by edges
        labelled c_j.  A node is the list of its live edges in token order,
        each (label, token, next node); the last layer leads to the empty
        node.
        """
        t = self.reduced.coefficients
        moves = [(0, 1) if 2 <= v <= 4 else (0,) for v in t] + [(0,)]
        r = self.reduced.integer_part
        layers = [[(None, [(r + x, (0, x, 0)) for x in moves[0]])]]
        states = {(0, x, 0) for x in moves[0]}
        for tj, ys in zip(t, moves[1:]):
            layer, after = [], set()
            for s in states:
                a, b, o = s
                edges = []
                for y in ys:
                    c = tj - 4 * b - a - y
                    if not -1 <= c <= 1 and c != 2 * o:
                        to = (b, y, 1 if c == 2 else -1 if c == -2 else o if c == 3 * o else 0)
                        edges.append((c, to))
                        after.add(to)
                layer.append((s, edges))
            layers.append(layer)
            states = after
        below = dict.fromkeys(states, (1, []))
        ends = ["+["] + [","] * (len(t) - 1) + ["]"]
        for layer, end in zip(reversed(layers), reversed(ends)):
            above = {}
            for s, edges in layer:
                size, node = 0, []
                for c, to in edges:
                    if to in below:
                        count, following = below[to]
                        size += count
                        # only an integer part is ever 0, and "0+[" is written "["
                        node.append((c, _format_int(c) + end if c else "[", following))
                if node:
                    if len(node) == 2 and node[1][1] < node[0][1]:
                        node.reverse()
                    above[s] = size, node
            below = above
        return below[None]

    @property
    def size(self) -> int:
        return self._automaton[0]

    def _paths(self, field: int) -> Iterator[list]:
        """Field 0 (labels) or 1 (tokens) of the edges along each path, in token order.

        A depth-first walk without recursion; one list is reused, so each
        path must be read before the next is asked for.
        """
        path, forks = [], []  # forks: (path length, later edge) at each fork passed
        node = self._automaton[1]
        while True:
            while node:
                if len(node) == 2:
                    forks.append((len(path), node[1]))
                edge = node[0]
                path.append(edge[field])
                node = edge[2]
            yield path
            if not forks:
                return
            j, edge = forks.pop()
            del path[j:]
            path.append(edge[field])
            node = edge[2]

    @staticmethod
    def _member(labels: list[int]) -> Expansion:
        return Expansion(labels[0], tuple(labels[1:]))

    @cached_property
    def expansions(self) -> frozenset[Expansion]:
        """Every member, built on first use: the class may be exponentially large."""
        return frozenset(map(self._member, self._paths(0)))

    def least(self) -> Expansion:
        """The member whose text is least: the first edge at every node."""
        return self._member(next(self._paths(0)))

    def sorted_text(self) -> list[str]:
        """The text of every member, in text order, with no sort."""
        return ["".join(tokens) for tokens in self._paths(1)]


def all_shortest_expansions(x: ExtendedRational) -> ShortestSet:
    """The shortest expansions of x, read off its reduced expansion.

    T comes from the memo `invariants.analyze`, one pass over the partial
    quotients of x.  The automaton behind the class has at most 12
    states per position, so `size` and `least()` cost O(len T) and the
    walks O(len T) per member.  `oracles` keeps the breadth-first closure
    under rectangle moves as the reference.
    """
    if x.is_infinite or x.is_integer:
        raise DomainError(f"shortest expansions are defined for non-integer finite values, got {x}")
    return ShortestSet(analyze(x.numerator, x.denominator)[1])
