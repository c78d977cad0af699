"""Conway diagrams whose checkerboard surfaces realize the crosscap number.

Starting from a shortest odd-type expansion C = [a_1, b_1, a_2, ...] of
length gamma, the twist regions

    [a_1 - 1, -1, b_1, 1, a_2, -1, b_2, 1, ...]

(ending with a_k + 1 for odd gamma, with the literal 1 for even gamma)
describe a diagram of the same knot with 2*gamma - 1 or 2*gamma regions.
The interleaving inserts unit twists that cancel under the unit-removal
rewrite, so the region list evaluates, as a subtractive continued
fraction, to the same value as C.  A diagram is written C(t1,...,tk);
a source whose interleaving has a zero region is refused, and the
source `conway_diagram` picks never has one.

The source reads the coefficient that fires the crosscap rule from the
memo `invariants.analyze`, which applied the rule once, when it missed,
and the verification reads gamma from `invariants.crosscap`, which reads
the same memo; neither scans the reduced expansion for it.
"""

from __future__ import annotations

from .core import Expansion, KnotId, _continuant, _join_ints, _set_field, _Value
from .diagram import rectangle_move
from .errors import DomainError, InternalError
from .invariants import analyze, crosscap

__all__ = [
    "ConwayDiagram",
    "odd_shortest_expansion",
    "conway_diagram",
    "diagram_from_expansion",
    "verify_diagram",
    "format_diagram",
]


class ConwayDiagram(_Value):
    """Twist regions of a Conway diagram, with the expansion it came from.

    source_expansion is None for diagrams entered directly rather than
    built from an expansion.
    """

    __slots__ = ("twist_regions", "source_expansion")

    def __init__(self, twist_regions: tuple[int, ...], source_expansion: Expansion | None = None):
        _set_field(self, "twist_regions", twist_regions)
        _set_field(self, "source_expansion", source_expansion)


def odd_shortest_expansion(k: KnotId) -> Expansion:
    """An odd-type expansion of minimal odd-type length (= the crosscap number).

    It branches on the coefficient that fired the rule (`analyze`).  If
    that is odd, the reduced expansion T is odd type and returned as is.
    If it is T's rightmost +-2 (T is even type), one rectangle move there
    makes T odd: its neighbours change by -+1, and T has at least two
    coefficients, since [2] is r + 1/2, which names no knot.  If the
    rule did not fire, the last coefficient is split as
    [...,a] = [...,a+1,1], giving length n+1.
    """
    if k.q == 1:
        raise DomainError("the unknot has no odd-type expansion")
    _, reduced, fired = analyze(k.p, k.q)
    c = reduced.coefficients
    if fired is None:
        return Expansion(reduced.integer_part, c[:-1] + (c[-1] + 1, 1))
    if c[fired] & 1:
        return reduced
    if len(c) == 1:
        raise InternalError(f"{reduced} is r + 1/2, whose rectangle move gives no odd type")
    return rectangle_move(reduced, fired + 1)


def _interleave(c: tuple[int, ...]) -> list[int]:
    """[c_1 - 1, -1, c_2, 1, c_3, -1, ...], ending c_k + 1 for odd length k.

    At k = 1 the -1 on the first region and the +1 on the last cancel:
    the one region is c_1.
    """
    n = len(c)
    out = ([0, -1, 0, 1] * ((n + 1) // 2))[: 2 * n - n % 2]
    out[::2] = c
    out[0] -= 1
    if n % 2:
        out[-1] += 1
    return out


def diagram_from_expansion(source: Expansion) -> ConwayDiagram:
    """Build the checkerboard diagram of a shortest odd-type expansion.

    The source must have nonzero coefficients, at most one of them +-1.
    Length 1 gives the single twist region c_1.  A source whose
    interleaved form has a zero region (first entry a_1 - 1 with a_1 = 1
    or, for odd length, final entry a_k + 1 with a_k = -1) is refused
    with `DomainError`, naming the region's position.
    """
    c = source.coefficients
    if not c:
        raise DomainError("cannot build a diagram from an empty expansion")
    if 0 in c:
        raise DomainError(f"{source} has a zero coefficient")
    if c.count(1) + c.count(-1) > 1:
        raise DomainError(f"{source} has more than one unit coefficient")
    regions = _interleave(c)
    if 0 in regions:
        raise DomainError(f"the diagram of {source} has a zero twist region at position {regions.index(0) + 1}")
    return ConwayDiagram(tuple(regions), source)


def conway_diagram(k: KnotId) -> ConwayDiagram:
    """Diagram of k carrying a minimal-genus non-orientable checkerboard surface.

    Built from the knot's memoized reduced expansion (`analyze`).
    The source never gives a zero region, which needs a first coefficient
    1 or, at odd length, a last coefficient -1.  `odd_shortest_expansion`
    returns one of three things:

    - T, the reduced expansion itself, which has no 0 and no +-1;
    - T after one rectangle move at its rightmost 2 (T has no -2): only
      the two neighbours change, each by -1, and one that became +-1
      was a 2 (T has no 0), so T would hold the block 2,2;
    - T with its last coefficient a split into (a+1, 1): the first
      coefficient is T's or a+1, neither of them 1, and the last is +1.
    """
    if k.q == 1:
        raise DomainError("the unknot has no crosscap-realizing diagram")
    return diagram_from_expansion(odd_shortest_expansion(k))


def verify_diagram(d: ConwayDiagram, k: KnotId) -> bool:
    """Check that a diagram presents the knot k and realizes its crosscap.

    The twist-region list of a Conway diagram, read as a subtractive
    continued fraction, evaluates to a fraction equivalent to p/q (the
    integer part and p <-> p^-1 ambiguities are absorbed by knot
    equivalence).  Also checks that no region is zero and that the region
    count is 2*gamma - 1 for odd gamma and 2*gamma for even gamma, where
    gamma is `invariants.crosscap(k)`.

    The value is w/u, with (u, w) from `core._continuant`: in lowest
    terms, with u >= 0.  It names S(q, p) iff u = q and w mod q is p or
    p^-1; p^-1 is tested as w * p = 1 mod q, which needs no inverse.
    """
    regions = d.twist_regions
    if not regions or 0 in regions:
        return False
    u, w = _continuant(regions)
    q = k.q
    if q == 1:
        return u == 1
    gamma = crosscap(k)
    if len(regions) != (2 * gamma - 1 if gamma % 2 == 1 else 2 * gamma):
        return False
    w %= q
    return u == q and (w == k.p or w * k.p % q == 1)


def format_diagram(d: ConwayDiagram) -> str:
    """Serialize as C(t1,...,tk)."""
    return f"C({_join_ints(d.twist_regions)})"
