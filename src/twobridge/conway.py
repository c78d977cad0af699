"""Conway diagrams whose checkerboard surfaces realize the crosscap number.

Starting from a shortest odd-type expansion C = [a_1, b_1, a_2, ...] of
length gamma, the twist regions

    [a_1 - 1, -1, b_1, 1, a_2, -1, b_2, 1, ...]

(ending with a_k + 1 for odd gamma, with the literal 1 for even gamma)
describe a diagram of the same knot with 2*gamma - 1 or 2*gamma regions.
The interleaving inserts unit twists that cancel under the unit-removal
rewrite, so the region list evaluates, as a subtractive continued
fraction, to the same value as C.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Expansion,
    KnotId,
    _join_ints,
    eval_expansion,
    knot_from_fraction,
    same_knot,
)
from .diagram import rectangle_move, rectangle_positions
from .errors import DomainError, InternalError
from .invariants import invariant_report

__all__ = [
    "ConwayDiagram",
    "odd_shortest_expansion",
    "conway_diagram",
    "diagram_from_expansion",
    "verify_diagram",
    "format_diagram",
]


@dataclass(frozen=True)
class ConwayDiagram:
    """Twist regions of a Conway diagram, with the expansion it came from.

    source_expansion is None for diagrams entered directly rather than
    built from an expansion.
    """

    twist_regions: tuple[int, ...]
    source_expansion: Expansion | None = None
    mirrored: bool = False


def odd_shortest_expansion(k: KnotId) -> Expansion:
    """An odd-type expansion of minimal odd-type length (= the crosscap number).

    If the reduced expansion is odd type it is returned as is; if it is
    even type with a +-2, one rectangle move at the rightmost +-2 makes
    it odd; otherwise a tail coefficient is split as [...,a] = [...,a+1,1],
    giving length n+1.
    """
    if k.q == 1:
        raise DomainError("the unknot has no odd-type expansion")
    reduced = invariant_report(k).reduced
    if reduced.odd_type:
        return reduced
    positions = rectangle_positions(reduced)
    if positions:
        moved = rectangle_move(reduced, positions[-1])
        if not moved.odd_type:
            raise InternalError(f"rectangle move of {reduced} at a +-2 gave even-type {moved}")
        return moved
    c = reduced.coefficients
    return Expansion(reduced.integer_part, c[:-1] + (c[-1] + 1, 1))


def _interleave(c: tuple[int, ...]) -> list[int]:
    out = [c[0] - 1, -1]
    last = len(c) - 1
    for i in range(1, len(c)):
        if i == last and len(c) % 2 == 1:
            out.append(c[i] + 1)
        else:
            out.append(c[i])
            out.append(1 if i % 2 == 1 else -1)
    return out


def diagram_from_expansion(source: Expansion) -> ConwayDiagram:
    """Build the checkerboard diagram of a shortest odd-type expansion.

    The source must have nonzero coefficients, at most one of them +-1.
    A single twist region suffices for length 1.  If the interleaved form
    would contain a zero region (first entry a_1 - 1 or, for odd length,
    final entry a_k + 1), the construction is applied to the mirror image
    and mirrored back; the source has at most one unit coefficient, so
    the fallback cannot hit a zero itself.
    """
    c = source.coefficients
    if not c:
        raise DomainError("cannot build a diagram from an empty expansion")
    if 0 in c:
        raise DomainError(f"{source} has a zero coefficient")
    if sum(1 for v in c if abs(v) == 1) > 1:
        raise DomainError(f"{source} has more than one unit coefficient")
    if len(c) == 1:
        return ConwayDiagram((c[0],), source)
    regions = _interleave(c)
    mirrored = False
    if 0 in regions:
        regions = [-t for t in _interleave(tuple(-v for v in c))]
        mirrored = True
    if 0 in regions:
        raise InternalError(f"the diagram of {source} has a zero twist region")
    return ConwayDiagram(tuple(regions), source, mirrored)


def conway_diagram(k: KnotId) -> ConwayDiagram:
    """Diagram of k carrying a minimal-genus non-orientable checkerboard surface.

    Built from the reduced expansion of the knot's memoized report.
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
    gamma is the crosscap number of k, read off the knot's memoized report.
    """
    regions = d.twist_regions
    if not regions or 0 in regions:
        return False
    value = eval_expansion(Expansion(0, regions))
    if k.q == 1:
        return value.is_integer
    gamma = invariant_report(k).crosscap
    if len(regions) != (2 * gamma - 1 if gamma % 2 == 1 else 2 * gamma):
        return False
    if value.is_infinite or value.is_integer or value.denominator % 2 == 0:
        return False
    return same_knot(knot_from_fraction(value), k)


def format_diagram(d: ConwayDiagram) -> str:
    """Serialize as C(t1,...,tk), with suffix !m when the mirror fallback fired."""
    return f"C({_join_ints(d.twist_regions)})" + ("!m" if d.mirrored else "")
