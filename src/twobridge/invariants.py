"""Crosscap number, genus and boundary classification of 2-bridge knots.

The crosscap number of S(q,p) is read off the reduced expansion of p/q:
with n the reduced length, it is n when the expansion has an odd
coefficient or a +-2 (an odd-type shortest expansion exists), and n+1
otherwise.  The genus is half the length of the unique all-even
expansion.  A minimal-genus non-orientable spanning surface is
boundary-incompressible exactly when an odd-type shortest expansion
exists.

`analyze` is the package's one memo per fraction: it keeps the last
fraction's partial quotients, its reduced expansion and the index of
the coefficient that fires the rule (`_fired`), or None.  The rule is
applied once, when the memo misses; `crosscap`,
`boundary_classification`, `invariant_report` and
`conway.odd_shortest_expansion` read its index, `conway.verify_diagram`
reads `crosscap`, and `diagram.depth` and
`diagram.all_shortest_expansions` read the reduced expansion.  Only the
report and the genus views read the even runs, which the memo does not
keep.  `invariant_report` keeps no memo of its own.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import chain, islice

from .core import (
    Expansion,
    KnotId,
    _expansion_text,
    _format_int,
    _set_field,
    _Value,
    eval_expansion,
    format_expansion,
    knot_from_fraction,
)
from .errors import DomainError, InternalError
from .reduction import reduce_fraction

__all__ = [
    "Boundary",
    "InvariantReport",
    "PlumbingSurface",
    "even_expansion",
    "genus",
    "crosscap",
    "boundary_classification",
    "plumbing_surface",
    "family_k_mn",
    "invariant_report",
    "analyze",
]


class Boundary(Enum):
    INCOMPRESSIBLE = "BoundaryIncompressible"
    COMPRESSIBLE = "BoundaryCompressible"
    TRIVIAL = "Trivial"


class PlumbingSurface(_Value):
    """Surface plumbed from a row of twisted bands, one per coefficient."""

    __slots__ = ("bands", "first_betti", "orientable")

    def __init__(self, bands: tuple[int, ...], first_betti: int, orientable: bool):
        _set_field(self, "bands", bands)
        _set_field(self, "first_betti", first_betti)
        _set_field(self, "orientable", orientable)


class InvariantReport(_Value):
    """Every invariant of one knot; the even expansion is kept as its `_even_runs`."""

    __slots__ = ("knot", "crosscap", "genus", "reduced", "even_runs", "boundary")

    def __init__(
        self,
        knot: KnotId,
        crosscap: int,
        genus: int,
        reduced: Expansion,
        even_runs: tuple[int, tuple[tuple[int, int], ...]],
        boundary: Boundary,
    ):
        _set_field(self, "knot", knot)
        _set_field(self, "crosscap", crosscap)
        _set_field(self, "genus", genus)
        _set_field(self, "reduced", reduced)
        _set_field(self, "even_runs", even_runs)
        _set_field(self, "boundary", boundary)

    @property
    def odd_shortest_exists(self) -> bool:
        return self.boundary is Boundary.INCOMPRESSIBLE

    @property
    def even_expansion(self) -> Expansion:
        """The all-even expansion, spelled out from the runs on each read."""
        return _spell(*self.even_runs)

    def to_dict(self) -> dict:
        """The report as text and plain values; the fraction and the even expansion are written from their fields."""
        k = self.knot
        return {
            "knot": str(k),
            "fraction": f"{_format_int(k.p)}/{_format_int(k.q)}",  # p/q is in lowest terms, q > 0
            "crosscap": self.crosscap,
            "genus": self.genus,
            "reduced": format_expansion(self.reduced),
            "even_expansion": _format_runs(*self.even_runs),
            "odd_shortest_exists": self.odd_shortest_exists,
            "boundary": self.boundary.value,
        }


def _require_knot(k: KnotId):
    # KnotId construction already guarantees q odd and coprime.
    if k.q == 1:
        raise DomainError("operation is undefined for the unknot")


def _even_runs(k: KnotId, cf: tuple[int, ...]) -> tuple[tuple[int, tuple[tuple[int, int], ...]], int]:
    """The all-even expansion of k as its integer part and (coef, count) runs, and its length.

    With p' = p or p - q, whichever is even, and s its sign, read the
    partial quotients a_1, a_2, ... of q/|p'|.  An even a_i gives s*a_i and
    flips s (the next value is -s*[a_(i+1); ...]).  An odd a_i gives
    s*(a_i + 1), then a_(i+1) - 1 copies of 2s, and adds 1 to a_(i+2): the
    next value is s*[1; a_(i+1) - 1, a_(i+2), ...].  So the runs cost
    O(len CF), although T(2,q) has q - 1 coefficients.

    The quotients of q/|p'| come from cf, those of p/q = [0; a_1, ..., a_n]
    that the reduced expansion was read off: for even p they are a_1,
    ..., a_n; for odd p, q/(q - p) = [1; a_1 - 1, a_2, ...], or
    [a_2 + 1; a_3, ...] when a_1 = 1 (then n >= 2, as p < q).

    The length is counted as the runs are emitted, so the genus needs no
    second walk over them.
    """
    if k.q == 1:
        return (0, ()), 0
    r, tail = (1, k.p - k.q) if k.p % 2 else (0, k.p)
    s = 1 if tail > 0 else -1
    if tail > 0:
        head, rest = (), 1
    elif cf[1] > 1:
        head, rest = (1, cf[1] - 1), 2
    else:
        head, rest = (cf[2] + 1,), 3
    quotients = chain(head, islice(cf, rest, None))
    runs = []
    carry = length = 0
    for a in quotients:
        a += carry
        if a % 2 == 0:
            runs.append((s * a, 1))
            s, carry = -s, 0
            length += 1
            continue
        twos = next(quotients, None)
        if twos is None:
            raise InternalError(f"the continued fraction of {_format_int(k.q)}/{_format_int(abs(tail))} ends in an odd quotient")
        runs.append((s * (a + 1), 1))
        if twos > 1:
            runs.append((2 * s, twos - 1))
        carry = 1
        length += twos
    return (r, tuple(runs)), length


def _spell(r: int, runs) -> Expansion:
    """The expansion r + [c, ..., c, ...] with each (c, m) of runs written out m times."""
    coeffs = []
    for c, m in runs:
        coeffs += [c] * m
    return Expansion(r, tuple(coeffs))


def _format_runs(r: int, runs) -> str:
    """`format_expansion` of `_spell(r, runs)`, with each run's coefficient formatted once."""
    return _expansion_text(r, "".join((_format_int(c) + ",") * m for c, m in runs)[:-1])


def even_expansion(k: KnotId) -> Expansion:
    """The unique expansion of k with all coefficients even, spelled out from `_even_runs`."""
    return _spell(*_even_runs(k, analyze(k.p, k.q)[0])[0])


def genus(k: KnotId) -> int:
    """Minimal genus of an orientable spanning surface: half the even length; 0 for the unknot."""
    return invariant_report(k).genus


def _fired(c: tuple[int, ...]) -> int | None:
    """The index of the coefficient that fires the paper's rule on the expansion c, or None.

    An odd-type shortest expansion exists iff the reduced expansion has
    an odd coefficient or a +-2: then the crosscap number is the reduced
    length n and the surface is boundary-incompressible, otherwise n+1
    and compressible.  The index is that of the first odd coefficient,
    else that of the rightmost +-2, where `conway.odd_shortest_expansion`
    makes its rectangle move.
    """
    for i, v in enumerate(c):
        if v & 1:
            return i
    for i in range(len(c) - 1, -1, -1):
        if c[i] == 2 or c[i] == -2:
            return i
    return None


@lru_cache(maxsize=1)
def analyze(p: int, q: int) -> tuple[tuple[int, ...], Expansion, int | None]:
    """The partial quotients of p/q, its reduced expansion and the index `_fired` reads off it.

    One Euclid loop, which reduces the seed as the quotients come
    (`reduction.reduce_fraction`), and one application of the rule.  The
    last fraction's triple is kept in a one-slot memo, so the invariant
    report, the Conway diagram and its verification, `depth` and the
    shortest expansions of one fraction share a single pass of each.
    The values are immutable, so callers on several threads may share
    them.  `analyze.__wrapped__` is the unmemoized call.
    """
    cf, reduced = reduce_fraction(p, q)
    return cf, reduced, _fired(reduced.coefficients)


def crosscap(k: KnotId) -> int:
    """Minimal first Betti number of a non-orientable spanning surface; 0 for the unknot.

    The reduced length n when the rule fires, else n+1.
    """
    if k.q == 1:
        return 0
    _, reduced, fired = analyze(k.p, k.q)
    return len(reduced) + (fired is None)


def _no_two(even_runs: tuple[int, tuple[tuple[int, int], ...]]) -> bool:
    """Whether the all-even expansion with these `_even_runs` has no +-2 coefficient."""
    return all(abs(c) != 2 for c, _ in even_runs[1])


def boundary_classification(k: KnotId) -> Boundary:
    """Whether minimal-genus non-orientable spanning surfaces of k are boundary-incompressible."""
    _require_knot(k)
    return Boundary.COMPRESSIBLE if analyze(k.p, k.q)[2] is None else Boundary.INCOMPRESSIBLE


def plumbing_surface(e: Expansion) -> PlumbingSurface:
    """Band data of the plumbing surface spanned by an expansion."""
    if any(c == 0 for c in e.coefficients):
        raise DomainError("plumbing surfaces need nonzero twist counts")
    return PlumbingSurface(e.coefficients, len(e), not e.odd_type)


def family_k_mn(m: int, n: int) -> KnotId:
    """The knot of the expansion [m, 4, 4, ..., 4] of length n."""
    if n < 1 or m < 3:
        raise DomainError(f"family needs m >= 3 and n >= 1, got m={_format_int(m)}, n={_format_int(n)}")
    value = eval_expansion(Expansion(0, (m,) + (4,) * (n - 1)))
    return knot_from_fraction(value)


def invariant_report(k: KnotId) -> InvariantReport:
    """Every invariant of one knot, in O(len CF) after the Euclid pass.

    The partial quotients, the reduced expansion and the coefficient
    that fires the rule come from the memo `analyze`, whose one reduction
    pass costs O(len CF), not O(q); the crosscap and boundary follow from
    that coefficient, or its absence, as in `crosscap`; the genus is half
    the length that `_even_runs` counts over the same quotients, and the
    report keeps the runs in place of the spelled-out even expansion.
    """
    if k.q == 1:
        return InvariantReport(k, 0, 0, Expansion(0, ()), (0, ()), Boundary.TRIVIAL)
    cf, reduced, fired = analyze(k.p, k.q)
    runs, length = _even_runs(k, cf)
    boundary = Boundary.COMPRESSIBLE if fired is None else Boundary.INCOMPRESSIBLE
    return InvariantReport(k, len(reduced) + (fired is None), length // 2, reduced, runs, boundary)
