"""Crosscap number, genus and boundary classification of 2-bridge knots.

The crosscap number of S(q,p) is read off the reduced expansion of p/q:
with n the reduced length, it is n when the expansion has an odd
coefficient or a +-2 (an odd-type shortest expansion exists), and n+1
otherwise.  The genus is half the length of the unique all-even
expansion.  A minimal-genus non-orientable spanning surface is
boundary-incompressible exactly when an odd-type shortest expansion
exists.

`invariant_report` derives all of them at once and keeps the last
knot's report in a one-slot memo; `crosscap`, `genus`,
`boundary_classification`, `gamma_equals_2g_plus_1` and the Conway
diagram read its fields.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import chain, islice

from .core import (
    Expansion,
    KnotId,
    _format_int,
    _set_field,
    _Value,
    eval_expansion,
    fraction_of,
    format_expansion,
    knot_from_fraction,
    partial_quotients,
)
from .errors import DomainError, InternalError
from .reduction import reduced_from_quotients

__all__ = [
    "Boundary",
    "InvariantReport",
    "PlumbingSurface",
    "even_expansion",
    "genus",
    "crosscap",
    "gamma_equals_2g_plus_1",
    "boundary_classification",
    "plumbing_surface",
    "family_k_mn",
    "invariant_report",
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
        return {
            "knot": str(self.knot),
            "fraction": str(fraction_of(self.knot)),
            "crosscap": self.crosscap,
            "genus": self.genus,
            "reduced": format_expansion(self.reduced),
            "even_expansion": format_expansion(self.even_expansion),
            "odd_shortest_exists": self.odd_shortest_exists,
            "boundary": self.boundary.value,
        }

    def to_lines(self) -> list[str]:
        return [f"{key}={value}" for key, value in self.to_dict().items()]


def _require_knot(k: KnotId):
    # KnotId construction already guarantees q odd and coprime.
    if k.q == 1:
        raise DomainError("operation is undefined for the unknot")


def _even_runs(k: KnotId) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The all-even expansion of k as its integer part and (coef, count) runs.

    With p' = p or p - q, whichever is even, and s its sign, read the
    partial quotients a_1, a_2, ... of q/|p'|.  An even a_i gives s*a_i and
    flips s (the next value is -s*[a_(i+1); ...]).  An odd a_i gives
    s*(a_i + 1), then a_(i+1) - 1 copies of 2s, and adds 1 to a_(i+2): the
    next value is s*[1; a_(i+1) - 1, a_(i+2), ...].  So the runs cost
    O(len CF), although T(2,q) has q - 1 coefficients.

    The quotients of q/|p'| come from those of p/q = [0; a_1, ..., a_n],
    the same memoized Euclid pass as the reduced expansion: for even p
    they are a_1, ..., a_n; for odd p, q/(q - p) = [1; a_1 - 1, a_2, ...],
    or [a_2 + 1; a_3, ...] when a_1 = 1 (then n >= 2, as p < q).
    """
    if k.q == 1:
        return 0, ()
    r, tail = (1, k.p - k.q) if k.p % 2 else (0, k.p)
    s = 1 if tail > 0 else -1
    cf = partial_quotients(k.p, k.q)
    if tail > 0:
        head, rest = (), 1
    elif cf[1] > 1:
        head, rest = (1, cf[1] - 1), 2
    else:
        head, rest = (cf[2] + 1,), 3
    quotients = chain(head, islice(cf, rest, None))
    runs = []
    carry = 0
    for a in quotients:
        a += carry
        if a % 2 == 0:
            runs.append((s * a, 1))
            s, carry = -s, 0
            continue
        twos = next(quotients, None)
        if twos is None:
            raise InternalError(f"the continued fraction of {k.q}/{abs(tail)} ends in an odd quotient")
        runs.append((s * (a + 1), 1))
        if twos > 1:
            runs.append((2 * s, twos - 1))
        carry = 1
    return r, tuple(runs)


def _spell(r: int, runs) -> Expansion:
    """The expansion r + [c, ..., c, ...] with each (c, m) of runs written out m times."""
    coeffs = []
    for c, m in runs:
        coeffs += [c] * m
    return Expansion(r, tuple(coeffs))


def even_expansion(k: KnotId) -> Expansion:
    """The unique expansion of k with all coefficients even, spelled out from `_even_runs`."""
    return _spell(*_even_runs(k))


def genus(k: KnotId) -> int:
    """Minimal genus of an orientable spanning surface: half the even length; 0 for the unknot."""
    return invariant_report(k).genus


def _odd_shortest_exists(reduced: Expansion) -> bool:
    """The paper's rule: an odd-type shortest expansion exists iff the
    reduced expansion has an odd coefficient or a +-2.

    Then the crosscap number is the reduced length n and the surface is
    boundary-incompressible; otherwise n+1 and compressible.
    """
    return any(c % 2 != 0 or abs(c) == 2 for c in reduced.coefficients)


def crosscap(k: KnotId) -> int:
    """Minimal first Betti number of a non-orientable spanning surface; 0 for the unknot."""
    return invariant_report(k).crosscap


def _no_two(even_runs: tuple[int, tuple[tuple[int, int], ...]]) -> bool:
    """Whether the all-even expansion with these `_even_runs` has no +-2 coefficient."""
    return all(abs(c) != 2 for c, _ in even_runs[1])


def gamma_equals_2g_plus_1(k: KnotId) -> bool:
    """Whether the crosscap number attains the bound 2*genus + 1: the even expansion has no +-2."""
    _require_knot(k)
    return _no_two(invariant_report(k).even_runs)


def boundary_classification(k: KnotId) -> Boundary:
    """Whether minimal-genus non-orientable spanning surfaces of k are boundary-incompressible."""
    _require_knot(k)
    return invariant_report(k).boundary


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


@lru_cache(maxsize=1)
def invariant_report(k: KnotId) -> InvariantReport:
    """Every invariant of one knot, in O(len CF) after the Euclid pass.

    The reduced expansion comes from `reduced_from_quotients`, one pass
    over the partial quotients whose cost grows with len CF, not with q;
    the crosscap and boundary from `_odd_shortest_exists` on it; the
    genus from the summed run counts of `_even_runs`, which the report
    keeps in place of the spelled-out even expansion.

    The last knot's report is kept in a one-slot memo, so the per-knot
    views and the Conway diagram and its verification of one knot share
    it.  `invariant_report.__wrapped__` is the unmemoized call.
    """
    if k.q == 1:
        return InvariantReport(k, 0, 0, Expansion(0, ()), (0, ()), Boundary.TRIVIAL)
    reduced = reduced_from_quotients(k.p, k.q)
    odd = _odd_shortest_exists(reduced)
    runs = _even_runs(k)
    return InvariantReport(
        knot=k,
        crosscap=len(reduced) if odd else len(reduced) + 1,
        genus=sum(m for _, m in runs[1]) // 2,
        reduced=reduced,
        even_runs=runs,
        boundary=Boundary.INCOMPRESSIBLE if odd else Boundary.COMPRESSIBLE,
    )
