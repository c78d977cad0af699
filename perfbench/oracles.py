"""Checks made apart from the program under test.

Everything here is plain integer arithmetic written for the benchmark;
nothing imports the package it measures.  Fractions are pairs
(numerator, denominator) in lowest terms with a non-negative
denominator, and (1, 0) is the point at infinity.
"""

from __future__ import annotations

import re
from math import gcd


def normalize(n: int, d: int) -> tuple[int, int]:
    if d == 0:
        return (1, 0)
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return (n // g, d // g)


def evaluate(integer_part: int, coeffs) -> tuple[int, int]:
    """Value of r + 1/(b_1 - 1/(b_2 - ... - 1/b_n)), computed projectively."""
    u, w = 1, 0
    for b in reversed(coeffs):
        u, w = b * u - w, u
    return normalize(integer_part * u + w, u)


def farey_depth(p: int, q: int) -> int:
    """Minimal subtractive expansion length of p/q, by a walk down the Farey graph.

    The walk keeps the Farey interval L = a/b < p/q < R = c/d and the
    depths of its ends.  Each loop pass takes one whole run of mediant
    steps toward p/q at once (one partial quotient of the regular
    continued fraction): k steps that each replace R by the mediant
    leave R at depth min(depth(L) + 1, depth(R) + k).  The loop runs
    once per partial quotient, so the cost is O(len CF), however large
    the quotients are.
    """
    if q == 0:
        return 0
    p %= q
    if p == 0:
        return 0
    a, b, c, d = 0, 1, 1, 1
    dl = dr = 0
    while True:
        s = p * b - q * a  # > 0 while L < p/q
        t = q * c - p * d  # > 0 while p/q < R
        if s == t:  # p/q is the mediant of L and R
            return 1 + min(dl, dr)
        if s < t:
            k = (t - 1) // s
            c, d = c + k * a, d + k * b
            dr = min(dl + 1, dr + k)
        else:
            k = (s - 1) // t
            a, b = a + k * c, b + k * d
            dl = min(dr + 1, dl + k)


def alexander_genus(p: int, q: int) -> int:
    """Genus of the 2-bridge knot S(q,p) from its Alexander polynomial.

    Hartley-Minkus: with p' the odd representative of p mod q,
    Delta(t) = sum_{k<q} (-1)^k t^{sigma_k}, where
    sigma_k = sum_{i<=k} (-1)^floor(i p'/q).  2-bridge knots are
    alternating, so span Delta = 2g.  Costs O(q).
    """
    if p % 2 == 0:
        p += q
    coeff: dict[int, int] = {}
    sigma = 0
    for k in range(q):
        if k:
            sigma += -1 if (k * p // q) % 2 else 1
        coeff[sigma] = coeff.get(sigma, 0) + (-1 if k % 2 else 1)
    exps = [e for e, c in coeff.items() if c]
    return (max(exps) - min(exps)) // 2


def knot_of(value: tuple[int, int], q: int, p: int) -> bool:
    """Whether the fraction value names S(q,p), i.e. S(q, p) or S(q, p^-1)."""
    n, d = value
    if d != q:
        return False
    return n % q in (p % q, pow(p, -1, q))


_EXPANSION_RE = re.compile(r"^(?:(-?\d+)\+)?\[((?:-?\d+(?:,-?\d+)*)?)\]$")
_DIAGRAM_RE = re.compile(r"^C\(((?:-?\d+(?:,-?\d+)*))\)(!m)?$")


def parse_expansion_text(text: str) -> tuple[int, tuple[int, ...]] | None:
    """`[b1,...,bn]` or `r+[b1,...,bn]` as printed by the CLI, or None."""
    m = _EXPANSION_RE.match(text)
    if not m:
        return None
    body = m.group(2)
    return int(m.group(1) or 0), tuple(int(c) for c in body.split(",")) if body else ()


def parse_diagram_text(text: str) -> tuple[int, ...] | None:
    """`C(t1,...,tk)` with an optional `!m` suffix, as printed by the CLI, or None."""
    m = _DIAGRAM_RE.match(text)
    return tuple(int(t) for t in m.group(1).split(",")) if m else None


def regions_expected(gamma: int) -> int:
    return 2 * gamma - 1 if gamma % 2 else 2 * gamma
