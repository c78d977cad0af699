"""Exact arithmetic on extended rationals and subtractive continued fractions.

A subtractive continued fraction

    r + [b_1, b_2, ..., b_n]  =  r + 1/(b_1 - 1/(b_2 - ... - 1/b_n))

is evaluated projectively, over Q together with the single point at
infinity 1/0, so intermediate divisions by zero are ordinary values
rather than errors.  This module also houses the Schubert parameters
(q, p) of a 2-bridge knot S(q,p) and their equivalence predicates.
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import DomainError, ParseError

__all__ = [
    "ExtendedRational",
    "Expansion",
    "AdditiveExpansion",
    "KnotId",
    "eval_expansion",
    "eval_additive",
    "reverse_expansion",
    "alternating_sign_convert",
    "division_expansion",
    "partial_quotients",
    "same_knot",
    "mirror",
    "canonical_form",
    "knot_from_fraction",
    "fraction_of",
    "parse_fraction",
    "format_fraction",
    "parse_expansion",
    "format_expansion",
    "INFINITY",
]


@dataclass(frozen=True)
class ExtendedRational:
    """A fraction in lowest terms with non-negative denominator.

    The pair (1, 0) is the unique representation of infinity; the sign
    is always carried on the numerator.
    """

    numerator: int
    denominator: int

    def __post_init__(self):
        n, d = self.numerator, self.denominator
        if d == 0:
            if n == 0:
                raise DomainError("0/0 is not a point of the projective line")
            n, d = 1, 0
        else:
            if d < 0:
                n, d = -n, -d
            g = gcd(abs(n), d)
            n, d = n // g, d // g
        object.__setattr__(self, "numerator", n)
        object.__setattr__(self, "denominator", d)

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    @property
    def is_integer(self) -> bool:
        return self.denominator == 1

    def floor(self) -> int:
        if self.is_infinite:
            raise DomainError("floor of 1/0 is undefined")
        return self.numerator // self.denominator

    def mod_one(self) -> "ExtendedRational":
        """Translate into [0, 1) by subtracting the floor."""
        if self.is_infinite:
            raise DomainError("cannot reduce 1/0 mod 1")
        return ExtendedRational(self.numerator % self.denominator, self.denominator)

    def __neg__(self) -> "ExtendedRational":
        if self.is_infinite:
            return self
        return ExtendedRational(-self.numerator, self.denominator)

    def __add__(self, other: int) -> "ExtendedRational":
        if not isinstance(other, int):
            return NotImplemented
        if self.is_infinite:
            return self
        return ExtendedRational(self.numerator + other * self.denominator, self.denominator)

    def __sub__(self, other: int) -> "ExtendedRational":
        if not isinstance(other, int):
            return NotImplemented
        return self + (-other)

    def __str__(self) -> str:
        return format_fraction(self)


INFINITY = ExtendedRational(1, 0)


@dataclass(frozen=True)
class Expansion:
    """Integer part plus coefficients of a subtractive continued fraction.

    Coefficients may contain 0 and +-1; those only occur in intermediate
    rewrite states, never in a reduced expansion.
    """

    integer_part: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def odd_type(self) -> bool:
        """True when some coefficient is odd; otherwise the expansion is even type."""
        return any(c % 2 != 0 for c in self.coefficients)

    def __str__(self) -> str:
        return format_expansion(self)


@dataclass(frozen=True)
class AdditiveExpansion:
    """Ordinary (all-plus) continued fraction r + 1/(a_1 + 1/(a_2 + ...)).

    Kept as a separate type: the additive and subtractive conventions
    differ by alternating signs and must never be mixed silently.
    """

    integer_part: int
    coefficients: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(self.coefficients))


def eval_expansion(e: Expansion) -> ExtendedRational:
    """Exact projective value of a subtractive continued fraction.

    The tail [b_1,...,b_n] is the Moebius image of infinity under the
    product of the integer matrices [[b_i, -1], [1, 0]], so no rational
    division is performed and division by zero cannot occur.
    """
    u, w = 1, 0  # column vector for the projective point u/w, starting at 1/0
    for b in reversed(e.coefficients):
        u, w = b * u - w, u
    # r + 1/(u/w) = (r*u + w)/u
    return ExtendedRational(e.integer_part * u + w, u)


def eval_additive(a: AdditiveExpansion) -> ExtendedRational:
    """Exact projective value of an ordinary continued fraction."""
    u, w = 1, 0
    for b in reversed(a.coefficients):
        u, w = b * u + w, u
    return ExtendedRational(a.integer_part * u + w, u)


def reverse_expansion(e: Expansion) -> Expansion:
    """Reverse the coefficients of an expansion of a fraction in (0, 1).

    If e evaluates to p/q, the reversal evaluates to p'/q with
    p * p' = 1 (mod q).
    """
    if e.integer_part != 0:
        raise DomainError("reversal requires integer part 0")
    v = eval_expansion(e)
    if v.is_infinite or not 0 < v.numerator < v.denominator:
        raise DomainError(f"reversal requires a value strictly between 0 and 1, got {v}")
    return Expansion(0, tuple(reversed(e.coefficients)))


def alternating_sign_convert(a: AdditiveExpansion) -> Expansion:
    """Rewrite an additive continued fraction as a subtractive one.

    r + 1/(a_1 + 1/(a_2 + ...)) equals r + [a_1, -a_2, a_3, -a_4, ...].
    """
    coeffs = tuple(c if i % 2 == 0 else -c for i, c in enumerate(a.coefficients))
    return Expansion(a.integer_part, coeffs)


def division_expansion(x: ExtendedRational) -> Expansion:
    """Expand a finite fraction by repeated division.

    Splits off the floor as the integer part, then applies ceiling
    quotients, which yields coefficients that are all >= 2.  Its length
    is about the sum of the partial quotients, so no serving code runs
    it: the pipeline reduces in one pass over the partial quotients
    (`reduction.reduced_from_quotients`), and the tests hold that result
    to the fixpoint this expansion reduces to.
    """
    if x.is_infinite:
        raise DomainError("cannot expand 1/0")
    r = x.floor()
    rem = x.numerator - r * x.denominator
    if rem == 0:
        return Expansion(r, ())
    coeffs = []
    a, b = x.denominator, rem
    while b != 0:
        q = -((-a) // b)  # ceil(a/b); a > b >= 1 throughout, so q >= 2
        coeffs.append(q)
        a, b = b, q * b - a
    return Expansion(r, tuple(coeffs))


@lru_cache(maxsize=1)
def partial_quotients(p: int, q: int) -> tuple[int, ...]:
    """Regular continued fraction (a_0, a_1, ..., a_n) of p/q, by one Euclid pass.

    p/q = a_0 + 1/(a_1 + 1/(... + 1/a_n)) with a_0 = floor(p/q), every
    later quotient >= 1 and the last one >= 2 when n >= 1.

    This is the only big-integer pass on the serving path.  The last
    fraction's quotients are kept in a one-slot memo, so the invariant
    report and the depth of one knot share a single pass; the tuple is
    immutable, so callers on several threads may share it.
    `partial_quotients.__wrapped__` is the unmemoized call.
    """
    if q <= 0:
        raise DomainError(f"partial quotients need a positive denominator, got {_format_int(p)}/{_format_int(q)}")
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return tuple(out)


# ---------------------------------------------------------------------------
# 2-bridge knot identifiers


@dataclass(frozen=True)
class KnotId:
    """Schubert parameters (q, p) of the 2-bridge knot S(q,p).

    q is odd (even q gives a 2-component link), p is normalized into
    (0, q) for q > 1; the unknot is S(1, 0).
    """

    q: int
    p: int

    def __post_init__(self):
        q, p = self.q, self.p
        if q < 1 or q % 2 == 0:
            raise DomainError(f"q must be a positive odd integer, got {_format_int(q)}")
        if q == 1:
            p = 0
        else:
            p %= q
            if gcd(p, q) != 1:
                raise DomainError(f"p and q must be coprime, got S({_format_int(q)},{_format_int(self.p)})")
        object.__setattr__(self, "p", p)

    def __str__(self) -> str:
        return f"S({_format_int(self.q)},{_format_int(self.p)})"


def same_knot(k1: KnotId, k2: KnotId) -> bool:
    """S(q,p) and S(q',p') name the same knot iff q'=q and p' = p or p^-1 mod q.

    p' = p^-1 is tested as p*p' = 1 mod q, which needs no inverse.
    """
    if k1.q != k2.q:
        return False
    return k2.p == k1.p or k1.p * k2.p % k1.q == 1


def mirror(k: KnotId) -> KnotId:
    """The mirror image S(q,-p)."""
    if k.q == 1:
        return k
    return KnotId(k.q, -k.p % k.q)


def canonical_form(k: KnotId) -> KnotId:
    """Least representative (q, min(p, p^-1 mod q)); a dedup key for knots."""
    if k.q == 1:
        return k
    return KnotId(k.q, min(k.p, pow(k.p, -1, k.q)))


def knot_from_fraction(x: ExtendedRational) -> KnotId:
    """The knot named by a fraction p/q (only the class of p mod q matters)."""
    if x.is_infinite:
        raise DomainError("1/0 does not name a knot")
    if x.denominator % 2 == 0:
        raise DomainError(f"{x} has even denominator and names a 2-component link")
    if x.denominator == 1:
        return KnotId(1, 0)
    return KnotId(x.denominator, x.numerator % x.denominator)


def fraction_of(k: KnotId) -> ExtendedRational:
    """The normalized fraction p/q of a knot."""
    return ExtendedRational(k.p, k.q)


# ---------------------------------------------------------------------------
# Text forms

_FRACTION_RE = re.compile(r"^(-?\d+)/(\d+)$")


def _parse_int(text: str) -> int:
    """int(text) for a decimal of any length, whatever the int-string limit.

    The interpreter never limits conversions of 640 digits or fewer, so
    longer decimals are split and the halves joined arithmetically.
    """
    if len(text) <= 640:
        return int(text)
    if text[0] == "-":
        return -_parse_int(text[1:])
    half = len(text) // 2
    return _parse_int(text[:-half]) * 10**half + _parse_int(text[-half:])


def parse_fraction(text: str) -> ExtendedRational:
    """Parse `int "/" posint`; the only legal zero denominator is the literal 1/0."""
    s = text.strip()
    m = _FRACTION_RE.match(s)
    if not m:
        for i, ch in enumerate(s):
            if not (ch.isdigit() or (ch == "-" and i == 0) or ch == "/"):
                raise ParseError("unexpected character in fraction", text, i)
        raise ParseError("expected <int>/<posint>", text, 0)
    num, den = _parse_int(m.group(1)), _parse_int(m.group(2))
    if den == 0 and (num, den) != (1, 0):
        raise ParseError("zero denominator (only the literal 1/0 is allowed)", text, s.index("/") + 1)
    return ExtendedRational(num, den)


def _format_int(n: int) -> str:
    """str(n) for an integer of any size, whatever the int-string limit.

    The mirror of `_parse_int`: str where the limit allows it, else the
    number is split by a power of ten and the halves joined as text, the
    low half padded with zeros.
    """
    try:
        return str(n)
    except ValueError:  # past the int-string limit
        pass
    if n < 0:
        return "-" + _format_int(-n)
    half = n.bit_length() * 3 // 20  # about half the decimal digits, since log10(2) > 0.3
    high, low = divmod(n, 10**half)
    return _format_int(high) + _format_int(low).zfill(half)


def format_fraction(x: ExtendedRational) -> str:
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:  # past the int-string limit; the f-string is much the faster path
        return f"{_format_int(x.numerator)}/{_format_int(x.denominator)}"


_INT_RE = re.compile(r"-?\d+")


def parse_expansion(text: str) -> Expansion:
    """Parse `[ int "+" ] "[" [ int ("," int)* ] "]"`; whitespace is ignored."""
    s = "".join(text.split())

    def fail(msg: str, pos: int):
        raise ParseError(msg, text, pos)

    i = 0
    integer_part = 0
    if not s.startswith("["):
        m = _INT_RE.match(s)
        if not m:
            fail("expected integer part or '['", 0)
        integer_part = _parse_int(m.group(0))
        i = m.end()
        if i >= len(s) or s[i] != "+":
            fail("expected '+' after integer part", i)
        i += 1
    if i >= len(s) or s[i] != "[":
        fail("expected '['", i)
    i += 1
    coeffs = []
    if i < len(s) and s[i] == "]":
        i += 1
    else:
        while True:
            m = _INT_RE.match(s, i)
            if not m:
                fail("expected integer coefficient", i)
            coeffs.append(_parse_int(m.group(0)))
            i = m.end()
            if i < len(s) and s[i] == ",":
                i += 1
                continue
            if i < len(s) and s[i] == "]":
                i += 1
                break
            fail("expected ',' or ']'", i)
    if i != len(s):
        fail("trailing text after expansion", i)
    return Expansion(integer_part, tuple(coeffs))


def _join_ints(values: Sequence[int]) -> str:
    """The values as text joined by commas, whatever the int-string limit."""
    try:
        return ",".join(map(str, values))
    except ValueError:  # a value past the limit; str is much the faster path
        return ",".join(map(_format_int, values))


def format_expansion(e: Expansion) -> str:
    body = "[" + _join_ints(e.coefficients) + "]"
    if e.integer_part == 0:
        return body
    return f"{_format_int(e.integer_part)}+{body}"
