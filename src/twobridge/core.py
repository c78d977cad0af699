"""Exact arithmetic on extended rationals and subtractive continued fractions.

A subtractive continued fraction

    r + [b_1, b_2, ..., b_n]  =  r + 1/(b_1 - 1/(b_2 - ... - 1/b_n))

is evaluated projectively, over Q together with the single point at
infinity 1/0, so intermediate divisions by zero are ordinary values
rather than errors.  This module also houses the Schubert parameters
(q, p) of a 2-bridge knot S(q,p).
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from math import gcd
from operator import attrgetter

from .errors import DomainError, ParseError

__all__ = [
    "ExtendedRational",
    "Expansion",
    "KnotId",
    "eval_expansion",
    "division_expansion",
    "knot_from_fraction",
    "parse_fraction",
    "format_fraction",
    "parse_expansion",
    "format_expansion",
]

# Stores a field in `__init__`, past the `__setattr__` that refuses assignment.
_set_field = object.__setattr__


class _Value:
    """Base of the package's immutable values.

    A subclass lists its fields, in order, in `__slots__`, so an
    instance holds its fields and nothing else: no instance `__dict__`,
    and no cache.  Its `__init__` normalizes the arguments and stores
    each field with `_set_field`.  The base gives it:

    - equality: same type and equal fields; a hash of the fields;
    - the repr `KnotId(q=15, p=4)`;
    - pickling and copying, by calling the class on the fields again;
    - AttributeError on assignment and deletion.

    These classes were frozen `@dataclass` classes.  Importing the module
    behind the decorator, which loads `inspect`, `ast`, `dis` and
    `tokenize`, took about 12 ms, and building the classes, each with six
    methods compiled by `exec`, about 14 ms: more than half of the
    package's cold start of about 45 ms (perfbench `setup_s`, Python
    3.11).  With this base the cold start reads about 11 ms
    (BENCH_17.json).  Bring no `@dataclass` back without a benchmark that
    shows it pays.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = vars(cls)["__slots__"]
        # an attrgetter is no descriptor, so `self._values(self)` gives the field values
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={_field_repr(getattr(self, name))}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class ExtendedRational(_Value):
    """A fraction in lowest terms with non-negative denominator.

    The pair (1, 0) is the unique representation of infinity; the sign
    is always carried on the numerator.  The class carries no arithmetic:
    callers write `//`, `%` and translated fractions on the two fields.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        n, d = numerator, denominator
        if d == 0:
            if n == 0:
                raise DomainError("0/0 is not a point of the projective line")
            n, d = 1, 0
        else:
            if d < 0:
                n, d = -n, -d
            g = gcd(abs(n), d)
            n, d = n // g, d // g
        _set_field(self, "numerator", n)
        _set_field(self, "denominator", d)

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    @property
    def is_integer(self) -> bool:
        return self.denominator == 1

    def __str__(self) -> str:
        return format_fraction(self)


class Expansion(_Value):
    """Integer part plus coefficients of a subtractive continued fraction.

    Coefficients may contain 0 and +-1; those only occur in intermediate
    rewrite states, never in a reduced expansion.
    """

    __slots__ = ("integer_part", "coefficients")

    def __init__(self, integer_part: int, coefficients: Sequence[int]):
        _set_field(self, "integer_part", integer_part)
        _set_field(self, "coefficients", tuple(coefficients))

    def __len__(self) -> int:
        return len(self.coefficients)

    @property
    def odd_type(self) -> bool:
        """True when some coefficient is odd; otherwise the expansion is even type."""
        return any(map((1).__and__, self.coefficients))  # c & 1 is c % 2, scanned in C

    def __str__(self) -> str:
        return format_expansion(self)


def _continuant(coefficients: Sequence[int]) -> tuple[int, int]:
    """(u, w) with u >= 0 and [b_1,...,b_n] = w/u, in lowest terms as it stands.

    (u, w) is the first column of the product of the integer matrices
    [[b_i, -1], [1, 0]], the image of the column of 1/0, so no rational
    division is performed and division by zero cannot occur.  Each matrix
    has determinant 1, so u and w are coprime and w/u needs no gcd.  The
    sign is moved onto w.
    """
    u, w = 1, 0  # column vector for the projective point u/w, starting at 1/0
    for b in reversed(coefficients):
        u, w = b * u - w, u
    return (-u, -w) if u < 0 else (u, w)


def eval_expansion(e: Expansion) -> ExtendedRational:
    """Exact projective value of a subtractive continued fraction.

    The tail is w/u with (u, w) from `_continuant`, and r + w/u is
    (r*u + w)/u.
    """
    u, w = _continuant(e.coefficients)
    return ExtendedRational(e.integer_part * u + w, u)


def division_expansion(x: ExtendedRational) -> Expansion:
    """Expand a finite fraction by repeated division.

    Splits off floor(p/q) as the integer part, then applies ceiling
    quotients to q over the remainder p mod q, which yields coefficients
    that are all >= 2.  Its length is about the sum of the partial
    quotients, so no serving code runs it: the pipeline reduces in its
    Euclid loop over the partial quotients (`reduction.reduce_fraction`),
    and the tests hold that result to the fixpoint this expansion reduces
    to.
    """
    if x.is_infinite:
        raise DomainError("cannot expand 1/0")
    r, rem = divmod(x.numerator, x.denominator)
    if rem == 0:
        return Expansion(r, ())
    coeffs = []
    a, b = x.denominator, rem
    while b != 0:
        q = -((-a) // b)  # ceil(a/b); a > b >= 1 throughout, so q >= 2
        coeffs.append(q)
        a, b = b, q * b - a
    return Expansion(r, tuple(coeffs))


# ---------------------------------------------------------------------------
# 2-bridge knot identifiers


class KnotId(_Value):
    """Schubert parameters (q, p) of the 2-bridge knot S(q,p).

    q is odd (even q gives a 2-component link), p is normalized into
    (0, q) for q > 1; the unknot is S(1, 0).
    """

    __slots__ = ("q", "p")

    def __init__(self, q: int, p: int):
        if q < 1 or q % 2 == 0:
            raise DomainError(f"q must be a positive odd integer, got {_format_int(q)}")
        if q == 1:
            normalized = 0
        else:
            normalized = p % q
            if gcd(normalized, q) != 1:
                raise DomainError(f"p and q must be coprime, got S({_format_int(q)},{_format_int(p)})")
        _set_field(self, "q", q)
        _set_field(self, "p", normalized)

    def __str__(self) -> str:
        return f"S({_format_int(self.q)},{_format_int(self.p)})"


def knot_from_fraction(x: ExtendedRational) -> KnotId:
    """The knot named by a fraction p/q (only the class of p mod q matters)."""
    if x.is_infinite:
        raise DomainError("1/0 does not name a knot")
    if x.denominator % 2 == 0:
        raise DomainError(f"{x} has even denominator and names a 2-component link")
    if x.denominator == 1:
        return KnotId(1, 0)
    return KnotId(x.denominator, x.numerator % x.denominator)


# ---------------------------------------------------------------------------
# Text forms

_FRACTION_RE = re.compile(r"^(-?[0-9]+)/([0-9]+)$")  # ASCII digits only: \d would take any Unicode digit


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
    """Parse `int "/" posint`; the only legal zero denominator is the literal 1/0.

    Whitespace may stand before and after, not inside; error positions
    index text as given.
    """
    s = text.strip()
    lead = len(text) - len(text.lstrip())
    m = _FRACTION_RE.match(s)
    if not m:
        for i, ch in enumerate(s):
            if not (ch in "0123456789" or (ch == "-" and i == 0) or ch == "/"):
                raise ParseError("unexpected character in fraction", text, lead + i)
        raise ParseError("expected <int>/<posint>", text, lead)
    num, den = _parse_int(m.group(1)), _parse_int(m.group(2))
    if den == 0 and (num, den) != (1, 0):
        raise ParseError("zero denominator (only the literal 1/0 is allowed)", text, lead + m.start(2))
    return ExtendedRational(num, den)


def _field_repr(v) -> str:
    """repr(v), with every int, also inside tuples, in full whatever the int-string limit."""
    if type(v) is tuple:
        items = [_field_repr(x) for x in v]
        return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"
    return _format_int(v) if type(v) is int else repr(v)


def _format_int(n: int) -> str:
    """str(n) for an integer of any size, whatever the int-string limit.

    The mirror of `_parse_int`: str where the limit allows it, else the
    number is split by a power of ten and the halves joined as text, the
    low half padded with zeros.  `format_fraction` and `_join_ints` call
    it with no fast path of their own, since it tries str first.
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


def _min_digits(n: int) -> int:
    """A lower bound on the decimal digits of n, sign not counted, read off its bit length.

    An n of b >= 1 bits has |n| >= 2**(b - 1), so at least
    1 + floor((b - 1) * log10(2)) digits, and 1233/4096 < log10(2).  0
    has one.  The output bounds of the CLI count digits with it, since
    formatting a number to count them costs as much as printing it.
    """
    return 1 + (n.bit_length() - 1) * 1233 // 4096 if n else 1


def format_fraction(x: ExtendedRational) -> str:
    """The text p/q of a fraction, whatever the int-string limit (`_format_int`)."""
    return f"{_format_int(x.numerator)}/{_format_int(x.denominator)}"


_INT_RE = re.compile(r"\s*(-?[0-9]+)\s*")  # one integer token (ASCII digits) and the whitespace around it


def _skip_space(text: str, i: int) -> int:
    """The position of the first non-whitespace character at or after i, or len(text)."""
    return len(text) - len(text[i:].lstrip())


def parse_expansion(text: str) -> Expansion:
    """Parse `[ int "+" ] "[" [ int ("," int)* ] "]"`.

    Whitespace may stand between tokens, and an integer -?[0-9]+ is one
    token, so "[3 2]" is refused.  Text is scanned as given, and an error
    names the position of the first token it could not read.
    """

    def fail(msg: str, pos: int):
        raise ParseError(msg, text, _skip_space(text, pos))

    i = _skip_space(text, 0)
    integer_part = 0
    if not text.startswith("[", i):
        m = _INT_RE.match(text, i)
        if not m:
            fail("expected integer part or '['", i)
        integer_part = _parse_int(m.group(1))
        i = m.end()
        if not text.startswith("+", i):
            fail("expected '+' after integer part", i)
        i = _skip_space(text, i + 1)
    if not text.startswith("[", i):
        fail("expected '['", i)
    i = _skip_space(text, i + 1)
    coeffs = []
    if text.startswith("]", i):
        i += 1
    else:
        while True:
            m = _INT_RE.match(text, i)
            if not m:
                fail("expected integer coefficient", i)
            coeffs.append(_parse_int(m.group(1)))
            i = m.end()
            if text.startswith(",", i):
                i += 1
                continue
            if text.startswith("]", i):
                i += 1
                break
            fail("expected ',' or ']'", i)
    if _skip_space(text, i) != len(text):
        fail("trailing text after expansion", i)
    return Expansion(integer_part, tuple(coeffs))


def _join_ints(values: Sequence[int]) -> str:
    """The values as text joined by commas, whatever the int-string limit (`_format_int`)."""
    return ",".join(map(_format_int, values))


def _expansion_text(r: int, joined: str) -> str:
    """The text of r + [...], whose coefficients `joined` gives as text joined by commas."""
    if r == 0:
        return f"[{joined}]"
    return f"{_format_int(r)}+[{joined}]"


def format_expansion(e: Expansion) -> str:
    return _expansion_text(e.integer_part, _join_ints(e.coefficients))
