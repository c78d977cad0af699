"""Verification oracles: slow, independent routes to what the pipeline computes.

Tests and verification runs compare the serving code against these.  No
serving module imports this one, so `import twobridge.cli` never loads it.
The reference-only values and conversions that no serving route needs
(ordinary continued fractions, reversal, the mirror image, a knot's
fraction p/q, 1/0 as a constant) live here too.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Iterator, Sequence
from math import gcd

from .core import (
    Expansion,
    ExtendedRational,
    KnotId,
    _format_int,
    _set_field,
    _Value,
    division_expansion,
    eval_expansion,
    knot_from_fraction,
)
from .conway import ConwayDiagram
from .diagram import ShortestSet, rectangle_move
from .errors import DomainError, InternalError
from .invariants import _fired, _no_two, _require_knot, invariant_report
from .reduction import ReductionStep, ReductionTrace, Rule, apply_rule, reduce_expansion

__all__ = [
    "INFINITY",
    "AdditiveExpansion",
    "eval_additive",
    "alternating_sign_convert",
    "reverse_expansion",
    "fraction_of",
    "mirror",
    "same_knot",
    "canonical_form",
    "partial_quotients",
    "seed_expansion",
    "farey_parents",
    "depth_by_parents",
    "depth_by_mediant_walk",
    "alexander_genus",
    "is_shortest",
    "brute_force_min_length",
    "rectangle_positions",
    "closure_by_rectangle_moves",
    "odd_type_among_shortest",
    "shortest_set_has_odd_type",
    "gamma_equals_2g_plus_1",
    "verify_diagram_by_value",
    "applicable_steps",
    "reduce_with_strategy",
    "reduce_by_scanning",
    "check_trace",
]

INFINITY = ExtendedRational(1, 0)


class AdditiveExpansion(_Value):
    """Ordinary (all-plus) continued fraction r + 1/(a_1 + 1/(a_2 + ...)).

    Kept as a separate type: the additive and subtractive conventions
    differ by alternating signs and must never be mixed silently.
    """

    __slots__ = ("integer_part", "coefficients")

    def __init__(self, integer_part: int, coefficients: Sequence[int]):
        _set_field(self, "integer_part", integer_part)
        _set_field(self, "coefficients", tuple(coefficients))


def eval_additive(a: AdditiveExpansion) -> ExtendedRational:
    """Exact projective value of an ordinary continued fraction."""
    u, w = 1, 0
    for b in reversed(a.coefficients):
        u, w = b * u + w, u
    return ExtendedRational(a.integer_part * u + w, u)


def alternating_sign_convert(a: AdditiveExpansion) -> Expansion:
    """Rewrite an additive continued fraction as a subtractive one.

    r + 1/(a_1 + 1/(a_2 + ...)) equals r + [a_1, -a_2, a_3, -a_4, ...].
    """
    coeffs = tuple(c if i % 2 == 0 else -c for i, c in enumerate(a.coefficients))
    return Expansion(a.integer_part, coeffs)


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


def fraction_of(k: KnotId) -> ExtendedRational:
    """The normalized fraction p/q of a knot."""
    return ExtendedRational(k.p, k.q)


def mirror(k: KnotId) -> KnotId:
    """The mirror image S(q,-p)."""
    if k.q == 1:
        return k
    return KnotId(k.q, -k.p % k.q)


def same_knot(k1: KnotId, k2: KnotId) -> bool:
    """Schubert's rule: S(q,p) and S(q',p') are one knot iff q' = q and p' = p or p^-1 mod q.

    Written from the definition, with the inverse from `pow`, apart from
    the check in `conway.verify_diagram`, which tests p * p' = 1 mod q.
    """
    return k1.q == k2.q and k2.p in (k1.p, pow(k1.p, -1, k1.q))


def canonical_form(k: KnotId) -> KnotId:
    """Least representative (q, min(p, p^-1 mod q)); a dedup key for knots.

    The table indexes a row under both Schubert pairs instead
    (`table._pairs`), so no serving route needs this key.
    """
    if k.q == 1:
        return k
    return KnotId(k.q, min(k.p, pow(k.p, -1, k.q)))


def partial_quotients(p: int, q: int) -> tuple[int, ...]:
    """Regular continued fraction (a_0, a_1, ..., a_n) of p/q, by one Euclid pass.

    p/q = a_0 + 1/(a_1 + 1/(... + 1/a_n)) with a_0 = floor(p/q), every
    later quotient >= 1 and the last one >= 2 when n >= 1.

    The plain Euclid loop, the reference for the quotients that
    `reduction.reduce_fraction` divides out while it forms the seed.
    """
    if q <= 0:
        raise DomainError(f"partial quotients need a positive denominator, got {_format_int(p)}/{_format_int(q)}")
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return tuple(out)


def seed_expansion(x: ExtendedRational) -> Expansion:
    """The alternating-sign expansion of x with its -1s removed and its -2s flipped.

    For x = a_0 + [0; a_1, ..., a_n] that expansion is
    a_0 + [a_1, -a_2, a_3, -a_4, ...].  An even-position quotient of 1
    is dropped, [...,a,-1,b,...] = [...,a+1,b+1,...], and one of 2 is
    flipped, [...,a,-2,b,...] = [...,a+1,2,b+1,...]; the last quotient is
    never 1, and at the tail [...,a,-2] = [...,a+1,2].  Odd-position
    terms stay positive, so no edit creates another.  The seed evaluates
    exactly to x and has at most n coefficients, where the division
    expansion has about a_1 + ... + a_n.

    The reference for `reduction.reduce_fraction`, which forms the same
    coefficients inside its Euclid loop: its expansion must equal
    `reduce_expansion(seed_expansion(x))`.
    """
    if x.is_infinite:
        raise DomainError("cannot expand 1/0")
    a0, *quotients = partial_quotients(x.numerator, x.denominator)
    coeffs = []
    bump = 0  # 1 right after a dropped or flipped quotient: the next term gains 1
    for i, a in enumerate(quotients):
        if i % 2 == 0:
            coeffs.append(a + bump)
            bump = 0
        elif a >= 3:
            coeffs.append(-a)
        else:
            coeffs[-1] += 1
            if a == 2:
                coeffs.append(2)
            bump = 1
    return Expansion(a0, tuple(coeffs))


def farey_parents(x: ExtendedRational) -> tuple[ExtendedRational, ExtendedRational]:
    """The unique Farey neighbors a/b, c/d of p/q with a+c = p, b+d = q.

    Requires p/q in (0, 1) with q >= 2; callers normalize first using
    the translation and reflection symmetries of the diagram.
    """
    p, q = x.numerator, x.denominator
    if q < 2 or not 0 < p < q:
        raise DomainError(f"farey_parents needs a fraction in (0,1) with q >= 2, got {x}")
    b = pow(p, -1, q)
    a = (p * b - 1) // q
    return ExtendedRational(a, b), ExtendedRational(p - a, q - b)


def depth_by_parents(x: ExtendedRational, memo: dict[tuple[int, int], int] | None = None) -> int:
    """Depth by its definition: 0 on Z and 1/0, min(parents) + 1 elsewhere.

    Visits every Farey ancestor of x, so time and memory grow with the
    sum of its partial quotients; a reference for small denominators
    only.  Ancestors are memoized in `memo`, which a caller may pass to
    share them across calls.
    """
    if x.is_infinite:
        return 0
    p, q = x.numerator % x.denominator, x.denominator  # translated into [0, 1)
    if p == 0:
        return 0
    if memo is None:
        memo = {}

    # Iterative with an explicit stack: parent chains of 1/q have length
    # about q, which would overflow Python's recursion limit.
    def lookup(a: int, b: int) -> int | None:
        return 0 if b == 1 else memo.get((a, b))

    stack = [(p, q)]
    while stack:
        pp, qq = stack[-1]
        if (pp, qq) in memo:
            stack.pop()
            continue
        bb = pow(pp, -1, qq)
        aa = (pp * bb - 1) // qq
        d1 = lookup(aa, bb)
        d2 = lookup(pp - aa, qq - bb)
        if d1 is None or d2 is None:
            if d1 is None:
                stack.append((aa, bb))
            if d2 is None:
                stack.append((pp - aa, qq - bb))
            continue
        memo[(pp, qq)] = min(d1, d2) + 1
        stack.pop()
    return memo[(p, q)]


def depth_by_mediant_walk(x: ExtendedRational) -> int:
    """Depth by a walk down the diagram in exact big-integer arithmetic.

    Keeps the Farey interval a/b < p/q < c/d and the depth of each end.
    A run of k mediant steps toward p/q, one partial quotient of the
    regular continued fraction, moves one end k times and leaves it at
    depth min(depth(other end) + 1, depth(it) + k), so each loop pass
    takes a whole run; every pass multiplies big integers.
    """
    if x.is_infinite:
        return 0
    p, q = x.numerator % x.denominator, x.denominator  # translated into [0, 1)
    if p == 0:
        return 0
    a, b, c, d = 0, 1, 1, 1
    left = right = 0
    while True:
        # p/q = (u*a + v*c) / (u*b + v*d) with u, v > 0 coprime
        v = p * b - q * a
        u = q * c - p * d
        if u == v:
            return min(left, right) + 1
        if v < u:
            k = (u - 1) // v
            c, d = c + k * a, d + k * b
            right = min(left + 1, right + k)
        else:
            k = (v - 1) // u
            a, b = a + k * c, b + k * d
            left = min(right + 1, left + k)


def alexander_genus(k: KnotId) -> int:
    """Genus of S(q,p) from the span of its Alexander polynomial.

    Hartley-Minkus: with p odd (p or p+q), Delta(t) is
    sum_{j<q} (-1)^j t^(s_j), where s_j = sum_{0<i<=j} (-1)^floor(i*p/q).
    2-bridge knots are alternating, so the span of Delta is 2g.  O(q)
    time and memory: a reference for small denominators only.
    """
    q, p = k.q, k.p
    if p % 2 == 0:
        p += q
    coeffs = [0] * (2 * q + 1)  # coefficient of t^s at index s + q
    s = 0
    for j in range(q):
        if j:
            s += -1 if (j * p // q) % 2 else 1
        coeffs[s + q] += -1 if j % 2 else 1
    support = [i for i, c in enumerate(coeffs) if c]
    return (support[-1] - support[0]) // 2


def is_shortest(e: Expansion) -> bool:
    """Shortest-path criterion: the i-th partial value must have depth i.

    The depth is the mediant walk's, apart from the rewrite rules behind
    `diagram.depth`.
    """
    v = eval_expansion(e)
    if v.is_infinite or v.is_integer:
        raise DomainError(f"shortestness is defined for non-integer finite values, got {v}")
    for i in range(len(e) + 1):
        if depth_by_mediant_walk(eval_expansion(Expansion(e.integer_part, e.coefficients[:i]))) != i:
            return False
    return True


# Cache of exhaustive value tables, keyed by (max_len, coeff_bound).
# Table: projective value (num, den) -> minimal coefficient count over all
# [b_1..b_k], k <= max_len, 0 < |b_i| <= coeff_bound, with integer part 0.
_BRUTE_TABLES: dict[tuple[int, int], dict[tuple[int, int], int]] = {}


def _brute_table(max_len: int, coeff_bound: int) -> dict[tuple[int, int], int]:
    key = (max_len, coeff_bound)
    table = _BRUTE_TABLES.get(key)
    if table is not None:
        return table
    table = {(0, 1): 0}
    coeffs = [b for b in range(-coeff_bound, coeff_bound + 1) if b != 0]

    # Depth-first over coefficient sequences via the matrix recurrence
    # (u, w) -> (b*u - w, u); the value of the walked sequence (reversed,
    # which is harmless since the whole set is enumerated) is w/u.
    def extend(u: int, w: int, length: int):
        for b in coeffs:
            u2, w2 = b * u - w, u
            if u2 == 0:
                k = (1, 0)
            else:
                g = gcd(abs(w2), abs(u2))
                k = (w2 // g, u2 // g) if u2 > 0 else (-w2 // g, -u2 // g)
            if k not in table or table[k] > length:
                table[k] = length
            if length < max_len:
                extend(u2, w2, length + 1)

    if max_len >= 1:
        extend(1, 0, 1)
    _BRUTE_TABLES[key] = table
    return table


def brute_force_min_length(
    x: ExtendedRational, max_len: int, coeff_bound: int, r_window: int = 0
) -> int | None:
    """Minimal expansion length of x by exhaustive enumeration, or None.

    Enumerates integer parts r within r_window of floor(x) and all
    nonzero coefficients |b_i| <= coeff_bound up to max_len coefficients.
    Independent of the rewrite system; intended as a small-case oracle.
    """
    if x.is_infinite:
        raise DomainError("1/0 is outside the brute-force domain")
    table = _brute_table(max_len, coeff_bound)
    base = x.numerator // x.denominator
    best = None
    for r in range(base - r_window, base + r_window + 1):
        n = table.get((x.numerator - r * x.denominator, x.denominator))  # the fraction x - r
        if n is not None and (best is None or n < best):
            best = n
    return best


def rectangle_positions(e: Expansion) -> list[int]:
    """1-based positions carrying a +-2 coefficient: the sites of a rectangle move."""
    return [i + 1 for i, v in enumerate(e.coefficients) if abs(v) == 2]


def closure_by_rectangle_moves(x: ExtendedRational) -> frozenset[Expansion]:
    """Every shortest expansion of x, by breadth-first search over rectangle moves.

    Rectangle moves connect all shortest expansions of a fraction, so
    one of them reaches the whole finite class.  The search starts from
    the reduced division expansion, apart from the seed the serving code
    reduces, and visits every member: the reference for
    `diagram.ShortestSet` on small classes only.
    """
    if x.is_infinite or x.is_integer:
        raise DomainError(f"shortest expansions are defined for non-integer finite values, got {x}")
    return _closure_from(reduce_expansion(division_expansion(x))[0])


def _closure_from(start: Expansion) -> frozenset[Expansion]:
    """Every expansion that rectangle moves reach from start, a reduced T, breadth first.

    A move keeps the value, and each member is T - A*x for a 0/1 vector
    x, so the closure has at most 2^len(T) members.  A moved expansion of
    another value, or a member past that count, raises `InternalError`
    at once: a faulty `rectangle_move` gets a refusal, not an unbounded
    search.
    """
    value = eval_expansion(start)
    most = 2 ** len(start)
    seen = {start}
    frontier = deque([start])
    while frontier:
        e = frontier.popleft()
        for pos in rectangle_positions(e):
            neighbor = rectangle_move(e, pos)
            if neighbor not in seen:
                if eval_expansion(neighbor) != value:
                    raise InternalError(f"the rectangle move at {pos} of {e} gives {neighbor}, of another value")
                seen.add(neighbor)
                if len(seen) > most:
                    raise InternalError(f"the rectangle moves from {start} reach more than {most} expansions")
                frontier.append(neighbor)
    return frozenset(seen)


def odd_type_among_shortest(k: KnotId) -> bool:
    """Enumeration route to the same dichotomy: scan the rectangle-move closure.

    The closure starts from the fixpoint that `reduce_expansion` reaches
    from `seed_expansion`: the seed has at most len CF coefficients, where
    the division expansion has about the sum of the quotients, so a huge
    quotient costs no more than the closure.  Slower than the syntactic
    test on the reduced expansion; kept as an independent cross-check.
    """
    _require_knot(k)
    start, _ = reduce_expansion(seed_expansion(fraction_of(k)))
    return any(e.odd_type for e in _closure_from(start))


def shortest_set_has_odd_type(s: ShortestSet) -> bool:
    """Whether some member of s has an odd coefficient, by the paper's rule on T.

    The rule holds on every class but that of r + 1/2, whose two
    members r + [2] and r+1 + [-2] are both even.  Held in the tests to
    a scan of the closure under rectangle moves.
    """
    return s.reduced.coefficients != (2,) and _fired(s.reduced.coefficients) is not None


def gamma_equals_2g_plus_1(k: KnotId) -> bool:
    """Whether the crosscap number attains the bound 2*genus + 1: the even expansion has no +-2.

    Read off the report's even runs, apart from the rule on the reduced
    expansion that gives the crosscap number, so the tests can hold the
    two to gamma = 2g + 1.
    """
    _require_knot(k)
    return _no_two(invariant_report(k).even_runs)


def verify_diagram_by_value(d: ConwayDiagram, k: KnotId) -> bool:
    """Value route to `conway.verify_diagram`: evaluate, name the knot, compare, count.

    The regions [b_1, b_2, b_3, ...] are evaluated by the additive
    recurrence, as 1/(b_1 + 1/(-b_2 + 1/(b_3 + ...))) (`eval_additive`,
    the identity behind `alternating_sign_convert`), so neither
    `eval_expansion` nor the continuant it shares with `verify_diagram`
    runs here.  The value, a fraction in lowest terms, must be finite,
    non-integral and of odd denominator (the unknot asks for an
    integer), and the knot it names must equal k under `same_knot`.
    The region count, 2*gamma - 1 for odd gamma and 2*gamma for even
    gamma, is checked against a crosscap number found apart from the
    serving rule: the Farey depth n (`depth_by_mediant_walk`), plus 1
    unless the rectangle-move closure has an odd-type member
    (`odd_type_among_shortest`).  The value is checked first, so only a
    diagram of k pays for the closure.
    """
    regions = d.twist_regions
    if not regions or 0 in regions:
        return False
    value = eval_additive(AdditiveExpansion(0, [-b if i & 1 else b for i, b in enumerate(regions)]))
    if k.q == 1:
        return value.is_integer
    if value.is_infinite or value.is_integer or value.denominator % 2 == 0:
        return False
    if not same_knot(knot_from_fraction(value), k):
        return False
    gamma = depth_by_mediant_walk(fraction_of(k)) + (0 if odd_type_among_shortest(k) else 1)
    return len(regions) == (2 * gamma - 1 if gamma % 2 == 1 else 2 * gamma)


def _steps(c: tuple[int, ...]) -> Iterator[ReductionStep]:
    """Every zero, then every unit, then every block site of c, left to right.

    Lazy, so taking only the first site scans no further than it.  The
    block search is written out here, apart from the reducer's.
    """
    n = len(c)
    if n >= 2:
        for i, v in enumerate(c):
            if v == 0:
                yield ReductionStep(Rule.REMOVE_ZERO, i + 1)
    for i, v in enumerate(c):
        if v in (1, -1):
            yield ReductionStep(Rule.REMOVE_UNIT, i + 1, epsilon=v)
    for j, v in enumerate(c):
        if abs(v) != 2:
            continue
        eps = v // 2
        k = j + 1
        while k < n and c[k] == 3 * eps:
            k += 1
        if k < n and c[k] == 2 * eps:
            yield ReductionStep(Rule.REMOVE_BLOCK, j + 1, epsilon=eps, block_length=k - j + 1)


def applicable_steps(e: Expansion) -> list[ReductionStep]:
    """Every rule application that matches e, in scan order."""
    return list(_steps(e.coefficients))


def reduce_with_strategy(e: Expansion, rng: random.Random) -> Expansion:
    """Reduce by picking uniformly among all applicable steps each round."""
    current = e
    while steps := applicable_steps(current):
        current = apply_rule(current, rng.choice(steps))
    return current


def reduce_by_scanning(e: Expansion) -> tuple[Expansion, tuple[ReductionStep, ...]]:
    """Reference reducer: rescan the whole expansion before every step.

    Quadratic in the length; `reduction.reduce_expansion` must apply the
    same steps in the same order and reach the same fixpoint.
    """
    steps = []
    current = e
    while (step := next(_steps(current.coefficients), None)) is not None:
        current = apply_rule(current, step)
        steps.append(step)
    return current, tuple(steps)


def check_trace(trace: ReductionTrace) -> bool:
    """Replay and value-check a trace; used by tests and verification runs."""
    value = eval_expansion(trace.initial)
    prev = trace.initial
    for step, recorded in trace.steps:
        result = apply_rule(prev, step)
        if result != recorded or eval_expansion(result) != value or len(result) >= len(prev):
            return False
        prev = result
    return prev == trace.final
