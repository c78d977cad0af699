"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Everything is exact integer arithmetic; there are no
tolerances anywhere.
"""

import random
import time
from math import gcd

import pytest

from twobridge import (
    Boundary,
    Expansion,
    ExtendedRational,
    KnotId,
    all_shortest_expansions,
    boundary_classification,
    conway_diagram,
    crosscap,
    eval_expansion,
    genus,
    knot_from_fraction,
    load_table,
    reduce_expansion,
    verify_diagram,
    verify_table,
)
from twobridge.conway import ConwayDiagram, odd_shortest_expansion
from twobridge.core import division_expansion
from twobridge.diagram import rectangle_move
from twobridge.invariants import even_expansion, family_k_mn, plumbing_surface
from twobridge.oracles import (
    brute_force_min_length,
    check_trace,
    depth_by_mediant_walk,
    gamma_equals_2g_plus_1,
    mirror,
    odd_type_among_shortest,
    rectangle_positions,
    reduce_with_strategy,
)

STARRED = {"7_4", "8_3", "9_5", "10_3", "11a_343", "11a_363", "12a_1166", "12a_1287"}


def report(number: int, ok: bool, detail: str):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok


def coprime_fractions(lo: int, hi: int, step: int = 1):
    for q in range(lo, hi + 1, step):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield p, q


def test_criterion_1_table_reproduction():
    t0 = time.time()
    table_report = verify_table()
    elapsed = time.time() - t0
    records = load_table()
    ok = (
        table_report.ok
        and table_report.total == 362
        and all(table_report.passed[c] == 362 for c in table_report.CHECKS)
        and {r.name for r in records if r.starred} == STARRED
    )
    report(1, ok, f"362/362 rows on all five checks in {elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for p, q in coprime_fractions(2, 300):
        x = ExtendedRational(p, q)
        reduced, _ = reduce_expansion(division_expansion(x))
        if len(reduced) != depth_by_mediant_walk(x):
            report(2, False, f"reduce/depth disagree at {x}")
        checked += 1

    # brute-force agreement for q <= 60 within length <= 4, |b| <= 8:
    # the exhaustive minimum can never beat depth, and it must equal depth
    # whenever the reduced expansion itself lies inside the search domain
    # (integer part 0, length <= 4, coefficients bounded by 8).
    agreements = in_domain = 0
    for p, q in coprime_fractions(2, 60):
        x = ExtendedRational(p, q)
        d = depth_by_mediant_walk(x)
        b = brute_force_min_length(x, max_len=4, coeff_bound=8)
        if b is not None and b < d:
            report(2, False, f"brute force beat the depth oracle at {x}")
        reduced, _ = reduce_expansion(division_expansion(x))
        fits = (
            reduced.integer_part == 0
            and len(reduced) <= 4
            and all(abs(c) <= 8 for c in reduced.coefficients)
        )
        if fits:
            in_domain += 1
            if b == d:
                agreements += 1
            else:
                report(2, False, f"brute force missed depth at {x}: {b} vs {d}")
    elapsed = time.time() - t0
    report(
        2,
        True,
        f"{checked} fractions reduce to depth; brute force agrees on all "
        f"{agreements}/{in_domain} in-domain cases in {elapsed:.2f}s",
    )


def test_criterion_3_rewrite_soundness():
    t0 = time.time()
    rng = random.Random(20260809)
    strategy_seeds = [11, 23, 37, 51, 73]
    for _ in range(10_000):
        length = rng.randint(0, 8)
        coeffs = tuple(rng.choice([b for b in range(-6, 7) if b != 0]) for _ in range(length))
        e = Expansion(rng.randint(-3, 3), coeffs)
        value = eval_expansion(e)

        reduced, trace = reduce_expansion(e)
        if not check_trace(trace) or eval_expansion(reduced) != value:
            report(3, False, f"reduction broke the value of {e}")

        for pos in rectangle_positions(e):
            moved = rectangle_move(e, pos)
            if eval_expansion(moved) != value or len(moved) != len(e):
                report(3, False, f"rectangle move broke {e} at {pos}")

        lengths = {
            len(reduce_with_strategy(e, random.Random(seed))) for seed in strategy_seeds
        }
        if lengths != {len(reduced)}:
            report(3, False, f"strategies disagree on {e}: {lengths}")
    report(3, True, f"10000 random expansions sound in {time.time() - t0:.2f}s")


def test_criterion_4_invariant_laws():
    t0 = time.time()
    knots = 0
    for p, q in coprime_fractions(3, 300, step=2):
        k = KnotId(q, p)
        g, c = genus(k), crosscap(k)
        if not 1 <= c <= 2 * g + 1:
            report(4, False, f"bound broken at {k}: gamma={c}, g={g}")
        inverse = KnotId(q, pow(p, -1, q))
        if crosscap(inverse) != c or crosscap(mirror(k)) != c:
            report(4, False, f"gamma not invariant at {k}")
        if genus(mirror(k)) != g:
            report(4, False, f"genus not mirror invariant at {k}")
        if gamma_equals_2g_plus_1(k) != (c == 2 * g + 1):
            report(4, False, f"2g+1 characterization inconsistent at {k}")
        syntactic = boundary_classification(k) is Boundary.INCOMPRESSIBLE
        if syntactic != odd_type_among_shortest(k):
            report(4, False, f"boundary routes disagree at {k}")
        knots += 1
    report(4, True, f"laws hold for all {knots} knots with odd q <= 300 in {time.time() - t0:.2f}s")


def test_criterion_5_families():
    t0 = time.time()
    for m in (3, 5, 7, 9):
        for n in range(1, 7):
            k = family_k_mn(m, n)
            if crosscap(k) != n:
                report(5, False, f"gamma(K_{m},{n}) != {n}")
    for m in (4, 6, 8):
        for n in (2, 4, 6):
            k = family_k_mn(m, n)
            if genus(k) != n // 2 or crosscap(k) != n + 1:
                report(5, False, f"even family broken at m={m}, n={n}")
    for m in (3, 5, 7):
        plumbing = Expansion(0, (m, 2, 2, m))
        reduced, _ = reduce_expansion(plumbing)
        if reduced != Expansion(0, (m - 1, -3, m - 1)):
            report(5, False, f"[{m},2,2,{m}] did not reduce to [{m-1},-3,{m-1}]")
        # the boundary of the sum is a 2-bridge link (even denominator),
        # so apply the crosscap decision rule to the reduced expansion
        has_odd_or_two = any(c % 2 != 0 or abs(c) == 2 for c in reduced.coefficients)
        gamma = len(reduced) if has_odd_or_two else len(reduced) + 1
        if gamma != 3:
            report(5, False, f"gamma of the [{m},2,2,{m}] boundary is not 3")
        if plumbing_surface(plumbing).first_betti != 4:
            report(5, False, "the summed surface should have betti number 4")
    report(5, True, f"family values and plumbing sums check out in {time.time() - t0:.2f}s")


def test_criterion_6_conway_construction():
    t0 = time.time()
    for rec in load_table():
        k = knot_from_fraction(rec.fraction)
        source = odd_shortest_expansion(k)
        if sum(1 for v in source.coefficients if abs(v) == 1) > 1:
            report(6, False, f"{rec.name}: source expansion has two units")
        d = conway_diagram(k)
        gamma = crosscap(k)
        expected = 2 * gamma - 1 if gamma % 2 == 1 else 2 * gamma
        if len(d.twist_regions) != expected or 0 in d.twist_regions:
            report(6, False, f"{rec.name}: bad region list {d.twist_regions}")
        if not verify_diagram(d, k):
            report(6, False, f"{rec.name}: diagram failed verification")
    k74 = KnotId(15, 4)
    for regions in [(2, 1, 5, -1, 3), (4, 1, 1, 1, 4)]:
        if not verify_diagram(ConwayDiagram(tuple(regions)), k74):
            report(6, False, f"published diagram {regions} failed for S(15,4)")
    report(6, True, f"all 362 constructed diagrams verify in {time.time() - t0:.2f}s")


def test_criterion_7_spot_values():
    checks = [
        (crosscap(KnotId(9, 2)), 2, "6_1"),
        (crosscap(KnotId(15, 4)), 3, "7_4"),
        (crosscap(KnotId(1, 0)), 0, "unknot"),
    ]
    for q in range(3, 22, 2):
        reduced, _ = reduce_expansion(division_expansion(ExtendedRational(1, q)))
        checks.append((len(reduced), 1, f"S({q},1) expansion length"))
        checks.append((crosscap(KnotId(q, 1)), 1, f"S({q},1)"))
    for got, expected, label in checks:
        if got != expected:
            report(7, False, f"{label}: got {got}, expected {expected}")
    report(7, True, f"{len(checks)} spot values match")
