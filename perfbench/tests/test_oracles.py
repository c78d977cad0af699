"""Tests of the benchmark's own oracles and of its traced counts.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import random
import subprocess
import sys
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

from oracles import (  # noqa: E402
    alexander_genus,
    evaluate,
    farey_depth,
    knot_of,
    parse_diagram_text,
    parse_expansion_text,
    regions_expected,
)
from twobridge import (  # noqa: E402
    Expansion,
    ExtendedRational,
    KnotId,
    conway_diagram,
    depth,
    eval_expansion,
    format_expansion,
    genus,
)
from twobridge.conway import format_diagram  # noqa: E402


def partial_quotients(p, q):
    out = []
    while q:
        a, r = divmod(p, q)
        out.append(a)
        p, q = q, r
    return out


def mediant_walk_depth(p, q):
    """Depth by single mediant steps, O(sum of partial quotients): the slow reference."""
    p %= q
    if p == 0:
        return 0
    a, b, c, d, dl, dr = 0, 1, 1, 1, 0, 0
    while True:
        dm = 1 + min(dl, dr)
        if p * (b + d) == q * (a + c):
            return dm
        if p * (b + d) < q * (a + c):
            c, d, dr = a + c, b + d, dm
        else:
            a, b, dl = a + c, b + d, dm


def test_farey_depth_matches_the_program_for_q_up_to_400():
    checked = 0
    for q in range(1, 401):
        for p in range(q):
            if gcd(p, q) == 1:
                assert farey_depth(p, q) == depth(ExtendedRational(p, q)), (p, q)
                checked += 1
    assert checked == 48678


def test_farey_depth_matches_single_mediant_steps():
    for q in range(1, 120):
        for p in range(-q, 2 * q):
            if gcd(p, q) == 1:
                assert farey_depth(p, q) == mediant_walk_depth(p, q), (p, q)


def test_farey_depth_on_huge_quotients():
    assert farey_depth(2, 3**40) == 2
    assert farey_depth(3**40 - 1, 3**40) == 1
    assert farey_depth(1, 0) == 0 and farey_depth(7, 1) == 0


def test_alexander_genus_matches_the_program_for_odd_q_up_to_151():
    for q in range(3, 152, 2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                assert alexander_genus(p, q) == genus(KnotId(q, p)), (p, q)


def test_alexander_genus_examples():
    assert alexander_genus(1, 3) == 1  # trefoil
    assert alexander_genus(2, 5) == 1  # figure eight
    assert alexander_genus(4, 15) == 1  # 7_4
    assert all(alexander_genus(q - 1, q) == (q - 1) // 2 for q in (3, 5, 101, 999))


def test_evaluate_matches_the_program():
    rng = random.Random(5)
    for _ in range(3000):
        r = rng.randint(-3, 3)
        coeffs = tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 9)))
        v = eval_expansion(Expansion(r, coeffs))
        assert evaluate(r, coeffs) == (v.numerator, v.denominator), (r, coeffs)


def test_evaluate_examples():
    assert evaluate(0, (3, 2)) == (2, 5)
    assert evaluate(1, (-2, -2)) == (1, 3)
    assert evaluate(0, (0,)) == (1, 0)
    assert evaluate(5, ()) == (5, 1)


def test_region_lists_name_their_knot():
    assert knot_of(evaluate(0, (4, -1, 2, 1)), 9, 2)
    for q in range(3, 80, 2):
        for p in range(1, q):
            if gcd(p, q) != 1:
                continue
            regions = conway_diagram(KnotId(q, p)).twist_regions
            assert knot_of(evaluate(0, regions), q, p)
            assert not knot_of(evaluate(0, regions), q + 2, p)
    assert regions_expected(1) == 1 and regions_expected(2) == 4 and regions_expected(3) == 5


def test_printed_forms_parse_back():
    for e in (Expansion(0, (3, 2)), Expansion(-2, (5, -2, 4)), Expansion(1, ())):
        assert parse_expansion_text(format_expansion(e)) == (e.integer_part, e.coefficients)
    for fraction in ((2, 9), (4, 15), (11, 29)):
        d = conway_diagram(KnotId(fraction[1], fraction[0]))
        assert parse_diagram_text(format_diagram(d)) == d.twist_regions
    assert parse_expansion_text("[3,,2]") is None and parse_diagram_text("C()") is None


def test_scale_inputs_follow_the_seed():
    import workloads

    first, again, other = (workloads.scale_inputs(s) for s in (11, 11, 12))
    assert [(k.p, k.q) for k in first] == [(k.p, k.q) for k in again]
    assert [(k.p, k.q) for k in first] != [(k.p, k.q) for k in other]
    for k in first:
        assert k.q % 2 == 1 and gcd(k.p, k.q) == 1 and 0 < k.p < k.q
        if k.family == "random":
            assert max(partial_quotients(k.p, k.q)[1:]) <= workloads.RANDOM_MAX_QUOTIENT
        if k.family == "fibonacci":
            assert set(partial_quotients(k.p, k.q)[1:-1]) == {1}


def traced_counts(seed):
    worker = os.path.join(BENCH, "worker.py")
    out = subprocess.run(
        [sys.executable, "-E", "-s", worker, "scale", str(seed), "traced"],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_two_traced_runs_of_one_seed_give_identical_counts():
    first, second = traced_counts(4), traced_counts(4)
    assert first["errors"] == [] and first["counts"] == second["counts"]
    assert first["counts"]["reduction.calls"] == first["attempted"] + 1  # the stage calls and the probe
