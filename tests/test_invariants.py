import importlib
import pkgutil
import random
import sys
import time
from collections import Counter
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import twobridge
import twobridge.cli
import twobridge.invariants
import twobridge.reduction
import twobridge.table

from twobridge import (
    Boundary,
    DomainError,
    Expansion,
    ExtendedRational,
    KnotId,
    boundary_classification,
    crosscap,
    eval_expansion,
    even_expansion,
    genus,
    invariant_report,
    parse_expansion,
    reduce_expansion,
)
from twobridge.conway import conway_diagram, verify_diagram
from twobridge.core import division_expansion, format_expansion
from twobridge.diagram import all_shortest_expansions, depth
from twobridge.errors import InternalError
from twobridge.invariants import (
    _even_runs,
    _fired,
    analyze,
    family_k_mn,
    plumbing_surface,
)
from twobridge.oracles import (
    AdditiveExpansion,
    alexander_genus,
    depth_by_mediant_walk,
    eval_additive,
    fraction_of,
    gamma_equals_2g_plus_1,
    mirror,
    odd_type_among_shortest,
    partial_quotients,
)


def odd_knots_up_to(limit):
    for q in range(3, limit + 1, 2):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield KnotId(q, p)


class TestEvenExpansion:
    @pytest.mark.parametrize(
        "q,p,expected",
        [(15, 4, "[4,4]"), (3, 1, "1+[-2,-2]"), (5, 2, "[2,-2]"), (37, 6, "[6,-6]"), (9, 2, "[4,-2]")],
    )
    def test_examples(self, q, p, expected):
        assert str(even_expansion(KnotId(q, p))) == expected

    def test_unknot_and_parity_properties(self):
        assert even_expansion(KnotId(1, 0)) == Expansion(0, ())
        for k in odd_knots_up_to(300):
            e = even_expansion(k)
            assert len(e) % 2 == 0
            assert all(c % 2 == 0 and c != 0 for c in e.coefficients)
            assert eval_expansion(e) == fraction_of(k)

    def test_no_second_even_sequence_within_bounds(self):
        # bounded support for uniqueness: at most one all-even coefficient
        # list of length <= 4 with |b| <= 8 hits each fraction class mod 1
        table = {}
        evens = [b for b in range(-8, 9, 2) if b != 0]

        def search(prefix):
            if prefix:
                v = eval_expansion(Expansion(0, prefix))
                if not v.is_infinite and v.denominator % 2 == 1:
                    key = (v.numerator % v.denominator, v.denominator)
                    table.setdefault(key, set()).add(prefix)
            if len(prefix) < 4:
                for b in evens:
                    search(prefix + (b,))

        search(())
        # uniqueness is a statement about knots: one even list per odd-q class
        for lists in table.values():
            assert len(lists) <= 1
        for k in odd_knots_up_to(60):
            e = even_expansion(k)
            found = table.get((k.p, k.q), set())
            if len(e) <= 4 and all(abs(c) <= 8 for c in e.coefficients):
                assert found == {e.coefficients}
            else:
                assert not found

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=40), st.booleans())
    def test_defining_properties_on_quotient_lists(self, quotients, mirrored):
        # all coefficients even and nonzero, even length, value p/q: this fixes
        # the expansion, since it is unique
        assume(quotients[-1] >= 2)
        x = eval_additive(AdditiveExpansion(0, tuple(quotients)))
        assume(x.denominator % 2 == 1)
        p, q = x.numerator, x.denominator
        k = KnotId(q, q - p if mirrored else p)
        e = even_expansion(k)
        assert all(c % 2 == 0 and c != 0 for c in e.coefficients)
        assert len(e) % 2 == 0
        assert eval_expansion(e) == fraction_of(k)
        assert genus(k) == len(e) // 2
        assert gamma_equals_2g_plus_1(k) == all(abs(c) != 2 for c in e.coefficients)


def even_runs_by_second_pass(k):
    """Reference for `_even_runs`: the same run reading over a Euclid pass of its own on q/|p'|."""
    if k.q == 1:
        return 0, ()
    r, tail = (1, k.p - k.q) if k.p % 2 else (0, k.p)
    s = 1 if tail > 0 else -1
    quotients = iter(partial_quotients(k.q, abs(tail)))
    runs = []
    carry = 0
    for a in quotients:
        a += carry
        if a % 2 == 0:
            runs.append((s * a, 1))
            s, carry = -s, 0
            continue
        twos = next(quotients)
        runs.append((s * (a + 1), 1))
        if twos > 1:
            runs.append((2 * s, twos - 1))
        carry = 1
    return r, tuple(runs)


def runs_and_length_by_second_pass(k):
    """The runs of `even_runs_by_second_pass` and the length they spell, summed from the run counts."""
    runs = even_runs_by_second_pass(k)
    return runs, sum(m for _, m in runs[1])


class TestEvenRunsFromTheSeedPass:
    # `_even_runs` derives the quotients of q/|p'| from those of p/q
    # instead of running a second Euclid pass, and counts the length it emits

    def test_every_knot_up_to_q_301(self):
        for k in odd_knots_up_to(301):
            assert _even_runs(k, partial_quotients(k.p, k.q)) == runs_and_length_by_second_pass(k)

    @given(
        st.integers(1, 4),
        st.lists(st.integers(1, 6), max_size=30),
        st.integers(2, 6),
        st.booleans(),
    )
    def test_quotient_lists(self, a1, middle, last, single):
        # p/q = [0; a_1, ..., a_n]: a_1 = 1, 2 or >= 3, n = 1 or more, and
        # both p and q - p, so both parities of p
        quotients = (a1 + 1,) if single else (a1, *middle, last)
        x = eval_additive(AdditiveExpansion(0, quotients))
        assume(x.denominator % 2 == 1)
        p, q = x.numerator, x.denominator
        assert partial_quotients(p, q) == (0, *quotients)
        for k in (KnotId(q, p), KnotId(q, q - p)):
            assert _even_runs(k, partial_quotients(k.p, k.q)) == runs_and_length_by_second_pass(k)

    def test_unknot(self):
        assert _even_runs(KnotId(1, 0), (0,)) == ((0, ()), 0)

    def test_odd_last_quotient_is_refused(self):
        # 2/5 = [0; 2, 2]; the list (0, 3) stands for no knot, and its odd last
        # quotient leaves no next quotient to pair it with
        with pytest.raises(InternalError, match="ends in an odd quotient"):
            _even_runs(KnotId(5, 2), (0, 3))


class TestGenusAndCrosscap:
    def test_genus_examples(self):
        assert genus(KnotId(15, 4)) == 1
        assert genus(KnotId(1, 0)) == 0
        assert genus(KnotId(37, 6)) == 1

    @pytest.mark.parametrize(
        "q,p,expected",
        [(9, 2, 2), (15, 4, 3), (3, 1, 1), (55, 21, 4), (1, 0, 0)],
    )
    def test_crosscap_examples(self, q, p, expected):
        assert crosscap(KnotId(q, p)) == expected

    def test_representative_independence(self):
        def reduced_length(x: ExtendedRational) -> int:
            return len(reduce_expansion(division_expansion(x))[0])

        for k in odd_knots_up_to(99):
            n = reduced_length(fraction_of(k))
            assert reduced_length(ExtendedRational(k.p + k.q, k.q)) == n
            assert reduced_length(ExtendedRational(pow(k.p, -1, k.q), k.q)) == n

    def test_bound_and_mirror_invariance(self):
        for k in odd_knots_up_to(99):
            g, c = genus(k), crosscap(k)
            assert 1 <= c <= 2 * g + 1
            assert crosscap(mirror(k)) == c
            assert genus(mirror(k)) == g


class TestReducedExpansion:
    def test_matches_the_division_route(self):
        for k in odd_knots_up_to(301):
            division_fixpoint, _ = reduce_expansion(division_expansion(fraction_of(k)))
            assert invariant_report(k).reduced == division_fixpoint

    def test_cost_is_bounded_by_the_continued_fraction(self):
        # the division expansion of (q-1)/q is [2]*(q-1)
        q = 10**30 + 1
        assert str(invariant_report(KnotId(q, q - 1)).reduced) == f"1+[-{q}]"


class TestGenusOracle:
    def test_alexander_genus_matches_genus(self):
        assert alexander_genus(KnotId(1, 0)) == genus(KnotId(1, 0)) == 0
        for k in odd_knots_up_to(201):
            assert alexander_genus(k) == genus(k)


class TestBoundCharacterization:
    @pytest.mark.parametrize("q,p,expected", [(15, 4, True), (5, 2, False), (17, 4, True)])
    def test_gamma_equals_2g_plus_1_examples(self, q, p, expected):
        assert gamma_equals_2g_plus_1(KnotId(q, p)) == expected

    def test_characterization_matches_direct_comparison(self):
        for k in odd_knots_up_to(99):
            assert gamma_equals_2g_plus_1(k) == (crosscap(k) == 2 * genus(k) + 1)

    @pytest.mark.parametrize(
        "q,p,expected",
        [(9, 2, Boundary.INCOMPRESSIBLE), (15, 4, Boundary.COMPRESSIBLE), (23, 6, Boundary.COMPRESSIBLE)],
    )
    def test_boundary_examples(self, q, p, expected):
        assert boundary_classification(KnotId(q, p)) == expected

    def test_boundary_routes_agree(self):
        for k in odd_knots_up_to(99):
            syntactic = boundary_classification(k) == Boundary.INCOMPRESSIBLE
            assert syntactic == odd_type_among_shortest(k)

    @given(
        st.lists(
            st.integers(-6, 6) | st.integers(-(2**80), 2**80) | st.sampled_from([2**64, -(2**64) - 1, 2, -2]),
            max_size=20,
        )
    )
    def test_rule_scans_match_their_definitions(self, coeffs):
        # odd_type and the rule scan in C; their per-coefficient definitions
        # hold on negative and past-64-bit coefficients too
        e = Expansion(0, coeffs)
        assert e.odd_type == any(c % 2 != 0 for c in coeffs)
        assert (_fired(e.coefficients) is not None) == any(c % 2 != 0 or abs(c) == 2 for c in coeffs)

    def test_the_coefficient_that_fires_the_rule(self):
        # every p/q with q < 60 and p in [-q, 2q], and every knot with odd q <= 151
        pairs = {(p, q) for q in range(1, 60) for p in range(-q, 2 * q + 1) if gcd(p, q) == 1}
        pairs |= {(k.p, k.q) for k in odd_knots_up_to(151)}
        for p, q in sorted(pairs):
            _, reduced, fired = analyze.__wrapped__(p, q)
            c = reduced.coefficients
            odd = [i for i, v in enumerate(c) if v % 2]
            twos = [i for i, v in enumerate(c) if abs(v) == 2]
            assert -2 not in c
            if fired is None:
                assert not odd and not twos, (p, q)
            elif odd:
                assert fired == odd[0], (p, q)
            else:
                assert c[fired] == 2 and fired == twos[-1], (p, q)

    def test_unknot_domain(self):
        with pytest.raises(DomainError):
            boundary_classification(KnotId(1, 0))
        with pytest.raises(DomainError):
            gamma_equals_2g_plus_1(KnotId(1, 0))


class TestPlumbingAndFamily:
    def test_plumbing_examples(self):
        s = plumbing_surface(parse_expansion("[4,4]"))
        assert (s.first_betti, s.orientable) == (2, True)
        s = plumbing_surface(parse_expansion("[5,2]"))
        assert (s.first_betti, s.orientable) == (2, False)
        for n in range(1, 6):
            s = plumbing_surface(Expansion(0, (5,) + (4,) * (n - 1)))
            assert (s.first_betti, s.orientable) == (n, False)
        with pytest.raises(DomainError):
            plumbing_surface(parse_expansion("[3,0,2]"))

    def test_family_examples(self):
        assert family_k_mn(3, 1) == KnotId(3, 1)
        assert family_k_mn(5, 2) == KnotId(19, 4)
        k = family_k_mn(4, 2)
        assert k == KnotId(15, 4) and crosscap(k) == 3

    def test_family_domain(self):
        with pytest.raises(DomainError):
            family_k_mn(2, 1)
        with pytest.raises(DomainError):
            family_k_mn(5, 0)


class TestReport:
    def test_unknot(self):
        r = invariant_report(KnotId(1, 0))
        assert (r.crosscap, r.genus, r.boundary) == (0, 0, Boundary.TRIVIAL)
        assert not r.odd_shortest_exists

    def test_fields_cohere(self):
        for k in list(odd_knots_up_to(45)):
            r = invariant_report(k)
            assert r.crosscap == crosscap(k)
            assert r.genus == genus(k)
            assert r.boundary is boundary_classification(k)
            assert r.reduced == analyze.__wrapped__(k.p, k.q)[1]
            assert (r.even_runs, 2 * r.genus) == _even_runs(k, partial_quotients(k.p, k.q))
            assert r.even_expansion == even_expansion(k)
            assert r.crosscap <= 2 * r.genus + 1
            assert (r.boundary == Boundary.INCOMPRESSIBLE) == r.odd_shortest_exists

    def test_key_value_lines(self, capsys):
        assert twobridge.cli.main(["invariants", "2/9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "crosscap=2" in lines
        assert "boundary=BoundaryIncompressible" in lines
        assert "knot=S(9,2)" in lines
        assert "odd_shortest_exists=true" in lines  # spelled as in the JSON form
        assert twobridge.cli.main(["invariants", "4/15"]) == 0
        assert "odd_shortest_exists=false" in capsys.readouterr().out.splitlines()

    def test_to_dict_of_a_knot_past_the_default_limit(self):
        q, digits = 7 * (10**5000 - 1) // 9, "7" * 5000
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            payload = invariant_report(KnotId(q, 2)).to_dict()
        finally:
            sys.set_int_max_str_digits(saved)
        assert payload["knot"] == f"S({digits},2)" and payload["fraction"] == f"2/{digits}"
        assert parse_expansion(payload["reduced"]) == Expansion(0, ((q + 1) // 2, 2))


class TestReportText:
    """`to_dict` writes the fraction and the even expansion from the report's fields, as the spelled values print."""

    @staticmethod
    def assert_text_of(k):
        report = invariant_report(k)
        payload = report.to_dict()
        assert payload["fraction"] == str(fraction_of(k))
        assert payload["even_expansion"] == format_expansion(report.even_expansion)

    def test_every_knot_with_odd_q_up_to_151(self):
        for k in odd_knots_up_to(151):
            self.assert_text_of(k)

    def test_torus_knots_and_their_mirrors(self):
        for q in range(3, 402, 2):
            self.assert_text_of(KnotId(q, 1))
            self.assert_text_of(KnotId(q, q - 1))

    def test_unknot(self):
        self.assert_text_of(KnotId(1, 0))
        assert invariant_report(KnotId(1, 0)).to_dict()["fraction"] == "0/1"

    def test_knot_past_the_default_limit(self):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            self.assert_text_of(KnotId(7 * (10**5000 - 1) // 9, 2))
        finally:
            sys.set_int_max_str_digits(saved)


class TestModuleCaches:
    def test_the_only_module_level_caches(self):
        # a new module-level cache is shared state; it comes with a benchmark that shows it pays
        caches = set()
        for info in pkgutil.iter_modules(twobridge.__path__):
            module = importlib.import_module(f"twobridge.{info.name}")
            caches |= {value for value in vars(module).values() if hasattr(value, "cache_info")}
        caches |= {value for value in vars(twobridge).values() if hasattr(value, "cache_info")}
        assert caches == {twobridge.invariants.analyze, twobridge.table._table}


class TestEuclidMemo:
    """One Euclid loop, which also reduces, and one rule scan per fraction: every view reads the memo `analyze`."""

    @pytest.fixture(autouse=True)
    def counted(self, monkeypatch):
        """Counts of Euclid loops, rule scans, even-run readings and spellings, from a cold memo."""
        counts = Counter()

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counting(twobridge.invariants, "reduce_fraction")
        counting(twobridge.invariants, "_fired")
        counting(twobridge.invariants, "_even_runs")
        counting(twobridge.invariants, "_spell")
        analyze.cache_clear()
        yield counts
        analyze.cache_clear()

    def test_every_invariant_of_one_knot(self, counted):
        k = KnotId(55, 21)
        x = fraction_of(k)
        report = invariant_report(k)
        assert verify_diagram(conway_diagram(k), k)
        assert depth(x) == len(report.reduced) == 4
        assert crosscap(k) == report.crosscap == 4
        assert boundary_classification(k) is report.boundary
        shortest = all_shortest_expansions(x)
        assert shortest.reduced == report.reduced and len(shortest.least()) == 4
        # the report reads the runs once and spells no even expansion
        assert counted == {"reduce_fraction": 1, "_fired": 1, "_even_runs": 1}
        assert analyze.cache_info().misses == 1

    def test_report_text_spells_no_even_expansion(self, counted, capsys):
        assert twobridge.cli.main(["invariants", "21/55"]) == 0
        assert "even_expansion=1+[-2,-2,2,2,-2,-2]" in capsys.readouterr().out.splitlines()
        assert counted["_spell"] == 0
        report = invariant_report(KnotId(55, 21))
        assert format_expansion(report.even_expansion) == "1+[-2,-2,2,2,-2,-2]"
        assert counted["_spell"] == 1

    def test_crosscap_boundary_diagram_read_no_even_runs(self, counted, monkeypatch):
        # the split, one rectangle move and T itself: past the miss's one `_fired`
        # no view scans a coefficient for the rule, not even through `odd_type`
        odd_type = Expansion.odd_type

        def counting_odd_type(e):
            counted["odd_type"] += 1
            return odd_type.fget(e)

        monkeypatch.setattr(Expansion, "odd_type", property(counting_odd_type))
        for q, p, gamma, boundary in [
            (15, 4, 3, Boundary.COMPRESSIBLE),
            (77, 34, 4, Boundary.INCOMPRESSIBLE),
            (3, 1, 1, Boundary.INCOMPRESSIBLE),
        ]:
            k = KnotId(q, p)
            analyze.cache_clear()
            counted.clear()
            assert verify_diagram(conway_diagram(k), k)
            assert crosscap(k) == gamma
            assert boundary_classification(k) == boundary
            assert counted == {"reduce_fraction": 1, "_fired": 1}

    def test_torus_knot_of_3_to_the_40(self, counted):
        k = KnotId(3**40, 1)
        assert crosscap(k) == 1
        assert genus(k) == (3**40 - 1) // 2
        assert depth(fraction_of(k)) == 1
        assert counted["reduce_fraction"] == 1

    def test_knot_of_2000_random_quotients(self, counted):
        rng = random.Random(2000)
        quotients = [rng.randint(1, 4) for _ in range(1999)] + [rng.randint(2, 4)]
        x = eval_additive(AdditiveExpansion(0, tuple(quotients)))
        if x.denominator % 2 == 0:
            x = eval_additive(AdditiveExpansion(0, tuple(quotients[:-1]) + (quotients[-1] + 1,)))
        k = KnotId(x.denominator, x.numerator)
        report = invariant_report(k)
        assert verify_diagram(conway_diagram(k), k)
        assert depth(fraction_of(k)) == len(report.reduced) == depth_by_mediant_walk(x)
        assert genus(k) == report.genus
        assert counted["reduce_fraction"] == 1

    def test_one_slot(self, counted):
        a, b = KnotId(9, 2), KnotId(15, 4)
        for k in (a, a, b, b, a):
            invariant_report(k)
            crosscap(k)
        assert counted["reduce_fraction"] == 3
        # the rule is applied once per miss and never on a hit
        assert counted["_fired"] == analyze.cache_info().misses == 3
        assert analyze.cache_info().hits == 7
        assert analyze.cache_info().currsize == 1

    def test_threads_share_the_memos(self):
        # 8 threads switching every microsecond, so calls on
        # different knots interleave between the memo's lookup and its store
        from concurrent.futures import ThreadPoolExecutor

        knots = list(odd_knots_up_to(45))
        random.Random(45).shuffle(knots)

        def numbers(k):
            return invariant_report(k), depth(fraction_of(k)), crosscap(k), genus(k)

        serial = [numbers(k) for k in knots]
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(numbers, k) for k in knots]
                parallel = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(saved)
        assert parallel == serial

    def test_memo_is_transparent(self):
        # every p/q with q <= 60 and p in [-q, 2q]: negative p, p > q and even q
        pairs = [(p, q) for q in range(1, 61) for p in range(-q, 2 * q + 1) if gcd(p, q) == 1]
        random.Random(60).shuffle(pairs)
        for a, b in zip(pairs[::2], pairs[1::2]):
            for p, q in (a, b, a, a):
                assert analyze(p, q) == analyze.__wrapped__(p, q)
                if q % 2:
                    k = KnotId(q, p)
                    assert crosscap(k) == invariant_report(k).crosscap


class TestBoundedCost:
    # the even expansion of T(2,q) is [2]*(q-1); none of these may build it,
    # and genus and the 2g+1 test read it as runs of the partial quotients
    @pytest.mark.parametrize("q", [10**30 + 1, 3**40])
    @pytest.mark.parametrize("mirrored", [False, True])
    def test_torus_knots(self, q, mirrored):
        k = KnotId(q, q - 1 if mirrored else 1)
        assert crosscap(k) == 1
        assert boundary_classification(k) == Boundary.INCOMPRESSIBLE
        assert verify_diagram(conway_diagram(k), k) is True
        assert genus(k) == (q - 1) // 2
        assert gamma_equals_2g_plus_1(k) is False

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_report_of_a_huge_torus_knot(self, mirrored):
        # the report keeps the runs, so it answers at once where the even expansion has 10**30 coefficients
        q = 10**30 + 1
        started = time.perf_counter()
        report = invariant_report(KnotId(q, q - 1 if mirrored else 1))
        assert time.perf_counter() - started < 1
        assert report.genus == 5 * 10**29
        assert (report.crosscap, report.boundary) == (1, Boundary.INCOMPRESSIBLE)
        assert sum(m for _, m in report.even_runs[1]) == 10**30

    def test_report_spells_the_even_expansion_of_small_torus_knots(self):
        for q in range(3, 402, 2):
            for k in (KnotId(q, 1), KnotId(q, q - 1)):
                assert invariant_report(k).even_expansion == even_expansion(k)
                assert len(even_expansion(k)) == q - 1

    def test_unknot(self):
        unknot = KnotId(1, 0)
        assert crosscap(unknot) == 0
        with pytest.raises(DomainError):
            boundary_classification(unknot)
        with pytest.raises(DomainError):
            conway_diagram(unknot)
