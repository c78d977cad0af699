import random
import sys
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twobridge.conway
import twobridge.invariants
from twobridge import (
    DomainError,
    Expansion,
    KnotId,
    conway_diagram,
    crosscap,
    eval_expansion,
    knot_from_fraction,
    parse_expansion,
    find_record,
    format_expansion,
    invariant_report,
    verify_diagram,
)
from twobridge.conway import (
    ConwayDiagram,
    _interleave,
    diagram_from_expansion,
    format_diagram,
    odd_shortest_expansion,
)
from twobridge.errors import InternalError
from twobridge.oracles import AdditiveExpansion, eval_additive, mirror, same_knot, verify_diagram_by_value


def interleave_by_loop(c):
    """The element-by-element loop that `_interleave` replaced, kept as its reference."""
    out = [c[0] - 1, -1]
    last = len(c) - 1
    for i in range(1, len(c)):
        if i == last and len(c) % 2 == 1:
            out.append(c[i] + 1)
        else:
            out.append(c[i])
            out.append(1 if i % 2 == 1 else -1)
    return out


def a_wrong_knot(k):
    """The knot S(q, p') with the least p' that is not k itself (k has q > 1)."""
    return next(KnotId(k.q, p) for p in range(1, k.q) if gcd(p, k.q) == 1 and not same_knot(KnotId(k.q, p), k))


# twist regions with 0, +-1, negative and past-64-bit entries
regions_of = st.lists(
    st.integers(-4, 4) | st.integers(-(2**70), 2**70) | st.sampled_from([0, 1, -1, 2**64 + 1, -(2**65)]),
    max_size=12,
).map(tuple)


class TestOddShortest:
    @pytest.mark.parametrize(
        "q,p,expected",
        [(9, 2, "[5,2]"), (15, 4, "[4,5,1]"), (5, 2, "[3,2]")],
    )
    def test_examples(self, q, p, expected):
        k = KnotId(q, p)
        e = odd_shortest_expansion(k)
        assert str(e) == expected
        assert e.odd_type
        assert len(e) == crosscap(k)

    def test_unknot(self):
        with pytest.raises(DomainError):
            odd_shortest_expansion(KnotId(1, 0))

    def test_lone_two_is_refused(self, monkeypatch):
        # a memo that answered [2], fired at its 2, leaves no neighbour for the rectangle move
        monkeypatch.setattr(twobridge.conway, "analyze", lambda p, q: ((0, 2), Expansion(0, (2,)), 0))
        with pytest.raises(InternalError, match=r"\[2\] is r \+ 1/2"):
            odd_shortest_expansion(KnotId(5, 2))


class TestConstruction:
    def test_examples(self):
        assert conway_diagram(KnotId(3, 1)).twist_regions == (3,)
        assert conway_diagram(KnotId(5, 2)).twist_regions == (2, -1, 2, 1)
        d = conway_diagram(KnotId(15, 4))
        assert d.twist_regions == (3, -1, 5, 1, 2)
        assert len(d.twist_regions) == 5  # 2*gamma - 1 for gamma = 3

    @pytest.mark.parametrize(
        "name,reduced,source,regions",
        [
            ("3_1", "[3]", "[3]", "C(3)"),  # an odd coefficient fires: T itself
            ("11a_119", "[2,-4,-4,2]", "[2,-4,-5,-2]", "C(1,-1,-4,1,-5,-1,-2,1)"),  # the rightmost 2: one rectangle move
            ("7_4", "[4,4]", "[4,5,1]", "C(3,-1,5,1,2)"),  # nothing fires: the last coefficient split
        ],
    )
    def test_each_branch_on_table_knots(self, name, reduced, source, regions):
        k = knot_from_fraction(find_record(name).fraction)
        d = conway_diagram(k)
        assert format_expansion(invariant_report(k).reduced) == reduced
        assert format_expansion(d.source_expansion) == source
        assert format_diagram(d) == regions
        assert verify_diagram(d, k)

    def test_region_count_parity(self):
        for q, p in [(3, 1), (5, 2), (9, 2), (15, 4), (55, 21), (29, 12)]:
            k = KnotId(q, p)
            gamma = crosscap(k)
            expected = 2 * gamma - 1 if gamma % 2 == 1 else 2 * gamma
            assert len(conway_diagram(k).twist_regions) == expected

    def test_no_zero_regions_and_unit_budget(self):
        for q in range(3, 120, 2):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                k = KnotId(q, p)
                c = odd_shortest_expansion(k)
                assert sum(1 for v in c.coefficients if abs(v) == 1) <= 1
                d = conway_diagram(k)
                assert 0 not in d.twist_regions

    def test_refuses_a_zero_region(self):
        # a source starting with 1, or ending with -1 at odd length, would
        # give a zero region; the message names its position
        with pytest.raises(DomainError, match="zero twist region at position 1$"):
            diagram_from_expansion(Expansion(0, (1, 3, 2)))
        with pytest.raises(DomainError, match="zero twist region at position 5$"):
            diagram_from_expansion(Expansion(0, (3, 4, -1)))
        # at even length the last region is the literal 1, so a trailing -1 is fine
        d = diagram_from_expansion(Expansion(0, (3, -1)))
        assert d.twist_regions == (2, -1, -1, 1)
        assert eval_expansion(Expansion(0, d.twist_regions)) == eval_expansion(d.source_expansion)

    @settings(deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=30)
        | st.lists(st.integers(1, 3) | st.integers(1, 10**12), min_size=1, max_size=12),
        st.booleans(),
    )
    def test_source_never_gives_a_zero_region(self, quotients, flip):
        # the three cases of `conway_diagram`'s docstring: the source never
        # starts with 1 and never ends with -1 at odd length
        x = eval_additive(AdditiveExpansion(0, tuple(quotients)))
        q = x.denominator
        assume(q % 2 == 1 and q > 1)
        k = KnotId(q, q - x.numerator if flip else x.numerator)
        d = conway_diagram(k)
        c = d.source_expansion.coefficients
        assert c[0] != 1
        assert not (len(c) % 2 == 1 and c[-1] == -1)
        assert 0 not in d.twist_regions
        assert verify_diagram(d, k)

    def test_interleave_matches_the_loop(self):
        rng = random.Random(19)
        for n in range(1, 41):
            for _ in range(20):
                c = tuple(
                    rng.choice((-1, 1)) * rng.choice((rng.randint(1, 9), rng.getrandbits(70) + 1)) for _ in range(n)
                )
                # at length 1 the loop's -1 and +1 cancel, leaving the one region c_1
                assert _interleave(c) == (interleave_by_loop(c) if n > 1 else [c[0]]), c

    def test_rejects_bad_sources(self):
        with pytest.raises(DomainError):
            diagram_from_expansion(Expansion(0, ()))
        with pytest.raises(DomainError):
            diagram_from_expansion(Expansion(0, (1, 3, 1)))
        # two units that give no zero region
        with pytest.raises(DomainError, match="more than one unit"):
            diagram_from_expansion(Expansion(0, (3, 1, 1, 3)))
        for zero in ((3, 0, 3), (4, 0), (0,)):
            with pytest.raises(DomainError):
                diagram_from_expansion(Expansion(0, zero))
        with pytest.raises(DomainError):
            conway_diagram(KnotId(1, 0))


class TestVerification:
    def test_published_7_4_diagrams(self):
        k = KnotId(15, 4)
        assert verify_diagram(ConwayDiagram((2, 1, 5, -1, 3)), k)
        assert verify_diagram(ConwayDiagram((4, 1, 1, 1, 4)), k)

    def test_trefoil(self):
        assert verify_diagram(ConwayDiagram((3,)), KnotId(3, 1))

    def test_convention_is_subtractive_reading(self):
        # the twist regions, read as a subtractive continued fraction,
        # give a fraction equivalent to p/q; additive readings of the
        # published diagrams land on the wrong denominator entirely
        regions = (2, 1, 5, -1, 3)
        v = eval_expansion(Expansion(0, regions))
        assert same_knot(knot_from_fraction(v), KnotId(15, 4))

        def additive(seq):
            acc = None
            for b in reversed(seq):
                acc = b if acc is None else b + 1 / acc
            return acc

        assert additive(regions) != 15 / 4 and additive(regions[::-1]) != 15 / 4

    def test_rejections(self):
        k = KnotId(15, 4)
        assert not verify_diagram(ConwayDiagram((2, 1, 5, -1, 4)), k)  # wrong knot
        assert not verify_diagram(ConwayDiagram((3, 0, 5, 1, 2)), k)  # zero region
        assert not verify_diagram(ConwayDiagram((2, 1, 5, -1)), k)  # wrong count
        assert not verify_diagram(ConwayDiagram(()), k)
        assert not verify_diagram(ConwayDiagram((1, 1)), k)  # value 1/0

    def test_unknot_asks_for_an_integer_value(self):
        unknot = KnotId(1, 0)
        assert verify_diagram(ConwayDiagram((1,)), unknot)  # value 1
        assert verify_diagram(ConwayDiagram((-1,)), unknot)  # value -1
        assert not verify_diagram(ConwayDiagram((1, 1)), unknot)  # value 1/0
        assert not verify_diagram(ConwayDiagram((2,)), unknot)  # value 1/2

    @settings(deadline=None)
    @given(regions_of, st.data())
    def test_matches_the_value_route(self, regions, data):
        # the knot the regions name (when they name one), a wrong knot of
        # the same denominator, a fixed knot or the unknot
        knots = [KnotId(15, 4), KnotId(1, 0)]
        v = eval_expansion(Expansion(0, regions))
        if not v.is_infinite and v.denominator % 2 == 1:
            named = knot_from_fraction(v)
            knots[:0] = [named, mirror(named), a_wrong_knot(named)] if named.q > 1 else [named]
        k = data.draw(st.sampled_from(knots))
        d = ConwayDiagram(regions)
        assert verify_diagram(d, k) == verify_diagram_by_value(d, k)

    def test_matches_the_value_route_on_every_diagram_and_its_unit_perturbations(self):
        for q in range(3, 152, 2):
            for p in range(1, q):
                if gcd(p, q) != 1:
                    continue
                k = KnotId(q, p)
                d = conway_diagram(k)
                assert verify_diagram(d, k) and verify_diagram_by_value(d, k)
                # the mirror S(q, -p) is k itself iff k is amphichiral, as 4_1 = S(5,2) is
                assert verify_diagram(d, mirror(k)) == (p * p % q == q - 1), k
                t = d.twist_regions
                for i in range(len(t)):
                    for step in (1, -1):
                        moved = ConwayDiagram(t[:i] + (t[i] + step,) + t[i + 1 :])
                        assert verify_diagram(moved, k) == verify_diagram_by_value(moved, k), (moved, k)

    def test_count_check_is_apart_from_the_serving_rule(self, monkeypatch):
        # with the rule's verdict flipped in the memo that verify's crosscap reads,
        # its gamma is off by one, and verify rejects the diagrams the oracle accepts
        serving = twobridge.invariants.analyze

        def flipped(p, q):
            cf, reduced, fired = serving(p, q)
            return cf, reduced, 0 if fired is None else None

        knots = [KnotId(3, 1), KnotId(15, 4), KnotId(9, 2), KnotId(55, 21)]
        diagrams = [conway_diagram(k) for k in knots]
        monkeypatch.setattr(twobridge.invariants, "analyze", flipped)
        for d, k in zip(diagrams, knots):
            assert verify_diagram_by_value(d, k) and not verify_diagram(d, k)

    def test_serialization(self):
        assert format_diagram(conway_diagram(KnotId(15, 4))) == "C(3,-1,5,1,2)"
        assert format_diagram(ConwayDiagram((2, -1, 2, 1))) == "C(2,-1,2,1)"

    def test_serialization_under_the_default_limit(self):
        # a twist region past the int-string limit is written like core's numbers
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            d = conway_diagram(KnotId(7 * (10**5000 - 1) // 9, 2))
            assert format_diagram(d) == "C(3" + "8" * 4999 + ",-1,2,1)"
        finally:
            sys.set_int_max_str_digits(saved)
