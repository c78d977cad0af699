import random
import time
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twobridge import Expansion, ExtendedRational, eval_expansion, parse_expansion, reduce_expansion
from twobridge.core import division_expansion, format_expansion
from twobridge.errors import DomainError, InternalError, PatternMatchError
from twobridge.invariants import analyze
from twobridge.oracles import (
    AdditiveExpansion,
    applicable_steps,
    check_trace,
    depth_by_mediant_walk,
    eval_additive,
    partial_quotients,
    reduce_by_scanning,
    reduce_with_strategy,
    seed_expansion,
)
from twobridge.reduction import (
    ReductionStep,
    Rule,
    _settle,
    apply_rule,
    format_trace,
    is_reduced,
    reduce_fraction,
)

expansions = st.builds(
    Expansion,
    st.integers(-3, 3),
    st.lists(st.integers(-6, 6), min_size=0, max_size=8).map(tuple),
)

long_expansions = st.builds(
    Expansion,
    st.integers(-3, 3),
    st.lists(st.integers(-3, 3), min_size=0, max_size=400).map(tuple),
)

# coefficients and integer parts of many digits, among them powers of 10 and their neighbours
wide_ints = st.one_of(
    st.integers(-6, 6),
    st.integers(-(10**40), 10**40),
    st.builds(lambda k, d, sign: sign * (10**k + d), st.integers(1, 40), st.integers(-7, 7), st.sampled_from([1, -1])),
)
wide_expansions = st.builds(Expansion, wide_ints, st.lists(wide_ints, min_size=0, max_size=12).map(tuple))


def step(rule, pos, eps=0, m=0):
    return ReductionStep(rule, pos, epsilon=eps, block_length=m)


class TestApplyRule:
    @pytest.mark.parametrize(
        "text,s,expected",
        [
            # zero removal, all three forms
            ("[7,0,2]", step(Rule.REMOVE_ZERO, 2), "[9]"),
            ("[5,3,0]", step(Rule.REMOVE_ZERO, 3), "[5]"),
            ("[3,0]", step(Rule.REMOVE_ZERO, 2), "[]"),
            ("2+[0,4,5]", step(Rule.REMOVE_ZERO, 1), "-2+[5]"),
            ("1+[0,6]", step(Rule.REMOVE_ZERO, 1), "-5+[]"),
            # unit removal, all four forms
            ("[4,1,6]", step(Rule.REMOVE_UNIT, 2, eps=1), "[3,5]"),
            ("[4,5,1]", step(Rule.REMOVE_UNIT, 3, eps=1), "[4,4]"),
            ("[4,-1,6]", step(Rule.REMOVE_UNIT, 2, eps=-1), "[5,7]"),
            ("2+[1,5]", step(Rule.REMOVE_UNIT, 1, eps=1), "3+[4]"),
            ("2+[-1]", step(Rule.REMOVE_UNIT, 1, eps=-1), "1+[]"),
            # block removal, all four forms
            ("[5,2,2,5]", step(Rule.REMOVE_BLOCK, 2, eps=1, m=2), "[4,-3,4]"),
            ("[5,2,3,2]", step(Rule.REMOVE_BLOCK, 2, eps=1, m=3), "[4,-3,-3]"),
            ("[2,3,2,7]", step(Rule.REMOVE_BLOCK, 1, eps=1, m=3), "1+[-3,-3,6]"),
            ("[2,3,2]", step(Rule.REMOVE_BLOCK, 1, eps=1, m=3), "1+[-3,-3]"),
            ("[-2,-3,-2]", step(Rule.REMOVE_BLOCK, 1, eps=-1, m=3), "-1+[3,3]"),
            ("[4,-2,-2,6]", step(Rule.REMOVE_BLOCK, 2, eps=-1, m=2), "[5,3,7]"),
        ],
    )
    def test_all_rule_forms(self, text, s, expected):
        e = parse_expansion(text)
        out = apply_rule(e, s)
        assert out == parse_expansion(expected)
        assert eval_expansion(out) == eval_expansion(e)

    def test_length_drop(self):
        assert len(apply_rule(parse_expansion("[7,0,2]"), step(Rule.REMOVE_ZERO, 2))) == 1
        assert len(apply_rule(parse_expansion("[4,5,1]"), step(Rule.REMOVE_UNIT, 3, eps=1))) == 2
        assert len(apply_rule(parse_expansion("[5,2,2,5]"), step(Rule.REMOVE_BLOCK, 2, eps=1, m=2))) == 3

    @pytest.mark.parametrize(
        "text,s",
        [
            ("[3,2]", step(Rule.REMOVE_ZERO, 1)),
            ("[0]", step(Rule.REMOVE_ZERO, 1)),
            ("[3,2]", step(Rule.REMOVE_UNIT, 1, eps=1)),
            ("[1]", step(Rule.REMOVE_UNIT, 1, eps=-1)),
            ("[2,2]", step(Rule.REMOVE_BLOCK, 1, eps=-1, m=2)),
            ("[2,3,4]", step(Rule.REMOVE_BLOCK, 1, eps=1, m=3)),
            ("[2,2]", step(Rule.REMOVE_BLOCK, 2, eps=1, m=2)),
            ("[3,2]", step(Rule.REMOVE_UNIT, 5, eps=1)),
        ],
    )
    def test_pattern_mismatch(self, text, s):
        with pytest.raises(PatternMatchError):
            apply_rule(parse_expansion(text), s)

    def test_unknown_rule(self):
        # a rule's name is no rule
        with pytest.raises(PatternMatchError, match="^unknown rule 'RemoveZero'$"):
            apply_rule(parse_expansion("[3,0,2]"), step("RemoveZero", 2))


def first_move(text):
    """The step reduce_expansion takes first, as a tuple of at most one."""
    return reduce_expansion(parse_expansion(text))[1].moves[:1]


class TestScan:
    def test_examples(self):
        assert first_move("[7,0,2]") == (step(Rule.REMOVE_ZERO, 2),)
        assert first_move("[4,4]") == ()
        assert first_move("[2,2,1]") == (step(Rule.REMOVE_UNIT, 3, eps=1),)

    def test_priority_and_leftmost(self):
        # zero beats unit beats block; leftmost within one rule
        assert first_move("[1,0,2,2]")[0].rule is Rule.REMOVE_ZERO
        assert first_move("[2,2,1]")[0].rule is Rule.REMOVE_UNIT
        assert first_move("[3,0,5,0,2]") == (step(Rule.REMOVE_ZERO, 2),)
        assert first_move("[5,2,2,-2,-2]") == (step(Rule.REMOVE_BLOCK, 2, eps=1, m=2),)

    def test_block_with_threes(self):
        assert first_move("[5,2,3,3,2,4]") == (step(Rule.REMOVE_BLOCK, 2, eps=1, m=4),)
        # a 2-run never borrows a 3 of the opposite sign
        assert first_move("[5,2,-3,2]") == ()

    def test_lone_zero_is_a_fixpoint(self):
        assert first_move("[0]") == ()
        assert first_move("3+[0]") == ()


class TestReduce:
    @pytest.mark.parametrize(
        "text,expected_len",
        [("[3]", 1), ("[5,2,2,5]", 3), ("[4,5,1]", 2), ("1+[-1,2]", 1)],
    )
    def test_example_lengths(self, text, expected_len):
        reduced, _ = reduce_expansion(parse_expansion(text))
        assert len(reduced) == expected_len

    def test_examples(self):
        assert reduce_expansion(parse_expansion("[3]"))[0] == parse_expansion("[3]")
        assert reduce_expansion(parse_expansion("[5,2,2,5]"))[0] == parse_expansion("[4,-3,4]")
        reduced, _ = reduce_expansion(parse_expansion("[4,5,1]"))
        assert reduced == parse_expansion("[4,4]")
        assert eval_expansion(reduced) == eval_expansion(parse_expansion("[4,5,1]"))

    def test_degenerate_outputs(self):
        reduced, _ = reduce_expansion(parse_expansion("[1,1]"))
        assert eval_expansion(reduced).is_infinite
        assert len(reduced) == 1
        reduced, _ = reduce_expansion(parse_expansion("[2,1,1]"))
        assert reduced == Expansion(0, ())
        reduced, _ = reduce_expansion(parse_expansion("7+[1]"))
        assert reduced == Expansion(8, ())

    @given(expansions)
    def test_trace_replays_and_preserves_value(self, e):
        reduced, trace = reduce_expansion(e)
        assert trace.final == reduced
        assert len(trace.steps) <= len(e)
        assert check_trace(trace)
        assert eval_expansion(reduced) == eval_expansion(e)

    @given(long_expansions)
    def test_lengths_match_the_replay(self, e):
        # `reduce --trace` bounds its output by these, one per move, each at least the
        # 2*L + 1 characters of a step that leaves L coefficients of one digit
        _, trace = reduce_expansion(e)
        bounds = list(trace.min_text_lengths())
        assert len(bounds) == len(trace.moves)
        assert all(b >= 2 * len(expansion) + 1 for b, (_, expansion) in zip(bounds, trace.steps))

    @given(wide_expansions)
    def test_text_bounds_never_exceed_the_text(self, e):
        _, trace = reduce_expansion(e)
        bounds = list(trace.min_text_lengths())
        assert len(bounds) == len(trace.moves)
        assert all(b <= len(format_expansion(expansion)) for b, (_, expansion) in zip(bounds, trace.steps))

    @given(expansions)
    def test_fixpoint_has_no_pattern(self, e):
        reduced, _ = reduce_expansion(e)
        assert not applicable_steps(reduced)
        c = reduced.coefficients
        if c == (0,):  # the value 1/0
            assert eval_expansion(reduced).is_infinite
        else:
            assert all(abs(v) >= 2 for v in c)

    @given(expansions, st.integers(0, 2**32 - 1))
    def test_random_strategies_reach_equal_length(self, e, seed):
        baseline, _ = reduce_expansion(e)
        for offset in range(5):
            rng = random.Random(seed + offset)
            assert len(reduce_with_strategy(e, rng)) == len(baseline)

    def test_trace_serialization(self):
        _, trace = reduce_expansion(parse_expansion("[5,2,2,5]"))
        assert format_trace(trace) == "RemoveBlock 2 1 2 | [4,-3,4]"
        _, trace = reduce_expansion(parse_expansion("[7,0,2]"))
        assert format_trace(trace) == "RemoveZero 2 0 0 | [9]"


class TestIsReduced:
    """`is_reduced`, the table's shortest check, against the reduction whose length it stands for."""

    @pytest.mark.parametrize(
        "c,expected",
        [
            ((), True),
            ((0,), True),  # the value 1/0: a lone 0 is no site
            ((5, 3, 1), False),
            ((2, 2), False),
            ((2, 3, 3, 2), False),
            ((-2, -3, -2), False),
            ((3, 2, 3), True),
        ],
    )
    def test_named_cases(self, c, expected):
        assert is_reduced(c) is expected
        assert (len(reduce_expansion(Expansion(0, c))[0]) == len(c)) is expected
        coefficients = list(c)
        assert is_reduced(coefficients) is expected and coefficients == list(c)

    @given(st.builds(Expansion, st.integers(-3, 3), st.lists(st.integers(-4, 4), max_size=12).map(tuple)))
    def test_same_as_reduction_preserving_length(self, e):
        assert is_reduced(e.coefficients) == (len(reduce_expansion(e)[0]) == len(e))
        # and the oracle's own site scan, apart from the reducer's `_Sites`
        assert is_reduced(e.coefficients) == (not applicable_steps(e))


def assert_matches_scanning(e):
    """reduce_expansion applies exactly the steps of the full-rescan reference."""
    reduced, trace = reduce_expansion(e)
    expected, moves = reduce_by_scanning(e)
    assert reduced == expected
    assert trace.final == expected
    assert trace.moves == moves
    replayed, current = [], e
    for move in moves:
        current = apply_rule(current, move)
        replayed.append((move, current))
    assert trace.steps == tuple(replayed)


class TestAgainstScanning:
    @given(expansions)
    def test_short_expansions(self, e):
        assert_matches_scanning(e)

    @settings(max_examples=60, deadline=None)
    @given(long_expansions)
    def test_long_expansions(self, e):
        assert_matches_scanning(e)

    def test_division_seeds(self):
        for q in range(3, 202, 2):
            for p in range(1, q):
                if gcd(p, q) == 1:
                    assert_matches_scanning(division_expansion(ExtendedRational(p, q)))

    def test_every_short_word_where_blocks_are_dense(self):
        # blocks that share an end, blocks of both signs side by side, and 3e runs that no 2e opens
        for n in range(7):
            for word in product((-3, -2, 2, 3, 4), repeat=n):
                for r in (-2, 0):
                    assert_matches_scanning(Expansion(r, word))

    @pytest.mark.parametrize(
        "coefficients",
        [
            [2] * 300,
            [2, 3] * 300,
            [1, -1] * 300,
            [3] * 300 + [2] * 300,
            [2] + [3] * 300 + [4] + [2] * 300,
            [5] + [3] * 300 + [2] + [4, 2, 3, 2] * 50,
            [2, 3, -2, -3] * 150,
            [5] + ([3] * 50 + [2]) * 6,
        ],
        ids=["2", "2,3", "1,-1", "3..2..", "2,3..,4,2..", "5,3..,2,(4,2,3,2)..", "(2,3,-2,-3)..", "5,(3..,2).."],
    )
    def test_long_runs(self, coefficients):
        assert_matches_scanning(Expansion(0, tuple(coefficients)))

    def test_torus_step_count(self):
        q = 20001
        reduced, trace = reduce_expansion(division_expansion(ExtendedRational(q - 1, q)))
        assert format_expansion(reduced) == f"1+[-{q}]"
        assert len(trace.moves) == q - 2


class TestSeedAgainstDivision:
    @settings(deadline=None)
    @given(st.integers(-3, 3), st.lists(st.integers(1, 50), min_size=0, max_size=40))
    def test_same_fixpoint_from_partial_quotients(self, a0, quotients):
        x = eval_additive(AdditiveExpansion(a0, tuple(quotients)))
        seed = seed_expansion(x)
        assert eval_expansion(seed) == x
        assert len(seed) <= len(quotients)
        reduced = reduce_expansion(division_expansion(x))[0]
        assert reduce_expansion(seed)[0] == reduced
        assert reduce_fraction(x.numerator, x.denominator)[1] == reduced


def assert_matches_the_seed_fixpoint(x):
    """The one loop gives x's quotients and the seed's leftmost-first fixpoint: shortest, no -2, value x."""
    p, q = x.numerator, x.denominator
    cf, reduced = reduce_fraction(p, q)
    assert (cf, reduced) == (partial_quotients(p, q), reduce_expansion(seed_expansion(x))[0])
    assert -2 not in reduced.coefficients
    assert len(reduced) == depth_by_mediant_walk(x)
    assert eval_expansion(reduced) == x


def value_of_quotients(a0, quotients):
    if quotients and quotients[-1] == 1:
        quotients = quotients[:-1] + [2]  # the last quotient of a regular continued fraction is >= 2
    return eval_additive(AdditiveExpansion(a0, tuple(quotients)))


class TestReducedFromQuotients:
    @pytest.mark.parametrize(
        "fraction,reduced",
        [("0/1", "[]"), ("5/1", "5+[]"), ("2/9", "[5,2]"), ("-3/7", "-1+[2,4]"), ("34/89", "[3,3,3,3,2]"),
         ("3/4", "1+[-4]"), ("2/3", "1+[-3]"), ("15/34", "[2,-4,-4]"), ("8/19", "[2,-3,-3]"),
         ("39/53", "1+[-4,-5,-3]")],
    )
    def test_examples(self, fraction, reduced):
        p, q = map(int, fraction.split("/"))
        assert format_expansion(reduce_fraction(p, q)[1]) == reduced
        assert analyze.__wrapped__(p, q)[:2] == reduce_fraction(p, q)

    def test_every_fraction_below_200(self):
        for q in range(1, 200):
            for p in range(-2 * q, 3 * q):
                if gcd(p, q) == 1:
                    assert_matches_the_seed_fixpoint(ExtendedRational(p, q))

    @given(st.integers(-3, 3), st.lists(st.integers(1, 2), max_size=60))
    def test_quotients_one_and_two(self, a0, quotients):
        assert_matches_the_seed_fixpoint(value_of_quotients(a0, quotients))

    @given(st.integers(-3, 3), st.lists(st.integers(1, 4), max_size=60))
    def test_quotients_up_to_four(self, a0, quotients):
        assert_matches_the_seed_fixpoint(value_of_quotients(a0, quotients))

    @given(st.integers(-3, 3), st.lists(st.integers(1, 3) | st.integers(4, 10**12), max_size=40))
    def test_large_quotients(self, a0, quotients):
        assert_matches_the_seed_fixpoint(value_of_quotients(a0, quotients))

    @given(
        st.integers(-3, 3),
        st.lists(st.sampled_from((1, 2, 3, 4, 7)), max_size=29),
        st.sampled_from((2, 3, 4, 7)),
    )
    def test_quotient_lists(self, a0, quotients, last):
        # each turn of the loop reads an odd- and an even-position quotient; lists of
        # either parity, and 1s, 2s and 3s on both sides of a 2, meet every branch
        x = eval_additive(AdditiveExpansion(a0, (*quotients, last)))
        assert reduce_fraction(x.numerator, x.denominator)[0] == (a0, *quotients, last)
        assert_matches_the_seed_fixpoint(x)

    def test_fractions_of_5000_digits(self):
        # the loop formats no number, so it runs under any int-string limit
        for p in [2, 10**5000 + 3, -(10**5000 + 3)]:
            assert_matches_the_seed_fixpoint(ExtendedRational(p, 7 * (10**5000 - 1) // 9))

    def test_every_short_quotient_list(self):
        # every list over 1..5 of length <= 6 with a last quotient >= 2, under a_0 = -2..2:
        # 78,125 fractions; at a_0 = -2 the bottom -r is a 2, which opens no block
        lists = [()]
        for n in range(1, 7):
            lists += [(*head, last) for head in product(range(1, 6), repeat=n - 1) for last in range(2, 6)]
        for a0 in range(-2, 3):
            for quotients in lists:
                x = eval_additive(AdditiveExpansion(a0, quotients))
                reduced = reduce_fraction(x.numerator, x.denominator)[1]
                assert reduced == reduce_expansion(seed_expansion(x))[0], (a0, quotients)

    @given(st.integers(-3, 3), st.lists(st.integers(1, 5), max_size=30))
    def test_pushing_a_seed_one_value_at_a_time(self, a0, quotients):
        # a block puts its body back on todo, so one call per value does the same pushes
        x = value_of_quotients(a0, quotients)
        seed = seed_expansion(x)
        c = [-seed.integer_part]
        for v in (*seed.coefficients, 0):
            _settle(c, [v])
        whole, todo = [-seed.integer_part], [0, *reversed(seed.coefficients)]
        assert _settle(whole, todo) is None
        assert whole == c and todo == []
        assert Expansion(-c[0], tuple(c[1:-1])) == reduce_fraction(x.numerator, x.denominator)[1]

    @pytest.mark.parametrize("top", [0, -1, -2])
    def test_a_top_that_no_seed_leaves_is_refused(self, top):
        # the pushes apply only the +1 unit and the 2,3,...,3,2 block, which a seed alone meets
        with pytest.raises(InternalError):
            _settle([0, 5], [4, top])

    def test_quotients_of_one_over_zero_are_refused(self):
        # 1/0 and a non-positive denominator have no partial quotients, so the loop runs
        # only for q > 0; the refusal reads as the reference's, whatever the digits
        for p, q in [(1, 0), (0, 0), (3, -7), (10**5000, 0)]:
            with pytest.raises(DomainError) as refused:
                reduce_fraction(p, q)
            with pytest.raises(DomainError) as reference:
                partial_quotients(p, q)
            assert str(refused.value) == str(reference.value)

    def test_rejects_a_zero_denominator(self):
        with pytest.raises(DomainError):
            analyze(1, 0)

    @pytest.mark.parametrize("kind", ["ones", "twos", "ones_and_twos", "one_to_four"])
    def test_long_quotient_lists_in_bounded_time(self, kind):
        rng = random.Random(20000)
        quotients = {
            "ones": [1] * 20000,
            "twos": [2] * 20000,
            "ones_and_twos": [rng.choice((1, 2)) for _ in range(20000)],
            # the shape of perfbench's random fractions: even-position 3s and 4s give -3 and -4
            "one_to_four": [rng.randint(1, 4) for _ in range(20000)],
        }[kind]
        x = value_of_quotients(0, quotients)
        started = time.perf_counter()
        cf, reduced = reduce_fraction(x.numerator, x.denominator)  # the Euclid loop and the reduction
        assert time.perf_counter() - started < 0.5
        assert (cf, reduced) == (partial_quotients(x.numerator, x.denominator), reduce_expansion(seed_expansion(x))[0])
