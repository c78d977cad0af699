import random
import time
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twobridge import Expansion, ExtendedRational, eval_expansion, parse_expansion, reduce_expansion
from twobridge.core import division_expansion, format_expansion, partial_quotients
from twobridge.diagram import depth
from twobridge.errors import DomainError, PatternMatchError
from twobridge.oracles import (
    AdditiveExpansion,
    applicable_steps,
    check_trace,
    eval_additive,
    reduce_by_scanning,
    reduce_with_strategy,
    seed_expansion,
)
from twobridge.reduction import (
    ReductionStep,
    Rule,
    _close,
    _settle,
    apply_rule,
    format_trace,
    reduced_from_quotients,
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
        # `reduce --trace` bounds its output by these lengths before replaying anything
        _, trace = reduce_expansion(e)
        assert list(trace.lengths()) == [len(expansion) for _, expansion in trace.steps]

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

    @pytest.mark.parametrize(
        "coefficients",
        [
            [2] * 300,
            [2, 3] * 300,
            [1, -1] * 300,
            [3] * 300 + [2] * 300,
            [2] + [3] * 300 + [4] + [2] * 300,
        ],
        ids=["2", "2,3", "1,-1", "3..2..", "2,3..,4,2.."],
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
        assert reduce_expansion(seed)[0] == reduce_expansion(division_expansion(x))[0]


def assert_matches_the_seed_fixpoint(x):
    """reduced_from_quotients(x) is the seed's leftmost-first fixpoint: shortest, no -2, value x."""
    reduced = reduced_from_quotients(x.numerator, x.denominator)
    assert reduced == reduce_expansion(seed_expansion(x))[0]
    assert -2 not in reduced.coefficients
    assert len(reduced) == depth(x)
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
        assert format_expansion(reduced_from_quotients(*map(int, fraction.split("/")))) == reduced

    def test_every_fraction_up_to_150(self):
        for q in range(1, 151):
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

    @given(expansions)
    def test_pushing_any_expansion_reaches_a_fixpoint(self, e):
        # the seeds never make a 0; any expansion exercises every rule form at the top
        assume(not eval_expansion(e).is_infinite)
        c, r = [], e.integer_part
        for v in e.coefficients:
            r += _settle(c, [v])
        r += _close(c)
        pushed = Expansion(r, tuple(c))
        assert eval_expansion(pushed) == eval_expansion(e)
        assert not applicable_steps(pushed)
        assert len(pushed) == len(reduce_expansion(e)[0])

    def test_rejects_a_zero_denominator(self):
        with pytest.raises(DomainError):
            reduced_from_quotients(1, 0)

    @pytest.mark.parametrize("kind", ["ones", "twos", "ones_and_twos"])
    def test_long_quotient_lists_in_bounded_time(self, kind):
        rng = random.Random(20000)
        quotients = {
            "ones": [1] * 20000,
            "twos": [2] * 20000,
            "ones_and_twos": [rng.choice((1, 2)) for _ in range(20000)],
        }[kind]
        x = value_of_quotients(0, quotients)
        partial_quotients(x.numerator, x.denominator)  # time the pass over the quotients, not the Euclid pass
        started = time.perf_counter()
        reduced = reduced_from_quotients(x.numerator, x.denominator)
        assert time.perf_counter() - started < 0.5
        assert reduced == reduce_expansion(seed_expansion(x))[0]
