import copy
import itertools
import pickle
import random
import re
import time
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

import twobridge.oracles
from twobridge import (
    DomainError,
    Expansion,
    ExtendedRational,
    all_shortest_expansions,
    depth,
    eval_expansion,
    parse_expansion,
    reduce_expansion,
)
from twobridge.core import division_expansion
from twobridge.diagram import ShortestSet, rectangle_move
from twobridge.errors import InternalError, PatternMatchError
from twobridge.oracles import (
    INFINITY,
    AdditiveExpansion,
    applicable_steps,
    brute_force_min_length,
    closure_by_rectangle_moves,
    depth_by_mediant_walk,
    depth_by_parents,
    eval_additive,
    farey_parents,
    is_shortest,
    rectangle_positions,
    seed_expansion,
    shortest_set_has_odd_type,
)


def fractions_up_to(limit):
    for q in range(2, limit + 1):
        for p in range(1, q):
            if gcd(p, q) == 1:
                yield ExtendedRational(p, q)


class TestFareyParents:
    @pytest.mark.parametrize(
        "fraction,left,right",
        [("2/5", "1/3", "1/2"), ("1/2", "0/1", "1/1"), ("4/15", "1/4", "3/11")],
    )
    def test_examples(self, fraction, left, right):
        a, b = farey_parents(ExtendedRational(*map(int, fraction.split("/"))))
        assert (str(a), str(b)) == (left, right)

    def test_parents_are_neighbors_with_mediant(self):
        for x in fractions_up_to(300):
            a, b = farey_parents(x)
            assert a.numerator + b.numerator == x.numerator
            assert a.denominator + b.denominator == x.denominator
            assert abs(a.numerator * b.denominator - a.denominator * b.numerator) == 1

    def test_domain(self):
        with pytest.raises(DomainError):
            farey_parents(ExtendedRational(3, 2))
        with pytest.raises(DomainError):
            farey_parents(ExtendedRational(5, 1))


class TestDepth:
    @pytest.mark.parametrize(
        "fraction,expected",
        [("7/1", 0), ("1/0", 0), ("1/3", 1), ("2/5", 2), ("4/15", 2), ("21/55", 4), ("5/8", 2)],
    )
    def test_examples(self, fraction, expected):
        assert depth(ExtendedRational(*map(int, fraction.split("/")))) == expected

    def test_translation_and_reflection_symmetries(self):
        for x in fractions_up_to(300):
            d = depth(x)
            assert depth(ExtendedRational(x.numerator + x.denominator, x.denominator)) == d
            assert depth(ExtendedRational(x.numerator - 3 * x.denominator, x.denominator)) == d
            assert depth(ExtendedRational(x.denominator - x.numerator, x.denominator)) == d

    def test_adjacent_vertices_differ_by_at_most_one(self):
        # every vertex sits in a triangle with its two parents
        for x in fractions_up_to(200):
            d = depth(x)
            for parent in farey_parents(x):
                assert abs(depth(parent) - d) <= 1

    def test_agrees_with_parent_recursion(self):
        memo = {}
        for x in fractions_up_to(200):
            assert depth(x) == depth_by_parents(x, memo)
        for q in (1001, 1999):
            for x in (ExtendedRational(1, q), ExtendedRational(q - 1, q)):
                assert depth(x) == depth_by_parents(x) == 1

    def test_agrees_with_mediant_walk_on_fibonacci_ratios(self):
        fib = [0, 1]
        while fib[-1].bit_length() < 900:
            fib.append(fib[-1] + fib[-2])
        for n in list(range(2, 100)) + list(range(100, len(fib) - 1, 11)) + [len(fib) - 2]:
            for x in (ExtendedRational(fib[n], fib[n + 1]), ExtendedRational(fib[n + 1], fib[n])):
                assert depth(x) == depth_by_mediant_walk(x)

    def test_agrees_with_mediant_walk_on_random_continued_fractions(self):
        rng = random.Random(6)
        for _ in range(1000):
            quotients = [rng.randint(1, rng.choice((3, 50, 10**6))) for _ in range(rng.randint(1, 60))]
            x = eval_additive(AdditiveExpansion(rng.randint(-5, 5), tuple(quotients)))
            assert depth(x) == depth_by_mediant_walk(x)

    def test_cost_is_bounded_by_the_continued_fraction(self):
        # the parent recursion would visit about 6*10**18 and 10**30 ancestors here
        assert depth(ExtendedRational(2, 3**40)) == 2
        q = 10**30 + 1
        assert depth(ExtendedRational(q - 1, q)) == 1


class TestDepthConcurrency:
    def test_parallel_queries_agree_with_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        xs = [ExtendedRational(p, q) for q in range(2, 120) for p in range(1, q) if gcd(p, q) == 1]
        serial = [depth(x) for x in xs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(pool.map(depth, xs))
        assert parallel == serial


class TestIsShortest:
    def test_examples(self):
        assert is_shortest(parse_expansion("[3,2]"))
        assert not is_shortest(parse_expansion("[4,5,1]"))
        assert is_shortest(parse_expansion("[5,2]"))
        assert not is_shortest(parse_expansion("1+[-2,-2]"))

    def test_domain(self):
        with pytest.raises(DomainError):
            is_shortest(parse_expansion("[1,1]"))
        with pytest.raises(DomainError):
            is_shortest(parse_expansion("3+[]"))


class TestRectangleMove:
    def test_examples(self):
        assert rectangle_move(parse_expansion("[3,2]"), 2) == parse_expansion("[2,-2]")
        assert rectangle_move(parse_expansion("[2,-2]"), 1) == parse_expansion("1+[-2,-3]")
        assert rectangle_move(parse_expansion("[2,-2]"), 2) == parse_expansion("[3,2]")

    def test_errors(self):
        with pytest.raises(PatternMatchError):
            rectangle_move(parse_expansion("[3,4]"), 1)
        with pytest.raises(PatternMatchError):
            rectangle_move(parse_expansion("[3,2]"), 5)

    @given(
        st.integers(-3, 3),
        st.lists(st.integers(-6, 6).filter(lambda b: b != 0), min_size=1, max_size=8),
    )
    def test_move_preserves_value_and_is_involutive(self, r, coeffs):
        e = Expansion(r, tuple(coeffs))
        for pos in rectangle_positions(e):
            moved = rectangle_move(e, pos)
            assert len(moved) == len(e)
            assert eval_expansion(moved) == eval_expansion(e)
            assert rectangle_move(moved, pos) == e

    def test_every_short_word(self):
        # every expansion over {-4, -2, -1, 0, 2, 3, 5}^<=5 with r in {-2, 0, 3}, at each
        # +-2: one rule covers a lone coefficient, the head, the tail and the interior
        seen = set()
        for n in range(1, 6):
            for c in itertools.product((-4, -2, -1, 0, 2, 3, 5), repeat=n):
                for r in (-2, 0, 3):
                    e = Expansion(r, c)
                    for j in (j for j, v in enumerate(c) if v in (2, -2)):
                        moved = rectangle_move(e, j + 1)
                        eps = c[j] // 2
                        assert len(moved) == n
                        assert eval_expansion(moved) == eval_expansion(e)
                        assert rectangle_move(moved, j + 1) == e
                        assert moved.coefficients[j] == -c[j]
                        assert moved.integer_part == (r + eps if j == 0 else r)
                        for i in range(n):
                            if abs(i - j) == 1:
                                assert moved.coefficients[i] == c[i] - eps
                            elif i != j:
                                assert moved.coefficients[i] == c[i]
                        seen.add("lone" if n == 1 else "head" if j == 0 else "tail" if j == n - 1 else "interior")
        assert seen == {"lone", "head", "tail", "interior"}

    def test_moves_preserve_shortestness(self):
        for x in fractions_up_to(60):
            e, _ = reduce_expansion(division_expansion(x))
            for pos in rectangle_positions(e):
                assert is_shortest(rectangle_move(e, pos))


class TestShortestSets:
    def test_closure_of_2_5(self):
        s = all_shortest_expansions(ExtendedRational(2, 5))
        assert {str(e) for e in s.expansions} == {"[3,2]", "[2,-2]", "1+[-2,-3]"}

    def test_singletons(self):
        assert {str(e) for e in all_shortest_expansions(ExtendedRational(1, 3)).expansions} == {"[3]"}
        assert {str(e) for e in all_shortest_expansions(ExtendedRational(4, 15)).expansions} == {"[4,4]"}

    def test_closure_matches_exhaustive_enumeration_for_2_5(self):
        # every length-2 expansion of 2/5 with |b| <= 6 and r in [-2, 2]
        target = ExtendedRational(2, 5)
        found = set()
        rng = [b for b in range(-6, 7) if b != 0]
        for r in range(-2, 3):
            for b1 in rng:
                for b2 in rng:
                    e = Expansion(r, (b1, b2))
                    if eval_expansion(e) == target:
                        found.add(e)
        assert found == set(all_shortest_expansions(target).expansions)

    @pytest.mark.parametrize(
        "faulty,why",
        [
            # one more coefficient: the value moves
            (lambda e, pos: Expansion(e.integer_part, e.coefficients + (2,)), "of another value"),
            # [..., a] = [..., a + 1, 1]: the value stays, and each member has one more coefficient
            (
                lambda e, pos: Expansion(e.integer_part, e.coefficients[:-1] + (e.coefficients[-1] + 1, 1)),
                "more than 16 expansions",
            ),
        ],
        ids=["another_value", "unbounded"],
    )
    def test_a_faulty_rectangle_move_is_refused_in_bounded_time(self, monkeypatch, faulty, why):
        # T = [3,2,4,2] for 12/29, so a sound closure has at most 2^4 members
        monkeypatch.setattr(twobridge.oracles, "rectangle_move", faulty)
        started = time.perf_counter()
        with pytest.raises(InternalError, match=why):
            closure_by_rectangle_moves(ExtendedRational(12, 29))
        assert time.perf_counter() - started < 5

    def test_members_are_shortest_and_closed(self):
        for x in [ExtendedRational(2, 5), ExtendedRational(12, 29), ExtendedRational(29, 70), ExtendedRational(5, 8)]:
            s = all_shortest_expansions(x)
            lengths = {len(e) for e in s.expansions}
            assert lengths == {depth_by_mediant_walk(x)}
            for e in s.expansions:
                assert eval_expansion(e) == x
                assert is_shortest(e)
                for pos in rectangle_positions(e):
                    assert rectangle_move(e, pos) in s.expansions

    def test_seed_is_the_division_fixpoint(self):
        for q in range(2, 102):
            for p in range(-q, 2 * q):
                if gcd(p, q) == 1:
                    x = ExtendedRational(p, q)
                    division_fixpoint, _ = reduce_expansion(division_expansion(x))
                    assert reduce_expansion(seed_expansion(x))[0] == division_fixpoint
                    assert division_fixpoint in all_shortest_expansions(x).expansions

    def test_even_denominator_works(self):
        s = all_shortest_expansions(ExtendedRational(1, 2))
        assert {str(e) for e in s.expansions} == {"[2]", "1+[-2]"}

    def test_domain(self):
        with pytest.raises(DomainError):
            all_shortest_expansions(ExtendedRational(4, 1))
        with pytest.raises(DomainError):
            all_shortest_expansions(INFINITY)


def fence(n):
    """The value of [2,4,2,4,...,2] with n coefficients (n odd); its class has F(n+2) members."""
    return eval_expansion(Expansion(0, (2, 4) * (n // 2) + (2,)))


def fibonacci(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def assert_matches_closure(x, full_list):
    s = all_shortest_expansions(x)
    closure = closure_by_rectangle_moves(x)
    assert s.expansions == closure, x
    assert s.size == len(closure), x
    assert str(s.least()) == min(map(str, closure)), x
    assert shortest_set_has_odd_type(s) == any(e.odd_type for e in closure), x
    if full_list:
        assert s.sorted_text() == sorted(map(str, closure)), x


class TestShortestStructure:
    """The automaton against the breadth-first closure under rectangle moves."""

    def test_every_fraction_up_to_q_200(self):
        for q in range(2, 201):
            for p in range(-q, 2 * q):
                if gcd(p, q) == 1:
                    assert_matches_closure(ExtendedRational(p, q), full_list=q < 80)

    @given(
        st.integers(-3, 3),
        st.lists(st.integers(1, 4), min_size=1, max_size=14),
    )
    def test_quotient_lists_with_interacting_runs(self, a0, quotients):
        # quotients from 1-4 make runs such as 2,4,2,4,2,3 in the reduced expansion
        if quotients[-1] == 1:
            quotients[-1] = 2
        assert_matches_closure(eval_additive(AdditiveExpansion(a0, tuple(quotients))), full_list=True)

    @given(
        st.integers(-3, 3),
        st.lists(st.integers(1, 2), min_size=1, max_size=16),
    )
    def test_quotient_lists_with_long_runs(self, a0, quotients):
        # quotients from 1-2 make long runs of 2s, 3s and 4s, such as fences 2,4,2,4,...,2
        if quotients[-1] == 1:
            quotients[-1] = 2
        assert_matches_closure(eval_additive(AdditiveExpansion(a0, tuple(quotients))), full_list=True)

    @given(
        st.one_of(st.integers(-12, 12), st.builds(lambda k, d: 10**k + d, st.integers(1, 30), st.integers(-9, 9))),
        st.lists(
            st.one_of(
                st.sampled_from([-4, -3, 2, 3, 4, 5, 6]),
                st.builds(lambda k, d: 10**k + d, st.integers(1, 30), st.integers(-7, 7)),
                st.builds(lambda k, d: -(10**k) + d, st.integers(1, 30), st.integers(-7, 7)),
            ),
            min_size=1,
            max_size=10,
        ),
    )
    def test_no_member_is_shorter_than_the_bound(self, r, coefficients):
        # `shortest --all` refuses on size times this bound; coefficients next to a power
        # of 10 lose a digit in a member, and so does an integer part next to one
        x = eval_expansion(Expansion(r, tuple(coefficients)))
        if x.is_infinite or x.is_integer:
            return
        s = all_shortest_expansions(x)
        assert min(map(len, s.sorted_text())) >= s.min_text_length()

    def test_automaton_is_complete_on_every_short_word(self):
        # the edges at a position depend on T_j only through its letter in
        # {2, 3, 4, 5, >=6, -3, <=-4}; every reduced T of length 1-5 over
        # one value per letter (no 0, +-1, -2 or block 2,3,...,3,2)
        letters = (-4, -3, 2, 3, 4, 5, 6)
        block = re.compile(r"2(,3)*,2")
        words = 0
        for n in range(1, 6):
            for t in itertools.product(letters, repeat=n):
                if block.search(",".join(map(str, t))):
                    continue
                words += 1
                x = eval_expansion(Expansion(0, t))
                s = all_shortest_expansions(x)
                closure = closure_by_rectangle_moves(x)
                assert s.reduced == Expansion(0, t), t
                assert s.expansions == closure and s.size == len(closure), t
                assert s.sorted_text() == sorted(map(str, closure)), t
        assert words == 18095

    def test_interacting_run(self):
        s = all_shortest_expansions(ExtendedRational(7, 12))
        assert str(s.reduced) == "[2,4,2]"
        assert s.size == 5
        assert s.sorted_text() == ["1+[-2,2,-2]", "1+[-2,3,2]", "1+[-3,-2,-3]", "[2,3,-2]", "[2,4,2]"]

    def test_half_integers_are_even_type(self):
        # the one class the paper's rule on the reduced expansion does not describe
        for x in (ExtendedRational(1, 2), ExtendedRational(-7, 2)):
            assert not shortest_set_has_odd_type(all_shortest_expansions(x))

    def test_class_of_2_to_the_40_answers_without_enumerating(self):
        x = eval_expansion(Expansion(0, (5,) + (2, 5) * 40))
        started = time.perf_counter()
        s = all_shortest_expansions(x)
        assert s.size == 2**40
        assert shortest_set_has_odd_type(s)
        assert str(s.least()) == "[4," + "-2,3," * 39 + "-2,4]"
        # the closure has 2**40 members; an enumeration would not finish
        assert time.perf_counter() - started < 5

    @pytest.mark.parametrize("n", [25, 2001])
    def test_fence_answers_in_bounded_time(self, n):
        # a search over the fence's members took seconds at n = 25
        started = time.perf_counter()
        s = all_shortest_expansions(fence(n))
        assert s.size == fibonacci(n + 2)
        assert str(s.least()) == "1+[" + "-2,2," * (n // 2) + "-2]"
        assert time.perf_counter() - started < 1

    def test_random_quotients_answer_in_bounded_time(self):
        # 2,000 quotients from 1-2 make runs of dozens of moving positions
        rng = random.Random(11)
        x = eval_additive(AdditiveExpansion(0, tuple(rng.randint(1, 2) for _ in range(2000)) + (2,)))
        started = time.perf_counter()
        s = all_shortest_expansions(x)
        size, least = s.size, s.least()
        assert time.perf_counter() - started < 1
        assert size > 2**100
        assert eval_expansion(least) == x and len(least) == depth_by_mediant_walk(x)
        assert not applicable_steps(least)
        # every rectangle move leads to another member, whose text is greater
        for pos in rectangle_positions(least):
            assert str(rectangle_move(least, pos)) > str(least)

    def test_copies_of_a_long_class(self):
        s = all_shortest_expansions(fence(2001))
        least = s.least()
        for copied in (pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert copied == s and copied.least() == least

    def test_expansions_are_built_on_first_use(self, monkeypatch):
        # constructing a set builds no automaton and enumerates nothing; each read builds it
        built = []
        automaton = ShortestSet._automaton
        monkeypatch.setattr(ShortestSet, "_automaton", lambda s: built.append(s) or automaton(s))
        s = all_shortest_expansions(ExtendedRational(2, 5))
        assert not built and not hasattr(s, "__dict__")
        assert len(s.expansions) == 3 and built == [s]


class TestOracleAgreement:
    random_expansions = st.builds(
        Expansion,
        st.integers(-3, 3),
        st.lists(st.integers(-6, 6), min_size=0, max_size=8).map(tuple),
    )

    @given(random_expansions)
    def test_reduction_reaches_depth_from_any_seed(self, e):
        v = eval_expansion(e)
        if v.is_infinite or v.is_integer:
            return
        reduced, _ = reduce_expansion(e)
        assert len(reduced) == depth_by_mediant_walk(v)

    @given(random_expansions)
    def test_is_shortest_iff_length_equals_depth(self, e):
        v = eval_expansion(e)
        if v.is_infinite or v.is_integer:
            return
        assert is_shortest(e) == (len(e) == depth_by_mediant_walk(v))


class TestBruteForce:
    @pytest.mark.parametrize(
        "fraction,max_len,bound,expected",
        [("2/5", 3, 6, 2), ("1/3", 2, 4, 1), ("5/8", 3, 4, 3)],
    )
    def test_examples(self, fraction, max_len, bound, expected):
        assert brute_force_min_length(ExtendedRational(*map(int, fraction.split("/"))), max_len, bound) == expected

    def test_not_found(self):
        assert brute_force_min_length(ExtendedRational(1, 9), 1, 4) is None

    def test_integer_and_window(self):
        assert brute_force_min_length(ExtendedRational(4, 1), 2, 3) == 0
        # 5/8's unique shortest expansion 1+[-3,-3] needs the wider window
        assert brute_force_min_length(ExtendedRational(5, 8), 3, 4, r_window=1) == 2
