import ast
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from twobridge import (
    DomainError,
    Expansion,
    ExtendedRational,
    KnotId,
    ParseError,
    eval_expansion,
    format_expansion,
    format_fraction,
    knot_from_fraction,
    parse_expansion,
    parse_fraction,
)
from twobridge.core import (
    _min_digits,
    _parse_int,
    division_expansion,
)
from twobridge.diagram import rectangle_move
from twobridge.errors import PatternMatchError
from twobridge.invariants import family_k_mn
from twobridge.oracles import (
    INFINITY,
    AdditiveExpansion,
    alternating_sign_convert,
    canonical_form,
    eval_additive,
    mirror,
    partial_quotients,
    reverse_expansion,
    same_knot,
    seed_expansion,
)
from twobridge.reduction import ReductionStep, Rule, apply_rule, reduce_fraction

coefficients = st.lists(
    st.integers(-9, 9).filter(lambda b: b != 0), min_size=0, max_size=10
)


def recursive_value(e: Expansion) -> Fraction:
    """Naive evaluation; raises ZeroDivisionError where undefined."""
    acc = None
    for b in reversed(e.coefficients):
        acc = Fraction(b) if acc is None else b - 1 / acc
    if acc is None:
        return Fraction(e.integer_part)
    return e.integer_part + 1 / acc


class TestExtendedRational:
    def test_normalization(self):
        assert ExtendedRational(4, 6) == ExtendedRational(2, 3)
        assert ExtendedRational(2, -4) == ExtendedRational(-1, 2)
        assert ExtendedRational(0, 7) == ExtendedRational(0, 1)
        assert ExtendedRational(-3, 0) == INFINITY
        with pytest.raises(DomainError):
            ExtendedRational(0, 0)

    def test_helpers(self):
        x = ExtendedRational(-7, 5)
        assert not x.is_infinite and not x.is_integer
        assert ExtendedRational(x.numerator % x.denominator, x.denominator) == ExtendedRational(3, 5)
        assert ExtendedRational(x.numerator + 2 * x.denominator, x.denominator) == ExtendedRational(3, 5)
        assert ExtendedRational(-x.numerator, x.denominator) == ExtendedRational(7, 5)
        assert ExtendedRational(6, 3).is_integer
        assert INFINITY.is_infinite and not INFINITY.is_integer
        # the class carries no arithmetic; callers write it on the fields
        for name in ("floor", "mod_one", "__neg__", "__add__", "__sub__"):
            assert not hasattr(ExtendedRational, name)
        with pytest.raises(TypeError):
            x + 2


class TestEvalExpansion:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("[3,2]", "2/5"),
            ("1+[-2,-2]", "1/3"),
            ("5+[]", "5/1"),
            ("[1,1]", "1/0"),
            ("[3,3,3,3]", "21/55"),
        ],
    )
    def test_examples(self, text, expected):
        assert format_fraction(eval_expansion(parse_expansion(text))) == expected

    @given(st.integers(-5, 5), coefficients)
    def test_matches_recursive_evaluation(self, r, coeffs):
        e = Expansion(r, tuple(coeffs))
        try:
            expected = recursive_value(e)
        except ZeroDivisionError:
            assume(False)
        v = eval_expansion(e)
        assert (v.numerator, v.denominator) == (expected.numerator, expected.denominator)

    @given(st.integers(-5, 5), coefficients)
    def test_value_is_normalized(self, r, coeffs):
        v = eval_expansion(Expansion(r, tuple(coeffs)))
        assert v.denominator >= 0
        if v.denominator == 0:
            assert v.numerator == 1
        else:
            assert gcd(abs(v.numerator), v.denominator) == 1


class TestReverse:
    def test_examples(self):
        rev = reverse_expansion(parse_expansion("[3,2]"))
        assert rev == parse_expansion("[2,3]")
        assert eval_expansion(rev) == ExtendedRational(3, 5)
        assert reverse_expansion(parse_expansion("[5]")) == parse_expansion("[5]")
        rev = reverse_expansion(parse_expansion("[5,2]"))
        assert eval_expansion(rev) == ExtendedRational(5, 9)

    def test_domain_violations(self):
        with pytest.raises(DomainError):
            reverse_expansion(parse_expansion("1+[-2,-2]"))  # integer part not 0
        with pytest.raises(DomainError):
            reverse_expansion(parse_expansion("[1,1]"))  # value 1/0
        with pytest.raises(DomainError):
            reverse_expansion(parse_expansion("[-3]"))  # value below 0

    @given(coefficients)
    def test_reversal_inverts_numerator_mod_q(self, coeffs):
        e = Expansion(0, tuple(coeffs))
        v = eval_expansion(e)
        assume(not v.is_infinite and 0 < v.numerator < v.denominator)
        w = eval_expansion(reverse_expansion(e))
        assert w.denominator == v.denominator
        assert (v.numerator * w.numerator) % v.denominator == 1


class TestAlternatingConvert:
    @pytest.mark.parametrize(
        "additive,expected,value",
        [
            ((0, (2, 3)), "[2,-3]", "3/7"),
            ((0, (5,)), "[5]", "1/5"),
            ((1, (2, 2)), "1+[2,-2]", "7/5"),
        ],
    )
    def test_examples(self, additive, expected, value):
        a = AdditiveExpansion(*additive)
        e = alternating_sign_convert(a)
        assert format_expansion(e) == expected
        assert format_fraction(eval_expansion(e)) == value

    @given(st.integers(-3, 3), coefficients)
    def test_convert_preserves_value(self, r, coeffs):
        a = AdditiveExpansion(r, tuple(coeffs))
        assert eval_expansion(alternating_sign_convert(a)) == eval_additive(a)


class TestDivisionExpansion:
    @pytest.mark.parametrize(
        "fraction,expected",
        [("2/9", "[5,2]"), ("2/5", "[3,2]"), ("4/15", "[4,4]"), ("21/55", "[3,3,3,3]"), ("5/1", "5+[]")],
    )
    def test_examples(self, fraction, expected):
        assert format_expansion(division_expansion(parse_fraction(fraction))) == expected

    @given(st.integers(-300, 300), st.integers(1, 300))
    def test_round_trip_and_coefficient_floor(self, num, den):
        x = ExtendedRational(num, den)
        e = division_expansion(x)
        assert eval_expansion(e) == x
        assert all(c >= 2 for c in e.coefficients)

    def test_rejects_infinity(self):
        with pytest.raises(DomainError):
            division_expansion(INFINITY)


def fractions_around_unit_interval(max_q):
    """Every p/q with 1 <= q <= max_q and -q <= p < 2q in lowest terms."""
    for q in range(1, max_q + 1):
        for p in range(-q, 2 * q):
            if gcd(p, q) == 1:
                yield ExtendedRational(p, q)


def seed_reference(x):
    """The seed by rewrite rules: the alternating-sign expansion, then, right to left,
    RemoveUnit at each even-position -1 and a rectangle move at each even-position -2."""
    a = partial_quotients(x.numerator, x.denominator)
    e = alternating_sign_convert(AdditiveExpansion(a[0], a[1:]))
    for j in reversed(range(1, len(e), 2)):
        if e.coefficients[j] == -1:
            e = apply_rule(e, ReductionStep(Rule.REMOVE_UNIT, j + 1, epsilon=-1))
        elif e.coefficients[j] == -2:
            e = rectangle_move(e, j + 1)
    return e


class TestPartialQuotients:
    @pytest.mark.parametrize(
        "p,q,expected",
        [(21, 55, (0, 2, 1, 1, 1, 1, 1, 2)), (7, 1, (7,)), (-3, 7, (-1, 1, 1, 3)), (4, 15, (0, 3, 1, 3))],
    )
    def test_examples(self, p, q, expected):
        assert partial_quotients(p, q) == expected

    @given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
    def test_value_and_shape(self, p, q):
        a = partial_quotients(p, q)
        assert eval_additive(AdditiveExpansion(a[0], a[1:])) == ExtendedRational(p, q)
        assert all(c >= 1 for c in a[1:])
        assert len(a) == 1 or a[-1] >= 2

    def test_rejects_non_positive_denominator(self):
        with pytest.raises(DomainError):
            partial_quotients(1, 0)


class TestSeedExpansion:
    @pytest.mark.parametrize(
        "fraction,seed",
        [("2/9", "[5,2]"), ("4/15", "[4,4]"), ("21/55", "[3,3,3,3]"), ("4/5", "[1,-4]"), ("5/1", "5+[]"),
         ("1/3", "[3]"), ("3/7", "[2,-3]"), ("7/16", "[2,-3,2]"), ("-3/7", "-1+[2,4]")],
    )
    def test_examples(self, fraction, seed):
        assert format_expansion(seed_expansion(parse_fraction(fraction))) == seed

    def test_matches_the_alternating_sign_reference(self):
        for x in fractions_around_unit_interval(150):
            assert seed_expansion(x) == seed_reference(x)

    @given(st.integers(-5, 5), st.lists(st.integers(1, 6) | st.integers(7, 10**12), max_size=30))
    def test_matches_the_reference_on_quotient_lists(self, a0, quotients):
        assume(not quotients or quotients[-1] >= 2)
        x = eval_additive(AdditiveExpansion(a0, tuple(quotients)))
        assert seed_expansion(x) == seed_reference(x)

    def test_value_and_length(self):
        for x in fractions_around_unit_interval(150):
            seed = seed_expansion(x)
            assert eval_expansion(seed) == x
            assert len(seed) <= len(partial_quotients(x.numerator, x.denominator)) - 1
            assert seed.integer_part == division_expansion(x).integer_part

    def test_length_is_bounded_by_the_quotients(self):
        q = 10**30 + 1
        assert seed_expansion(ExtendedRational(q - 1, q)) == Expansion(0, (1, -(q - 1)))

    def test_rejects_infinity(self):
        with pytest.raises(DomainError):
            seed_expansion(INFINITY)


class TestKnots:
    def test_same_knot_examples(self):
        assert same_knot(KnotId(9, 2), KnotId(9, 5))
        assert not same_knot(KnotId(3, 1), KnotId(3, 2))
        assert same_knot(KnotId(5, 2), KnotId(5, 2))
        q = 10**300 + 1  # p, its inverse (q+1)/2, and neither
        assert same_knot(KnotId(q, 2), KnotId(q, 2))
        assert same_knot(KnotId(q, 2), KnotId(q, (q + 1) // 2))
        assert not same_knot(KnotId(q, 2), KnotId(q, 3))

    def test_mirror_examples(self):
        assert mirror(KnotId(3, 1)) == KnotId(3, 2)
        assert mirror(KnotId(5, 2)) == KnotId(5, 3)
        assert mirror(KnotId(15, 4)) == KnotId(15, 11)

    def test_canonical_examples(self):
        assert canonical_form(KnotId(9, 5)) == KnotId(9, 2)
        assert canonical_form(KnotId(3, 1)) == KnotId(3, 1)
        assert canonical_form(KnotId(15, 11)) == KnotId(15, 11)

    def test_validation(self):
        with pytest.raises(DomainError):
            KnotId(4, 1)
        with pytest.raises(DomainError):
            KnotId(9, 3)
        with pytest.raises(DomainError):
            KnotId(-3, 1)
        assert KnotId(1, 5) == KnotId(1, 0)
        assert KnotId(7, 9).p == 2  # normalized into (0, q)

    def test_canonical_classifies_equivalence_exhaustively(self):
        # same_knot agrees with canonical_form equality on every pair for
        # each odd q <= 99, which makes it an equivalence relation and
        # canonical_form constant on its classes.
        for q in range(3, 100, 2):
            ps = [p for p in range(1, q) if gcd(p, q) == 1]
            knots = [KnotId(q, p) for p in ps]
            canon = {k: canonical_form(k) for k in knots}
            for a in knots:
                assert canonical_form(canon[a]) == canon[a]  # idempotent
                for b in knots:
                    assert same_knot(a, b) == (canon[a] == canon[b])

    def test_knot_from_fraction(self):
        assert knot_from_fraction(ExtendedRational(2, 9)) == KnotId(9, 2)
        assert knot_from_fraction(ExtendedRational(19, 15)) == KnotId(15, 4)
        assert knot_from_fraction(ExtendedRational(7, 1)) == KnotId(1, 0)
        with pytest.raises(DomainError):
            knot_from_fraction(ExtendedRational(1, 2))
        with pytest.raises(DomainError):
            knot_from_fraction(INFINITY)


class TestParsing:
    def test_fraction_examples(self):
        assert parse_fraction("2/9") == ExtendedRational(2, 9)
        assert parse_fraction("-3/7") == ExtendedRational(-3, 7)
        assert parse_fraction("1/0") == INFINITY
        assert parse_fraction(" 21/55 ") == ExtendedRational(21, 55)

    @pytest.mark.parametrize("bad", ["2/0", "-1/0", "3", "3/", "/5", "a/b", "1/-3", "1.5/2", ""])
    def test_fraction_errors(self, bad):
        with pytest.raises(ParseError):
            parse_fraction(bad)

    def test_expansion_examples(self):
        assert parse_expansion("1+[-2,-2]") == Expansion(1, (-2, -2))
        assert parse_expansion("[3,2]") == Expansion(0, (3, 2))
        assert parse_expansion("[]") == Expansion(0, ())
        assert parse_expansion("-2+[ 4 , 4 ]") == Expansion(-2, (4, 4))

    @pytest.mark.parametrize("bad", ["", "[3,2", "3,2]", "1+", "1-[3]", "[3,,2]", "[3]x", "+[3]"])
    def test_expansion_errors(self, bad):
        with pytest.raises(ParseError):
            parse_expansion(bad)

    def test_any_length_under_the_default_limit(self):
        # the parsers do not lean on a lifted int-string limit
        sevens, sparse = 7 * (10**5000 - 1) // 9, 10**5000 + 3
        text_sevens, text_sparse = "7" * 5000, "1" + "0" * 4999 + "3"
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert parse_expansion(f"-{text_sevens}+[{text_sparse},-{text_sevens}]") == Expansion(-sevens, (sparse, -sevens))
            assert parse_fraction(f"-{text_sparse}/{text_sevens}") == ExtendedRational(-sparse, sevens)
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("digits", [641, 1282])
    def test_decimals_just_past_the_smallest_limit(self, digits):
        # 640 digits is the least limit the interpreter accepts; 641 digits, and 1,282
        # (two halves of 641), are the shortest decimals that int() then refuses
        sevens, sparse = 7 * (10**digits - 1) // 9, 10 ** (digits - 1) + 3
        text_sevens, text_sparse = "7" * digits, "1" + "0" * (digits - 2) + "3"
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert _parse_int(text_sevens) == sevens
            assert _parse_int(text_sparse) == sparse
            assert _parse_int("-" + text_sevens) == -sevens
        finally:
            sys.set_int_max_str_digits(saved)

    def test_format_any_length_under_the_default_limit(self):
        # parse and format accept the same numbers
        text = "[" + "7" * 5000 + "]"
        fraction = "-1" + "0" * 4999 + "3/" + "7" * 5000
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert format_expansion(parse_expansion(text)) == text
            assert format_expansion(parse_expansion("-" + text[1:-1] + "+" + text)) == "-" + text[1:-1] + "+" + text
            assert format_fraction(parse_fraction(fraction)) == fraction
            assert str(parse_fraction(fraction)) == fraction
        finally:
            sys.set_int_max_str_digits(saved)

    def test_digit_bound_next_to_powers_of_ten_and_of_two(self):
        # at most the digits of n, sign not counted, and at most one fewer below 600 digits
        for k in range(600):
            for n in range(10**k - 3, 10**k + 4):
                for m in (n, -n, 2**(2 * k) + n % 5 - 2, -(2**(2 * k)) - n % 5 + 2):
                    digits = len(str(abs(m)))
                    assert digits - 1 <= _min_digits(m) <= digits

    @pytest.mark.parametrize(
        "call",
        [
            lambda: KnotId(10**5000, 1),
            lambda: KnotId(3 * 10**5000 + 3, 3),
            lambda: partial_quotients(10**5000, 0),
            lambda: family_k_mn(10**5000, 0),
            lambda: rectangle_move(Expansion(0, (2,)), 10**5000),
            lambda: apply_rule(Expansion(0, (0,)), ReductionStep(Rule.REMOVE_ZERO, 10**5000)),
            lambda: reduce_fraction(10**5000, 0),
        ],
    )
    def test_errors_on_numbers_past_the_default_limit(self, call):
        # a message that names the caller's number still raises the package's own error
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises((DomainError, PatternMatchError)):
                call()
        finally:
            sys.set_int_max_str_digits(saved)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expansion("[3,?]")
        assert exc.value.position == 3

    def test_whitespace_stands_only_between_tokens(self):
        assert parse_expansion(" 5 + [ 3 , -2 ] ") == Expansion(5, (3, -2))
        assert parse_expansion("\t[\n]\n") == Expansion(0, ())
        assert parse_fraction("\t-3/7\n") == ExtendedRational(-3, 7)

    @pytest.mark.parametrize(
        "bad,position",
        [
            ("[3 2]", 3),  # whitespace splits no integer
            ("1 0+[3]", 2),
            ("[- 3]", 1),
            ("  [4,x]", 5),  # positions index the text as given
            ("  [4, x]", 6),
            ("  x", 2),
            ("[3]  x", 5),
            ("[3,2 ", 5),
        ],
    )
    def test_expansion_error_positions(self, bad, position):
        with pytest.raises(ParseError) as exc:
            parse_expansion(bad)
        assert exc.value.position == position and exc.value.text == bad
        assert f"at position {position} in {bad!r}" in str(exc.value)

    @pytest.mark.parametrize("bad,position", [("  x/3", 2), ("2 /3", 1), (" 3/0", 3), ("  2/9 x", 5)])
    def test_fraction_error_positions(self, bad, position):
        with pytest.raises(ParseError) as exc:
            parse_fraction(bad)
        assert exc.value.position == position and exc.value.text == bad

    @pytest.mark.parametrize(
        "parse,bad,message,position",
        [
            # digits are ASCII 0-9: other Unicode digits and superscripts are characters
            (parse_fraction, "\u0663/\u0667", "unexpected character in fraction", 0),
            (parse_expansion, "[\u0663,\u0662]", "expected integer coefficient", 1),
            (parse_fraction, "3\u00b2/7", "unexpected character in fraction", 1),
        ],
    )
    def test_only_ascii_digits(self, parse, bad, message, position):
        with pytest.raises(ParseError) as exc:
            parse(bad)
        assert str(exc.value) == f"{message} (at position {position} in {bad!r})"
        assert exc.value.position == position and exc.value.text == bad

    @given(st.integers(-9, 9), coefficients)
    def test_expansion_round_trip(self, r, coeffs):
        e = Expansion(r, tuple(coeffs))
        assert parse_expansion(format_expansion(e)) == e

    @given(st.integers(-10**12, 10**12), st.integers(0, 10**12))
    def test_fraction_round_trip(self, num, den):
        if num == 0 and den == 0:
            return
        x = ExtendedRational(num, den)
        assert parse_fraction(format_fraction(x)) == x


def test_package_checks_invariants_without_assert():
    """Internal checks raise InternalError, which `python -O` does not strip."""
    import twobridge
    from twobridge.errors import InternalError, TwoBridgeError

    assert not issubclass(InternalError, TwoBridgeError)
    for path in Path(twobridge.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name


def test_serving_modules_do_not_seed_from_the_division_expansion():
    """The division expansion has about q coefficients; only tests and oracles use it."""
    import twobridge

    for path in Path(twobridge.__file__).parent.glob("*.py"):
        if path.name not in ("core.py", "oracles.py"):
            assert "division_expansion" not in path.read_text(encoding="utf-8"), path.name


def test_serving_modules_reduce_in_one_pass():
    """A knot's reduced expansion comes from one pass over its quotients, never from the traced reducer."""
    import twobridge

    for name in ("invariants.py", "diagram.py", "conway.py"):
        text = (Path(twobridge.__file__).parent / name).read_text(encoding="utf-8")
        assert "seed_expansion" not in text and "reduce_expansion" not in text, name
