import builtins
import hashlib
from collections import Counter
from functools import cache
from importlib import resources

import pytest

import twobridge.invariants
import twobridge.table
from twobridge import (
    Boundary,
    DomainError,
    KnotId,
    ParseError,
    UnknownNameError,
    crosscap,
    eval_expansion,
    find_record,
    format_expansion,
    format_fraction,
    genus,
    knot_from_fraction,
    load_table,
    lookup,
    parse_expansion,
    parse_fraction,
    verify_table,
)
from twobridge.errors import TableDataError
from twobridge.table import KnotRecord, _Table, resolve

EXPECTED_SHA256 = "431762012ab15346eb125390ad32fc5ffa683a9673909fd2df3dc621581881a7"
STARRED = {"7_4", "8_3", "9_5", "10_3", "11a_343", "11a_363", "12a_1166", "12a_1287"}


class TestLoad:
    def test_count_and_names(self):
        records = load_table()
        assert len(records) == 362
        assert len({r.name for r in records}) == 362

    def test_starred_set(self):
        assert {r.name for r in load_table() if r.starred} == STARRED

    def test_records_cannot_be_emptied(self):
        # every call hands out the loaded records; a cleared list once made verify_table read 0/0 and OK
        records = load_table()
        with pytest.raises(AttributeError):
            records.clear()
        assert load_table() is records and len(records) == 362
        report = verify_table()
        assert report.ok and report.total == 362 and set(report.passed.values()) == {362}

    def test_data_checksum(self):
        data = resources.files("twobridge").joinpath("data/table.tsv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == EXPECTED_SHA256

    @pytest.mark.parametrize(
        "name,fraction,gamma,expansion,starred",
        [
            ("3_1", "1/3", 1, "[3]", False),
            ("4_1", "2/5", 2, "[3,2]", False),
            ("6_1", "2/9", 2, "[5,2]", False),
            ("7_4", "4/15", 3, "[4,4]", True),
            ("9_31", "21/55", 4, "[3,3,3,3]", False),
            ("10_45", "34/89", 5, "[3,3,3,2,-2]", False),
            ("11a_367", "1/11", 1, "[11]", False),
            ("12a_226", "75/181", 6, "[2,-2,2,-2,2,3]", False),
            ("12a_1287", "6/37", 3, "[6,-6]", True),
        ],
    )
    def test_spot_rows(self, name, fraction, gamma, expansion, starred):
        rec = find_record(name)
        assert format_fraction(rec.fraction) == fraction
        assert rec.gamma == gamma
        assert format_expansion(rec.expansion) == expansion
        assert rec.starred == starred

    def test_row_text_round_trips(self):
        for rec in load_table():
            assert parse_fraction(format_fraction(rec.fraction)) == rec.fraction
            assert parse_expansion(format_expansion(rec.expansion)) == rec.expansion
            assert eval_expansion(rec.expansion) == rec.fraction


def _real_rows():
    with open(twobridge.table._DATA, encoding="ascii") as f:
        return f.read().splitlines()


class TestLoadRefusals:
    """Each structural refusal of the loader, on a copy of the table with one row changed.

    Lines 1 and 2 are comments; line 3 is 3_1 and line 4 is 4_1.
    """

    @pytest.fixture
    def load(self, tmp_path, monkeypatch):
        def load(lines):
            path = tmp_path / "table.tsv"
            path.write_text("\n".join(lines) + "\n", encoding="ascii")
            monkeypatch.setattr(twobridge.table, "_DATA", str(path))
            twobridge.table._table.cache_clear()
            with pytest.raises(TableDataError) as refused:
                load_table()
            return refused.value

        yield load
        twobridge.table._table.cache_clear()  # later tests load the real table again

    @pytest.mark.parametrize(
        "row,line,message",
        [
            (3, "3_1\t1\t3\t1\t3", "expected 6 fields, got 5"),
            (3, "3_1\t1\tx\t1\t3\t0", "bad integer field: invalid literal for int() with base 10: 'x'"),
            (3, "3_1\t1\t3\t1\t3\t2", "bad star flag '2'"),
            (4, "3_1\t2\t5\t2\t3,2\t0", "duplicate name 3_1"),
            (3, "3_1\t2\t4\t1\t3\t0", "bad fraction 2/4"),
        ],
        ids=["field count", "bad integer", "star flag", "duplicate name", "bad fraction"],
    )
    def test_a_bad_row(self, load, row, line, message):
        lines = _real_rows()
        lines[row - 1] = line
        refused = load(lines)
        assert str(refused) == f"table row {row}: {message}" and refused.row == row

    def test_a_missing_row(self, load):
        refused = load(_real_rows()[:-1])
        assert str(refused) == "table row 0: expected 362 records, found 361" and refused.row == 0


class TestVerify:
    def test_all_checks_pass(self):
        report = verify_table()
        assert report.ok
        assert report.total == 362
        for check in report.CHECKS:
            assert report.passed[check] == 362

    def test_report_lines(self):
        lines = verify_table().lines()
        assert lines[-1] == "OK"
        assert any(line.startswith("a_eval") and line.endswith("362/362") for line in lines)

    def test_one_even_run_reading_per_row(self, monkeypatch):
        # check d reads "no +-2" off the report's runs, not off a second `_even_runs`
        calls = Counter()
        even_runs = twobridge.invariants._even_runs

        def counting(k, cf):
            calls[k] += 1
            return even_runs(k, cf)

        monkeypatch.setattr(twobridge.invariants, "_even_runs", counting)
        assert verify_table().ok
        assert len(calls) == 362 and set(calls.values()) == {1}

    def test_each_corruption_is_one_fail_line(self, monkeypatch):
        corrupted = corrupted_table()
        monkeypatch.setattr(twobridge.table, "_table", lambda: corrupted)
        report = verify_table()
        assert not report.ok
        assert report.lines() == CORRUPTED_TABLE_LINES


def corrupted_table():
    """The table with four rows changed and a fifth row that repeats 6_1: each breaks one check."""
    table = twobridge.table._table()
    changed = {
        "3_1": {"gamma": 2},
        "4_1": {"expansion": parse_expansion("[5,2]")},  # the expansion of 6_1
        "6_1": {"expansion": parse_expansion("[5,3,1]")},  # right value, not shortest
        "7_4": {"starred": False},
    }
    fields = ("name", "fraction", "gamma", "expansion", "starred")
    records = [
        KnotRecord(**{**{f: getattr(rec, f) for f in fields}, **changed.get(rec.name, {})}) for rec in table.records
    ]
    records.append(KnotRecord("6_1'", parse_fraction("5/9"), 2, parse_expansion("[2,5]"), False))
    return _Table(records, {rec.name: rec for rec in records}, table.by_pair)


# the report of `verify_table` on `corrupted_table()`: one FAIL line per corruption
CORRUPTED_TABLE_LINES = [
    "a_eval (expansion evaluates to p/q): 362/363",
    "b_shortest (expansion is shortest (reduction preserves length)): 362/363",
    "c_gamma (computed crosscap equals the table's): 362/363",
    "d_starred (starred exactly when crosscap = 2*genus + 1 (even type, no +-2)): 362/363",
    "e_distinct (no two rows name the same knot): 362/363",
    "FAIL 3_1 c_gamma: computed crosscap 1, table says 2",
    "FAIL 4_1 a_eval: [5,2] evaluates to 2/9, table says 2/5",
    "FAIL 6_1 b_shortest: [5,3,1] reduces to [5,2]",
    "FAIL 7_4 d_starred: starred=false, gamma=2g+1 is true, even expansion [4,4]",
    "FAIL 6_1' e_distinct: same knot as 6_1",
    "FAILED (5 failures)",
]


def compositions(total):
    """Every tuple of positive integers summing to total."""
    if total == 0:
        yield ()
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first, *rest)


def knot_key(q, p):
    """(q, least of p, 1/p, -p, -1/p mod q): one key per knot up to mirror image."""
    inverse = pow(p, -1, q)
    return q, min(p, inverse, q - p, q - inverse)


@cache
def two_bridge_knots(most_crossings):
    """{key: crossing number} of every 2-bridge knot with at most most_crossings crossings.

    A composition a_1 + ... + a_n = c with a_n >= 2 gives p/q = [0; a_1, ..., a_n]
    (regular continued fraction), whose alternating diagram is reduced and has
    c crossings; an odd q names a knot.
    """
    knots = {}
    for c in range(3, most_crossings + 1):
        for last in range(2, c + 1):
            for head in compositions(c - last):
                p, q = 1, last
                for a in reversed(head):
                    p, q = q, a * q + p
                if q % 2:
                    assert knots.setdefault(knot_key(q, p), c) == c
    return knots


def ernst_sumners(c):
    """The number of 2-bridge knots with c >= 3 crossings up to mirror image (Ernst-Sumners, 1987)."""
    half = 2 ** ((c - 4) // 2) if c % 2 == 0 else 2 ** ((c - 3) // 2)
    count, rest = divmod(2 ** (c - 3) + half + (0, 0, -1, 1)[c % 4], 3)
    assert rest == 0
    return count


class TestCompleteness:
    # the table holds every 2-bridge knot through 12 crossings, up to mirror image

    def test_table_is_every_knot_through_12_crossings(self):
        table = {knot_key(k.q, k.p) for k in (knot_from_fraction(rec.fraction) for rec in load_table())}
        assert len(table) == 362
        assert table == set(two_bridge_knots(12))

    def test_counts_follow_ernst_sumners(self):
        counts = Counter(two_bridge_knots(16).values())
        expected = [1, 1, 2, 3, 7, 12, 24, 45, 91, 176, 352, 693, 1387, 2752]
        assert [ernst_sumners(c) for c in range(3, 17)] == expected
        assert [counts[c] for c in range(3, 17)] == expected

    def test_crosscap_bounds_through_16_crossings(self):
        # Murakami-Yasuhara (1995): gamma <= floor(c/2); Clark (1978): gamma <= 2g + 1
        knots = two_bridge_knots(16)
        assert len(knots) == 5546
        for (q, p), c in knots.items():
            k = KnotId(q, p)
            gamma = crosscap(k)
            assert gamma <= c // 2
            assert gamma <= 2 * genus(k) + 1


class TestLookup:
    def test_by_name(self):
        report, rec = lookup("7_4")
        assert rec is not None and rec.name == "7_4" and rec.starred
        assert report.crosscap == 3
        assert report.genus == 1
        assert report.boundary is Boundary.COMPRESSIBLE

    def test_by_fraction(self):
        report, rec = lookup("2/9")
        assert rec is not None and rec.name == "6_1"
        assert report.crosscap == 2

    def test_fraction_matches_up_to_equivalence(self):
        # 5/9 is the inverse representative of 6_1's 2/9
        _, rec = lookup("5/9")
        assert rec is not None and rec.name == "6_1"

    def test_fraction_without_record(self):
        # 4/9 is the mirror of 6_1, which the table lists only one way
        report, rec = lookup("4/9")
        assert rec is None
        assert report.crosscap == 2

    def test_gamma_agrees_for_every_name(self):
        for rec in load_table():
            report, _ = lookup(rec.name)
            assert report.crosscap == rec.gamma
            p, q = rec.fraction.numerator, rec.fraction.denominator
            for text in (f"{p}/{q}", f"{pow(p, -1, q)}/{q}"):
                _, found = lookup(text)
                assert found is rec

    def test_no_inverse_for_any_q(self, monkeypatch):
        # the table indexes both Schubert pairs of each row, so resolve is one lookup of
        # the knot's own pair: no inverse mod q, past the table or inside it
        q = 10**30 + 1
        records = load_table()  # the loader takes the inverses once, before the count
        texts = [f"2/{q}"]
        for rec in records:
            p, q_rec = rec.fraction.numerator, rec.fraction.denominator
            texts.append(f"{pow(p, -1, q_rec)}/{q_rec}")
        calls = 0
        builtin_pow = builtins.pow

        def counting(*args):
            nonlocal calls
            calls += 1
            return builtin_pow(*args)

        monkeypatch.setattr(builtins, "pow", counting)
        found = [resolve(text) for text in texts]
        monkeypatch.undo()
        assert calls == 0
        assert found[0] == (KnotId(q, 2), None)
        assert all(rec is found_rec for rec, (_, found_rec) in zip(records, found[1:], strict=True))

    def test_errors(self):
        with pytest.raises(UnknownNameError):
            lookup("13a_1")
        with pytest.raises(UnknownNameError):
            find_record("nope")
        with pytest.raises(DomainError):
            lookup("1/2")  # even denominator: a link
        with pytest.raises(DomainError):
            lookup("1/0")
        with pytest.raises(ParseError):
            lookup("2/0")  # fraction-shaped input fails as a fraction
