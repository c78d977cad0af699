"""Embedded table of the 362 two-bridge knots through 12 crossings.

Each record carries the knot name, its fraction p/q, its crosscap
number and a shortest expansion (odd type except for the eight starred
knots, whose unique shortest expansion is even type).  verify_table
recomputes everything from scratch, so the table doubles as a large
end-to-end regression suite.

Knot identity is Schubert's rule.  Here it is stated in `_pairs`: the
loader indexes each row under its two pairs (q, p) and (q, p^-1 mod q),
so `resolve` finds a knot by its own pair in one dict lookup, and
verify_table's distinctness check fills the same two pairs in table
order.  `conway.verify_diagram` states it too, as w = p or w*p = 1
(mod q), so that it needs no inverse.
"""

from __future__ import annotations

import os
from functools import cache
from math import gcd

from .core import (
    Expansion,
    ExtendedRational,
    KnotId,
    _set_field,
    _Value,
    eval_expansion,
    knot_from_fraction,
    parse_fraction,
)
from .errors import TableDataError, UnknownNameError
from .invariants import InvariantReport, _fired, _no_two, invariant_report
from .reduction import is_reduced, reduce_expansion

__all__ = ["KnotRecord", "TableReport", "load_table", "verify_table", "resolve", "lookup", "find_record"]

# Read as a file next to this module, where the package data installs it.
# In an interpreter without `site` hooks, importing `importlib.resources`
# takes longer than the whole package does (`pkgutil` imports `typing`).
_DATA = os.path.join(os.path.dirname(__file__), "data", "table.tsv")


class KnotRecord(_Value):
    __slots__ = ("name", "fraction", "gamma", "expansion", "starred")

    def __init__(self, name: str, fraction: ExtendedRational, gamma: int, expansion: Expansion, starred: bool):
        _set_field(self, "name", name)
        _set_field(self, "fraction", fraction)
        _set_field(self, "gamma", gamma)
        _set_field(self, "expansion", expansion)
        _set_field(self, "starred", starred)


class TableReport:
    """Outcome of the five table checks, with one failure entry per offense.

    Every check runs once on every row, so its passes are the rows less
    its failures: `passed` counts them from `failures`, and a passing
    check leaves nothing behind.
    """

    CHECKS = {
        "a_eval": "expansion evaluates to p/q",
        "b_shortest": "expansion is shortest (reduction preserves length)",
        "c_gamma": "computed crosscap equals the table's",
        "d_starred": "starred exactly when crosscap = 2*genus + 1 (even type, no +-2)",
        "e_distinct": "no two rows name the same knot",
    }

    def __init__(self, total: int = 0):
        self.total = total
        self.failures: list[tuple[str, str, str]] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def passed(self) -> dict[str, int]:
        passed = dict.fromkeys(self.CHECKS, self.total)
        for _, check, _ in self.failures:
            passed[check] -= 1
        return passed

    def lines(self) -> list[str]:
        passed = self.passed
        out = [f"{check} ({description}): {passed[check]}/{self.total}" for check, description in self.CHECKS.items()]
        for name, check, detail in self.failures:
            out.append(f"FAIL {name} {check}: {detail}")
        out.append("OK" if self.ok else f"FAILED ({len(self.failures)} failures)")
        return out


class _Table(_Value):
    __slots__ = ("records", "by_name", "by_pair")

    def __init__(self, records: tuple[KnotRecord, ...], by_name: dict[str, KnotRecord], by_pair: dict[tuple[int, int], KnotRecord]):
        _set_field(self, "records", records)
        _set_field(self, "by_name", by_name)
        _set_field(self, "by_pair", by_pair)


def _pairs(q: int, p: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The two Schubert pairs (q, p) and (q, p^-1 mod q) of the knot S(q, p), for q > 1.

    Schubert (Knoten mit zwei Bruecken, Math. Z. 65, 1956): S(q, p) and
    S(q, p') are one knot iff p' = p or p^-1 mod q, so a knot is in the
    table iff its pair is one of a row's two pairs.
    """
    return (q, p), (q, pow(p, -1, q))


def _read_rows() -> list[tuple[int, list[str]]]:
    with open(_DATA, encoding="ascii") as f:
        text = f.read()
    rows = []
    for i, line in enumerate(text.splitlines(), start=1):
        if not line or line.startswith("#"):
            continue
        rows.append((i, line.split("\t")))
    return rows


@cache
def _table() -> _Table:
    """The records with their indexes by name and by both Schubert pairs, loaded once."""
    records = []
    by_name = {}
    by_pair = {}
    for row, fields in _read_rows():
        if len(fields) != 6:
            raise TableDataError(f"expected 6 fields, got {len(fields)}", row)
        name, p_text, q_text, gamma_text, coeff_text, star_text = fields
        try:
            p, q, gamma = int(p_text), int(q_text), int(gamma_text)
            coefficients = tuple(int(c) for c in coeff_text.split(","))
        except ValueError as exc:
            raise TableDataError(f"bad integer field: {exc}", row) from None
        if star_text not in ("0", "1"):
            raise TableDataError(f"bad star flag {star_text!r}", row)
        if name in by_name:
            raise TableDataError(f"duplicate name {name}", row)
        if q < 3 or q % 2 == 0 or not 0 < p < q or gcd(p, q) != 1:
            raise TableDataError(f"bad fraction {p}/{q}", row)
        rec = KnotRecord(name, ExtendedRational(p, q), gamma, Expansion(0, coefficients), star_text == "1")
        records.append(rec)
        by_name[name] = rec
        # first row wins, as a scan in table order would; verify_table reports duplicates
        for pair in _pairs(q, p):
            by_pair.setdefault(pair, rec)
    if len(records) != 362:
        raise TableDataError(f"expected 362 records, found {len(records)}", 0)
    return _Table(tuple(records), by_name, by_pair)


def load_table() -> tuple[KnotRecord, ...]:
    """All 362 records, validated structurally (names unique, q odd, gcd 1).

    A tuple, as every call hands out the one loaded record set.
    """
    return _table().records


def verify_table() -> TableReport:
    """Recompute every record's invariants and cross-check the table.

    All five checks run on every row.  A pass is not recorded, since
    `TableReport.passed` counts it from the failures; a failing check
    appends its row, its name and a detail, whose text, and for
    b_shortest the reduction it quotes, is built only then.
    """
    records = load_table()
    report = TableReport(total=len(records))
    fail = report.failures.append
    seen = {}
    for rec in records:
        k = knot_from_fraction(rec.fraction)

        value = eval_expansion(rec.expansion)
        if value != rec.fraction:
            fail((rec.name, "a_eval", f"{rec.expansion} evaluates to {value}, table says {rec.fraction}"))

        if not is_reduced(rec.expansion.coefficients):
            fail((rec.name, "b_shortest", f"{rec.expansion} reduces to {reduce_expansion(rec.expansion)[0]}"))

        invariants = invariant_report(k)
        gamma = invariants.crosscap
        if gamma != rec.gamma:
            fail((rec.name, "c_gamma", f"computed crosscap {gamma}, table says {rec.gamma}"))

        attains_bound = gamma == 2 * invariants.genus + 1
        even_no_two = _no_two(invariants.even_runs)
        unique_even_shortest = _fired(rec.expansion.coefficients) is None
        consistent = rec.starred == attains_bound == even_no_two == unique_even_shortest
        if not consistent:
            truth = f"starred={str(rec.starred).lower()}, gamma=2g+1 is {str(attains_bound).lower()}"
            fail((rec.name, "d_starred", f"{truth}, even expansion {invariants.even_expansion}"))

        first = seen.get((k.q, k.p))
        if first is not None:
            fail((rec.name, "e_distinct", f"same knot as {first}"))
        for pair in _pairs(k.q, k.p):
            seen.setdefault(pair, rec.name)
    return report


def find_record(name: str) -> KnotRecord:
    """The record of a table name; whitespace around the name is ignored."""
    name = name.strip()
    rec = _table().by_name.get(name)
    if rec is None:
        raise UnknownNameError(f"no knot named {name!r} in the table")
    return rec


def resolve(text: str) -> tuple[KnotId, KnotRecord | None]:
    """The knot named by a table name or by fraction text, and its table record.

    The record is attached when the knot appears in the table (matching
    up to knot equivalence, not just the printed fraction): the table
    indexes each row under both its Schubert pairs, so this is one dict
    lookup.  Computes no invariant, and no inverse mod q for any q.
    """
    if "/" not in text:
        rec = find_record(text)
        return knot_from_fraction(rec.fraction), rec
    k = knot_from_fraction(parse_fraction(text))
    return k, _table().by_pair.get((k.q, k.p))


def lookup(text: str) -> tuple[InvariantReport, KnotRecord | None]:
    """The invariant report and table record of the knot that `resolve` finds; `twobridge invariants` prints them."""
    k, rec = resolve(text)
    return invariant_report(k), rec
