"""Embedded table of the 362 two-bridge knots through 12 crossings.

Each record carries the knot name, its fraction p/q, its crosscap
number and a shortest expansion (odd type except for the eight starred
knots, whose unique shortest expansion is even type).  verify_table
recomputes everything from scratch, so the table doubles as a large
end-to-end regression suite.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from functools import cache
from math import gcd

from .core import (
    Expansion,
    ExtendedRational,
    KnotId,
    _set_field,
    _Value,
    canonical_form,
    eval_expansion,
    knot_from_fraction,
    parse_fraction,
)
from .errors import TableDataError, UnknownNameError
from .invariants import InvariantReport, _no_two, invariant_report
from .reduction import reduce_expansion

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
    """Outcome of the five table checks, with one failure entry per offense."""

    CHECKS = {
        "a_eval": "expansion evaluates to p/q",
        "b_shortest": "expansion is shortest (reduction preserves length)",
        "c_gamma": "computed crosscap equals the table's",
        "d_starred": "starred exactly when crosscap = 2*genus + 1 (even type, no +-2)",
        "e_distinct": "all canonical forms distinct",
    }

    def __init__(self, total: int = 0):
        self.total = total
        self.passed: dict[str, int] = {}
        self.failures: list[tuple[str, str, str]] = []

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, check: str, ok: bool, name: str, detail: Callable[[], str]):
        """Count a pass, or list a failure with the text detail() formats, which a pass never calls."""
        if ok:
            self.passed[check] = self.passed.get(check, 0) + 1
        else:
            self.failures.append((name, check, detail()))

    def lines(self) -> list[str]:
        out = []
        for check, description in self.CHECKS.items():
            out.append(f"{check} ({description}): {self.passed.get(check, 0)}/{self.total}")
        for name, check, detail in self.failures:
            out.append(f"FAIL {name} {check}: {detail}")
        out.append("OK" if self.ok else f"FAILED ({len(self.failures)} failures)")
        return out


class _Table(_Value):
    __slots__ = ("records", "by_name", "by_canonical", "max_q")

    def __init__(
        self,
        records: list[KnotRecord],
        by_name: dict[str, KnotRecord],
        by_canonical: dict[KnotId, KnotRecord],
        max_q: int,
    ):
        _set_field(self, "records", records)
        _set_field(self, "by_name", by_name)
        _set_field(self, "by_canonical", by_canonical)
        _set_field(self, "max_q", max_q)


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
    """The records with their indexes by name and by canonical form, loaded once."""
    records = []
    by_name = {}
    by_canonical = {}
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
        by_canonical.setdefault(canonical_form(KnotId(q, p)), rec)
    if len(records) != 362:
        raise TableDataError(f"expected 362 records, found {len(records)}", 0)
    return _Table(records, by_name, by_canonical, max(rec.fraction.denominator for rec in records))


def load_table() -> list[KnotRecord]:
    """All 362 records, validated structurally (names unique, q odd, gcd 1)."""
    return _table().records


def verify_table() -> TableReport:
    """Recompute every record's invariants and cross-check the table."""
    records = load_table()
    report = TableReport(total=len(records))
    canon = {}
    for rec in records:
        k = knot_from_fraction(rec.fraction)

        value = eval_expansion(rec.expansion)
        report.record("a_eval", value == rec.fraction, rec.name, lambda: f"{rec.expansion} evaluates to {value}, table says {rec.fraction}")

        reduced, _ = reduce_expansion(rec.expansion)
        report.record("b_shortest", len(reduced) == len(rec.expansion), rec.name, lambda: f"{rec.expansion} reduces to {reduced}")

        invariants = invariant_report(k)
        gamma = invariants.crosscap
        report.record("c_gamma", gamma == rec.gamma, rec.name, lambda: f"computed crosscap {gamma}, table says {rec.gamma}")

        attains_bound = gamma == 2 * invariants.genus + 1
        even_no_two = _no_two(invariants.even_runs)
        unique_even_shortest = not rec.expansion.odd_type and not any(abs(c) == 2 for c in rec.expansion.coefficients)
        consistent = rec.starred == attains_bound == even_no_two == unique_even_shortest
        report.record("d_starred", consistent, rec.name, lambda: f"starred={rec.starred}, gamma=2g+1 is {attains_bound}, even expansion {invariants.even_expansion}")

        key = canonical_form(k)
        first = canon.get(key)
        report.record("e_distinct", first is None, rec.name, lambda: f"same knot as {first}")
        canon.setdefault(key, rec.name)
    return report


def find_record(name: str) -> KnotRecord:
    rec = _table().by_name.get(name)
    if rec is None:
        raise UnknownNameError(f"no knot named {name!r} in the table")
    return rec


def resolve(text: str) -> tuple[KnotId, KnotRecord | None]:
    """The knot named by a table name or by fraction text, and its table record.

    The record is attached when the knot appears in the table (matching
    up to knot equivalence, not just the printed fraction).  Computes no
    invariant, and no inverse mod q when q is past every q in the table.
    """
    s = text.strip()
    if "/" not in s:
        rec = find_record(s)
        return knot_from_fraction(rec.fraction), rec
    k = knot_from_fraction(parse_fraction(s))
    table = _table()
    if k.q > table.max_q:
        return k, None
    return k, table.by_canonical.get(canonical_form(k))


def lookup(text: str) -> tuple[InvariantReport, KnotRecord | None]:
    """The invariant report and table record of the knot that `resolve` finds."""
    k, rec = resolve(text)
    return invariant_report(k), rec
