"""The three workloads: their inputs, their operations and their checks.

Each workload is built from the seed alone.  An operation is written once
as a function of `call(name, fn, *args)`: the timed run passes a plain
call, the traced run one that records a span named after the layer.
`stages` are the extra layer calls that only the traced run makes.
A check returns None when the output is right, else a message.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from math import gcd

from twobridge.cli import main as cli_main
from twobridge.conway import conway_diagram, verify_diagram
from twobridge.core import ExtendedRational, KnotId, division_expansion, parse_expansion, parse_fraction
from twobridge.diagram import all_shortest_expansions, depth
from twobridge.invariants import even_expansion, invariant_report
from twobridge.reduction import reduce_expansion
from twobridge.table import find_record, lookup, verify_table

from oracles import (
    alexander_genus,
    evaluate,
    farey_depth,
    knot_of,
    parse_diagram_text,
    parse_expansion_text,
    regions_expected,
)

# The knots of the paper's table whose unique shortest expansion is even.
STARRED = {"7_4", "8_3", "9_5", "10_3", "11a_343", "11a_363", "12a_1166", "12a_1287"}

SWEEP_MAX_Q = 151
ALEXANDER_MAX_Q = 4100  # the genus oracle is O(q); above this the check is skipped

TORUS_Q = (65, 129, 257, 513, 1025, 2049)
FIBONACCI_N = tuple(range(24, 1201, 24))
RANDOM_BITS = tuple(range(64, 385, 32))
RANDOM_PER_SIZE = 4
RANDOM_MAX_QUOTIENT = 4

CLOSURE_K = (4, 8, 12)
TABLE_VERIFIES = 3
OVERSIZE_DIGITS = 5000  # beyond the interpreter's 4,300-digit int-string limit


# ---------------------------------------------------------------------------
# sweep and scale: one operation is the full per-knot pipeline


class Knot:
    __slots__ = ("k", "x", "p", "q", "family")

    def __init__(self, p: int, q: int, family: str):
        self.p, self.q, self.family = p, q, family
        self.k = KnotId(q, p)
        self.x = ExtendedRational(p, q)


def knot_op(call, spec: Knot):
    report = call("invariants.report", invariant_report, spec.k)
    diagram = call("conway.diagram", conway_diagram, spec.k)
    verified = call("conway.verify", verify_diagram, diagram, spec.k)
    d = call("diagram.depth", depth, spec.x)
    return report, diagram, verified, d


def knot_stages(call, spec: Knot):
    seed = call("core.seed", division_expansion, spec.x)
    call("reduction.reduce", reduce_expansion, seed)
    call("invariants.even", even_expansion, spec.k)


def check_knot(spec: Knot, result) -> str | None:
    report, diagram, verified, d = result
    p, q = spec.p, spec.q
    n = farey_depth(p, q)
    red = report.reduced
    if evaluate(red.integer_part, red.coefficients) != (p, q):
        return f"reduced expansion {red} does not evaluate to {p}/{q}"
    if len(red.coefficients) != n or d != n:
        return f"reduced length {len(red.coefficients)} and depth {d}, Farey walk gives {n}"
    gamma, g = report.crosscap, report.genus
    if gamma not in (n, n + 1) or not 1 <= gamma <= 2 * g + 1:
        return f"crosscap {gamma} with n={n}, genus {g}"
    even = report.even_expansion
    if (
        any(c == 0 or c % 2 for c in even.coefficients)
        or len(even.coefficients) != 2 * g
        or evaluate(even.integer_part, even.coefficients) != (p, q)
    ):
        return f"even expansion {even} does not fit genus {g} of {p}/{q}"
    src = diagram.source_expansion
    if evaluate(src.integer_part, src.coefficients) != (p, q):
        return f"diagram source {src} does not evaluate to {p}/{q}"
    regions = diagram.twist_regions
    if 0 in regions or len(regions) != regions_expected(gamma):
        return f"diagram regions {regions} for crosscap {gamma}"
    if not knot_of(evaluate(0, regions), q, p):
        return f"diagram regions {regions} do not name S({q},{p})"
    if verified is not True:
        return "verify_diagram rejected the diagram"
    if q <= ALEXANDER_MAX_Q and alexander_genus(p, q) != g:
        return f"genus {g}, Alexander polynomial gives {alexander_genus(p, q)}"
    if spec.family == "torus" and (gamma != 1 or 2 * g != q - 1):
        return f"torus knot S({q},{p}) has crosscap {gamma}, genus {g}"
    return None


def sweep_inputs(seed: int) -> list[Knot]:
    """Every knot S(q,p) with odd q <= SWEEP_MAX_Q, ascending q, p in seeded order."""
    rng = random.Random(seed)
    specs = []
    for q in range(3, SWEEP_MAX_Q + 1, 2):
        ps = [p for p in range(1, q) if gcd(p, q) == 1]
        rng.shuffle(ps)
        specs.extend(Knot(p, q, "sweep") for p in ps)
    return specs


def _random_fraction(rng: random.Random, bits: int) -> tuple[int, int]:
    """p/q in (0,1) with q odd and q >= 2**bits, from shuffled blocks of the quotients 1..4.

    Every block holds each quotient once, so fractions of one size differ
    in order but hardly in cost, and the workload's cost barely moves
    with the seed.
    """
    # convergents h/k of [0; a_1, a_2, ...]: h_n = a_n h_(n-1) + h_(n-2), likewise k
    h0, h1, k0, k1 = 0, 1, 1, 0
    block = list(range(1, RANDOM_MAX_QUOTIENT + 1))
    while k0.bit_length() <= bits:
        rng.shuffle(block)
        for a in block:
            h0, h1, k0, k1 = a * h0 + h1, h0, a * k0 + k1, k0
    if k0 % 2 == 0:  # k1 is then odd, so one more quotient makes the denominator odd
        a = rng.randint(1, RANDOM_MAX_QUOTIENT)
        h0, h1, k0, k1 = a * h0 + h1, h0, a * k0 + k1, k0
    return h0, k0


def scale_inputs(seed: int) -> list[Knot]:
    """Torus knots (q-1)/q, Fibonacci ratios, then seeded random fractions."""
    rng = random.Random(seed)
    specs = [Knot(q - 1, q, "torus") for q in TORUS_Q]
    fib = [0, 1]
    while len(fib) <= FIBONACCI_N[-1] + 3:
        fib.append(fib[-1] + fib[-2])
    for n in FIBONACCI_N:
        while fib[n + 1] % 2 == 0:  # even denominators name links
            n += 1
        specs.append(Knot(fib[n], fib[n + 1], "fibonacci"))
    for bits in RANDOM_BITS:
        for _ in range(RANDOM_PER_SIZE):
            specs.append(Knot(*_random_fraction(rng, bits), "random"))
    return specs


# ---------------------------------------------------------------------------
# cli: one operation is one in-process `twobridge.cli.main(argv)` call


class Command:
    """One CLI call.  `row` is the table row (name, p, q, crosscap, starred)
    the command is about; `value` is what its check needs: ((p, q), the
    number of lines expected) for `shortest`, the exact standard output
    of a correct answer for the oversize commands."""

    __slots__ = ("argv", "kind", "row", "value")

    def __init__(self, argv: tuple[str, ...], kind: str, row=None, value=None):
        self.argv, self.kind, self.row, self.value = argv, kind, row, value


def run_main(argv: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI call, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli_main(list(argv))
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def cli_op(call, spec: Command):
    return call("cli.main", run_main, spec.argv)


def cli_stages(call, spec: Command):
    """The layer calls the command makes, repeated under their own spans."""
    kind, argv = spec.kind, spec.argv
    if kind in ("invariants_name", "invariants_fraction", "conway"):
        if kind == "invariants_fraction":
            call("core.parse", parse_fraction, argv[1])
        report, _ = call("table.lookup", lookup, argv[1])
        if kind == "conway":
            diagram = call("conway.diagram", conway_diagram, report.knot)
            call("conway.verify", verify_diagram, diagram, report.knot)
        else:
            x = ExtendedRational(report.knot.p, report.knot.q)
            seed = call("core.seed", division_expansion, x)
            call("reduction.reduce", reduce_expansion, seed)
            call("invariants.even", even_expansion, report.knot)
    elif kind == "table_lookup":
        call("table.lookup", find_record, argv[2])
    elif kind == "shortest":
        x = call("core.parse", parse_fraction, argv[1])
        call("diagram.closure", all_shortest_expansions, x)
    elif kind == "table_verify":
        call("table.verify", verify_table)
    elif kind == "oversize":
        call("core.parse", parse_expansion, argv[1])


def read_table_rows() -> list[tuple[str, int, int, int, bool]]:
    """(name, p, q, crosscap, starred) of the paper's table, read from the data file."""
    text = resources.files("twobridge").joinpath("data/table.tsv").read_text(encoding="ascii")
    rows = []
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, p, q, gamma, _, star = line.split("\t")
            rows.append((name, int(p), int(q), int(gamma), star == "1"))
    return rows


def cli_inputs(seed: int) -> list[Command]:
    rng = random.Random(seed)
    rows = read_table_rows()
    rng.shuffle(rows)
    specs = []
    for row in rows:
        name, p, q = row[0], row[1], row[2]
        specs += [
            Command(("invariants", name), "invariants_name", row),
            Command(("invariants", f"{pow(p, -1, q)}/{q}"), "invariants_fraction", row),
            Command(("conway", name), "conway", row),
            Command(("table", "lookup", name), "table_lookup", row),
            Command(("shortest", f"{p}/{q}"), "shortest", row, ((p, q), 1)),
        ]
    specs += [Command(("table", "verify"), "table_verify") for _ in range(TABLE_VERIFIES)]
    for k in CLOSURE_K:
        a, b = evaluate(0, (5,) + (2, 5) * k)
        specs.append(Command(("shortest", f"{a}/{b}"), "shortest", None, ((a, b), 1)))
        specs.append(Command(("shortest", f"{a}/{b}", "--all"), "shortest", None, ((a, b), 2**k)))
    digits = "7" * OVERSIZE_DIGITS
    specs.append(Command(("eval", f"[{digits}]"), "oversize", None, f"1/{digits}"))
    specs.append(Command(("reduce", f"[{digits}]"), "oversize", None, f"[{digits}]"))
    return specs


def _key_values(out: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in out.splitlines() if "=" in line)


def _check_shortest_line(line: str, value: tuple[int, int]) -> str | None:
    e = parse_expansion_text(line)
    if e is None:
        return f"unparsable expansion {line!r}"
    if evaluate(*e) != value:
        return f"{line} does not evaluate to {value[0]}/{value[1]}"
    if len(e[1]) != farey_depth(*value):
        return f"{line} is not shortest"
    return None


def check_command(spec: Command, result) -> str | None:
    code, out, err = result
    kind = spec.kind
    if kind == "oversize":
        if code == 2 and err and not out:
            return None
        if code == 0 and out == spec.value + "\n":
            return None
        return f"exit {code} with stdout {out[:40]!r}"
    if code != 0:
        return f"exit {code}: {err.strip()[:200]}"
    lines = out.splitlines()
    if kind == "table_verify":
        return None if lines and lines[-1] == "OK" else f"table verify ended with {lines[-1:]}"
    if kind == "shortest":
        value, expected = spec.value
        if len(set(lines)) != len(lines) or len(lines) != expected:
            return f"{len(set(lines))} distinct of {len(lines)} lines, expected {expected}"
        for line in lines:
            error = _check_shortest_line(line, value)
            if error:
                return error
        return None

    name, p, q, gamma, starred = spec.row
    if starred != (name in STARRED):
        return f"the table marks {name} starred={starred}"
    if kind == "conway":
        regions = parse_diagram_text(lines[0]) if len(lines) == 2 else None
        if regions is None or lines[1] != "verified=true":
            return f"unexpected output {out!r}"
        if 0 in regions or len(regions) != regions_expected(gamma):
            return f"{len(regions)} regions for crosscap {gamma}"
        return None if knot_of(evaluate(0, regions), q, p) else f"{lines[0]} does not name S({q},{p})"
    fields = _key_values(out)
    if kind == "table_lookup":
        e = parse_expansion_text(out.split("expansion=", 1)[-1].split()[0])
        ok = (
            f"name={name} fraction={p}/{q} gamma={gamma}" in out
            and f"starred={str(starred).lower()}" in out
            and e is not None
            and evaluate(*e) == (p, q)
            and len(e[1]) == farey_depth(p, q)
        )
        return None if ok else f"unexpected record {out!r}"
    # invariants, by name or by the inverse fraction
    n, g = farey_depth(p, q), alexander_genus(p, q)
    ok = (
        fields.get("crosscap") == str(gamma)
        and gamma in (n, n + 1)
        and fields.get("genus") == str(g)
        and fields.get("table_name") == name
        and fields.get("starred") == str(starred).lower()
    )
    reduced = parse_expansion_text(fields.get("reduced", ""))
    if not ok or reduced is None or len(reduced[1]) != n or not knot_of(evaluate(*reduced), q, p):
        return f"unexpected invariants {fields}"
    return None


# ---------------------------------------------------------------------------


def layer_probe(call):
    """One call into every layer on 7_4 = S(15,4); ends each traced round."""
    text = "4/15"
    x = call("core.parse", parse_fraction, text)
    call("table.lookup", lookup, text)
    knot = Knot(x.numerator, x.denominator, "probe")
    knot_op(call, knot)
    knot_stages(call, knot)
    call("diagram.closure", all_shortest_expansions, x)
    call("table.verify", verify_table)
    call("cli.main", run_main, ("invariants", text))


class Workload:
    """One workload and how it is measured.

    `segment` is how many operations run between two timings of the
    reference kernels, about 10-30 ms of work today.  It is a count, not
    a time, so that the kernels' own allocations fall at the same points
    of every round and the garbage collector runs at the same operations.
    `tail` is the percentile reported as latency_tail_ms (see README.md).
    """

    def __init__(self, inputs, op, stages, check, segment, tail):
        self.inputs, self.op, self.stages, self.check = inputs, op, stages, check
        self.segment, self.tail = segment, tail


WORKLOADS = {
    "sweep": Workload(sweep_inputs, knot_op, knot_stages, check_knot, 40, 99.5),
    "scale": Workload(scale_inputs, knot_op, knot_stages, check_knot, 1, 90),
    "cli": Workload(cli_inputs, cli_op, cli_stages, check_command, 12, 95),
}
