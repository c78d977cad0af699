"""Three-rule rewrite system that shortens subtractive continued fractions.

The rules remove a zero coefficient, a +-1 coefficient, or a run
2e,3e,...,3e,2e of total length m >= 2 (e = +-1), in every interior and
boundary form.  Each application preserves the exact value and strictly
shortens the coefficient list, so iteration reaches a fixpoint whose
length is the minimal expansion length of the value.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Expansion, format_expansion
from .errors import PatternMatchError

__all__ = [
    "Rule",
    "ReductionStep",
    "ReductionTrace",
    "apply_rule",
    "scan_for_step",
    "applicable_steps",
    "reduce_expansion",
    "format_trace",
]


class Rule(Enum):
    REMOVE_ZERO = "RemoveZero"
    REMOVE_UNIT = "RemoveUnit"
    REMOVE_BLOCK = "RemoveBlock"


@dataclass(frozen=True)
class ReductionStep:
    """One rule application site.

    position is the 1-based index of the removed coefficient (for blocks,
    of the first block entry).  epsilon is the unit sign where the rule
    has one, block_length the total block size m >= 2.
    """

    rule: Rule
    position: int
    epsilon: int = 0
    block_length: int = 0


@dataclass(frozen=True)
class ReductionTrace:
    """Replayable record of a reduction run: each step with its result."""

    initial: Expansion
    steps: tuple[tuple[ReductionStep, Expansion], ...]

    @property
    def final(self) -> Expansion:
        return self.steps[-1][1] if self.steps else self.initial


def _require(condition: bool, step: ReductionStep, e: Expansion, why: str):
    if not condition:
        raise PatternMatchError(f"{step.rule.value} at position {step.position} does not match {e}: {why}")


def apply_rule(e: Expansion, s: ReductionStep) -> Expansion:
    """Apply one reduction step, validating that its pattern matches."""
    c = e.coefficients
    n = len(c)
    r = e.integer_part
    j = s.position - 1
    _require(0 <= j < n, s, e, "position out of range")

    if s.rule is Rule.REMOVE_ZERO:
        _require(c[j] == 0, s, e, "coefficient is not 0")
        _require(n >= 2, s, e, "a lone [0] is the value 1/0 and cannot be removed")
        if 0 < j < n - 1:
            return Expansion(r, c[: j - 1] + (c[j - 1] + c[j + 1],) + c[j + 2 :])
        if j == n - 1:
            return Expansion(r, c[: n - 2])
        return Expansion(r - c[1], c[2:])

    if s.rule is Rule.REMOVE_UNIT:
        eps = s.epsilon
        _require(eps in (1, -1), s, e, "epsilon must be +-1")
        _require(c[j] == eps, s, e, f"coefficient is not {eps}")
        if n == 1:
            return Expansion(r + eps, ())
        if 0 < j < n - 1:
            return Expansion(r, c[: j - 1] + (c[j - 1] - eps, c[j + 1] - eps) + c[j + 2 :])
        if j == n - 1:
            return Expansion(r, c[: j - 1] + (c[j - 1] - eps,))
        return Expansion(r + eps, (c[1] - eps,) + c[2:])

    if s.rule is Rule.REMOVE_BLOCK:
        eps, m = s.epsilon, s.block_length
        _require(eps in (1, -1), s, e, "epsilon must be +-1")
        _require(m >= 2, s, e, "block length must be at least 2")
        end = j + m  # one past the block
        _require(end <= n, s, e, "block overruns the coefficients")
        expected = (2 * eps,) + (3 * eps,) * (m - 2) + (2 * eps,)
        _require(c[j:end] == expected, s, e, f"coefficients are not {expected}")
        body = (-3 * eps,) * (m - 1)
        if j > 0 and end < n:
            return Expansion(r, c[: j - 1] + (c[j - 1] - eps,) + body + (c[end] - eps,) + c[end + 1 :])
        if j > 0:
            return Expansion(r, c[: j - 1] + (c[j - 1] - eps,) + body)
        if end < n:
            return Expansion(r + eps, body + (c[end] - eps,) + c[end + 1 :])
        return Expansion(r + eps, body)

    raise PatternMatchError(f"unknown rule {s.rule!r}")


def _zero_steps(c: tuple[int, ...]) -> list[ReductionStep]:
    if len(c) < 2:
        return []
    return [ReductionStep(Rule.REMOVE_ZERO, i + 1) for i, v in enumerate(c) if v == 0]


def _unit_steps(c: tuple[int, ...]) -> list[ReductionStep]:
    return [ReductionStep(Rule.REMOVE_UNIT, i + 1, epsilon=v) for i, v in enumerate(c) if v in (1, -1)]


def _block_steps(c: tuple[int, ...]) -> list[ReductionStep]:
    steps = []
    n = len(c)
    for j, v in enumerate(c):
        if abs(v) != 2:
            continue
        eps = v // 2
        k = j + 1
        while k < n and c[k] == 3 * eps:
            k += 1
        if k < n and c[k] == 2 * eps:
            steps.append(ReductionStep(Rule.REMOVE_BLOCK, j + 1, epsilon=eps, block_length=k - j + 1))
    return steps


def scan_for_step(e: Expansion) -> ReductionStep | None:
    """Leftmost applicable step, trying RemoveZero, then RemoveUnit, then RemoveBlock."""
    for finder in (_zero_steps, _unit_steps, _block_steps):
        steps = finder(e.coefficients)
        if steps:
            return steps[0]
    return None


def applicable_steps(e: Expansion) -> list[ReductionStep]:
    """Every rule application that matches e, in scan order."""
    c = e.coefficients
    return _zero_steps(c) + _unit_steps(c) + _block_steps(c)


def reduce_expansion(e: Expansion) -> tuple[Expansion, ReductionTrace]:
    """Drive e to a fixpoint of the three rules, recording every step.

    The fixpoint length is the minimal length over all expansions of all
    fractions equivalent to the value; the empty list (integer values)
    and a lone [0] (the value 1/0) are legal degenerate outputs.
    """
    steps = []
    current = e
    while (step := scan_for_step(current)) is not None:
        current = apply_rule(current, step)
        steps.append((step, current))
    return current, ReductionTrace(e, tuple(steps))


def format_trace(trace: ReductionTrace) -> str:
    """One line per step: `rule pos eps m | resulting-expansion`."""
    lines = []
    for step, result in trace.steps:
        lines.append(
            f"{step.rule.value} {step.position} {step.epsilon} {step.block_length}"
            f" | {format_expansion(result)}"
        )
    return "\n".join(lines)
