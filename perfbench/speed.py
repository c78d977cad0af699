"""Reference loops that convert wall-clock time to time at a nominal speed.

On a shared virtual machine the same work takes up to half as long
again in one stretch of time as in another, and a fresh process can be
slower or faster as a whole.  The benchmark times a fixed set of small
Python kernels next to the program's work and scales each measured time
by NOMINAL_REF_S / (reference time measured beside it).  The reference
time is the geometric mean of five kernels of different kinds (integer
division with tuples and dicts, big-integer products, string formatting,
regular expressions, splicing long tuples), because no single kind of
work slows down in step with the program on every workload.

Imports only the standard library, so a worker can time the kernels
before the program's import is measured.
"""

from __future__ import annotations

import math
import re
from time import perf_counter

# Median reference time over 40 fresh processes on the 2-CPU Xeon KVM
# guest where the benchmark was written (Python 3.11.7).  It only fixes
# the unit: a nominal second is a wall second at that median speed.
NOMINAL_REF_S = 0.44e-3


class _Pair:
    __slots__ = ("n", "d")

    def __init__(self, n, d):
        self.n = n
        self.d = d


def _division_kernel() -> int:
    memo = {}
    acc = 0
    for n in range(1, 51):
        a, b = 1000003 * n + 12345678901234567, 7919 * n + 1
        coeffs = []
        while b:
            q = -((-a) // b)
            coeffs.append(q)
            a, b = b, q * b - a
        t = tuple(coeffs)
        u, w = 1, 0
        for c in reversed(t):
            u, w = c * u - w, u
        pair = _Pair(u, w)
        memo[(pair.n, pair.d)] = len(t)
        acc += len(t[1:] + t[:1]) + len(memo)
    return acc


_BIG = 3**700


def _bigint_kernel() -> int:
    acc = 0
    for i in range(60):
        acc += (_BIG * (_BIG + i)) % (_BIG - 7)
    return acc


def _text_kernel() -> int:
    out = []
    for i in range(200):
        out.append(f"key={i * 12345}/{i + 7} " + ",".join(str(c) for c in (i, i + 1, i + 2)))
    return len("\n".join(out))


_FRACTION = re.compile(r"^(-?\d+)/(\d+)$")


def _regex_kernel() -> int:
    n = 0
    for i in range(250):
        m = _FRACTION.match(f"{i}/{i + 3}")
        n += int(m.group(1))
    return n


def _splice_kernel() -> int:
    # scan a long tuple and splice it, as a rewrite step on a long expansion does
    acc = 0
    for _ in range(2):
        c = tuple(range(2, 152))
        while len(c) > 2:
            for j, v in enumerate(c):
                if v % 5 == 0:
                    break
            j = max(1, min(j, len(c) - 2))
            c = c[: j - 1] + (c[j - 1] + c[j + 1],) + c[j + 2 :]
            acc += len(c)
    return acc


KERNELS = (_division_kernel, _bigint_kernel, _text_kernel, _regex_kernel, _splice_kernel)


def reference_time() -> float:
    """Geometric mean of one timed run of each kernel, in seconds."""
    log_sum = 0.0
    for kernel in KERNELS:
        t0 = perf_counter()
        kernel()
        log_sum += math.log(perf_counter() - t0)
    return math.exp(log_sum / len(KERNELS))
