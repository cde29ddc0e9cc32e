"""Isolated layer probes: single public-API operations timed on their own.

Each probe times ``number`` back-to-back calls, ``REPEAT`` times, and reports
the median per call in microseconds.  Operands are fixed, so the numbers
compare across commits rather than across workloads.
"""

from __future__ import annotations

import statistics
import time

from flatwander.lattes import weierstrass_context
from flatwander.lattice import Lattice, reduce_to_fundamental
from flatwander.numbers import BiQuadratic, QuadraticNumber, parse_complex

REPEAT = 15


def _median_us(fn, number: int) -> float:
    per_call = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - t0) / number)
    return statistics.median(per_call) * 1e6


def _qn(d: int) -> tuple[QuadraticNumber, QuadraticNumber]:
    return QuadraticNumber(1, 1, 3, d), QuadraticNumber(-2, 5, 7, d)


def run() -> dict[str, float]:
    """Trial division in the scalar constructor makes cost grow with the
    radicand, hence the three radicands; ``number`` keeps each batch near a
    millisecond at today's speeds."""
    out = {}
    for d, number in ((2, 400), (1000003, 15), (1000000007, 1)):
        x, y = _qn(d)
        out[f"numbers.add_us.d{d}"] = _median_us(lambda: x + y, number)
    x, y = _qn(1000003)
    out["numbers.mul_us.d1000003"] = _median_us(lambda: x * y, 15)
    out["numbers.sign_us.d1000003"] = _median_us(x.sign, 2000)
    big = _qn(1000000007)[1]
    out["numbers.floor_us.d1000000007"] = _median_us(big.floor, 1)
    p = BiQuadratic(QuadraticNumber(1, 1, 3, 2), QuadraticNumber(2, -1, 5, 2), 3)
    q = BiQuadratic(QuadraticNumber(-1, 2, 7, 2), QuadraticNumber(1, 1, 2, 2), 3)
    out["numbers.biquadratic_mul_us"] = _median_us(lambda: p * q, 40)
    pt = (QuadraticNumber(-37, 7, 11, 2), QuadraticNumber(53, -5, 13, 2))
    out["lattice.reduce_to_fundamental_us"] = _median_us(lambda: reduce_to_fundamental(pt), 40)
    ctx = weierstrass_context(Lattice(parse_complex("i")))
    out["lattes.wp_pair_us"] = _median_us(lambda: ctx.wp_pair(0.31 + 0.27j), 20)
    return out
