"""The certificate's own arithmetic: a periodic line's preperiod and period
in closed form against the walk, the integer certificate interval against
its QuadraticNumber reference, and the refusals this makes fast: an orbit
past the state cap without a walk, and a return ratio too long to print."""

import collections
import contextlib
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwander import cli, line_orbit
from flatwander.lattice import Lattice
from flatwander.line_orbit import (
    MAX_ORBIT_STATES,
    EventuallyPeriodic,
    IrrationalSlope,
    TorusLine,
    classify_line,
)
from flatwander.numbers import QuadraticNumber, parse_complex, parse_number, qn
from flatwander.segments import MAX_RETURN_DIGITS, certify_interval
from flatwander.torus_map import torus_map_new
import reference

ROOT = Path(__file__).resolve().parent.parent
SQUARE = Lattice(parse_complex("i"))
SQRT2 = IrrationalSlope(parse_number("sqrt(2)"))
ORBIT_GOLDEN = json.loads((ROOT / "tests" / "data" / "orbit_golden.json").read_text())


def _walked_shape(rule) -> tuple[int, int]:
    """The preperiod and period where the walk first repeats a state."""
    states, n0, _ = reference.walk(rule, MAX_ORBIT_STATES + 1)
    return n0, len(states) - n0


def _run(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


# ---------------------------------------------------------------------------
# the period in closed form
# ---------------------------------------------------------------------------


def test_the_closed_form_shape_matches_the_walk_on_every_orbit_golden():
    compared = 0
    for case in ORBIT_GOLDEN:
        _, args = cli._parse(list(case["argv"]))
        if getattr(args, "slope", None) is None or case["exit"] != 0:
            continue
        tm = cli._covering(args.a, args.b, args.omega)
        line = cli._build_line(args)
        if not tm.has_integer_multiplier or not isinstance(line.slope, IrrationalSlope):
            continue
        verdict = classify_line(tm, line)
        if not isinstance(verdict, EventuallyPeriodic):
            continue
        rule = line_orbit._state_rule(tm, line.slope, line.transverse())
        a = tm.multiplier_int()
        shape = line_orbit._shape(a, line_orbit._conjugate(a, rule), MAX_ORBIT_STATES)
        assert shape == _walked_shape(rule) == (verdict.preperiod, verdict.period), case["name"]
        compared += 1
    assert compared >= 30


def _prime_factors(n: int) -> list[int]:
    n, out, p = abs(n), [], 2
    while n > 1:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out


@st.composite
def _periodic_orbit(draw):
    """A rational line and a rational b over a denominator N <= 2^12, N often
    sharing primes with a and with a - 1 (a preperiod, and a state map that
    is not a bijection of the 1/N grid)."""
    a = draw(st.sampled_from([2, -2, 3, -3, 4, 5]))
    n = draw(st.integers(1, 64))
    for p in _prime_factors(a) + _prime_factors(a - 1):
        n *= p ** draw(st.integers(0, 4))
    n = min(n, 2**12)
    alpha, beta, bx, by = (Fraction(draw(st.integers(0, n - 1)), n) for _ in range(4))
    b = f"{bx}+{by}i"
    tm = torus_map_new(parse_complex(str(a)), parse_complex(b), SQUARE)
    return a, n, tm, TorusLine(SQRT2, qn(alpha), qn(beta))


@settings(max_examples=400, deadline=None)
@given(_periodic_orbit())
def test_the_closed_form_shape_matches_the_walk(case):
    a, n, tm, line = case
    rule = line_orbit._state_rule(tm, line.slope, line.transverse())
    conj = line_orbit._conjugate(a, rule)
    assert line_orbit._shape(a, conj, MAX_ORBIT_STATES) == _walked_shape(rule)


def test_the_drawn_orbits_share_primes_with_a_and_a_minus_1():
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None)
    @given(_periodic_orbit())
    def draw(case):
        a, n, tm, line = case
        rule = line_orbit._state_rule(tm, line.slope, line.transverse())
        pre, _ = line_orbit._shape(a, line_orbit._conjugate(a, rule), MAX_ORBIT_STATES)
        seen["gcd(a, N) > 1"] += math.gcd(a, n) > 1
        seen["gcd(a - 1, N) > 1"] += math.gcd(a - 1, n) > 1
        seen["preperiod > 0"] += pre > 0

    draw()
    assert min(seen.values()) >= 20, seen


def _plain_order(a: int, m: int, limit: int = MAX_ORBIT_STATES) -> int | None:
    """The least n <= ``limit`` with a^n = 1 mod m, one multiply-mod a step."""
    x = 1 % m
    for n in range(1, limit + 1):
        x = x * a % m
        if x == 1 % m:
            return n
    return None


@pytest.mark.parametrize(
    "a,m",
    # orders 1, 2, 6, 258 and 78 (inside the baby steps), 515 and 519 (just
    # past them), 87382, 131583 and 262138 (near the cap), and two past it
    [(2, 1), (2, 3), (3, 7), (2, 1033), (3, 1027), (2, 1031), (2, 1039), (3, 262147),
     (2, 263167), (2, 262139), (3, 1000003), (5, 262147)],
)
def test_the_order_matches_a_plain_loop_up_to_the_cap(a, m):
    n = line_orbit._order(a, m, MAX_ORBIT_STATES)
    assert n == _plain_order(a, m) if n <= MAX_ORBIT_STATES else _plain_order(a, m) is None


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % r for r in range(2, math.isqrt(q) + 1))


def _of_order(n: int) -> tuple[int, int]:
    """(a, q): an element a of order exactly n >= 2 mod the least prime
    q = 1 mod n, a power g^((q - 1)/n)."""
    q = n + 1
    while not _is_prime(q):
        q += n
    for g in range(2, q):
        a = pow(g, (q - 1) // n, q)
        if all(pow(a, n // r, q) != 1 for r in _prime_factors(n)):
            return a, q
    raise AssertionError(f"no element of order {n} mod {q}")


# ``_order``'s step s doubles from 1: its baby steps try n <= s, and its giant
# steps n < s*(s + 1); each side of each boundary, and the cap's
_STEPS = [2**k for k in range(10)]
_BOUNDARIES = sorted({n for s in _STEPS for n in (s, s + 1, s * (s + 1) - 1, s * (s + 1))} - {1})
# the collision search's limit is its budget: orders 333,334 (a closed loop
# of the CI's budget-400,000 run) and 10^6 + 2 under budgets either side
_BUDGETS = [(333334, 400000), (333334, 333334), (333334, 333333), (333334, 10**8),
            (10**6 + 2, 10**6 + 2), (10**6 + 2, 10**6 + 1), (10**6 + 2, 10**8)]


@pytest.mark.parametrize(
    "n,limit",
    [(n, MAX_ORBIT_STATES) for n in (*_BOUNDARIES, MAX_ORBIT_STATES, MAX_ORBIT_STATES + 1)]
    + _BUDGETS,
)
def test_the_order_on_each_side_of_a_doubling_matches_a_plain_loop(n, limit):
    a, q = _of_order(n)
    got = line_orbit._order(a, q, limit)
    if n <= limit:
        assert got == n == _plain_order(a, q, min(limit, n))
    else:  # past the limit: the exact order or limit + 1, a refusal or a miss either way
        assert got in (n, limit + 1) and _plain_order(a, q, limit) is None


def test_an_order_near_8000_costs_order_sqrt_n_lines():
    """A work guard, not a clock: every line ``_order`` runs is counted by
    ``sys.settrace``.  3 has order 8,008 mod 8,009; a plain loop runs about
    24,000 lines, and baby steps up to the cap before any giant step about
    1,600 (three lines each for 513 of them); the doubling step takes under
    1,000, about 11*sqrt(n)."""
    lines = [0]

    def tracer(frame, event, arg):
        lines[0] += event == "line"
        return tracer

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        n = line_orbit._order(3, 8009, MAX_ORBIT_STATES)
    finally:
        sys.settrace(before)
    assert n == 8008
    assert lines[0] <= 1200, lines[0]


def test_a_period_past_the_cap_refuses_in_milliseconds_without_a_walk(monkeypatch):
    steps = reference.counted_steps(monkeypatch)
    argv = ["classify-line", "--a", "3", "--omega", "i", "--slope", "sqrt(2)",
            "--alpha", "1/1000000007", "--beta", "0"]
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        code, payload = _run(argv)
        best = min(best, time.perf_counter() - start)
        assert code == 3
        assert payload == {"error": "budget-exceeded",
                           "message": "the orbit has more than 262144 states to walk"}
        assert len(steps) <= 2
        steps.clear()
    assert best < 0.05


# ---------------------------------------------------------------------------
# the return ratio's digits
# ---------------------------------------------------------------------------


def _segment_argv(command: str, den: int, a: str = "3") -> list[str]:
    argv = [command, f"--a={a}", "--omega", "i", "--slope", "sqrt(2)", "--alpha",
            f"1/{den}", "--beta", "0", "--t0", "1/10", "--t1", "1/5"]
    return argv + (["--nu", "2"] if command == "certify-sphere" else [])


@pytest.mark.parametrize(
    "argv,ratio",
    [
        # 1/50021: period 50,020, a ratio 3^50020 of 23,865 digits
        (_segment_argv("certify-segment", 50021), "3^50020"),
        (_segment_argv("certify-sphere", 50021), None),
        # 1/9127 under a = -3: the odd period 4,563 makes the multiplier
        # -3^4563 (2,178 digits), so the one-sided ratio is its square
        (_segment_argv("certify-segment", 9127, "-3"), "3^9126"),
    ],
)
def test_a_return_ratio_too_long_to_print_is_budget_exceeded(argv, ratio):
    code, payload = _run(argv)
    assert code == 3
    assert payload["error"] == "budget-exceeded"
    assert payload["message"].endswith(f"has more than {MAX_RETURN_DIGITS} digits")
    assert ratio is None or f" {ratio} " in payload["message"]


@pytest.mark.parametrize(
    "den,a,ratio",
    [
        # a > 0: every pairing gives the ratio 3^p, p = 50,020
        (50021, "3", "3^50020"),
        # a < 0 and the odd period 8,421: 3^8421 when rho fixes each line of
        # the cycle, 3^16842 when the cycle is unpaired
        (16843, "-3", "3^8421 or more"),
        # a < 0 and the period 16,786 = 2 mod 4: 3^8393 when rho pairs the cycle
        (16787, "-3", "3^8393 or more"),
    ],
)
def test_a_sphere_ratio_too_long_to_print_is_refused_before_the_cycle_is_walked(
    monkeypatch, den, a, ratio
):
    steps = reference.counted_steps(monkeypatch)
    code, payload = _run(_segment_argv("certify-sphere", den, a))
    message = f"the return ratio {ratio} has more than {MAX_RETURN_DIGITS} digits"
    assert (code, payload) == (3, {"error": "budget-exceeded", "message": message})
    assert len(steps) <= 2


def test_a_return_ratio_under_the_cap_is_certified():
    # 1/8009: period 8,008, a ratio 3^8008 of 3,821 digits
    code, payload = _run(_segment_argv("certify-segment", 8009))
    assert code == 0
    assert payload["verdict"] == "wandering" and payload["period"] == 8008
    assert len(str(payload["return_map"]["multiplier"])) == 3821


# ---------------------------------------------------------------------------
# the certificate interval on integers
# ---------------------------------------------------------------------------

_SQRT = {d: QuadraticNumber.sqrt_int(d) for d in (2, 3, 5)}


@st.composite
def _interval_case(draw):
    """t_lo < t_hi, rational or with sqrt(d) parts (one d per case), often
    straddling or touching 0, or symmetric about it (equal-length sides)."""
    d = draw(st.sampled_from([0, 2, 3, 5]))

    def end():
        x = qn(draw(st.fractions(-3, 3, max_denominator=60)))
        if d and draw(st.booleans()):
            x = x + _SQRT[d] * draw(st.fractions(-2, 2, max_denominator=30))
        return x

    kind = draw(st.sampled_from(["any", "touch", "symmetric"]))
    lo, hi = end(), end()
    if kind == "touch":
        lo, hi = (qn(0), abs(hi)) if draw(st.booleans()) else (-abs(lo), qn(0))
    elif kind == "symmetric":
        lo, hi = -abs(hi), abs(hi)
    if lo.cmp(hi) > 0:
        lo, hi = hi, lo
    if lo == hi:
        hi = lo + 1
    lam = draw(st.sampled_from([2, -2, 3, -3, 4, -5, 9, -27, 2**40, -(3**30)]))
    return lo, hi, lam, draw(st.booleans())


@settings(max_examples=600, deadline=None)
@given(_interval_case())
def test_the_integer_interval_matches_the_quadratic_reference(case):
    lo, hi, lam, both_sides = case
    assert certify_interval(lo, hi, lam, both_sides) == reference.certify_interval(
        lo, hi, lam, both_sides
    )


def test_the_interval_cases_cover_every_kind():
    seen = collections.Counter()

    @settings(max_examples=600, deadline=None)
    @given(_interval_case())
    def draw(case):
        lo, hi, lam, both_sides = case
        u, v, _ = certify_interval(lo, hi, lam, both_sides)
        seen["straddles 0"] += lo.sign() < 0 < hi.sign()
        seen["touches 0"] += lo.sign() == 0 or hi.sign() == 0
        seen["sqrt(d) end"] += not (lo.is_rational and hi.is_rational)
        seen["negative lam"] += lam < 0
        seen["both sides"] += both_sides
        seen["equal-length sides"] += lo == -hi
        seen["negative side"] += v.sign() < 0
        seen["lo kept"] += u == lo

    draw()
    assert min(seen.values()) >= 10, seen
