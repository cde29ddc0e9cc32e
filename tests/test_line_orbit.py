import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwander.errors import FieldClash, SlopeNotInvariant
from flatwander.lattice import Lattice, point
from flatwander.line_orbit import (
    EventuallyPeriodic,
    IrrationalSlope,
    JordanCurve,
    RationalDirection,
    WanderingLine,
    classify_line,
    line_from_point,
    slope_spec,
)
from flatwander.numbers import ComplexPair, QuadraticNumber, parse_complex, parse_number, qn
from flatwander.torus_map import torus_map_new
from reference import (
    apply_map,
    base_point,
    half_lattice_q,
    iterate_map,
    line_image,
    orbit_states,
    passes_through_q,
    same_line,
)

Q = QuadraticNumber
SQUARE = Lattice(parse_complex("i"))
SQRT2 = IrrationalSlope(parse_number("sqrt(2)"))
ZERO_C = parse_complex("0")


def _map(a, b="0", lat=SQUARE):
    return torus_map_new(parse_complex(a), parse_complex(b), lat)


def test_line_from_point_examples():
    line = line_from_point(SQRT2, (qn(0), qn(Fraction(1, 3))))
    assert line.transverse() == (qn(Fraction(2, 3)), qn(0))
    line = line_from_point(SQRT2, (qn(Fraction(1, 4)), qn(0)))
    assert line.transverse() == (qn(0), qn(Fraction(1, 4)))
    with pytest.raises(FieldClash):
        line_from_point(SQRT2, (qn(0), Q(0, 1, 2, 2)))


def test_base_point_round_trip():
    line = line_from_point(SQRT2, (qn(0), qn(Fraction(1, 3))))
    again = line_from_point(SQRT2, base_point(line))
    assert same_line(line, again)


def test_line_image_examples():
    tm = _map("2")
    line = TorusLineFactory((Fraction(1, 3), 0))
    img = line_image(tm, line)
    assert img.transverse() == (qn(Fraction(2, 3)), qn(0))
    tm = _map("2", "1/2")
    line = TorusLineFactory((0, 0))
    img = line_image(tm, line)
    assert img.transverse() == (qn(0), qn(Fraction(1, 2)))
    with pytest.raises(SlopeNotInvariant):
        line_image(_map("1+1i"), TorusLineFactory((0, 0)))


def TorusLineFactory(transverse):
    alpha, beta = transverse
    from flatwander.line_orbit import TorusLine

    return TorusLine(SQRT2, qn(alpha).mod1(), qn(beta).mod1())


def test_classify_jordan():
    tm = _map("2")
    line = line_from_point(slope_spec((1, 1)), (qn(0), qn(0)))
    got = classify_line(tm, line)
    assert got == JordanCurve(RationalDirection(1, 1))


def test_classify_eventually_periodic_third():
    tm = _map("2")
    got = classify_line(tm, TorusLineFactory((Fraction(1, 3), 0)))
    assert isinstance(got, EventuallyPeriodic)
    assert got.preperiod == 0 and got.period == 2
    assert got.num.value(got.state_ints(0)) == (qn(Fraction(1, 3)), qn(0))
    assert got.num.value(got.state_ints(1)) == (qn(Fraction(2, 3)), qn(0))


def test_classify_wandering_sqrt3():
    tm = _map("2")
    got = classify_line(tm, TorusLineFactory((parse_number("sqrt(3)-1"), 0)))
    assert got == WanderingLine("alpha")


def test_rational_slope_value_becomes_direction():
    spec = slope_spec(parse_number("2/3"))
    assert spec == RationalDirection(3, 2)


def test_transverse_functoriality():
    rng = random.Random(37)
    for _ in range(1000):
        a = rng.choice(["2", "-2", "3"])
        b = f"{rng.randint(0, 4)}/5"
        tm = _map(a, b)
        base = (qn(Fraction(rng.randint(0, 19), 20)), qn(Fraction(rng.randint(0, 19), 20)))
        line = line_from_point(SQRT2, base)
        img_point = apply_map(tm, point(*base))
        lhs = line_from_point(SQRT2, img_point.coords())
        rhs = line_image(tm, line)
        assert same_line(lhs, rhs)


def test_cycle_minimality_brute_force():
    rng = random.Random(41)
    for _ in range(100):
        tm = _map(rng.choice(["2", "3"]), rng.choice(["0", "1/2"]))
        alpha = Fraction(rng.randint(0, 29), 30)
        beta = Fraction(rng.randint(0, 29), 30)
        got = classify_line(tm, TorusLineFactory((alpha, beta)))
        assert isinstance(got, EventuallyPeriodic)
        states = got.states
        # all stored states pairwise distinct, and the next state re-enters at n0
        assert len(set(states)) == len(states)
        last = got.num.value(got.state_ints(len(states) - 1))
        nxt = line_image(tm, TorusLineFactory(last)).transverse()
        assert nxt == got.num.value(got.state_ints(got.preperiod))


def test_wandering_soundness_64_states():
    tm = _map("2")
    line = TorusLineFactory((parse_number("sqrt(3)-1"), Fraction(1, 7)))
    got = classify_line(tm, line)
    assert isinstance(got, WanderingLine)
    seen = set()
    cur = line
    for _ in range(64):
        st = cur.transverse()
        assert st not in seen
        seen.add(st)
        cur = line_image(tm, cur)


def test_membership_consistency():
    rng = random.Random(43)
    for _ in range(1000):
        base = (qn(Fraction(rng.randint(-50, 50), 20)), qn(Fraction(rng.randint(-50, 50), 20)))
        line = line_from_point(SQRT2, base)
        # translate the base by integers: same torus line
        shifted = (base[0] + rng.randint(-3, 3), base[1] + rng.randint(-3, 3))
        assert same_line(line_from_point(SQRT2, shifted), line)


def test_passes_through_q_examples():
    q_pts = half_lattice_q(SQUARE)
    line = TorusLineFactory((0, Fraction(1, 2)))
    hit = passes_through_q(line, q_pts)
    assert hit is not None and hit == point(Fraction(1, 2), 0)
    line = TorusLineFactory((parse_number("sqrt(3)-1"), 0))
    assert passes_through_q(line, q_pts) is None
    line = TorusLineFactory((Fraction(1, 3), Fraction(1, 3)))
    assert passes_through_q(line, q_pts) is None


# ---------------------------------------------------------------------------
# one frame for both slope kinds
# ---------------------------------------------------------------------------


_coord = st.fractions(-3, 3, max_denominator=30)


@st.composite
def _frame_case(draw):
    """An integer covering, a line of either slope kind through a base point
    with rational or irrational coordinates, and an orbit length."""
    a = draw(st.sampled_from((2, -2, 3, -3)))
    b = ComplexPair(qn(draw(_coord)), qn(draw(_coord)))
    tm = torus_map_new(ComplexPair(qn(a), qn(0)), b, SQUARE)
    if draw(st.booleans()):
        d = draw(st.sampled_from((2, 3, 5)))
        slope = IrrationalSlope(Q(draw(st.integers(-3, 3)), draw(st.sampled_from((1, -2))), 1, d))
    else:
        m, k = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        slope = slope_spec((m, k) if (m, k) != (0, 0) else (1, 0))
        d = 0
    # the base point avoids the slope's radicand, or the line would clash
    e = draw(st.sampled_from([r for r in (0, 2, 3, 5, 7) if r != d]))
    base = tuple(qn(draw(_coord)) + Q(0, draw(st.integers(-3, 3)), 7, e) for _ in range(2))
    return tm, line_from_point(slope, base), draw(st.integers(0, 12))


@settings(max_examples=300, deadline=None)
@given(_frame_case())
def test_one_frame_steps_both_slope_kinds(case):
    tm, line, n = case
    slope, state = line.slope, line.transverse()
    f11, f12, f21, f22 = slope.frame
    assert f11 * f22 - f12 * f21 == 1
    assert slope.to_state(slope.from_state(state)) == state
    # unimodular, so from_state lands on the base point mod Z^2
    assert tuple(c.mod1() for c in slope.from_state(state)) == base_point(line)
    base = point(*base_point(line))
    image = apply_map(tm, base)
    assert line_image(tm, line) == line_from_point(slope, image.coords())
    assert orbit_states(tm, line, n) == [
        slope.to_state(iterate_map(tm, base, i).coords()) for i in range(n + 1)
    ]
