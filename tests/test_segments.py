import math
import random
from fractions import Fraction

import pytest

from flatwander.errors import DegenerateSegment, MixedRadicals
from flatwander.lattice import Lattice, point
from flatwander.line_orbit import (
    EventuallyPeriodic,
    IrrationalSlope,
    TorusLine,
    classify_line,
    line_from_point,
    slope_spec,
)
from flatwander.numbers import BiQuadratic, QuadraticNumber, parse_complex, parse_number, qn
from flatwander.segments import (
    CollisionCertificate,
    NoCollisionWithinBudget,
    NotWanderable,
    WanderingCertificate,
    certify_wandering,
    collision_bound,
    default_collision_budget,
    find_collision,
    reverify_collision,
    segment_new,
    verify_disjoint_iterates,
)
from flatwander.torus_map import rotation_matrix, torus_map_new
from reference import (
    LiftSegment,
    as_fraction,
    base_point,
    lift_length,
    lift_segments_intersect_torus,
    line_image,
    segment_lift,
    segments_intersect,
    segments_meet_exact,
)

Q = QuadraticNumber
SQUARE = Lattice(parse_complex("i"))
SQRT2 = IrrationalSlope(parse_number("sqrt(2)"))
ZERO_C = parse_complex("0")


def _map(a, b="0", lat=SQUARE):
    return torus_map_new(parse_complex(a), parse_complex(b), lat)


def _line(alpha, beta, slope=SQRT2):
    return TorusLine(slope, qn(alpha).mod1(), qn(beta).mod1())


def _pt(x, y):
    return (BiQuadratic(qn(x)), BiQuadratic(qn(y)))


def test_segment_length_scales_by_direction_norm():
    seg = segment_new(_line(0, 0), qn(0), qn(Fraction(1, 10)))
    # |1 + sqrt(2) i| = sqrt(3)
    assert abs(seg.euclidean_length(SQUARE) - 0.1 * math.sqrt(3)) < 1e-12


def test_degenerate_segment_rejected():
    with pytest.raises(DegenerateSegment):
        segment_new(_line(0, 0), qn(Fraction(1, 2)), qn(Fraction(1, 2)))


def test_midpoint_normalized_into_cell():
    rng = random.Random(5)
    for _ in range(100):
        lo = Fraction(rng.randint(-400, 400), 10)
        seg = segment_new(_line(Fraction(1, 3), 0), qn(lo), qn(lo + Fraction(1, 7)))
        mx, my = segment_lift(seg).midpoint()
        assert mx.floor() == 0 and my.floor() == 0


def test_parallel_distinct_lines_disjoint():
    s1 = segment_new(_line(Fraction(1, 3), 0), qn(0), qn(1))
    s2 = segment_new(_line(Fraction(1, 5), 0), qn(0), qn(1))
    assert segments_intersect(SQUARE, s1, s2) is None


def test_segment_meets_itself():
    s = segment_new(_line(Fraction(1, 3), 0), qn(0), qn(Fraction(1, 10)))
    assert segments_intersect(SQUARE, s, s) is not None


def test_crossing_lifts_with_witness():
    s1 = LiftSegment(_pt(0, 0), _pt(Fraction(1, 2), 0))
    s2 = LiftSegment(_pt(Fraction(1, 4), Fraction(-1, 4)), _pt(Fraction(1, 4), Fraction(1, 4)))
    got = lift_segments_intersect_torus(SQUARE, s1, s2)
    assert got is not None
    assert abs(got[0] - 0.25) < 1e-12 and abs(got[1]) < 1e-12


def test_exact_meet_collinear_overlap_and_touch():
    a = segments_meet_exact(_pt(0, 0), _pt(1, 1), _pt(Fraction(1, 2), Fraction(1, 2)), _pt(2, 2))
    assert a is not None
    b = segments_meet_exact(_pt(0, 0), _pt(1, 0), _pt(1, 0), _pt(2, 5))
    assert b is not None  # endpoint touch
    c = segments_meet_exact(_pt(0, 0), _pt(1, 0), _pt(Fraction(3, 2), 0), _pt(2, 0))
    assert c is None


def test_certify_whole_segment_wandering_line():
    tm = _map("2")
    seg = segment_new(_line(parse_number("sqrt(3)-1"), 0), qn(0), qn(Fraction(1, 10)))
    got = certify_wandering(tm, seg)
    assert isinstance(got, WanderingCertificate)
    assert got.mode == "whole-segment"
    ok, pair = verify_disjoint_iterates(tm, seg, 12)
    assert ok, f"iterates {pair} intersect"


def test_certify_jordan_not_wanderable():
    tm = _map("2")
    line = line_from_point(slope_spec((1, 1)), (qn(0), qn(0)))
    seg = segment_new(line, qn(0), qn(Fraction(1, 10)))
    got = certify_wandering(tm, seg)
    assert isinstance(got, NotWanderable)


def test_certify_periodic_subsegment_brute_force():
    tm = _map("2")
    seg = segment_new(_line(Fraction(1, 3), 0), qn(0), qn(Fraction(1, 10)))
    got = certify_wandering(tm, seg)
    assert isinstance(got, WanderingCertificate)
    assert got.mode == "subsegment"
    assert got.period == 2 and got.multiplier == 4
    u, v = got.interval
    assert (u - seg.t_lo).sign() >= 0 and (seg.t_hi - v).sign() >= 0
    assert got.slack is not None and (got.slack - 1).sign() > 0
    sub = segment_new(seg.line, u, v)
    ok, pair = verify_disjoint_iterates(tm, sub, 12)
    assert ok, f"iterates {pair} intersect"


def test_certify_negative_multiplier():
    tm = _map("-2")
    seg = segment_new(_line(Fraction(1, 3), 0), qn(0), qn(Fraction(1, 10)))
    got = certify_wandering(tm, seg)
    assert isinstance(got, WanderingCertificate)
    # a^p < 0 certifies with a^(2p)
    assert got.multiplier < 0
    u, v = got.interval
    sub = segment_new(seg.line, u, v)
    ok, pair = verify_disjoint_iterates(tm, sub, 12)
    assert ok, f"iterates {pair} intersect"


def test_return_map_matches_direct_iteration():
    tm = _map("2", "1/2")
    line = _line(Fraction(1, 3), Fraction(1, 5))
    verdict = classify_line(tm, line)
    assert isinstance(verdict, EventuallyPeriodic)
    p = verdict.period
    a = 2
    lam = a**p
    rng = random.Random(71)
    # on the cycle line, A^p in canonical parameters is t -> lam * t
    cyc_line = line
    for _ in range(verdict.preperiod):
        cyc_line = line_image(tm, cyc_line)
    bx, by = base_point(cyc_line)
    s = cyc_line.slope.s
    pqs = tm.m
    for _ in range(100):
        t = qn(Fraction(rng.randint(-500, 500), 97))
        x = BiQuadratic(bx) + BiQuadratic(t)
        y = BiQuadratic(by) + BiQuadratic(t) * BiQuadratic(s)
        for _ in range(p):
            x, y = (
                x * pqs[0] + y * pqs[2] + tm.b.x,
                x * pqs[1] + y * pqs[3] + tm.b.y,
            )
        ex = BiQuadratic(bx) + BiQuadratic(t * lam)
        ey = BiQuadratic(by) + BiQuadratic(t * lam) * BiQuadratic(s)
        dx, dy = x - ex, y - ey
        assert dx.q.is_zero and dx.p.is_rational and as_fraction(dx.p).denominator == 1
        assert dy.q.is_zero and dy.p.is_rational and as_fraction(dy.p).denominator == 1


def test_monotone_escape():
    tm = _map("2")
    seg = segment_new(_line(Fraction(1, 3), 0), qn(0), qn(Fraction(1, 10)))
    got = certify_wandering(tm, seg)
    assert isinstance(got, WanderingCertificate)
    u, _ = got.interval
    lam = got.multiplier
    t = u
    prev = abs(t)
    for _ in range(5):
        t = t * lam
        assert abs(t) == prev * abs(lam)
        prev = abs(t)


def test_collision_bound_values():
    assert abs(collision_bound(SQUARE, theta=math.pi / 4) - 4 * math.sqrt(2)) < 1e-12
    assert abs(collision_bound(SQUARE, nu=4) - 8 / math.sqrt(3)) < 1e-12
    lat2i = Lattice(parse_complex("2i"))
    assert abs(collision_bound(lat2i, theta=math.pi / 2) - 6.0) < 1e-12


def _horizontal_segment(x, y, length):
    line = line_from_point(slope_spec((1, 0)), (qn(x), qn(y)))
    return segment_new(line, qn(0), qn(length))


def test_find_collision_one_plus_i():
    tm = _map("1+1i")
    seg = _horizontal_segment(Fraction(1, 10), Fraction(1, 5), Fraction(1, 20))
    budget = default_collision_budget(tm, seg)
    # ceil(log_sqrt2(4*sqrt(2)/0.05)) + 2 = 16
    assert budget == 16
    got = find_collision(tm, seg)
    assert isinstance(got, CollisionCertificate)
    assert got.m <= 15
    assert reverify_collision(tm, seg, got)


def test_find_collision_integer_multiplier_none():
    tm = _map("2")
    seg = segment_new(_line(parse_number("sqrt(3)-1"), 0), qn(0), qn(Fraction(1, 10)))
    got = find_collision(tm, seg, budget=20)
    assert isinstance(got, NoCollisionWithinBudget)


def test_find_collision_group_mode():
    tm = _map("2")
    seg = segment_new(_line(parse_number("sqrt(3)-1"), 0), qn(0), qn(Fraction(1, 18)))
    # euclidean length 0.1 ~ (1/18)*sqrt(3)
    got = find_collision(tm, seg, group=(4, point(0, 0), rotation_matrix(tm.lattice, 4)))
    assert isinstance(got, CollisionCertificate)
    assert got.m <= 7
    assert reverify_collision(tm, seg, got, group=(4, point(0, 0)))


def test_fast_path_agrees_with_geometric_path():
    # same-line interval logic vs raw lift enumeration on the same pairs
    rng = random.Random(97)
    agreements = 0
    for _ in range(120):
        alpha = Fraction(rng.randint(0, 11), 12)
        line = _line(alpha, 0)
        lo1 = Fraction(rng.randint(-40, 40), 20)
        lo2 = Fraction(rng.randint(-40, 40), 20)
        s1 = segment_new(line, qn(lo1), qn(lo1 + Fraction(rng.randint(1, 10), 20)))
        s2 = segment_new(line, qn(lo2), qn(lo2 + Fraction(rng.randint(1, 10), 20)))
        fast = segments_intersect(SQUARE, s1, s2) is not None
        geometric = lift_segments_intersect_torus(SQUARE, segment_lift(s1), segment_lift(s2))
        geometric = geometric is not None
        assert fast == geometric, (alpha, lo1, lo2)
        agreements += 1
    assert agreements == 120


def test_axis_aligned_cross_fields_stay_exact():
    # per-coordinate radicands sqrt(2) / sqrt(3) / sqrt(5) still pair off two
    # at a time inside each orientation determinant: the verdict stays exact
    s1 = LiftSegment(
        (BiQuadratic(Q(0, 1, 4, 2)), BiQuadratic(qn(0))),
        (BiQuadratic(Q(0, 1, 4, 2)), BiQuadratic(Q(0, 1, 2, 3))),
    )
    s2 = LiftSegment(
        (BiQuadratic(qn(0)), BiQuadratic(Q(0, 1, 4, 5))),
        (BiQuadratic(qn(1)), BiQuadratic(Q(0, 1, 4, 5))),
    )
    assert lift_segments_intersect_torus(SQUARE, s1, s2) is not None


def test_plain_lifts_in_two_fields_meet_in_the_tower():
    # QuadraticNumber lifts in Q(sqrt 2) and Q(sqrt 3) share no field; the
    # pair is decided in the tower, not refused
    s1 = LiftSegment((qn(0), qn(0)), (Q(0, 1, 2, 2), qn(1)))
    s2 = LiftSegment((qn(0), Q(0, 1, 4, 3)), (qn(1), Q(0, 1, 4, 3)))
    got = lift_segments_intersect_torus(SQUARE, s1, s2)
    assert got == pytest.approx((math.sqrt(6) / 8, math.sqrt(3) / 4), abs=1e-15)


def test_float_fallback_on_three_radicands():
    # a clean crossing whose determinants genuinely mix three radicands: no
    # float verdict stands in for the exact one, so the pair is refused
    s1 = LiftSegment(
        (BiQuadratic(qn(0)), BiQuadratic(qn(0))),
        (BiQuadratic(qn(1) + Q(0, 1, 10, 2)), BiQuadratic(qn(1))),
    )
    s2 = LiftSegment(
        (BiQuadratic(qn(Fraction(1, 2))), BiQuadratic(qn(Fraction(-1, 2)))),
        (
            BiQuadratic(qn(Fraction(1, 2)) + Q(0, 1, 10, 3)),
            BiQuadratic(qn(Fraction(1, 2)) + Q(0, 1, 10, 5)),
        ),
    )
    with pytest.raises(MixedRadicals):
        lift_segments_intersect_torus(SQUARE, s1, s2)

    # an endpoint a hair off the other line, in incompatible fields: refused
    # the same way: no float bound can rule a 1e-13 crossing out
    eps_den = 10**13
    base = LiftSegment(
        (BiQuadratic(qn(0)), BiQuadratic(qn(0))),
        (BiQuadratic(qn(Fraction(1, 4))), BiQuadratic(Q(0, 1, 8, 2))),
    )
    near = LiftSegment(
        (
            BiQuadratic(qn(Fraction(1, 8))) + BiQuadratic(Q(0, 1, eps_den, 5)),
            BiQuadratic(Q(0, 1, 16, 2)) + BiQuadratic(Q(0, 1, eps_den, 3)),
        ),
        (
            BiQuadratic(qn(Fraction(1, 8)) + Fraction(1, 50)),
            BiQuadratic(Q(0, 1, 16, 2)) + BiQuadratic(qn(Fraction(-1, 50))),
        ),
    )
    with pytest.raises(MixedRadicals):
        lift_segments_intersect_torus(SQUARE, base, near)


def test_consecutive_disjoint_pairs_respect_length_bound():
    tm = _map("1+1i")
    theta = math.pi / 4
    bound = collision_bound(SQUARE, theta=theta)
    seg = _horizontal_segment(Fraction(1, 10), Fraction(1, 5), Fraction(1, 20))
    cur = segment_lift(seg).normalize()
    b_shift = (tm.b.x, tm.b.y)
    for _ in range(16):
        nxt = cur.affine_image(tm.m, b_shift).normalize()
        if lift_segments_intersect_torus(SQUARE, cur, nxt) is None:
            assert lift_length(cur, SQUARE) <= bound + 1e-9
        cur = nxt
