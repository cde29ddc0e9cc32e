"""The certified float filter of the lift search: conversion and step bounds
that cover the exact values they stand for, a filter that never skips a
translate the exact predicate calls a hit, the three-radicand search it now
decides, and a find-collision path free of numpy."""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from flatwander import segments
from flatwander.cli import main
from flatwander.numbers import BiQuadratic, QuadraticNumber, float_jitter, qn
from flatwander.segments import (
    FloatLift,
    LiftSegment,
    _converted,
    _float_image,
    _float_shift,
    _surviving_translates,
    segments_meet_exact,
)

ROOT = Path(__file__).resolve().parent.parent
Q = QuadraticNumber
JITTERS = (0.0, 1e-13, -1e-13)


def _mp(x: QuadraticNumber | BiQuadratic) -> mpmath.mpf:
    """x at the working mpmath precision, from its integer parts alone."""
    if isinstance(x, BiQuadratic):
        return _mp(x.p) + _mp(x.q) * mpmath.sqrt(x.e)
    return (mpmath.mpf(x.u) + x.v * mpmath.sqrt(x.d)) / x.w


def _cancelling(d: int, v: int, w: int) -> QuadraticNumber:
    """(u + v*sqrt(d))/w with u the integer nearest -v*sqrt(d)."""
    return Q(-math.isqrt(v * v * d) - 1, v, w, d)


@pytest.mark.parametrize("jitter", JITTERS)
@pytest.mark.parametrize("d", [2, 1000003])
def test_the_conversion_bound_covers_a_cancelling_coordinate(d, jitter):
    mpmath.mp.dps = 60
    for v, w in ((10**12 + 39, 7), (3**30, 1), (10**15 + 3, 10**9 + 7)):
        x = _cancelling(d, v, w)
        # |x| is below 1/w while its parts are near v*sqrt(d)/w
        assert abs(_mp(x)) < 1 and _mp(x) * w * 10**8 < v * math.sqrt(d)
        with float_jitter(jitter):
            got, bound = _converted(x)
            # the same cancellation one level up, in a tower over sqrt(3)
            y = BiQuadratic(qn(1) - x, Q(1, 0, 3), 3)
            got_y, bound_y = _converted(y)
        assert abs(mpmath.mpf(got) - _mp(x)) <= bound
        assert abs(mpmath.mpf(got_y) - _mp(y)) <= bound_y
        # a bound relative to |x| alone would not hold
        assert bound > 1e6 * abs(float(_mp(x))) * sys.float_info.epsilon


def _exact_minus(x: BiQuadratic, f: float) -> BiQuadratic:
    return x - BiQuadratic(qn(Fraction(f)))


def _covers(lift: LiftSegment, f: FloatLift) -> bool:
    """Every exact coordinate lies within f.err of its float, decided
    exactly (a float is a dyadic rational)."""
    err = BiQuadratic(qn(Fraction(f.err)))
    for exact, approx in zip((*lift.p0, *lift.p1), f[:4]):
        diff = _exact_minus(exact, approx)
        if (diff - err).sign() > 0 or (diff + err).sign() < 0:
            return False
    return True


@pytest.mark.parametrize("jitter", JITTERS)
@pytest.mark.parametrize(
    "mat, shift",
    [
        ((1, 1, -1, 1), (Q(1, 0, 3), Q(0, 1, 5, 2))),  # a = 1+i
        ((2, 1, -1, 2), (Q(0, 1, 7, 2), Q(2, 0, 9))),  # a = 2+i
        ((0, 1, -1, -1), (Q(1, 0, 3), Q(-1, 0, 3))),  # a hexagonal rotation
    ],
)
def test_the_step_bound_covers_the_exact_chain(mat, shift, jitter):
    # a lift in the tower Q(sqrt(2))(sqrt(3)) stepped 24 times in floats and
    # exactly, the exact lift following the translates the floats record
    lift = LiftSegment(
        (BiQuadratic(Q(1, 1, 3, 2)), BiQuadratic(Q(1, 0, 5), Q(1, 0, 7), 3)),
        (BiQuadratic(Q(2, -1, 3, 2)), BiQuadratic(Q(-1, 1, 11, 2), Q(2, 0, 7), 3)),
    )
    with float_jitter(jitter):
        f = lift.float_lift()
        fshift = _float_shift(shift)
        assert _covers(lift, f)
        for _ in range(24):
            f, (tx, ty) = _float_image(f, mat, fshift)
            lift = lift.affine_image(mat, (shift[0] - tx, shift[1] - ty))
            assert _covers(lift, f)


def _tower_scalar(rng: random.Random) -> BiQuadratic:
    """A random element of Q(sqrt(2))(sqrt(3)) of size below 2."""

    def part() -> QuadraticNumber:
        return Q(rng.randint(-60, 60), rng.randint(-40, 40), rng.randint(60, 120), 2)

    return BiQuadratic(part(), part() * Fraction(1, 2), 3)


def _along(p0, p1, lam: Fraction):
    return tuple(a + (b - a) * lam for a, b in zip(p0, p1))


def _shifted(p, i: int, j: int, off=(0, 0)):
    return (p[0] + i + off[0], p[1] + j + off[1])


def _random_pair(rng: random.Random, kind: str) -> tuple[LiftSegment, LiftSegment]:
    p0 = (_tower_scalar(rng), _tower_scalar(rng))
    p1 = (p0[0] + _tower_scalar(rng), p0[1] + _tower_scalar(rng))
    i, j = rng.randint(-2, 2), rng.randint(-2, 2)
    far = (_tower_scalar(rng), _tower_scalar(rng))
    if kind == "random":
        return LiftSegment(p0, p1), LiftSegment(far, (far[0] + _tower_scalar(rng), far[1]))
    x = _along(p0, p1, Fraction(rng.randint(0, 8), 8))
    if kind == "touching":
        # an endpoint of a translate of segment 2 lies on segment 1
        return LiftSegment(p0, p1), LiftSegment(_shifted(x, i, j), _shifted(far, i, j))
    if kind == "collinear":
        y = _along(p0, p1, Fraction(rng.randint(-8, 16), 8))
        return LiftSegment(p0, p1), LiftSegment(_shifted(x, i, j), _shifted(y, i, j))
    # 1e-13 off segment 1 along its normal: crossing, or parallel and apart
    eps = Fraction(rng.choice((1, -1)), 10**13)
    normal = ((p0[1] - p1[1]) * eps, (p1[0] - p0[0]) * eps)
    start = _shifted(x, i, j, normal)
    end = _shifted(far, i, j) if kind == "near-cross" else _shifted(
        _along(p0, p1, Fraction(rng.randint(9, 16), 8)), i, j, normal
    )
    return LiftSegment(p0, p1), LiftSegment(start, end)


def _box_translates(s1: LiftSegment, s2: LiftSegment) -> list[tuple[int, int]]:
    """Every translate of s2 whose bounding box comes within 1/2 of s1's,
    a margin far above any float error here: no other translate can meet."""
    ax0, ay0, ax1, ay1, _ = s1.float_lift()
    bx0, by0, bx1, by1, _ = s2.float_lift()
    xs = range(
        math.floor(min(ax0, ax1) - max(bx0, bx1) - 0.5), math.ceil(max(ax0, ax1) - min(bx0, bx1) + 0.5) + 1
    )
    ys = range(
        math.floor(min(ay0, ay1) - max(by0, by1) - 0.5), math.ceil(max(ay0, ay1) - min(by0, by1) + 0.5) + 1
    )
    return [(i, j) for i in xs for j in ys]


@pytest.mark.parametrize("jitter", JITTERS)
def test_the_filter_never_skips_an_exact_hit(jitter):
    rng = random.Random(1214)
    kinds = ("random", "touching", "collinear", "near-cross", "near-parallel")
    hits = dict.fromkeys(kinds, 0)
    for n in range(100):
        kind = kinds[n % len(kinds)]
        s1, s2 = _random_pair(rng, kind)
        with float_jitter(jitter):
            kept = set(_surviving_translates(s1.float_lift(), s2.float_lift()))
        for i, j in _box_translates(s1, s2):
            cand = s2.translate(i, j)
            if segments_meet_exact(s1.p0, s1.p1, cand.p0, cand.p1) is not None:
                assert (i, j) in kept, (kind, n, i, j)
                hits[kind] += 1
    # near-parallel pairs are near misses; every other kind has hits to check
    assert all(hits[kind] for kind in kinds[:4]), hits


def test_the_filter_skips_certain_misses():
    # parallel segments 1e-9 apart: every translate is a certain miss
    s1 = LiftSegment(
        (BiQuadratic(qn(0)), BiQuadratic(qn(0))),
        (BiQuadratic(Q(0, 1, 1, 2)), BiQuadratic(qn(1))),
    )
    off = qn(Fraction(1, 10**9))
    s2 = LiftSegment(
        (BiQuadratic(off), BiQuadratic(qn(0))),
        (BiQuadratic(Q(0, 1, 1, 2) + off), BiQuadratic(qn(1))),
    )
    assert list(_surviving_translates(s1.float_lift(), s2.float_lift())) == []


def test_the_three_radicand_golden_is_decided_by_distinct_states():
    # find-collision --a 2 --b sqrt(2)/5i --slope sqrt(3) --alpha sqrt(5)-2:
    # a = 2 keeps the slope, so the iterates are parallel lines, and in the
    # slope's frame their states step by (alpha, beta) -> (2*alpha - sqrt(2)/5,
    # 2*beta) mod 1, from (sqrt(5) - 2, 0); distinct states are disjoint
    # lines.  Independently of flatwander's scalars: at 50 digits the states
    # of iterates 0..4 are pairwise at least 1e-30 apart on the circle.
    mpmath.mp.dps = 50
    alpha, states = mpmath.sqrt(5) - 2, []
    for _ in range(5):
        states.append(alpha % 1)
        alpha = 2 * alpha - mpmath.sqrt(2) / 5
    for i in range(5):
        for j in range(i):
            gap = abs(states[i] - states[j])
            assert min(gap, 1 - gap) >= mpmath.mpf("1e-30")
    case = next(
        c
        for c in json.loads((ROOT / "tests" / "data" / "find_collision_golden.json").read_text())
        if c["name"] == "mixed-radicals-three"
    )
    assert case["exit"] == 0
    assert json.loads(case["stdout"])["verdict"] == "no-collision-within-budget"


def test_find_collision_does_not_import_numpy():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from flatwander.cli import main; "
        "main(['find-collision', '--a', '1+1i', '--omega', 'i', '--seg', '0.1,0.2,h,0.05']); "
        "main(['find-collision', '--a', '2', '--omega', '1/2+sqrt(3)/2i', '--nu', '3', "
        "'--seg', '1/5,1/9,v,1/30']); "
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "False"


def test_the_float_band_and_its_error_are_gone():
    import flatwander.errors as errors

    for name in ("_FLOAT_BAND", "_BOX_MARGIN", "segments_meet_float", "_orient_float"):
        assert not hasattr(segments, name)
    assert not hasattr(errors, "UncertainAtTolerance")
