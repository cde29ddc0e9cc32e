"""The certified float filter of the lift search: conversion and step bounds
that cover the exact values they stand for, a filter that never skips a
translate the exact predicate calls a hit, contacts at the edge of the
enumerated range, margins pinned against exactly computed worst cases, the
three-radicand search it now decides, the translate cap and the forcing
budget, an exact stage on integer numerators that finds the first hit the
QuadraticNumber/BiQuadratic predicate finds, and a find-collision path free
of numpy."""

import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from flatwander import lift_arith, segments
from flatwander.cli import _parse_segment, main
from flatwander.errors import FieldClash, MixedRadicals
from flatwander.lattice import Lattice, point
from flatwander.lift_arith import (
    FloatLift,
    _float_image,
    _float_of,
    _float_shift,
    _meet,
    _numerators,
    _orientation_bound,
    _surviving_translates,
)
from flatwander.numbers import BiQuadratic, QuadraticNumber, float_jitter, parse_complex, qn
from flatwander.segments import (
    CollisionCertificate,
    _LiftSearch,
    _rotations,
    default_collision_budget,
    find_collision,
    reduce_mod1_float,
)
from flatwander.torus_map import rotation_matrix, torus_map_new
from reference import (
    LiftSegment,
    _common_field,
    numerators,
    replace,
    segment_lift,
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
            f, den, (v,) = _numerators([x])
            got, bound = _float_of(f, v, den)
            # the same cancellation one level up, in a tower over sqrt(3)
            y = BiQuadratic(qn(1) - x, Q(1, 0, 3), 3)
            f, den, (v,) = numerators([y])
            got_y, bound_y = _float_of(f, v, den)
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
            f, (tx, ty), _ = _float_image(f, mat, fshift)
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


def _random_pair(
    rng: random.Random, kind: str, scalar=_tower_scalar
) -> tuple[LiftSegment, LiftSegment]:
    p0 = (scalar(rng), scalar(rng))
    p1 = (p0[0] + scalar(rng), p0[1] + scalar(rng))
    i, j = rng.randint(-2, 2), rng.randint(-2, 2)
    far = (scalar(rng), scalar(rng))
    if kind == "random":
        return LiftSegment(p0, p1), LiftSegment(far, (far[0] + scalar(rng), far[1]))
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


_SCALARS = {
    "tower": _tower_scalar,
    "sqrt2": lambda rng: Q(rng.randint(-60, 60), rng.randint(-40, 40), rng.randint(60, 120), 2),
    "rational": lambda rng: qn(Fraction(rng.randint(-60, 60), rng.randint(60, 120))),
}


@pytest.mark.parametrize("field", _SCALARS)
def test_the_integer_predicate_agrees_with_segments_meet_exact(field):
    # every translate of every hand-made pair kind, in each basis the lift
    # search uses: the same verdict and the same exact witness, of the same
    # scalar type
    rng = random.Random(77)
    kinds = ("random", "touching", "collinear", "near-cross", "near-parallel")
    hits = dict.fromkeys(kinds, 0)
    for n in range(150):
        kind = kinds[n % len(kinds)]
        s1, s2 = _random_pair(rng, kind, _SCALARS[field])
        f, den, vs = numerators([*s1.p0, *s1.p1, *s2.p0, *s2.p1])
        assert len(vs[0]) == {"tower": 4, "sqrt2": 2, "rational": 1}[field]
        n1, n2 = ((vs[0], vs[1]), (vs[2], vs[3])), ((vs[4], vs[5]), (vs[6], vs[7]))
        for i, j in _box_translates(s1, s2):
            cand = s2.translate(i, j)
            want = segments_meet_exact(s1.p0, s1.p1, cand.p0, cand.p1)
            got = _meet(f, den, n1, n2, i, j)
            assert got == want and type(got[0]) is type(want[0]) if want else got is None, (kind, n)
            hits[kind] += want is not None
    assert all(hits[kind] for kind in kinds[1:4]), hits


@pytest.mark.parametrize("end", [0, 1])
def test_an_endpoint_contact_is_read_off_the_endpoint(monkeypatch, end):
    # segment 2's end q lies inside segment 1, which crosses segment 2's line
    # strictly: the witness is q itself, taken as it is, with no division
    # (no conjugate is built), as for a proper crossing it must be
    conjugates = []
    conjugate = lift_arith._Field.conjugate
    monkeypatch.setattr(lift_arith._Field, "conjugate",
                        lambda f, a: conjugates.append(a) or conjugate(f, a))
    p0, p1 = (qn(0), qn(0)), (Q(0, 1, 1, 2), qn(1))
    q = (Q(0, 1, 3, 2), qn(Fraction(1, 3)))  # a third of the way along segment 1
    far = (qn(Fraction(1, 2)), qn(-2))
    s2 = (q, far) if end == 0 else (far, q)
    f, den, vs = _numerators([*p0, *p1, *s2[0], *s2[1]])
    n1, n2 = ((vs[0], vs[1]), (vs[2], vs[3])), ((vs[4], vs[5]), (vs[6], vs[7]))
    assert _meet(f, den, n1, n2, 0, 0) == q and conjugates == []
    # a proper crossing divides once
    f, den, vs = _numerators([*p0, *p1, qn(1), qn(0), qn(0), qn(1)])
    n1, n2 = ((vs[0], vs[1]), (vs[2], vs[3])), ((vs[4], vs[5]), (vs[6], vs[7]))
    assert _meet(f, den, n1, n2, 0, 0) is not None and len(conjugates) == 1


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


# ---------------------------------------------------------------------------
# contacts at the edge of the enumerated range, and the margins' derivations
# ---------------------------------------------------------------------------

EDGE_JITTERS = (1e-9, -1e-9, 1e-8, 1e-7, -1e-7, 1e-6, -1e-6)


def _edge_pair(
    rng: random.Random, kind: str, edge: str
) -> tuple[LiftSegment, LiftSegment, tuple[int, int]]:
    """Segment 1 and a segment 2 whose translate (i, j) touches it at one
    endpoint of segment 1, at the corner of the translate range: at the low
    edge segment 1's contact has its least x and y and segment 2's its
    greatest, so i = min(px) - max(qx) and j = min(py) - max(qy) exactly; at
    the high edge the other way round.  "touching" leaves segment 2 off
    segment 1's line, "collinear" continues segment 1's line past the
    contact."""

    def small() -> QuadraticNumber:
        return Q(rng.randint(1, 40), rng.randint(1, 30), rng.randint(40, 90), 2)

    sign = 1 if edge == "low" else -1
    p0 = tuple(Q(rng.randint(-30, 30), rng.randint(-9, 9), 40, 2) for _ in range(2))
    p1 = (p0[0] + small() * sign, p0[1] + small() * sign)
    i, j = rng.randint(-3, 3), rng.randint(-3, 3)
    q0 = (p0[0] - i, p0[1] - j)
    if kind == "touching":
        q1 = (q0[0] - small() * sign, q0[1] - small() * sign)
    else:
        lam = Fraction(rng.randint(1, 16), 8)
        q1 = (q0[0] - (p1[0] - p0[0]) * lam, q0[1] - (p1[1] - p0[1]) * lam)
    return LiftSegment(p0, p1), LiftSegment(q0, q1), (i, j)


def _to_bound(lift: LiftSegment, err: float, push: tuple[int, int]) -> FloatLift:
    """The float lift of ``lift`` with every coordinate moved to the end of
    a bound ``err`` (less a hair for the rounding of the move), x by
    push[0]*err and y by push[1]*err: the worst floats the bound allows."""
    hair = Fraction(err) * (1 - Fraction(1, 10**6))
    coords = [float(_exact(c) + hair * push[k % 2]) for k, c in enumerate((*lift.p0, *lift.p1))]
    return FloatLift(*coords, err)


def _exact(x: QuadraticNumber) -> Fraction:
    """x to 40 digits, as a Fraction: far finer than any bound here."""
    mpmath.mp.dps = 40
    return Fraction(str(mpmath.nstr(_mp(x), 40)))


@pytest.mark.parametrize("edge", ["low", "high"])
@pytest.mark.parametrize("kind", ["touching", "collinear"])
def test_contacts_at_the_edge_of_the_range_are_kept(kind, edge):
    # the contact translate is an end of both exact ranges, so the float
    # ranges, off by the conversion's jitter or by the whole bound, only
    # reach it through the margin
    rng = random.Random(2323)
    for _ in range(12):
        s1, s2, t = _edge_pair(rng, kind, edge)
        cand = s2.translate(*t)
        assert segments_meet_exact(s1.p0, s1.p1, cand.p0, cand.p1) is not None
        for jitter in EDGE_JITTERS:
            with float_jitter(jitter):
                f1, f2 = s1.float_lift(), s2.float_lift()
            assert t in _surviving_translates(f1, f2), (kind, edge, jitter)
            # the same bounds, the floats at their ends: segment 1 pulled
            # off the contact side, segment 2 away from it
            inward = 1 if edge == "low" else -1
            g1 = _to_bound(s1, f1.err, (inward, inward))
            g2 = _to_bound(s2, f2.err, (-inward, -inward))
            assert t in _surviving_translates(g1, g2), (kind, edge, jitter)


@pytest.mark.parametrize("e1, e2", [(2.0**-21, 2.0**-21), (2.0**-30, 0.0), (2.0**-24, 2.0**-40)])
@pytest.mark.parametrize("side", ["low", "high"])
def test_the_range_margin_covers_both_bounds_and_the_rounding(e1, e2, side):
    # derivation: the float gap g of two coordinates up to `size` is within
    # e1 + e2 of the gap of the floats' exact values, and the subtraction
    # rounds by up to half an ulp of 2*size, at most eps*size; every integer
    # within e1 + e2 + eps*size of a float range end is enumerated.  Point
    # lifts make every orientation zero, so the filter returns its whole
    # box.  Here the gap passes 0 by exactly e1 + e2 + 2**-52, within that
    # worst case, and the bounds alone would not reach 0.
    px, size = 1.5, 1.5
    step = e1 + e2 + 2.0**-52
    qx = px - step if side == "low" else px + step
    g = px - qx
    assert Fraction(g) == Fraction(px) - Fraction(qx)  # no rounding in the setup
    assert abs(Fraction(g)) - Fraction(e1) - Fraction(e2) <= Fraction(sys.float_info.epsilon * size)
    assert (math.ceil(g - (e1 + e2)) if side == "low" else math.floor(g + (e1 + e2))) != 0
    f1, f2 = FloatLift(px, 0.5, px, 0.5, e1), FloatLift(qx, 0.5, qx, 0.5, e2)
    assert (0, 0) in _surviving_translates(f1, f2)


@pytest.mark.parametrize("size, t", [(0.5, 0), (1.0, 1), (2.0, 3), (1.5, 40)])
@pytest.mark.parametrize("e", [1e-12, 2.0**-30, 1e-6])
def test_the_orientation_bound_covers_an_exact_worst_case(size, t, e):
    # derivation, at the configuration the bound's terms describe: segment
    # 1's floats both at the corner (-size, -size), segment 2's endpoint at
    # (size, size) under the translate (t, t), segment 2 exact and segment 1
    # within e.  The float orientation is 0; the exact one, maximised over
    # the corners of the bound box (it is linear in each coordinate), is
    # e*(8*size + 4*t), more than half the bound, and within it.
    p = Fraction(-size)
    q = Fraction(size) + t
    worst = Fraction(0)
    for d in itertools.product((-1, 1), repeat=4):
        (a0, b0), (a1, b1) = [(p + d[k] * Fraction(e), p + d[k + 1] * Fraction(e)) for k in (0, 2)]
        orient = (a1 - a0) * (q - b0) - (b1 - b0) * (q - a0)
        worst = max(worst, abs(orient))
    assert worst == Fraction(e) * (8 * Fraction(size) + 4 * t)
    assert worst <= Fraction(_orientation_bound(e, size, t))


@pytest.mark.parametrize("mat", [(3, 0, 0, 3), (2, 1, -1, 2), (0, 1, -1, -1)])
def test_the_step_bound_covers_the_rounding_of_exact_floats(mat):
    # derivation: floats with a zero bound are exact values; their image's
    # bound is the step's own rounding, 4*eps*(L*|coords| + |shift| +
    # |image| + |out|), and must cover the exactly computed image
    f = FloatLift(0.1, 0.7, 0.30000000000000004, 0.9, 0.0)
    shift = (1 / 3, 2 / 7, 0.0)
    image, (tx, ty), _ = _float_image(f, mat, shift)
    p, q, r, s = mat
    exact = []
    for x, y in ((f.x0, f.y0), (f.x1, f.y1)):
        x, y = Fraction(x), Fraction(y)
        exact += [x * p + y * r + Fraction(shift[0]) - tx, x * q + y * s + Fraction(shift[1]) - ty]
    off = max(abs(Fraction(a) - b) for a, b in zip((image.x0, image.y0, image.x1, image.y1), exact))
    assert 0 < off <= Fraction(image.err)


# ---------------------------------------------------------------------------
# the translate cap and the forcing budget
# ---------------------------------------------------------------------------


def test_a_pair_over_the_translate_cap_is_refused_before_any_exact_lift(monkeypatch, capsys):
    built = []
    meet = _LiftSearch.meet

    def counted(self, *args):
        built.append(args)
        return meet(self, *args)

    monkeypatch.setattr(_LiftSearch, "meet", counted)
    monkeypatch.setattr(lift_arith, "_TRANSLATE_CAP", 3)
    # the first pair's range, 3 by 3 translates, is over the cap
    argv = ["find-collision", "--a", "1+1i", "--omega", "i", "--seg", "0.1,0.2,s:1/2,0.9"]
    code = main(argv)
    out = json.loads(capsys.readouterr().out)
    message = "9 lattice translates exceed the enumeration cap"
    assert (code, out) == (3, {"error": "budget-exceeded", "message": message})
    assert built == []
    monkeypatch.undo()
    assert main(argv) == 0


HEX = "1/2+sqrt(3)/2i"
_FORCED = [
    ["find-collision", "--a", "1+1i", "--omega", "i", "--seg", "0.1,0.2,h,0.05"],
    ["find-collision", "--a", "2", "--omega", HEX, "--nu", "3", "--z0", "0,0",
     "--seg", "1/5,1/9,v,1/30"],
]
# find-collision with a predicate that never sees a hit, under python -O or not
_ALWAYS_MISS = (
    "import sys, json; sys.path.insert(0, sys.argv[1]); "
    "from flatwander import segments; from flatwander.cli import main; "
    "segments._meet = lambda *args: None; sys.exit(main(json.loads(sys.argv[2])))"
)


def _forced_budget(argv: list[str]) -> int:
    seg = _parse_segment(argv[argv.index("--seg") + 1])
    omega = argv[argv.index("--omega") + 1]
    tm = torus_map_new(parse_complex(argv[2]), parse_complex("0"), Lattice(parse_complex(omega)))
    nu = int(argv[argv.index("--nu") + 1]) if "--nu" in argv else None
    return default_collision_budget(tm, seg, nu=nu)


@pytest.mark.parametrize("optimize", [[], ["-O"]], ids=["", "-O"])
@pytest.mark.parametrize("argv", _FORCED, ids=["non-real", "group"])
def test_a_miss_within_the_forcing_budget_is_an_internal_inconsistency(argv, optimize):
    forced = _forced_budget(argv)

    def run(extra: list[str]) -> tuple[int, dict]:
        proc = subprocess.run(
            [sys.executable, *optimize, "-c", _ALWAYS_MISS, str(ROOT / "src"),
             json.dumps(argv + extra)],
            capture_output=True, text=True,
        )
        return proc.returncode, json.loads(proc.stdout)

    # the default budget and any budget at or above it must collide
    for extra in ([], ["--budget", str(forced)], ["--budget", str(forced + 3)]):
        code, out = run(extra)
        assert code == 4 and out["error"] == "internal-inconsistency", extra
        assert "verdict" not in out and "forcing budget" in out["message"]
    # an explicit budget below it is an honest miss
    code, out = run(["--budget", str(forced - 1)])
    assert (code, out) == (0, {"verdict": "no-collision-within-budget", "budget": forced - 1,
                               "group_order": 3 if "--nu" in argv else 1})


# ---------------------------------------------------------------------------
# the exact stage on integer numerators against the QuadraticNumber one
# ---------------------------------------------------------------------------

_DIFF_MAPS = [
    ("i", "1+1i", None), ("i", "2+1i", None), ("i", "2i", None), ("i", "1+2i", None),
    ("i", "2", 4), ("i", "1+1i", 4), (HEX, "2", 3), (HEX, "2", 6),
]
_DIFF_SLOPES = ["h", "v", "s:1/2", "s:-2", "s:sqrt(2)", "s:sqrt(3)"]


def _in(rng: random.Random, d: int) -> str:
    u = f"{rng.randint(0, 12)}/{rng.randint(1, 13)}"
    return u if not d else f"{u}+{rng.randint(1, 9)}*sqrt({d})/{rng.randint(2, 17)}"


def _reference_first_hit(tm, seg, rotations, budget):
    """The first hit of the QuadraticNumber/BiQuadratic lift search: the
    same float lifts and translates, exact lifts as affine images of lift_0
    in its tower, and every translate of each pair's bounding box, widened
    by one, decided by ``segments_meet_exact`` in enumeration order."""
    search = _LiftSearch(tm, seg, rotations)
    shifts = [c for _, shift in search.exact_maps for c in shift]
    (lift0,) = _common_field(shifts, segment_lift(seg))
    step, b = tm.m, (tm.b.x, tm.b.y)
    lifts = [lift0]
    for m in range(1, budget + 1):
        search.step()
        tx, ty = search.iterates[m][1]
        lifts.append(lifts[-1].affine_image(step, (b[0] - tx, b[1] - ty)))
        current = lifts[m]
        for n in range(m):
            for k, (_, (rx, ry), _) in enumerate(search.targets[n]):
                target = lifts[n]
                if k:
                    mat, (sx, sy) = rotations[k - 1]
                    target = target.affine_image(mat, (sx - rx, sy - ry))
                f1, f2 = current.float_lift(), target.float_lift()
                for i in range(math.floor(min(f1.x0, f1.x1) - max(f2.x0, f2.x1)) - 1,
                               math.ceil(max(f1.x0, f1.x1) - min(f2.x0, f2.x1)) + 2):
                    for j in range(math.floor(min(f1.y0, f1.y1) - max(f2.y0, f2.y1)) - 1,
                                   math.ceil(max(f1.y0, f1.y1) - min(f2.y0, f2.y1)) + 2):
                        cand = target.translate(i, j)
                        w = segments_meet_exact(current.p0, current.p1, cand.p0, cand.p1)
                        if w is not None:
                            return (n, m, k, i, j, reduce_mod1_float(w))
    return None


def test_the_integer_stage_finds_the_quadratic_predicates_first_hit(monkeypatch):
    rng = random.Random(23)
    hits = []
    meet = segments._meet

    def spy(f, den, s1, s2, i, j):
        w = meet(f, den, s1, s2, i, j)
        hits.append((i, j, w, len(s1[0][0])))  # the translate, exact witness and basis size
        return w

    monkeypatch.setattr(segments, "_meet", spy)
    bases, searches = set(), 0
    while searches < 60:
        omega, a, nu = rng.choice(_DIFF_MAPS)
        main_field = rng.choice((2, 3))
        pick = lambda: rng.choice((0, 0, main_field, 2, 3))  # noqa: E731
        try:
            seg = _parse_segment(
                f"{_in(rng, pick())},{_in(rng, pick())},{rng.choice(_DIFF_SLOPES)},"
                f"{rng.randint(1, 20)}/{rng.choice((40, 100))}"
            )
        except (FieldClash, MixedRadicals):
            continue  # the anchor meets the slope's field, or a third radicand
        searches += 1
        tm = torus_map_new(parse_complex(a), parse_complex("0"), Lattice(parse_complex(omega)))
        rotations = []
        if nu is None:
            b = [parse_complex(_in(rng, pick())) for _ in range(2)]
            tm = replace(tm, b=point(b[0].re, b[1].re))
        else:
            rotations = _rotations(rotation_matrix(tm.lattice, nu), nu, point(qn(0), qn(0)))
        budget = min(default_collision_budget(tm, seg, nu=nu), 8)
        want = _reference_first_hit(tm, seg, rotations, budget)
        hits.clear()
        group = None if nu is None else (nu, point(qn(0), qn(0)), rotation_matrix(tm.lattice, nu))
        got = find_collision(tm, seg, group=group, budget=budget)
        if want is None:
            assert not isinstance(got, CollisionCertificate)
            continue
        n, m, k, i, j, w = want
        assert isinstance(got, CollisionCertificate) and (got.n, got.m, got.k) == (n, m, k)
        assert (hits[-1][0], hits[-1][1]) == (i, j) and got.witness == w
        assert reduce_mod1_float(hits[-1][2]) == w
        bases.add(hits[-1][3])
    # searches on every basis hit: {1}, {1, sqrt d} and the tower's four
    assert bases == {1, 2, 4}, bases


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
