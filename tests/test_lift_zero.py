"""The collision search on integers from its first lift.

lift_0's numerators, built from the line's state, frame, direction and
parameters, equal the reference lift (``reference.segment_lift``) value for
value, and its float form lies within its bound, decided exactly; each float lift's box, computed once
when the lift is made, gives the filter's own answer; a cached Lattès
model's group carries its rotations; the certificates of the collide
benchmark's first cases re-verify; the README's radicand examples keep their
verdicts; an integer-multiplier hit holds memory to the orbit's period; and
verify-semiconjugacy refuses a degree-times-samples product over its cap
before it samples."""

import contextlib
import importlib
import io
import json
import math
import random
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwander import lattes, line_orbit, segments
from flatwander.errors import MixedRadicals
from flatwander.cli import _covering, _model, _parse_segment, main
from flatwander.lattice import Lattice, point
from flatwander.lift_arith import (
    FloatLift,
    _box,
    _float_image,
    _float_of,
    _segment_numerators,
    _surviving_translates,
)
from flatwander.line_orbit import IrrationalSlope, RationalDirection, TorusLine
from flatwander.numbers import BiQuadratic, QuadraticNumber, float_jitter, parse_complex, qn
from flatwander.segments import (
    CollisionCertificate,
    TorusSegment,
    _LiftSearch,
    _rotations,
    find_collision,
    reverify_collision,
)
from flatwander.torus_map import rotation_matrix, torus_map_new
from reference import folded, segment_lift, walk, walked_collision

ROOT = Path(__file__).resolve().parent.parent
Q = QuadraticNumber
JITTERS = (0.0, 1e-13, -1e-13)
RADS = (2, 3, 5)


def _shifts(seg: TorusSegment, shifts: list[QuadraticNumber]):
    """``_segment_numerators``, or None where it refuses."""
    try:
        return _segment_numerators(seg.line, (seg.t_lo, seg.t_hi), shifts)
    except MixedRadicals:
        return None


def _within(exact, x: float, err: float) -> bool:
    """|exact - x| <= err, decided exactly (floats are dyadic rationals)."""
    diff = BiQuadratic._coerce(exact) - BiQuadratic(qn(Fraction(x)))
    bound = BiQuadratic(qn(Fraction(err)))
    return (diff - bound).sign() <= 0 and (diff + bound).sign() >= 0


def _check(seg: TorusSegment, shifts: list[QuadraticNumber]) -> bool:
    """lift_0 and the shifts as numerators equal the QuadraticNumber lift and
    the shifts, and every float lies within its bound under each jitter;
    False when the builder refuses, which it may only past two radicands or
    where the reference lift refuses the state."""
    held = _shifts(seg, shifts)
    line = seg.line
    xs = (*line.transverse(), *line.direction, seg.t_lo, seg.t_hi, *shifts)
    if held is None:
        if len({x.d for x in xs} - {0}) <= 2:
            # the builder refuses as the reference lift's arithmetic does
            with pytest.raises(MixedRadicals) as want:
                segment_lift(seg)
            with pytest.raises(MixedRadicals) as got:
                _segment_numerators(seg.line, (seg.t_lo, seg.t_hi), shifts)
            assert str(got.value) == str(want.value)
        return False
    f, den, vs = held
    want = [*segment_lift(seg).p0, *segment_lift(seg).p1, *shifts]
    assert [f.scalar(v, den) for v in vs] == want
    for jitter in JITTERS:
        with float_jitter(jitter):
            for v, c in zip(vs, want):
                assert _within(c, *_float_of(f, v, den)), (c, jitter)
    return True


_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=60)


@st.composite
def _cases(draw):
    """A segment on either slope kind, with anchors rational or on one or two
    radicands, parameters that may be negative, the midpoint sometimes put on
    an integer, and zero to three shifts in Q or one quadratic field."""

    def scalar(d: int) -> QuadraticNumber:
        x = qn(draw(_fraction))
        if d:
            x += Q(0, draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 40)), d)
        return x

    if draw(st.booleans()):
        ds = draw(st.sampled_from(RADS))
        slope = IrrationalSlope(scalar(ds) if draw(st.booleans()) else Q(0, 1, 1, ds))
        others = [0, *(r for r in RADS if r != ds)]
        alpha, beta = (scalar(draw(st.sampled_from(others))).mod1() for _ in range(2))
        t_field = (0, ds)
    else:
        m, k = draw(st.sampled_from([(1, 0), (0, 1), (1, 2), (2, -1), (-3, 1), (2, 3)]))
        slope = RationalDirection(m, k)
        d = draw(st.sampled_from([0, *RADS]))
        alpha, beta = (scalar(draw(st.sampled_from([0, d]))).mod1() for _ in range(2))
        t_field = (0,)
    line = TorusLine(slope, alpha, beta)
    t0, t1 = (scalar(draw(st.sampled_from(t_field))) for _ in range(2))
    if draw(st.booleans()):
        # the midpoint's x (or y) coordinate on an integer n, where the
        # base point's coordinate and the direction allow it
        i = draw(st.integers(0, 1))
        base, step = line.slope.from_state(line.transverse())[i], line.direction[i]
        if not step.is_zero and base.d in t_field and (base / step).d in t_field:
            mid = (qn(draw(st.integers(-4, 4))) - base) / step
            half = abs(scalar(draw(st.sampled_from(t_field)))) + Fraction(1, 97)
            t0, t1 = mid - half, mid + half
    if t0 == t1:
        t1 = t0 + 1
    seg = TorusSegment(line, min(t0, t1), max(t0, t1))
    shifts = [scalar(draw(st.sampled_from([0, *RADS]))) for _ in range(draw(st.integers(0, 3)))]
    return seg, shifts


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_lift_zero_numerators_equal_the_quadratic_lift(case):
    _check(*case)


def test_the_drawn_cases_cover_every_kind():
    # the strategy above reaches each basis, both slope kinds, a declined
    # case and a midpoint on an integer
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_cases())
    def collect(case):
        seg, shifts = case
        held = _shifts(seg, shifts)
        mid = segment_lift(seg).midpoint() if held else ()
        seen.add((
            seg.line.is_irrational, None if held is None else len(held[2][0]), 0 in mid
        ))

    collect()
    assert {(k, n) for k, n, _ in seen} >= {
        (True, 2), (True, 4), (False, 1), (False, 2), (False, 4), (True, None), (False, None)
    }, seen
    assert any(on_integer for *_, on_integer in seen)


@pytest.mark.parametrize("m, k", [(1, 0), (0, 1), (1, 2)])
def test_a_state_in_two_fields_is_built_unless_a_coordinate_mixes_them(m, k):
    # alpha in Q(sqrt 2), beta in Q(sqrt 3): the frames of (1, 0) and (0, 1)
    # keep them in separate coordinates, and (1, 2)'s adds them, which
    # the reference lift refuses
    line = TorusLine(RationalDirection(m, k), Q(0, 1, 3, 2), Q(0, 1, 5, 3))
    seg = TorusSegment(line, qn(Fraction(-1, 7)), qn(Fraction(2, 5)))
    assert _check(seg, [Q(0, 1, 4, 3)]) == (m * k == 0)


# (x0, y0) with x0^2 - 2*y0^2 = 1: y0*sqrt(2) lies 3.8e-9 below the integer
# x0, and the float product rounds up to x0
PELL = (131836323, 93222358)


@pytest.mark.parametrize("shifts", [[], [Q(0, 1, 5, 3)]], ids=["sqrt2", "tower"])
def test_a_midpoint_just_below_an_integer_floors_exactly(shifts):
    x0, y0 = PELL
    assert math.floor(y0 * math.sqrt(2)) == x0  # what a float floor would take
    line = TorusLine(IrrationalSlope(Q(0, 1, 1, 2)), qn(0), qn(0))
    half = Fraction(1, 100)
    seg = TorusSegment(line, qn(y0 - half), qn(y0 + half))
    # the midpoint (y0, y0*sqrt(2)), x on an integer and y just below x0,
    # moves by (y0, x0 - 1)
    assert segment_lift(seg).midpoint() == (0, Q(0, y0, 1, 2) - (x0 - 1))
    assert _check(seg, shifts)


# ---------------------------------------------------------------------------
# each float lift's box, once
# ---------------------------------------------------------------------------


def _derivation_pairs() -> list[tuple[FloatLift, FloatLift]]:
    """The float lifts of the filter's derivation tests: point lifts at the
    range margin's worst case, the orientation bound's corner configuration
    and the rounding-of-exact-floats step's images."""
    pairs = []
    for e1, e2 in [(2.0**-21, 2.0**-21), (2.0**-30, 0.0), (2.0**-24, 2.0**-40)]:
        step = e1 + e2 + 2.0**-52
        for qx in (1.5 - step, 1.5 + step):
            pairs.append((FloatLift(1.5, 0.5, 1.5, 0.5, e1), FloatLift(qx, 0.5, qx, 0.5, e2)))
    for size in (0.5, 1.0, 2.0, 1.5):
        for e in [1e-12, 2.0**-30, 1e-6]:
            # segment 1 at the corner (-size, -size) within e, segment 2
            # exact with an endpoint at (size, size)
            f1 = FloatLift(-size, -size, -size, -size, e)
            pairs.append((f1, FloatLift(size, size, -size, size, 0.0)))
    f = FloatLift(0.1, 0.7, 0.30000000000000004, 0.9, 0.0)
    for mat in [(3, 0, 0, 3), (2, 1, -1, 2), (0, 1, -1, -1)]:
        image, _, box = _float_image(f, mat, (1 / 3, 2 / 7, 0.0))
        assert box == _box(*image[:4])
        pairs += [(f, image), (image, f)]
    return pairs


def test_precomputed_boxes_give_the_filters_own_translates():
    for f1, f2 in _derivation_pairs():
        assert _surviving_translates(f1, f2, _box(*f1[:4]), _box(*f2[:4])) == (
            _surviving_translates(f1, f2)
        )


@pytest.mark.parametrize("small_first", [True, False])
def test_the_range_margin_takes_the_size_of_both_lifts(small_first):
    # derivation: the margin's rounding term is 16*eps times the larger
    # lift's size.  Point lifts 1 apart in y, one of them 1000 units out in
    # x, whose x gap passes the integer -1000 by e1 + e2 + 1000*2**-52:
    # within 16*eps*1000.5, but past 16*eps*1.5
    e = 2.0**-60
    big = 1000.5 + e + e + 1000 * 2.0**-52
    small, large = FloatLift(0.5, 1.5, 0.5, 1.5, e), FloatLift(big, 0.5, big, 0.5, e)
    assert Fraction(0.5) - Fraction(big) == 0.5 - big  # no rounding in the setup
    f1, f2 = (small, large) if small_first else (large, small)
    t = (-1000, 1) if small_first else (1000, -1)
    assert t in _surviving_translates(f1, f2)
    assert t in _surviving_translates(f1, f2, _box(*f1[:4]), _box(*f2[:4]))


def test_the_search_keeps_each_lifts_box():
    # every float lift the search made carries the box of its own floats
    tm = torus_map_new(parse_complex("2"), parse_complex("0"), Lattice(parse_complex("i")))
    group = (4, point(0, 0), rotation_matrix(tm.lattice, 4))
    seg = _parse_segment("0,1/7,s:sqrt(2),1/18")
    search = _LiftSearch(tm, seg, _rotations(group[2], 4, group[1]))
    for _ in range(6):
        search.step()
    for lift, _, box in [*search.iterates, *(x for row in search.targets for x in row)]:
        assert box == _box(*lift[:4])
    assert isinstance(find_collision(tm, seg, group=group), CollisionCertificate)


def test_a_cached_models_group_carries_its_rotations():
    # the model solves R's powers and shifts once; a search given them
    # answers as one that solves them itself
    model = _model("2", "0", "i", 4, "1/2,1/2")
    group = model.group
    assert model.group is group and group[:3] == (model.nu, model.z0, model.rotation)
    assert group[3] == _rotations(model.rotation, model.nu, model.z0)
    for text in ("0,1/7,s:sqrt(2),1/18", "1/5,2/9,v,1/40", "3/7,1/11,s:2/3,1/30"):
        seg = _parse_segment(text)
        assert find_collision(model.map, seg, group) == find_collision(model.map, seg, group[:3])


# ---------------------------------------------------------------------------
# the collide benchmark's certificates, and the README's radicand examples
# ---------------------------------------------------------------------------


def test_the_collide_workloads_certificates_reverify():
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "bench"))
    cases = workloads.WORKLOADS["collide"](random.Random(23), 300)
    for case in cases:
        p = case.params
        tm, seg = _covering(p["a"], "0", p["omega"]), _parse_segment(p["seg"])
        group = None
        if p["nu"]:
            model = _model(p["a"], "0", p["omega"], p["nu"], "0,0")
            group = (model.nu, model.z0, model.rotation)
        cert = find_collision(tm, seg, group=group)
        assert isinstance(cert, CollisionCertificate), p
        assert reverify_collision(tm, seg, cert, group=group and group[:2]), p


def _run(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


README_SEG = "sqrt(2)/3,1/5,s:sqrt(3),1/10"


def test_the_readme_radicand_examples():
    code, out = _run(["find-collision", "--a", "1+1i", "--omega", "i", "--b", "sqrt(5)/7",
                      "--seg", README_SEG])
    assert (code, out["error"]) == (2, "mixed-radicals")
    code, out = _run(["find-collision", "--a", "1+1i", "--omega", "i", "--seg", README_SEG])
    assert (code, out["verdict"], out["n"], out["m"]) == (0, "collision", 3, 5)
    code, out = _run(["find-collision", "--a", "2i", "--omega", "i",
                      "--b", "sqrt(3)/7+5*sqrt(3)/11i",
                      "--seg", "9*sqrt(2)/13,7/17,s:sqrt(5),3/100", "--budget", "6"])
    assert (code, out["error"]) == (2, "mixed-radicals")
    code, out = _run(["find-collision", "--a", "2", "--b", "sqrt(2)/5i", "--omega", "i",
                      "--slope", "sqrt(3)", "--alpha", "sqrt(5)-2", "--t0=-1/20", "--t1=1/10",
                      "--budget", "4"])
    assert (code, out) == (0, {"budget": 4, "group_order": 1,
                               "verdict": "no-collision-within-budget"})


# ---------------------------------------------------------------------------
# bounded memory for an integer-multiplier hit, and the semiconjugacy cap
# ---------------------------------------------------------------------------


def test_an_integer_multiplier_hit_holds_memory_to_the_period(monkeypatch):
    # a rational anchor on a horizontal loop: the walk repeats within 8
    # states, and iterates 0 and 6 meet, whatever the budget
    argv = ["find-collision", "--a=2", "--omega", "i", "--seg", "1/3,1/7,h,1/1000"]
    peaks = []
    for budget in ("1000", "100000000"):
        tracemalloc.start()
        try:
            code, out = _run([*argv, "--budget", budget])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (code, out["n"], out["m"], out["budget"]) == (0, 0, 6, int(budget))
    assert peaks[1] < peaks[0] + 100_000, peaks
    tm = torus_map_new(parse_complex("2"), parse_complex("0"), Lattice(parse_complex("i")))
    seg = _parse_segment("1/3,1/7,h,1/1000")
    rule = line_orbit._state_rule(tm, seg.line.slope, seg.line.transverse())
    states, n0, _ = walk(rule, 10**8 + 1)
    assert len(states) < 10
    # the search reads states in closed form, as the walk folded into its cycle
    # gives them, at every budget, and none past the budget
    read, state_ints = [], line_orbit._state_ints
    monkeypatch.setattr(segments, "_state_ints",
                        lambda *args: read.append(args[-1]) or state_ints(*args))
    for budget in range(1, 12):
        read.clear()
        assert find_collision(tm, seg, budget=budget) == walked_collision(tm, seg, budget)
        assert max(read, default=0) <= budget
    conj, period = line_orbit._conjugate(2, rule), len(states) - n0
    assert [state_ints(2, rule, conj, n) for n in range(12)] == folded(states, n0, 11)
    at = [state_ints(2, rule, conj, n) for n in (10**8, 10**8 - period)]
    assert at == [states[n0 + (10**8 - n0) % period]] * 2


def test_semiconjugacy_refuses_degree_times_samples_over_the_cap(monkeypatch):
    argv = ["verify-semiconjugacy", "--a", "3", "--omega", "i", "--samples", "50"]
    monkeypatch.setattr(lattes, "MAX_KERNEL_SAMPLES", 9 * 50)
    assert _run(argv)[0] == 0  # at the cap
    monkeypatch.setattr(lattes, "MAX_KERNEL_SAMPLES", 9 * 50 - 1)

    def refuse(*args):
        pytest.fail("sampled over the cap")

    monkeypatch.setattr(lattes, "_sample_points", refuse)
    code, out = _run(argv)
    assert (code, out) == (3, {"error": "budget-exceeded",
                               "message": "degree times samples exceeds 449"})
    monkeypatch.undo()
    # the documented cap admits the benchmark's largest case, degree 9 at 500
    assert 9 * 500 <= lattes.MAX_KERNEL_SAMPLES == 5_000_000
