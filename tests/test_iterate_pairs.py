"""One iterate-pair sweep and one brute-force oracle: the integer collision
search against recorded CLI output, both oracles against a planar reference
on lifts, the closed-form oracle against the stepped one, the oracle's
reflection count, the closed-form collision search on lines and loops
against the search that walked every state, walks bounded by the budget and
no walk at all in the collision search, transverse pairs in the slope's
field against the lift search, rational directions decided on their loops
with no lifts, and the typed cross-checks under ``python -O``."""

import collections
import itertools
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from flatwander import lattes, line_orbit, segments
from flatwander.cli import _parse_segment, main
from flatwander.lattice import Lattice, point
from flatwander.lattes import lattes_model_new, verify_sphere_disjoint_iterates
from flatwander.errors import FieldClash, MixedRadicals, NotLattesCompatible
from flatwander.line_orbit import (
    IrrationalSlope,
    TorusLine,
    line_from_point,
    slope_spec,
)
from flatwander.numbers import ComplexPair, QuadraticNumber, parse_complex, parse_number, qn
from flatwander.segments import (
    CollisionCertificate,
    NoCollisionWithinBudget,
    find_collision,
    reverify_collision,
    segment_new,
    verify_disjoint_iterates,
)
from flatwander.torus_map import rotation_matrix, torus_map_new
from child_env import child_env
from reference import (
    bucketed_disjoint_iterates,
    counted_steps,
    lift_chain,
    lift_segments_intersect_torus,
    line_image,
    orbit_states,
    replace,
    stepped_disjoint_iterates,
    walked_collision,
)

ROOT = Path(__file__).resolve().parent.parent
# find-collision on integer multipliers, recorded from the pairwise search
# that first_overlap replaced: a in {2, -2, 3, -3}, periodic and wandering
# lines, rational and irrational translations, budgets 1 to 14, hits and
# misses, plus the lift-chain fallback for transverse states with no tower
GOLDEN = json.loads((ROOT / "tests" / "data" / "find_collision_golden.json").read_text())
SQUARE = Lattice(parse_complex("i"))
SQRT2 = IrrationalSlope(parse_number("sqrt(2)"))


def _map(a, b="0"):
    return torus_map_new(parse_complex(a), parse_complex(b), SQUARE)


def _line(alpha, beta):
    return TorusLine(SQRT2, qn(alpha).mod1(), qn(beta).mod1())


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_find_collision_matches_golden(capsys, case):
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


# ---------------------------------------------------------------------------
# the oracles against a planar reference
# ---------------------------------------------------------------------------


def planar_disjoint_iterates(tm, seg, k, z0=None):
    """The first meeting pair (i, j) of iterates 0..k, decided in the plane:
    the ``lift_chain`` lifts and, with a center z0, each lift's point
    reflection z -> 2*z0 - z, every pair in order by the exact lift
    predicate.  No transverse state or parameter interval is read."""
    lifts = lift_chain(tm, seg, k)
    mirrors = None
    if z0 is not None:
        mirrors = [lift.affine_image((-1, 0, 0, -1), (z0.x * 2, z0.y * 2)) for lift in lifts]
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if lift_segments_intersect_torus(tm.lattice, lifts[i], lifts[j]) is not None:
                return False, (i, j)
            if mirrors is not None and (
                lift_segments_intersect_torus(tm.lattice, lifts[i], mirrors[j]) is not None
            ):
                return False, (i, j)
    return True, None


_ORACLE_CASES = [
    (a, alpha, beta, t0, t1)
    for a in ("2", "-2", "3")
    for alpha, beta in (
        (Fraction(1, 5), 0),  # rho pairs the cycle
        (Fraction(1, 7), Fraction(1, 3)),  # unpaired
        (Fraction(1, 4), Fraction(1, 2)),  # preperiodic
        (parse_number("sqrt(3)-1"), 0),  # wandering
    )
    for t0, t1 in (
        (Fraction(1, 50), Fraction(1, 20)),  # short: disjoint
        (Fraction(1, 50), Fraction(1, 2)),  # long: a same-line pair meets
        (Fraction(-1, 3), Fraction(1, 40)),  # straddles the fixed point
    )
]


def _oracle_results():
    out = []
    for a, alpha, beta, t0, t1 in _ORACLE_CASES:
        tm = _map(a)
        model = lattes_model_new(SQUARE, tm, 2, point(0, 0))
        seg = segment_new(_line(alpha, beta), qn(t0), qn(t1))
        out.append((tm, model, seg))
    return out


@pytest.mark.parametrize("k", [0, 1, 6])
def test_oracles_match_pairwise_loops(k):
    torus_fail = sphere_fail = sphere_only = 0
    for tm, model, seg in _oracle_results():
        got = verify_disjoint_iterates(tm, seg, k)
        assert got == planar_disjoint_iterates(tm, seg, k)
        got_sphere = verify_sphere_disjoint_iterates(model, seg, k)
        assert got_sphere == planar_disjoint_iterates(tm, seg, k, model.z0)
        torus_fail += not got[0]
        sphere_fail += not got_sphere[0]
        sphere_only += got[0] and not got_sphere[0]
    if k == 6:  # enough iterates for plain and reflected-only failures
        assert torus_fail and sphere_fail and sphere_only


def test_oracle_failure_pairs_are_the_first_in_order():
    tm = _map("2")
    seg = segment_new(_line(Fraction(1, 4), Fraction(1, 2)), qn(Fraction(1, 50)), qn(1))
    # states 1/4, 1/2, 0, 0, ...: iterates 2 and 3 share a line and overlap
    assert verify_disjoint_iterates(tm, seg, 6) == (False, (2, 3))


@st.composite
def _flexible_case(draw):
    """A flexible model on a 1/4-grid center and real translation, and a
    segment on a periodic or wandering line, short enough that the planar
    reference's translates stay few."""
    a = draw(st.sampled_from([2, -2, 3, -3]))
    lat = Lattice(parse_complex(draw(st.sampled_from(["i", "1/2+1i", "2i"]))))
    b = Fraction(draw(st.integers(0, 3)), 4)
    tm = torus_map_new(parse_complex(str(a)), parse_complex(str(b)), lat)
    z0 = point(Fraction(draw(st.integers(0, 3)), 4), Fraction(draw(st.integers(0, 3)), 4))
    try:
        model = lattes_model_new(lat, tm, 2, z0)
    except NotLattesCompatible:
        reject()
    q = draw(st.integers(1, 8))
    alpha, beta = (qn(Fraction(draw(st.integers(0, q - 1)), q)) for _ in range(2))
    if draw(st.booleans()):
        alpha = parse_number("sqrt(3)-1")  # a wandering line
    t0 = Fraction(draw(st.integers(-8, 8)), 40)
    t1 = t0 + Fraction(draw(st.integers(1, 8)), 40)
    k = draw(st.integers(0, 8 if abs(a) == 2 else 5))
    seg = segment_new(TorusLine(SQRT2, alpha.mod1(), beta), qn(t0), qn(t1))
    return model, seg, k


def test_oracles_match_the_planar_reference_on_flexible_models():
    verdicts = []

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_flexible_case())
    def check(case):
        model, seg, k = case
        got = verify_disjoint_iterates(model.map, seg, k)
        assert got == planar_disjoint_iterates(model.map, seg, k)
        got_sphere = verify_sphere_disjoint_iterates(model, seg, k)
        assert got_sphere == planar_disjoint_iterates(model.map, seg, k, model.z0)
        verdicts.append((got[0], got_sphere[0]))

    check()
    # failing pairs are drawn, plain ones and reflected-only ones
    assert (False, False) in verdicts and (True, False) in verdicts


def test_the_oracle_refuses_a_rational_direction():
    line = line_from_point(slope_spec((1, 0)), (qn(Fraction(1, 3)), qn(0)))
    with pytest.raises(ValueError):
        verify_disjoint_iterates(_map("2"), segment_new(line, qn(0), qn(Fraction(1, 7))), 4)


def test_sphere_oracle_reflects_each_iterate_once(monkeypatch):
    calls = []
    orig = line_orbit.Numerators.reflection

    def counted(num, origin):
        rho = orig(num, origin)
        return lambda p: calls.append(p) or rho(p)

    monkeypatch.setattr(line_orbit.Numerators, "reflection", counted)
    model = lattes_model_new(SQUARE, _map("2"), 2, point(0, 0))
    seg = segment_new(_line(Fraction(1, 5), 0), qn(Fraction(1, 50)), qn(Fraction(1, 20)))
    assert verify_sphere_disjoint_iterates(model, seg, 12) == (True, None)
    assert len(calls) == 13


def test_oracles_build_the_state_rule_once(monkeypatch):
    builds = []
    orig = segments._translation_state

    def counted(tm, slope):
        builds.append(slope)
        return orig(tm, slope)

    monkeypatch.setattr(segments, "_translation_state", counted)
    model = lattes_model_new(SQUARE, _map("3", "1/2"), 2, point(Fraction(1, 4), 0))
    line = _line(Fraction(1, 7), Fraction(1, 3))
    seg = segment_new(line, qn(Fraction(1, 50)), qn(Fraction(1, 20)))
    assert verify_disjoint_iterates(model.map, seg, 12) == (True, None)
    assert verify_sphere_disjoint_iterates(model, seg, 12)[0]
    assert len(builds) == 2


# ---------------------------------------------------------------------------
# the closed-form oracle against the stepped one
# ---------------------------------------------------------------------------


def _irrational(draw, d):
    """A drawn p/q + sqrt(d)/m."""
    m = draw(st.integers(2, 9))
    return qn(Fraction(draw(st.integers(0, 6)), 7)) + QuadraticNumber.sqrt_int(d) / m


@st.composite
def _oracle_case(draw):
    """A segment on a periodic or wandering line of slope sqrt(2), under a
    rational b or one with parts in Q(sqrt 3) and Q(sqrt 5) (rarely in the
    slope's field, which is refused), k from 0 to 40, and an origin rho(0)
    whose denominator may or may not divide the states' one."""
    a = draw(st.sampled_from([2, -2, 3]))
    q = draw(st.integers(1, 8))
    seed = [qn(Fraction(draw(st.integers(0, q - 1)), q)) for _ in range(2)]
    wandering = draw(st.booleans())
    if wandering:
        i = draw(st.integers(0, 1))
        seed[i] = (seed[i] + _irrational(draw, draw(st.sampled_from([3, 5])))).mod1()
    b = [qn(Fraction(draw(st.integers(0, 5)), draw(st.integers(1, 6)))) for _ in range(2)]
    for i in range(2):
        d = draw(st.sampled_from([0, 0, 0, 0, 3, 5, 2]))
        if d:
            b[i] = b[i] + _irrational(draw, d)
    tm = torus_map_new(parse_complex(str(a)), ComplexPair(*b), SQUARE)
    t0 = qn(Fraction(draw(st.integers(-8, 8)), 40))
    t1 = t0 + Fraction(draw(st.integers(1, 30)), 40)
    if draw(st.booleans()):  # parameters in the slope's field
        shift = QuadraticNumber.sqrt_int(2) / draw(st.integers(20, 60))
        t0, t1 = t0 + shift, t1 + shift
    seg = segment_new(TorusLine(SQRT2, *seed), t0, t1)
    g = draw(st.sampled_from([1, 2, q, 2 * q, 7, 9]))
    origin = tuple(qn(Fraction(draw(st.integers(0, 2 * g - 1)), g)) for _ in range(2))
    if not wandering and draw(st.integers(0, 2)):
        # rho(0) = s_0 + s_m reflects iterate m onto iterate 0
        states = _outcome(lambda: _walked(tm, seg.line, 3))
        m = draw(st.integers(1, 3))
        if isinstance(states, list) and all(x.is_rational for x in (*states[0], *states[m])):
            origin = tuple(x + y for x, y in zip(states[0], states[m]))
    return tm, seg, draw(st.integers(0, 40)), origin, wandering


def _outcome(call):
    try:
        return call()
    except (MixedRadicals, FieldClash) as exc:
        return type(exc).__name__, str(exc)


def test_the_closed_form_oracle_matches_the_stepped_oracle():
    seen = collections.Counter()

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_oracle_case())
    def check(case):
        tm, seg, k, origin, wandering = case
        got = [_outcome(lambda: verify_disjoint_iterates(tm, seg, k, o)) for o in (None, origin)]
        want = [_outcome(lambda: stepped_disjoint_iterates(tm, seg, k, o)) for o in (None, origin)]
        assert got == want
        xs = (*seg.line.transverse(), tm.b.x, tm.b.y)
        den = math.lcm(*[x.w for x in xs])
        seen["wandering" if wandering else "periodic"] += 1
        seen["on the grid" if all((x * den).is_integer for x in origin) else "off it"] += 1
        seen["irrational b"] += not (tm.b.x.is_rational and tm.b.y.is_rational)
        if isinstance(got[0][0], str):
            seen[got[0][0]] += 1
        elif not got[0][0]:
            seen["plain pair"] += 1
        elif not got[1][0]:
            seen["reflected pair only"] += 1
        else:
            seen["disjoint"] += 1

    check()
    for kind in ("wandering", "periodic", "on the grid", "off it", "irrational b",
                 "MixedRadicals", "FieldClash", "plain pair", "reflected pair only", "disjoint"):
        assert seen[kind] >= 5, (kind, seen)


def test_the_oracle_matches_its_pairwise_chain_reference():
    """The oracle's spans, built once and compared inline, against the oracle
    that compared each pair by ``IntervalChain.meet``: the same verdict, the
    same first failing pair and the same refusal, with and without rho, on
    the drawn segment and on one forced to overlap, 3 long from its t0."""
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_oracle_case())
    def check(case):
        tm, seg, k, origin, _ = case
        forced = segment_new(seg.line, seg.t_lo, seg.t_lo + 3)
        for s in (seg, forced):
            got = [_outcome(lambda: verify_disjoint_iterates(tm, s, k, o)) for o in (None, origin)]
            assert got == [_outcome(lambda: bucketed_disjoint_iterates(tm, s, k, o))
                           for o in (None, origin)]
            plain, reflected = got
            if isinstance(plain[0], str):
                seen[plain[0]] += 1
            elif not plain[0]:
                seen["plain pair"] += 1
                seen["pair past (0, 1)"] += plain[1] != (0, 1)
            seen["disjoint" if reflected[0] is True else
                 "reflected pair" if reflected != plain and not reflected[0] else "other"] += 1

    check()
    for kind in ("disjoint", "plain pair", "reflected pair", "pair past (0, 1)",
                 "MixedRadicals", "FieldClash"):
        assert seen[kind] >= 10, (kind, seen)


# ---------------------------------------------------------------------------
# the collision search on the orbit's closed form, against the walk
# ---------------------------------------------------------------------------

_LOOPS = [slope_spec(d) for d in ((1, 0), (0, 1), (1, 1), (2, -1), (1, 3))]
_SQRT3 = QuadraticNumber.sqrt_int(3)


@st.composite
def _parallel_case(draw):
    """A segment under an integer covering whose identifying state never
    moves: an irrational-slope line or a closed loop, whose invariant (each
    coordinate on a line) lies over N = q*|a|^k, so that its period runs up
    to 2^12 and its preperiod up to 4, or, under a b with sqrt(3) parts,
    carries the step's fixed point v* = c_v/(1 - a) as its sqrt(3) part.  A
    loop's place is rational, fixed the same way or moving (a sqrt(3) part
    off v*, only on short periods, which the reference walks to the
    budget).  Segments run from 10^-12 to 2 long, shorter and longer than a
    loop, and the budget lies below, at or past n0 + p."""
    a = draw(st.sampled_from([2, -2, -2, 3, -3]))  # a^p < 0 can miss at p and meet at 2p
    loop = draw(st.booleans())
    slope = draw(st.sampled_from(_LOOPS)) if loop else SQRT2
    moving = loop and draw(st.booleans())
    small = st.one_of(st.integers(1, 12), st.integers(1, 64))
    q = draw(small if moving else st.one_of(small, st.sampled_from([1021, 2039, 4093]),
                                            st.integers(2**9, 2**12)))
    den = q * abs(a) ** draw(st.integers(0, 4))
    frac = st.fractions(0, 1, max_denominator=12)
    b = [qn(draw(frac)) for _ in range(2)]
    if draw(st.booleans()):
        b = [x + _SQRT3 * draw(frac) for x in b]
    tm = torus_map_new(parse_complex(str(a)), ComplexPair(*b), SQUARE)
    state = []
    for i, c in enumerate(slope.to_state(tm.b.coords())):
        x = qn(Fraction(draw(st.integers(0, den - 1)), den))
        x += QuadraticNumber(0, c.v, c.w * (1 - a), 3)  # v*, 0 when c is rational
        if i and moving:
            x += _SQRT3 * draw(frac.filter(bool))
        state.append(x.mod1())
    t0 = Fraction(draw(st.integers(-20, 20).filter(bool)), draw(st.sampled_from([10, 40, 1000])))
    length = draw(st.sampled_from([Fraction(1, 10**12), Fraction(1, 10**6), Fraction(1, 1000),
                                   Fraction(1, 40), Fraction(1, 3), Fraction(1), Fraction(2)]))
    seg = segment_new(TorusLine(slope, *state), qn(t0), qn(t0 + length))
    # the budget's draw reads the shape under test; the verdict is the reference's
    rule = line_orbit._state_rule(tm, slope, seg.line.transverse())
    n0, p = line_orbit._shape(a, line_orbit._conjugate(a, rule), 10**6, loop)
    budget = draw(st.one_of(st.integers(1, max(1, n0 + p - 1)), st.just(n0 + p),
                            st.integers(n0 + p + 1, 3 * (n0 + p) + 40)))
    return tm, seg, budget, (n0, p, moving)


def test_the_cut_periodic_sweep_matches_the_full_sweep():
    """The closed-form search, a line's classes cut at n0 + p + D and a
    loop's one class per n up to its covering arc, against the search that
    walked every state to the budget and bucketed them: the same pair, the
    same witness and the same budget."""
    seen = collections.Counter()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_parallel_case())
    def check(case):
        tm, seg, budget, (n0, p, moving) = case
        want = walked_collision(tm, seg, budget)
        assert find_collision(tm, seg, budget=budget) == want
        loop, hit = not seg.line.is_irrational, isinstance(want, CollisionCertificate)
        kind = "loop" if loop else "line"
        seen[f"{kind} {'hit' if hit else 'miss'}"] += 1
        seen["budget below n0 + p" if budget < n0 + p else "budget from n0 + p"] += 1
        seen["preperiod > 0"] += n0 > 0
        seen["period > 512"] += p > 512
        seen["fixed sqrt(3) part"] += any(x.v for x in seg.line.transverse()[: 1 + (not loop)])
        seen["moving place"] += moving
        seen["loop arc over 1 long"] += loop and (seg.t_hi - seg.t_lo).cmp(qn(1)) >= 0
        seen["hit past the cycle"] += hit and want.m > n0 + p
        cover = 0  # the first iterate whose arc covers its loop
        while ((seg.t_hi - seg.t_lo) * abs(tm.multiplier_int()) ** cover).cmp(qn(1)) < 0:
            cover += 1
        seen["loop hit at m >= L"] += hit and loop and cover <= want.m

    check()
    assert len(seen) == 13 and min(seen.values()) >= 5, seen


def test_a_periodic_miss_answers_at_any_budget(monkeypatch):
    # v/u = 3 < 4 = a^2: no two iterates of this period-1 line ever meet
    tm = _map("-2")
    seg = segment_new(_line(0, 0), qn(Fraction(1, 10)), qn(Fraction(3, 10)))
    assert segments._separation(seg.t_lo, seg.t_hi, -2) == 2
    compared, orig = [], segments.IntervalChain.meet
    monkeypatch.setattr(
        segments.IntervalChain, "meet", lambda *args: compared.append(args) or orig(*args)
    )
    assert find_collision(tm, seg, budget=10**6) == NoCollisionWithinBudget(10**6, 1)
    # n0 + period + D = 0 + 1 + 2: the six pairs of iterates 0..3, all on one
    # state, decided once per difference m - n, as iterate 0 against iterate m - n
    assert sorted(args[1:] for args in compared) == [(0, 1, False), (0, 2, False), (0, 3, False)]


# ---------------------------------------------------------------------------
# transverse walks bounded by the request
# ---------------------------------------------------------------------------


def _walked(tm, line, n):
    out = []
    for _ in range(n + 1):
        out.append(line.transverse())
        line = line_image(tm, line)
    return out


@pytest.mark.parametrize(
    "b,alpha",
    [
        ("sqrt(3)/5", Fraction(1, 5)),  # beta wanders
        ("sqrt(3)/5i", parse_number("sqrt(3)/5")),  # alpha on an irrational fixed point
        ("1/3+sqrt(3)/7i", Fraction(2, 7)),  # alpha wanders
    ],
)
def test_orbit_states_under_an_irrational_translation(b, alpha):
    tm = _map("2", b)
    line = _line(alpha, 0)
    assert orbit_states(tm, line, 9) == _walked(tm, line, 9)


def test_orbit_states_walks_no_further_than_asked(monkeypatch):
    tm = _map("2")
    line = _line(Fraction(1, 1021), 0)  # period 340
    expect = _walked(tm, line, 14)
    calls = counted_steps(monkeypatch)
    assert orbit_states(tm, line, 14) == expect
    assert len(calls) == 14
    assert all(isinstance(x, int) for p in calls for x in p)  # numerators over 1021
    # an irrational seed under an irrational translation steps integers too,
    # (u, v) per coordinate over one denominator
    tm = _map("-3", "sqrt(5)/4+1/7i")
    line = _line(parse_number("sqrt(3)/11"), parse_number("2*sqrt(5)/9"))
    expect = _walked(tm, line, 14)
    calls.clear()
    assert orbit_states(tm, line, 14) == expect
    assert len(calls) == 14
    assert all(len(p) == 4 and all(isinstance(x, int) for x in p) for p in calls)


_DISTINCT_MISSES = [
    # the collide-miss shape: a rational direction through an irrational anchor
    ("2", "0", "sqrt(2)/9,sqrt(2)/4,v,1/1000"),
    ("-2", "0", "sqrt(7)/5,sqrt(7)/7,h,1/200"),
    ("3", "0", "sqrt(5)/3,sqrt(5)/2,s:1/2,1/500"),
    # an irrational slope on a wandering line, and an irrational translation
    ("2", "1/3", "sqrt(3)/7,1/5,s:sqrt(2),1/40"),
    ("-3", "sqrt(5)/4+1/3i", "sqrt(5)/4,1/3,v,1/50"),
]


@pytest.mark.parametrize("a,b,seg", _DISTINCT_MISSES)
def test_a_miss_on_distinct_states_builds_no_interval(monkeypatch, a, b, seg):
    """Iterates on pairwise distinct states are never compared, so the search
    asks for no interval and builds no scalar per iterate: the exact values
    it builds do not grow with the budget."""
    tm, segment = _map(a, b), _parse_segment(seg)
    intervals, built = [], []
    orig = segments.IntervalChain
    monkeypatch.setattr(
        segments, "IntervalChain", lambda *args: intervals.append(args) or orig(*args)
    )
    canon = QuadraticNumber._canon.__func__
    monkeypatch.setattr(
        QuadraticNumber,
        "_canon",
        classmethod(lambda cls, *args: built.append(args) or canon(cls, *args)),
    )
    counts = []
    for budget in (4, 12):
        built.clear()
        assert find_collision(tm, segment, budget=budget) == NoCollisionWithinBudget(budget, 1)
        counts.append(len(built))
    assert intervals == []
    assert counts[0] == counts[1]


# a closed loop of period 333,334, a hit at (0, 333334), and a loop whose place
# moves, a hit at (1, 7): the search once walked every state up to the budget
_PERIOD_333334 = ["find-collision", "--a", "3", "--omega", "i",
                  "--seg", "0,1/1000003,h,1/1000000000"]
_MOVING_PLACE = ["find-collision", "--a", "3", "--omega", "i", "--seg", "sqrt(2)/3,1/7,h,1/1000"]


def _hit(budget, n, m, witness):
    return {"bound_used": None, "budget": budget, "exact": True, "k": 0, "m": m, "n": n,
            "verdict": "collision", "witness": witness}


def test_the_collision_search_walks_no_state(monkeypatch, capsys):
    """Stepping each state rule at most twice, every find-collision golden
    prints the same bytes, and the two loops above answer at budgets up to
    10^8 as they did when walked (the moving place's walk at budget 1,000 is
    the reference's)."""
    tm = torus_map_new(parse_complex("3"), parse_complex("0"), SQUARE)
    moving = walked_collision(tm, _parse_segment(_MOVING_PLACE[-1]), 1000)
    assert (moving.n, moving.m) == (1, 7)
    steps = counted_steps(monkeypatch)
    cases = [case for name in ("find_collision", "cli", "input_errors")
             for case in json.loads((ROOT / "tests" / "data" / f"{name}_golden.json").read_text())
             if case["argv"][:1] == ["find-collision"]]
    assert len(cases) == 110
    for case in cases:
        steps.clear()
        assert main(list(case["argv"])) == case["exit"], case["name"]
        assert capsys.readouterr().out == case["stdout"], case["name"]
        assert len(steps) <= 2, case["name"]
    for argv, budgets, want in (
        (_PERIOD_333334, (400000, 10**8), (0, 333334, [0.0, 9.99997000009e-07])),
        (_MOVING_PLACE, (1000, 10**6), (1, 7, list(moving.witness))),
    ):
        for budget in budgets:
            steps.clear()
            assert main([*argv, "--budget", str(budget)]) == 0
            assert json.loads(capsys.readouterr().out) == _hit(budget, *want)
            assert len(steps) <= 2


def test_a_period_333334_loop_at_budget_10_8_holds_under_20_mb(monkeypatch, capsys):
    """In process under ``tracemalloc``, stepping its state rule at most
    twice: the loop's states come in closed form, so the search holds no
    state per index (a walk of its 333,334 states took about 135 MB)."""
    steps = counted_steps(monkeypatch)
    tracemalloc.start()
    try:
        code = main([*_PERIOD_333334, "--budget", str(10**8)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(capsys.readouterr().out)["m"] == 333334
    assert peak < 20 * 2**20, peak
    assert len(steps) <= 2


# ---------------------------------------------------------------------------
# transverse pairs in the slope's field
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "slope,alpha,beta",
    [
        ("sqrt(2)", "sqrt(2)/3", "0"),
        ("sqrt(2)", "1/5", "1/3+sqrt(2)"),
        ("1+sqrt(2)", "sqrt(8)/7", "1/2"),
    ],
)
def test_a_transverse_pair_in_the_slope_field_is_refused(slope, alpha, beta):
    with pytest.raises(FieldClash):
        TorusLine(IrrationalSlope(parse_number(slope)), parse_number(alpha), parse_number(beta))


def test_a_translation_in_the_slope_field_is_refused_by_line_image():
    with pytest.raises(FieldClash):
        line_image(_map("2", "sqrt(2)/5"), _line(Fraction(1, 5), 0))


def _cli(capsys, *argv):
    code = main(list(argv))
    return code, json.loads(capsys.readouterr().out)


def test_certify_segment_refuses_a_transverse_pair_in_the_slope_field(capsys):
    # the same segment as alpha = 0, beta = 1/3, t in [-1/10, 1/10], whose
    # iterates 0 and 2 meet: a wandering certificate for it would be false
    line = ("--slope", "sqrt(2)", "--a", "2", "--omega", "i")
    code, data = _cli(capsys, "certify-segment", *line, "--alpha", "sqrt(2)/3",
                      "--beta", "0", "--t0=7/30", "--t1=13/30", "--verify-oracle")
    assert code == 2 and data["error"] == "field-clash"
    code, data = _cli(capsys, "find-collision", *line, "--alpha", "0", "--beta", "1/3",
                      "--t0=-1/10", "--t1=1/10", "--budget", "4")
    assert code == 0 and (data["n"], data["m"]) == (0, 2)


def _lift_search(tm, seg, budget):
    """The first meeting pair by m, then n, from the exact lift predicate."""
    chain = lift_chain(tm, seg, budget)
    for m in range(1, budget + 1):
        for n in range(m):
            if lift_segments_intersect_torus(tm.lattice, chain[m], chain[n]) is not None:
                return (n, m)
    return None


def test_find_collision_under_a_translation_in_the_slope_field(capsys):
    code, data = _cli(capsys, "find-collision", "--a=-2", "--omega", "i", "--b", "sqrt(2)/5",
                      "--slope", "sqrt(2)", "--alpha", "1/5", "--beta", "0",
                      "--t0=-1/10", "--t1=1/10", "--budget", "6")
    assert code == 0 and (data["n"], data["m"]) == (0, 4)
    seg = segment_new(_line(Fraction(1, 5), 0), qn(Fraction(-1, 10)), qn(Fraction(1, 10)))
    assert _lift_search(_map("-2", "sqrt(2)/5"), seg, 6) == (0, 4)


def test_find_collision_matches_the_lift_search_in_the_slope_field():
    # 144 translations sharing the slope radicand; the transverse sweep
    # answered 12 of them wrongly before it fell back to the lift chain
    hits = 0
    for a, b, alpha, (lo, hi) in itertools.product(
        ("2", "-2", "3", "-3"),
        ("sqrt(2)/5", "sqrt(2)/5i", "1/3+sqrt(2)/7i", "sqrt(2)/3+1/4i"),
        ("1/5", "2/7", "1/3"),
        (("-1/10", "1/10"), ("0", "1/20"), ("1/7", "1/4")),
    ):
        tm = _map(a, b)
        seg = segment_new(_line(Fraction(alpha), 0), parse_number(lo), parse_number(hi))
        want = _lift_search(tm, seg, 4)
        got = find_collision(tm, seg, budget=4)
        assert (
            (got.n, got.m) if isinstance(got, CollisionCertificate) else None
        ) == want, (a, b, alpha, lo, hi)
        hits += want is not None
    assert hits == 12


# ---------------------------------------------------------------------------
# rational directions: arcs of closed loops, no lattice translates
# ---------------------------------------------------------------------------


def _rational_segment(direction, x, y, length):
    line = line_from_point(slope_spec(direction), (parse_number(x), parse_number(y)))
    return segment_new(line, qn(0), qn(length))


# (1/length, budget), cycled through the cases: short arcs get the longer walks
_ARC_SIZES = ((3, 1), (7, 2), (20, 3), (50, 4), (200, 5), (10, 2), (30, 3))


def test_find_collision_matches_the_lift_search_on_rational_directions():
    # the rational anchor has periodic loop invariants; the sqrt(2) anchor
    # has a rational invariant on horizontals only, and an irrational place
    # on its loop
    hits = 0
    for i, (a, b, direction, (x, y)) in enumerate(itertools.product(
        ("2", "-2", "3", "-3"),
        ("0", "1/3", "1/2+1/5i", "sqrt(2)/5"),
        ((1, 0), (0, 1), (2, 1), (3, -1), (1, 2)),
        (("1/3", "1/2"), ("sqrt(2)/3", "1/4")),
    )):
        q, budget = _ARC_SIZES[i % len(_ARC_SIZES)]
        tm = _map(a, b)
        seg = _rational_segment(direction, x, y, Fraction(1, q))
        want = _lift_search(tm, seg, budget)
        got = find_collision(tm, seg, budget=budget)
        case = (a, b, direction, x, y, q, budget)
        assert ((got.n, got.m) if isinstance(got, CollisionCertificate) else None) == want, case
        if want is not None:
            hits += 1
            assert reverify_collision(tm, seg, got), case
    assert hits == 47


def _refuse_lifts(monkeypatch):
    def refuse(*args):
        pytest.fail("an integer-multiplier search on a rational direction built a lift")

    monkeypatch.setattr(segments, "_segment_numerators", refuse)
    monkeypatch.setattr(segments, "lift_orbit", refuse)
    monkeypatch.setattr(segments, "_float_image", refuse)
    monkeypatch.setattr(segments, "_surviving_translates", refuse)
    monkeypatch.setattr(segments, "_normalized", refuse)


@pytest.mark.parametrize("budget", [12, 40])
def test_a_rational_direction_misses_with_no_lifts(monkeypatch, budget):
    # the lift search took about 50 s at budget 12: arcs 3^12/1000 long, on
    # loops whose invariants -3^n * sqrt(2)/15 mod 1 never repeat
    _refuse_lifts(monkeypatch)
    seg = _rational_segment((2, 1), "sqrt(2)/3", "sqrt(2)/5", Fraction(1, 1000))
    assert find_collision(_map("3"), seg, budget=budget) == NoCollisionWithinBudget(budget, 1)


def test_a_rational_direction_hits_with_no_lifts(monkeypatch):
    # a = -2 keeps the horizontal loop y = 0 and fixes 1/3 on it, reversing
    # the loop, so iterate 1, the arc [1/3 - 2/7, 1/3], ends where iterate 0
    # starts
    tm = _map("-2")
    seg = _rational_segment((1, 0), "1/3", "0", Fraction(1, 7))
    _refuse_lifts(monkeypatch)
    got = find_collision(tm, seg, budget=4)
    monkeypatch.undo()
    assert got == CollisionCertificate(0, 1, 0, (1 / 3, 0.0), True, math.inf, 4)
    assert reverify_collision(tm, seg, got)


def test_mixed_radicals_on_a_rational_direction_fall_back_to_the_lift_chain(
    capsys, monkeypatch
):
    # the anchor in sqrt(2) and b in sqrt(3) share no field for the loop
    # sweep, but the lift search's two-radicand tower holds them: the miss
    # steps all 3 iterates and tests all 6 pairs (n, m), n < m <= 3
    work = _count_lift_work(monkeypatch)
    code, data = _cli(capsys, "find-collision", "--a", "2", "--b", "sqrt(3)/5", "--omega", "i",
                      "--seg", "sqrt(2)/3,1/5,h,1/10", "--budget", "3")
    assert code == 0
    assert data == {"verdict": "no-collision-within-budget", "budget": 3, "group_order": 1}
    assert (len(work["steps"]), len(work["pairs"])) == (3, 6)
    _assert_exact_lifts_meet_survivors(work)


def _count_lift_work(monkeypatch):
    """Record, from here on, every float lift image (the covering's steps
    and the group's rotations), every lift-pair test, every exact lift the
    search builds (once each, not its cached reuse) and every exact
    predicate call."""
    work = {"steps": [], "pairs": [], "exact": [], "predicates": []}

    def spy(fn, calls):
        def counted(*args):
            calls.append(args)
            return fn(*args)

        return counted

    monkeypatch.setattr(segments, "_float_image", spy(segments._float_image, work["steps"]))
    monkeypatch.setattr(
        segments, "_surviving_translates", spy(segments._surviving_translates, work["pairs"])
    )
    monkeypatch.setattr(segments, "_meet", spy(segments._meet, work["predicates"]))
    exact = segments._LiftSearch.exact

    def built(search, n, k=0):
        new = (n, k) not in search.exact_lifts
        lift = exact(search, n, k)
        if new:
            work["exact"].append(lift)
        return lift

    monkeypatch.setattr(segments._LiftSearch, "exact", built)
    return work


def _assert_exact_lifts_meet_survivors(work):
    """Every exact lift the search built went into an exact predicate, as
    the first segment or as the second, whose surviving translate (i, j) it
    decided: exact lifts are built only for iterates with a surviving
    translate."""
    for lift in work["exact"]:
        assert any(lift in (s1, s2) for _, _, s1, s2, _, _ in work["predicates"]), lift


@pytest.mark.parametrize(
    "a, group, argv_seg",
    [
        ("1+1i", None, "0.1,0.2,h,0.05"),
        ("2+1i", None, "1/3,1/7,s:sqrt(2),1/40"),
        ("2", (4, (0, 0)), "0,1/7,s:sqrt(2),1/18"),
        ("2", (3, (0, 0)), "1/5,1/9,v,1/30"),
    ],
)
def test_a_first_hit_at_m_takes_m_lift_steps(monkeypatch, a, group, argv_seg):
    # the search steps iterate m only when it reaches m, so a budget far
    # past the hit costs nothing, and it builds exact lifts only for pairs
    # whose translates survive the float filter
    omega = "1/2+sqrt(3)/2i" if group and group[0] == 3 else "i"
    tm = torus_map_new(parse_complex(a), parse_complex("0"), Lattice(parse_complex(omega)))
    seg = _parse_segment(argv_seg)
    grp = group and (group[0], point(*group[1]), rotation_matrix(tm.lattice, group[0]))
    work = _count_lift_work(monkeypatch)
    got = find_collision(tm, seg, group=grp, budget=30)
    assert isinstance(got, CollisionCertificate) and got.m < 30
    assert len([args for args in work["steps"] if args[1] == tm.m]) == got.m
    assert 0 < len(work["exact"]) <= 2 * len(work["predicates"])
    _assert_exact_lifts_meet_survivors(work)
    at_30 = {key: len(calls) for key, calls in work.items()}
    for calls in work.values():
        calls.clear()
    at_m = find_collision(tm, seg, group=grp, budget=got.m)
    assert got == replace(at_m, budget=30)
    assert {key: len(calls) for key, calls in work.items()} == at_30


# ---------------------------------------------------------------------------
# typed cross-checks under python -O
# ---------------------------------------------------------------------------


_TYPED = """
import json
from flatwander.errors import FlatwanderError
from flatwander.lattice import Lattice, point
from flatwander import line_orbit
from flatwander.lattes import LattesModel, lattes_model_new, rho_pairing
from flatwander.line_orbit import IrrationalSlope, TorusLine, bezout, classify_line
from flatwander.numbers import parse_complex, parse_number, qn
from flatwander.segments import (
    CollisionCertificate, certified_slack, reverify_collision, segment_new,
)
from flatwander import torus_map as torus_map_mod
import reference
from flatwander.numbers import ComplexPair
from flatwander.torus_map import (
    AffineTorusMap, kernel, rotation_matrix, solve_lattice_multiplier, torus_map_new,
)

assert not __debug__


def patched(module, name, value, call):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        return call()
    finally:
        setattr(module, name, old)


class Skewed(ComplexPair):
    # a lattice generator whose square comes out one too large
    __slots__ = ()

    def mul(self, other):
        re, im = ComplexPair.mul(self, other)
        return ComplexPair(re + 1, im)


lat = Lattice(parse_complex("i"))
tm = torus_map_new(parse_complex("2"), parse_complex("0"), lat)
model = lattes_model_new(lat, tm, 2, point(0, 0))
seg = segment_new(TorusLine(IrrationalSlope(parse_number("sqrt(2)")), qn(0), qn(0)), qn(0), qn(1))
# a period-4 line under a = 2, and a centre z0 = 1/3 with 2(A(z0) - z0) = 2/3
fifth = TorusLine(IrrationalSlope(parse_number("sqrt(2)")), parse_number("1/5"), qn(0))
off_centre = LattesModel(lat, tm, 2, point(parse_number("1/3"), 0), model.signature,
                         model.rotation, model.shift)
checks = {
    # [1, 4] under return multiplier 2 is not a certified interval
    "slack": lambda: certified_slack((1, 0), (4, 0), 2, 0),
    # rho about a centre the covering does not fix, on an orbit's states
    "pairing": lambda: rho_pairing(off_centre, classify_line(tm, fifth)),
    # a rotated collision without its group
    "reverify": lambda: reverify_collision(
        tm, seg, CollisionCertificate(0, 1, 1, (0.0, 0.0), True, 1.0, 1)
    ),
    # a direction that is not primitive has no Bezout pair
    "bezout": lambda: bezout(2, 4),
    # a matrix that is not multiplication by a scalar, under the order-4 rotation
    "commute": lambda: lattes_model_new(
        lat, AffineTorusMap(tm.a, tm.b, (2, 1, 0, 2), 4, lat), 4, point(0, 0)
    ),
    # a degree that is not the determinant of the matrix
    "kernel": lambda: kernel(AffineTorusMap(tm.a, tm.b, (2, 0, 0, 2), 3, lat)),
    # a closed-form period twice the true one, 4
    "shift": lambda: patched(
        line_orbit, "_shape", lambda *args: (0, 8), lambda: classify_line(tm, fifth)
    ),
    # omega^2 computed inconsistently with a*omega
    "relation": lambda: solve_lattice_multiplier(
        Lattice(Skewed(*parse_complex("i"))), parse_complex("1+1i")
    ),
    # a matrix whose determinant is not |a|^2
    "degree": lambda: patched(
        torus_map_mod, "solve_lattice_multiplier", lambda lat, a: (2, 0, 0, 3),
        lambda: torus_map_new(parse_complex("2"), parse_complex("0"), lat),
    ),
    # a real multiplier whose matrix is not scalar
    "scalar": lambda: patched(
        torus_map_mod, "solve_lattice_multiplier", lambda lat, a: (2, 1, 0, 2),
        lambda: torus_map_new(parse_complex("2"), parse_complex("0"), lat),
    ),
    # a rotation that is not unimodular
    "rotation": lambda: patched(
        torus_map_mod, "solve_lattice_multiplier", lambda lat, a: (2, 0, 0, 1),
        lambda: rotation_matrix(lat, 4),
    ),
    # a reduction that merges the four fixed points of rho (the grid's
    # reference construction)
    "grid": lambda: patched(
        reference, "reduce_to_fundamental", lambda p: model.z0,
        lambda: reference.half_lattice_q(lat),
    ),
}
out = {}
for name, check in checks.items():
    try:
        check()
        out[name] = None
    except (FlatwanderError, ValueError) as exc:
        out[name] = [type(exc).__name__, str(exc)]
print(json.dumps(out))
"""


def test_cross_checks_raise_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _TYPED],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(ROOT / "tests"),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "slack": ["InternalInconsistency", "certified slack 1/2 is not above 1"],
        "pairing": ["InternalInconsistency",
                    "rho does not commute with the covering on the orbit's states"],
        "reverify": ["ValueError", "a rotated collision needs its group to re-verify"],
        "bezout": ["InternalInconsistency", "no Bezout pair for the direction (2, 4)"],
        "commute": ["InternalInconsistency", "the covering does not commute with the rotation"],
        "kernel": ["InternalInconsistency", "the kernel has 9 points, not the degree 3"],
        "shift": ["InternalInconsistency",
                  "the closed-form period disagrees with the orbit's states"],
        "relation": ["InternalInconsistency", "lattice relation violated"],
        "degree": ["InternalInconsistency", "degree 6 is not |a|^2 = 4"],
        "scalar": ["InternalInconsistency", "a real multiplier has the matrix (2, 1, 0, 2)"],
        "rotation": ["InternalInconsistency", "the order-4 rotation has determinant 2"],
        "grid": ["InternalInconsistency", "1 fixed points of rho, not 4"],
    }
