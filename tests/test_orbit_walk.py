"""The transverse orbit is walked once and indexed everywhere else: state
indexing, the integer orbit and rho on numerators against stepping in
QuadraticNumbers, quadratic states walked as integers against the same steps
and refusals, call counts of the walk, the sweep's classes and the bucketed
reference sweep against the pairwise reference, the one-step miss against
the walked search, and the typed cross-check under ``python -O``."""

import collections
import json
import math
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from flatwander import lattes, line_orbit, numbers, segments
from flatwander.errors import FieldClash, MixedRadicals, SlopeNotInvariant
from flatwander.lattice import Lattice, point
from flatwander.lattes import (
    Paired,
    SelfPaired,
    Unpaired,
    certify_sphere_wandering,
    lattes_model_new,
    rho_numerators,
    rho_pairing,
)
from flatwander.line_orbit import (
    EventuallyPeriodic,
    IrrationalSlope,
    TorusLine,
    classify_line,
    line_from_point,
    slope_spec,
)
from flatwander.numbers import QuadraticNumber, parse_complex, parse_number, qn
from flatwander.segments import (
    CollisionCertificate,
    IntervalChain,
    NoCollisionWithinBudget,
    WanderingCertificate,
    certify_wandering,
    find_collision,
    first_overlap,
    segment_new,
)
from flatwander.torus_map import torus_map_new
from child_env import child_env
from reference import (
    _arcs_meet,
    _on_arc,
    _overlap,
    _state_step,
    as_fraction,
    bucketed_first_overlap,
    counted_steps,
    folded,
    frame_state,
    interval_chain,
    iterate_map,
    line_image,
    orbit_states,
    pair_classes,
    replace,
    rho_transverse,
    walked_collision,
    walked_orbit,
    walked_states,
)

ROOT = Path(__file__).resolve().parent.parent
SQUARE = Lattice(parse_complex("i"))
SQRT2 = IrrationalSlope(parse_number("sqrt(2)"))


def _map(a, b="0"):
    return torus_map_new(parse_complex(a), parse_complex(b), SQUARE)


def _line(alpha, beta):
    return TorusLine(SQRT2, qn(alpha).mod1(), qn(beta).mod1())


def _walked(tm, line, n):
    """States 0..n by ``line_image``, n steps."""
    out = [line.transverse()]
    for _ in range(n):
        line = line_image(tm, line)
        out.append(line.transverse())
    return out


def _count_calls(monkeypatch, name):
    """Count calls of a line_orbit function through every flatwander
    namespace that binds it."""
    calls = []
    orig = getattr(line_orbit, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in (line_orbit, segments, lattes):
        if getattr(mod, name, None) is orig:
            monkeypatch.setattr(mod, name, counted)
    return calls


# ---------------------------------------------------------------------------
# one representation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,alpha,beta",
    [
        ("2", "0", Fraction(1, 5), 0),
        ("-2", "0", Fraction(1, 7), Fraction(1, 3)),
        ("3", "0", Fraction(1, 12), Fraction(5, 18)),
        ("2", "1/3+1/4i", Fraction(1, 12), Fraction(5, 6)),
    ],
)
def test_state_indexes_the_walked_orbit(a, b, alpha, beta):
    tm = _map(a, b)
    line = _line(alpha, beta)
    verdict = classify_line(tm, line)
    assert isinstance(verdict, EventuallyPeriodic)
    assert len(verdict.states) == verdict.preperiod + verdict.period
    walked = walked_states(verdict)
    assert list(verdict.states) == list(walked)
    assert verdict.states[verdict.preperiod :] == list(walked[verdict.preperiod :])
    n = 3 * (verdict.preperiod + verdict.period) + 5
    walked = _walked(tm, line, n)
    assert [verdict.num.value(verdict.state_ints(i)) for i in range(n + 1)] == walked
    assert orbit_states(tm, line, n) == walked


def test_orbit_states_walks_a_wandering_line(monkeypatch):
    tm = _map("3")
    line = _line(parse_number("sqrt(3)-1"), Fraction(1, 4))
    expect = _walked(tm, line, 9)
    calls = counted_steps(monkeypatch)
    assert orbit_states(tm, line, 9) == expect
    assert len(calls) == 9
    assert all(isinstance(x, int) for p in calls for x in p)  # (u, v) per coordinate
    assert len(set(expect)) == 10


def test_orbit_states_refuses_a_rational_direction_under_a_non_real_multiplier():
    line = line_from_point(slope_spec((1, 2)), (qn(Fraction(1, 5)), qn(0)))
    with pytest.raises(SlopeNotInvariant):
        orbit_states(_map("1+1i"), line, 4)


@pytest.mark.parametrize("a,b", [("2", "0"), ("-2", "1/3+1/7i"), ("-3", "sqrt(2)/5")])
def test_orbit_states_of_a_rational_direction_stay_in_the_seed_frame(a, b):
    # direction (1, 2): invariant 2x - y, arc coordinate x (u, v = 1, 0)
    tm = _map(a, b)
    anchor = point(Fraction(1, 5), parse_number("sqrt(2)/7"))
    line = line_from_point(slope_spec((1, 2)), anchor.coords())
    expect = []
    for n in range(8):
        x, y = iterate_map(tm, anchor, n).coords()
        expect.append(((x * 2 - y).mod1(), x))
    assert orbit_states(tm, line, 7) == expect
    # a negative multiplier reverses the direction, which is the same line
    # set: the image keeps the seed's slope, and so its frame
    img = line_image(tm, line)
    assert img.slope == line.slope and img.transverse() == expect[1]


# ---------------------------------------------------------------------------
# quadratic states walk as integers
# ---------------------------------------------------------------------------

# slope radicand 7 stays clear of the states' fields; three rational
# directions, with frames (0, -1, 1, 0), (2, -1, 1, 0) and (-3, -2, 1, 1)
_WALK_SLOPES = [IrrationalSlope(parse_number("(1+sqrt(7))/2"))] + [
    slope_spec(d) for d in ((1, 0), (1, 2), (2, -3))
]


def _walk_outcome(walk):
    try:
        return walk()
    except (MixedRadicals, FieldClash) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def _quadratic_walk(draw):
    """An integer covering and a line whose seed, or whose translation's
    state c = to_state(b), has an irrational coordinate.  a is drawn from
    {2, -2, 3, -3}, the slope from both kinds, and each coordinate of the
    seed and of c from Q or Q(sqrt d), d in {2, 3, 5}, independently; in some
    draws c cancels a seed coordinate's irrational part at the first step."""
    a = draw(st.sampled_from([2, -2, 3, -3]))
    slope = draw(st.sampled_from(_WALK_SLOPES))

    def number():
        x = qn(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))))
        d = draw(st.sampled_from([0, 2, 3, 5]))
        if d:
            x += QuadraticNumber.sqrt_int(d) * Fraction(
                draw(st.integers(-9, 9).filter(bool)), draw(st.integers(1, 9))
            )
        return x

    seed = (number().mod1(), number().mod1())
    c = [number(), number()]
    for i, s in enumerate(seed):
        if s.v and draw(st.booleans()):
            c[i] = qn(c[i].floor()) - QuadraticNumber(0, s.v, s.w, s.d) * a
    try:
        b = point(*slope.from_state(c))
    except MixedRadicals:
        reject()  # this frame's b would mix c's two fields in one coordinate
    tm = replace(_map(str(a)), b=b)
    if (tm.b.x.d or tm.b.y.d) and not any(x.v for x in (*seed, *c)):
        reject()
    return tm, TorusLine(slope, *seed), draw(st.integers(0, 12))


def test_quadratic_orbit_states_match_the_line_image_walk():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_quadratic_walk())
    def check(case):
        tm, line, n = case
        got = _walk_outcome(lambda: orbit_states(tm, line, n))
        assert got == _walk_outcome(lambda: _walked(tm, line, n))
        # a refusal comes at the first step, not before it
        assert orbit_states(tm, line, 0) == [line.transverse()]
        if isinstance(got, tuple):
            seen.add(got[0])
            return
        seen.add("walked")
        if any(s[i].v and not t[i].v for s, t in zip(got, got[1:]) for i in (0, 1)):
            seen.add("cancelled")

    check()
    assert seen == {"walked", "cancelled", "MixedRadicals"}, seen


_REFUSALS = {
    # irrational slope: (alpha, beta) with c = (-b_y, b_x); refused at the
    # first step, in the first coordinate that mixes two fields
    "alpha": (SQRT2, ("sqrt(3)/7", "1/5"), "sqrt(5)/9i", MixedRadicals, 1),
    "beta": (SQRT2, ("1/7", "sqrt(3)/5"), "sqrt(5)/9", MixedRadicals, 1),
    "both": (SQRT2, ("sqrt(3)/7", "sqrt(5)/6"), "sqrt(3)/9+sqrt(5)/4i", MixedRadicals, 1),
    # direction (1, 2): (2x - y, x)
    "invariant": (slope_spec((1, 2)), ("sqrt(2)/3", "1/7"), "sqrt(3)/5", MixedRadicals, 1),
    # refused with the rule, before any step: c in the slope's field, and a
    # c that mixes b's two fields
    "b-in-slope-field": (SQRT2, ("1/7", "sqrt(3)/5"), "sqrt(2)/5", FieldClash, 0),
    "b-on-loop": (slope_spec((1, 2)), ("1/3", "1/7"), "sqrt(2)/5+sqrt(3)/5i", MixedRadicals, 0),
}


@pytest.mark.parametrize("case", _REFUSALS.values(), ids=_REFUSALS)
def test_the_integer_walk_refuses_as_the_quadratic_step(case):
    slope, seed, b, error, first_refused = case
    tm = _map("3", b)
    line = TorusLine(slope, *(parse_number(x).mod1() for x in seed))
    with pytest.raises(error) as want:
        _state_step(tm, slope)(line.transverse())
    for n in (first_refused, 5):
        with pytest.raises(error) as got:
            orbit_states(tm, line, n)
        assert str(got.value) == str(want.value)
    if first_refused:
        assert orbit_states(tm, line, 0) == [line.transverse()]


def _reference_orbit(tm, line):
    """Preperiod and the distinct states of the orbit, stepped by
    ``line_image`` in QuadraticNumbers up to the first repeat."""
    states = []
    while line.transverse() not in states:
        states.append(line.transverse())
        line = line_image(tm, line)
    return states.index(line.transverse()), states


def _reference_pairing(model, cycle):
    """The sphere-level pairing of a transverse cycle, by comparing every
    index shift of rho's image with the cycle."""
    p, images = len(cycle), [rho_transverse(model, s) for s in cycle]
    shifts = [c for c in range(p) if all(images[j] == cycle[(j + c) % p] for j in range(p))]
    if not shifts:
        assert not set(images) & set(cycle)
        return Unpaired(p)
    if shifts[0] == 0:
        return SelfPaired(p)
    return Paired(p // 2)


@st.composite
def _rational_orbit(draw):
    """A rational line, a rational b and a rotation centre z0 of the order-2
    quotient: 2(a - 1)*z0 + 2b lies in the lattice, so z0 = (mu/2 - b)/(a - 1)
    for mu in Z^2, and 2*z0 need not lie on the orbit's grid."""
    a = draw(st.sampled_from([2, -2, 3, -3]))
    q = draw(st.integers(1, 40))
    alpha, beta = (Fraction(draw(st.integers(0, q - 1)), q) for _ in range(2))
    bx, by = (Fraction(draw(st.integers(0, 11)), draw(st.integers(1, 12))) for _ in range(2))
    mu = [draw(st.integers(0, 2 * abs(a - 1) - 1)) for _ in range(2)]
    tm = _map(str(a), f"{bx}+{by}i")
    z0 = point((Fraction(mu[0], 2) - bx) / (a - 1), (Fraction(mu[1], 2) - by) / (a - 1))
    return tm, _line(alpha, beta), lattes_model_new(SQUARE, tm, 2, z0)


@settings(max_examples=300, deadline=None)
@given(_rational_orbit())
def test_integer_orbit_matches_the_quadratic_walk(case):
    tm, line, model = case
    n0, reference = _reference_orbit(tm, line)
    verdict = classify_line(tm, line)
    assert (verdict.preperiod, verdict.period) == (n0, len(reference) - n0)
    assert [verdict.num.value(verdict.state_ints(i)) for i in range(len(reference))] == reference
    assert verdict.num.value(verdict.state_ints(len(reference))) == reference[n0]
    # rho on numerators is rho_transverse on the grid, and None off it
    rho = rho_numerators(model, verdict)
    for i, p in enumerate(verdict.states):
        image, expect = rho(p), rho_transverse(model, reference[i])
        on_grid = all((x * verdict.num.den).is_integer for x in expect)
        assert (image is not None) == on_grid
        assert image is None or verdict.num.value(image) == expect
    assert rho_pairing(model, verdict) == _reference_pairing(model, reference[n0:])


# ---------------------------------------------------------------------------
# one walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("check_iterates", [0, 3, 12, 40])
@pytest.mark.parametrize(
    "a,alpha,beta",
    [
        ("2", Fraction(1, 5), 0),
        ("-2", Fraction(1, 3), 0),
        ("3", Fraction(1, 101), Fraction(2, 7)),
    ],
)
def test_certify_wandering_walks_a_periodic_orbit_once(
    monkeypatch, a, alpha, beta, check_iterates
):
    tm = _map(a)
    seg = segment_new(_line(alpha, beta), qn(0), qn(Fraction(1, 10)))
    calls = counted_steps(monkeypatch)
    cert = certify_wandering(tm, seg, check_iterates)
    assert isinstance(cert, WanderingCertificate) and cert.mode == "subsegment"
    # one step from the zero state reads c for the closed-form period; the
    # sweep classes its pairs from the preperiod and period, with no walk
    assert len(calls) == 1


@pytest.mark.parametrize(
    "a,alpha,beta,t0",
    [
        ("2", Fraction(1, 5), 0, 0),  # paired
        ("-2", 0, 0, Fraction(1, 100)),  # self-paired
        ("2", Fraction(1, 7), Fraction(1, 3), 0),  # unpaired
        ("2", parse_number("sqrt(3)-1"), 0, 0),  # wandering
    ],
)
def test_certify_sphere_wandering_classifies_once(monkeypatch, a, alpha, beta, t0):
    model = lattes_model_new(SQUARE, _map(a), 2, point(0, 0))
    seg = segment_new(_line(alpha, beta), qn(t0), qn(Fraction(1, 10)))
    calls = _count_calls(monkeypatch, "classify_line")
    assert isinstance(certify_sphere_wandering(model, seg), WanderingCertificate)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "a,alpha,beta,t0",
    [
        ("2", Fraction(1, 5), 0, 0),  # paired
        ("-2", 0, 0, Fraction(1, 100)),  # self-paired
        ("2", Fraction(1, 7), Fraction(1, 3), 0),  # unpaired
    ],
)
def test_a_periodic_sphere_case_builds_rho_on_numerators_once(monkeypatch, a, alpha, beta, t0):
    model = lattes_model_new(SQUARE, _map(a), 2, point(0, 0))
    seg = segment_new(_line(alpha, beta), qn(t0), qn(Fraction(1, 10)))
    built, orig = [], lattes.rho_numerators

    def counted(*args):
        built.append(args)
        return orig(*args)

    monkeypatch.setattr(lattes, "rho_numerators", counted)
    assert isinstance(certify_sphere_wandering(model, seg), WanderingCertificate)
    assert len(built) == 1


@pytest.mark.parametrize(
    "a,alpha,beta,t0,sphere",
    [
        ("2", Fraction(1, 5), 0, 0, False),
        ("-2", Fraction(1, 3), 0, 0, False),
        ("3", Fraction(1, 101), Fraction(2, 7), 0, False),
        ("2", Fraction(1, 5), 0, 0, True),  # paired
        ("-2", 0, 0, Fraction(1, 100), True),  # self-paired
        ("2", Fraction(1, 7), Fraction(1, 3), 0, True),  # unpaired
    ],
)
def test_the_certify_sweep_builds_no_scalar_per_iterate(monkeypatch, a, alpha, beta, t0, sphere):
    """The sweep compares integer intervals: the QuadraticNumbers a periodic
    certificate builds (interval, slack, witnesses) do not grow with the
    iterates it checks.  The sphere's oracle replay, which steps states in
    QuadraticNumbers, is stubbed out."""
    built = []
    exact = numbers._exact
    monkeypatch.setattr(numbers, "_exact", lambda *args: built.append(args) or exact(*args))
    monkeypatch.setattr(lattes, "verify_sphere_disjoint_iterates", lambda *args: (True, None))
    seg = segment_new(_line(alpha, beta), qn(t0), qn(Fraction(1, 10)))
    counts = []
    for check in (12, 200):
        model = lattes_model_new(SQUARE, _map(a), 2, point(0, 0))  # rho(0) built anew
        built.clear()
        if sphere:
            cert = certify_sphere_wandering(model, seg, check)
        else:
            cert = certify_wandering(model.map, seg, check)
        assert isinstance(cert, WanderingCertificate) and cert.mode == "subsegment"
        counts.append(len(built))
    assert counts[0] == counts[1]


_PERIOD_1 = ["--a", "3", "--omega", "i", "--slope", "sqrt(2)", "--alpha", "0", "--beta", "0",
             "--t0", "1/10", "--t1", "1/5"]


def test_the_sphere_sweep_of_a_period_1_line_is_linear_in_its_horizon(monkeypatch, capsys):
    """A work guard, not a clock: every line of Python that ``first_overlap``
    runs, in its own frames and in those it calls, is counted by
    ``sys.settrace``.  At 1,024 checked iterates on a period-1 line, every
    pair of iterates shares the one state, and a scan of each earlier
    iterate on m's state would visit 1,049,600 pairs (plain and reflected);
    one comparison per difference m - n and reflection takes 2,048.  The
    oracle's replay, O(k^2) pairs by design, is stubbed out."""
    from flatwander.cli import main

    bound, lines = 128 * 1025, [0]

    def tracer(frame, event, arg):
        if event == "line":
            lines[0] += 1
            if lines[0] > bound:
                raise AssertionError(f"first_overlap ran more than {bound} lines")
        return tracer

    real = segments.first_overlap

    def traced(*args):
        before = sys.gettrace()
        sys.settrace(tracer)
        try:
            return real(*args)
        finally:
            sys.settrace(before)

    monkeypatch.setattr(segments, "first_overlap", traced)
    monkeypatch.setattr(lattes, "verify_sphere_disjoint_iterates", lambda *args: (True, None))
    argv = ["certify-sphere", *_PERIOD_1, "--nu", "2", "--check-iterates", "1024"]
    assert main(argv) == 0
    cert = json.loads(capsys.readouterr().out)
    assert (cert["period"], cert["checked_iterates"]) == (1, 1024)
    assert 2048 < lines[0] <= bound


# ---------------------------------------------------------------------------
# one sweep
# ---------------------------------------------------------------------------


def _meets(i1, i2) -> bool:
    if not all(x.is_rational for x in (*i1, *i2)):
        return _overlap(i1, i2)
    lo1, hi1 = map(as_fraction, i1)
    lo2, hi2 = map(as_fraction, i2)
    return lo2 <= hi1 and lo1 <= hi2


def pairwise_first_overlap(states, intervals, rho_states, meet=_meets):
    """The O(k^2) reference: every pair n < m, ordered by m and then by n."""
    for m in range(len(states)):
        for n in range(m):
            if states[n] == states[m] and meet(intervals[n], intervals[m]):
                return (n, m)
            if rho_states is None or rho_states[m] != states[n]:
                continue
            if meet(intervals[n], (-intervals[m][1], -intervals[m][0])):
                return (n, m)
    return None


def _chain_of(intervals, loop=None):
    """An ``IntervalChain`` whose iterates have these parameter intervals (on
    a loop, these arcs), as drawn rather than stepped: its spans set over one
    denominator, and on a loop no arc taken to cover it."""
    chain = IntervalChain(qn(0), qn(1), 2, loop)
    den = math.lcm(chain.den, *(x.w for iv in intervals for x in iv))
    if loop is not None:
        chain.cover = math.inf
    chain.den, chain.d = den, chain.d or max(x.d for iv in intervals for x in iv)
    chain.spans = {
        n: tuple(c for x in iv for c in (x.u * (den // x.w), x.v * (den // x.w)))
        for n, iv in enumerate(intervals)
    }
    return chain


_fraction = st.fractions(min_value=-2, max_value=2, max_denominator=40)
_SQRT = {d: QuadraticNumber.sqrt_int(d) for d in (2, 3, 5)}


def _endpoint(draw, d):
    """A rational endpoint, or one with a sqrt(d) part when d > 0."""
    x = qn(draw(_fraction))
    return x + _SQRT[d] * draw(_fraction) if d and draw(st.booleans()) else x


@st.composite
def _sweep_case(draw):
    a = draw(st.sampled_from([2, -2, 3, -3]))
    q = draw(st.integers(1, 60))
    alpha = Fraction(draw(st.integers(0, q - 1)), q)
    beta = Fraction(draw(st.integers(0, q - 1)), q)
    n = draw(st.integers(0, 24))
    tm = _map(str(a))
    loop = draw(st.booleans())
    if loop:
        # a rational direction through an anchor with a sqrt(3) place: arcs
        # of the closed loops, keyed by the invariant
        anchor = (qn(alpha) + _SQRT[3] * draw(_fraction), qn(beta))
        line = line_from_point(slope_spec((1, draw(st.integers(-2, 2)))), anchor)
        nums, num = walked_orbit(tm, line, n)
        states = [p[:2] for p in nums]
    else:
        states = orbit_states(tm, _line(alpha, beta), n)
    d = 0 if loop else 2  # a loop's parameters are rational
    drawn = draw(st.booleans())
    if not drawn:
        u = draw(st.fractions(Fraction(1, 64), 1, max_denominator=64))
        ratio = st.fractions(Fraction(65, 64), abs(a) ** 2, max_denominator=64)
        # v = u*|a| or u*a^2: iterates touch themselves or their reflections
        v = u * draw(st.one_of(ratio, st.sampled_from([abs(a), a * a])))
        u, v = qn(u), qn(v)
        if d and draw(st.booleans()):
            u, v = u * _SQRT[d], v * _SQRT[d]
        if draw(st.booleans()):
            u, v = -v, -u
        intervals = interval_chain(u, v, a, n)
    else:
        intervals = []
        for _ in range(n + 1):
            lo, hi = _endpoint(draw, d), _endpoint(draw, d)
            intervals.append((lo, hi) if lo.cmp(hi) <= 0 else (hi, lo))
    for _ in range(draw(st.integers(0, 2))):  # deliberate overlaps and touches
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
        lo, hi = intervals[i]
        intervals[j] = draw(st.sampled_from([(lo, hi), (-hi, -lo), (hi, hi * 2 - lo)]))
        drawn = True
    walk = (num, nums.__getitem__) if loop else None
    rho_states = None
    if not loop and draw(st.booleans()):
        model = lattes_model_new(SQUARE, tm, 2, point(0, 0))
        rho_states = [rho_transverse(model, s) for s in states]
    if loop:
        places = [num.value(p)[1] for p in nums]
        intervals = [(c + lo, c + hi) for c, (lo, hi) in zip(places, intervals)]
    chain = partial(_chain_of, intervals, walk) if drawn else partial(IntervalChain, u, v, a, walk)
    # the sweep reads a line's intervals as a^n*I (it compares each difference
    # m - n once), so drawn ones test it only on loops, whose arcs it takes per pair
    return states, intervals, rho_states, chain, _arcs_meet if loop else _meets, loop or not drawn


@settings(max_examples=300, deadline=None)
@given(_sweep_case())
def test_bucketed_sweep_matches_pairwise_reference(case):
    """The reference sweep that buckets iterates by state, against every
    pair compared; then ``IntervalChain``'s spans, arcs and comparisons."""
    states, intervals, rho_states, chain, meet, scaled = case
    if scaled:
        assert bucketed_first_overlap(states, chain, rho_states) == pairwise_first_overlap(
            states, intervals, rho_states, meet
        )
    # every integer interval, arc and reflection against its QuadraticNumber
    # reference, with arcs placed anywhere in [0, 1), so that they wrap past 1;
    # a loop's arc is its start mod 1 and its length, cut to 1
    ivs = chain()
    for i in range(len(states)):
        lo, hi = ivs.value(i)
        if meet is _arcs_meet:
            length = intervals[i][1] - intervals[i][0]
            assert i < ivs.cover or length.cmp(qn(1)) >= 0
            assert (lo - intervals[i][0]).mod1().is_zero
            assert hi - lo == (length if i < ivs.cover else qn(1))
        else:
            assert (lo, hi) == intervals[i]
        for j in range(len(states)):
            assert ivs.meet(i, j) == meet(intervals[i], intervals[j])
            if meet is _arcs_meet:  # the test that picks an arc witness
                on = ivs._on_arc(ivs.span(i), ivs.span(j))
                assert on == _on_arc(intervals[i], intervals[j][0])
            else:
                lo, hi = intervals[j]
                assert ivs.meet(i, j, reflect=True) == meet(intervals[i], (-hi, -lo))


@st.composite
def _memo_case(draw):
    """Iterates of one interval [u, v] under t -> a*t on states drawn from a
    few, so that states repeat at many differences m - n, with or without
    rho-states drawn from the same few; the ratio v/u sits near |a| and a^2,
    where iterates touch themselves or their reflections."""
    a = draw(st.sampled_from([2, -2, 3, -3]))
    n = draw(st.integers(0, 30))
    states = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
    rho_states = None
    if draw(st.booleans()):
        rho_states = draw(st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1))
    return (states, rho_states, *_expanding_interval(draw, a), a)


def _expanding_interval(draw, a):
    """[u, v] with v/u near |a| and a^2, in Q or Q(sqrt 2), either side of 0."""
    u = draw(st.fractions(Fraction(1, 64), 1, max_denominator=64))
    ratio = st.fractions(Fraction(65, 64), a * a + 1, max_denominator=64)
    v = u * draw(st.one_of(ratio, st.sampled_from([abs(a), a * a])))
    u, v = qn(u), qn(v)
    if draw(st.booleans()):
        u, v = u * QuadraticNumber.sqrt_int(2), v * QuadraticNumber.sqrt_int(2)
    if draw(st.booleans()):
        u, v = -v, -u
    return u, v


def _counted_sweep(states, rho_states, u, v, a):
    """A sweep on [u, v]'s chain, and the comparisons it made: on a walked
    orbit, (labels, n0, top), ``first_overlap`` on the classes
    ``pair_classes`` finds on its states and their reflections; on drawn
    states, the bucketed reference."""
    calls = []

    class Counted(IntervalChain):
        def meet(self, n, m, reflect=False):
            calls.append((n, m, reflect))
            return super().meet(n, m, reflect)

    chain = partial(Counted, u, v, a)
    if isinstance(states, tuple):
        return first_overlap(pair_classes(*states, rho_states), chain), calls
    return bucketed_first_overlap(states, chain, rho_states), calls


@settings(max_examples=500, deadline=None)
@given(_memo_case())
def test_the_sweep_decides_each_difference_once_as_the_pairwise_reference(case):
    states, rho_states, u, v, a = case
    got, calls = _counted_sweep(states, rho_states, u, v, a)
    intervals = interval_chain(u, v, a, len(states) - 1)
    assert got == pairwise_first_overlap(states, intervals, rho_states)
    # each (m - n, reflect) once, as iterate 0 against iterate m - n
    assert all(n == 0 for n, _, _ in calls) and len(set(calls)) == len(calls)


@st.composite
def _folded_case(draw):
    """A walked orbit as labels (states, n0, top): preperiod 0 to 6, period 1 to
    48 (often 1 to 4), and a horizon up to 300 (at most 12 periods past the
    preperiod), with or without rho-states: an index shift of the cycle (by
    half the period, by 0, or by any), a cycle reflected off the orbit or
    onto the preperiod, or images drawn anywhere; preperiod states reflect
    onto preperiod states, off the orbit or nowhere (None), or, with images
    drawn anywhere, onto the cycle.  The interval's far end is stretched by
    up to |a|^8, and one interval in ten holds 0."""
    n0, p = draw(st.integers(0, 6)), draw(st.one_of(st.integers(1, 4), st.integers(1, 48)))
    top = draw(st.integers(0, min(300, n0 + 12 * p)))
    states, rho_states = (tuple(range(n0 + p)), n0, top), None
    modes = ["none", "paired", "self-paired", "shift", "unpaired", "onto the preperiod", "any"]
    mode = draw(st.sampled_from(modes))
    if mode != "none":
        shift = {"paired": p // 2, "self-paired": 0}.get(mode)
        shift = draw(st.integers(0, p - 1)) if shift is None else shift
        off = st.sampled_from([None, n0 + p])  # no state, or one off the orbit
        pre = off if not n0 else st.one_of(off, st.integers(0, n0 - 1))
        anywhere = st.one_of(off, st.integers(0, n0 + p - 1))
        images = [draw(anywhere if mode == "any" else pre) for _ in range(n0)]
        for r in range(p):
            image = {"unpaired": off, "onto the preperiod": pre, "any": anywhere}.get(mode)
            images.append(n0 + (r + shift) % p if image is None else draw(image))
        rho_states = tuple(images)
    a = draw(st.sampled_from([2, -2, 3, -3]))
    u, v = _expanding_interval(draw, a)
    stretch = abs(a) ** draw(st.integers(0, 8))  # the far end out by |a|^e: hits up to m - n = e
    u, v = (u, v * stretch) if u.sign() > 0 else (u * stretch, v)
    if draw(st.integers(0, 9)) == 0:  # 0 inside: every candidate meets
        u, v = (-u, v) if u.sign() > 0 else (u, -v)
    return states, rho_states, u, v, a


def test_a_cycle_reflected_onto_the_preperiod_meets_it_later():
    """Iterate m >= 2 of a period-1 cycle after two preperiod states is
    reflected onto iterate 0's state.  Under a = -2, -a^m*[1, 10] misses
    [1, 10] at m = 2 and meets it at m = 3, before the plain pair (2, 4)."""
    states, rho_states = ((0, 1, 2), 2, 6), (None, None, 0)
    u, v = qn(1), qn(10)
    got, _ = _counted_sweep(states, rho_states, u, v, -2)
    assert got == (0, 3)
    assert got == pairwise_first_overlap(folded(*states), interval_chain(u, v, -2, 6),
                                         folded(rho_states, 2, 6))


@pytest.mark.parametrize("shift", [0, 1, 2, 3])
def test_a_shifted_cycle_meets_its_reflection_first_from_its_least_state(shift):
    """rho shifts a period-4 cycle after one preperiod state by ``shift``;
    with 0 inside [u, v] every candidate meets, so the first pair is the
    class's first, from the least state rho reflects onto: (1, 3) for a
    shift of 2, before the plain pair (1, 5)."""
    states = ((0, 1, 2, 3, 4), 1, 12)
    rho_states = (None, *(1 + (r + shift) % 4 for r in range(4)))
    u, v = qn(-1), qn(2)
    got, _ = _counted_sweep(states, rho_states, u, v, 2)
    assert got == pairwise_first_overlap(folded(*states), interval_chain(u, v, 2, 12),
                                         folded(rho_states, 1, 12))
    assert shift != 2 or got == (1, 3)


def test_the_folded_schedule_matches_the_pairwise_reference():
    """On a folded orbit ``first_overlap`` scans each class of differences
    once: the same first pair as every pair compared, and still each
    (m - n, reflect) decided once, as iterate 0 against iterate m - n."""
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_folded_case())
    def check(case):
        states, rho_states, u, v, a = case
        got, calls = _counted_sweep(states, rho_states, u, v, a)
        _, n0, top = states
        intervals = interval_chain(u, v, a, top)
        rho = None if rho_states is None else folded(rho_states, n0, top)
        assert got == pairwise_first_overlap(folded(*states), intervals, rho)
        assert all(n == 0 for n, _, _ in calls) and len(set(calls)) == len(calls)
        if got is None:
            seen["miss"] += 1
        else:
            plain = got == pairwise_first_overlap(folded(*states), intervals, None)
            seen["plain hit" if plain else "reflected hit"] += 1
            seen["hit on a preperiod state"] += got[0] < n0
            seen["hit at m - n >= 3"] += got[1] - got[0] >= 3

    check()
    assert min(seen.values()) >= 10 and len(seen) == 5, seen


def test_the_memo_cases_hit_plain_and_reflected_pairs():
    seen = collections.Counter()

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(_memo_case())
    def draw(case):
        states, rho_states, u, v, a = case
        intervals = interval_chain(u, v, a, len(states) - 1)
        pair = pairwise_first_overlap(states, intervals, rho_states)
        if pair is None:
            seen["miss"] += 1
        else:
            plain = pair == pairwise_first_overlap(states, intervals, None)
            seen["plain hit" if plain else "reflected hit"] += 1
            seen["hit past difference 1"] += pair[1] - pair[0] > 1

    draw()
    assert min(seen.values()) >= 20, seen


_INJECT = """
import sys
from flatwander import segments
from flatwander.cli import main

assert not __debug__
real = segments.IntervalChain.span

def overlapping(chain, n):
    # iterate 4 shares iterate 0's line on a period-4 cycle
    return real(chain, 0 if n == 4 else n)

segments.IntervalChain.span = overlapping
sys.exit(main(["certify-segment", "--a", "2", "--omega", "i", "--slope", "sqrt(2)",
               "--alpha", "1/5", "--beta", "0"]))
"""


def test_overlap_raises_under_optimize():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _INJECT],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    assert proc.returncode == 4, proc.stderr
    assert json.loads(proc.stdout) == {
        "error": "internal-inconsistency",
        "message": "certified iterates 0, 4 overlap",
    }


@pytest.mark.parametrize("a", ["2", "-3"])
@pytest.mark.parametrize("slope", [(1, 0), (2, -3), "sqrt(2)", "-1/3+sqrt(5)/7"])
def test_a_zero_translation_is_the_zero_state(a, slope):
    # b = 0 skips to_state's products: the same a and c, field for field
    tm = torus_map_new(parse_complex(a), parse_complex("0"), Lattice(parse_complex("i")))
    spec = slope_spec(slope if isinstance(slope, tuple) else parse_number(slope))
    got_a, got_c = line_orbit._translation_state(tm, spec)
    want = spec.to_state(tm.b.coords())
    assert got_a == int(a)
    assert [(x.u, x.v, x.w, x.d) for x in got_c] == [(x.u, x.v, x.w, x.d) for x in want]


def test_the_state_of_a_point_is_its_frame_products():
    """``to_state`` on numerators against the frame's products in
    QuadraticNumbers: the same state, or the same ``MixedRadicals``."""
    seen = set()
    slopes = [*_WALK_SLOPES, SQRT2, slope_spec((0, 1)), slope_spec((3, 5))]
    frac = st.fractions(-3, 3, max_denominator=30)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(slopes), st.lists(st.tuples(frac, st.sampled_from([0, 2, 3, 5]), frac),
                                             min_size=2, max_size=2))
    def check(slope, coords):
        p = tuple(qn(x) + _SQRT[d] * y if d else qn(x) for x, d, y in coords)

        def outcome(state):
            try:
                return [_fields(x) for x in state(p)]
            except MixedRadicals as exc:
                return str(exc)

        got = outcome(slope.to_state)
        assert got == outcome(partial(frame_state, slope))
        seen.add(isinstance(got, str))

    check()
    assert seen == {False, True}


def _fields(x):
    return (x.u, x.v, x.w, x.d)


# ---------------------------------------------------------------------------
# a moving state misses in one step
# ---------------------------------------------------------------------------


_LOOPS = [slope_spec(d) for d in ((1, 0), (0, 1), (1, 1), (2, -1), (1, 3))]


@st.composite
def _integer_segment(draw):
    """A segment under an integer covering whose state coordinates are each
    rational, or carry a drawn sqrt(3) part, or sit with their sqrt(3) part
    on the step's fixed point v* = c_v/(1 - a), where c = to_state(b) and b
    is 0, rational or has sqrt(3) parts.  Both slope kinds; on a loop a
    drawn part on the place alone (coordinate 1) moves it while the
    invariant stays."""
    a = draw(st.sampled_from([2, -2, 3, -3]))
    slope = draw(st.sampled_from([SQRT2, *_LOOPS]))
    frac = st.fractions(-1, 1, max_denominator=12)

    def number(irrational):
        x = qn(draw(frac))
        return x + _SQRT[3] * draw(frac.filter(bool)) if irrational else x

    b = point(number(draw(st.booleans())), number(draw(st.booleans())))
    tm = replace(_map(str(a)), b=b if draw(st.booleans()) else point(0, 0))
    state = []
    for c in slope.to_state(tm.b.coords()):
        kind = draw(st.sampled_from(["rational", "drawn", "fixed"]))
        x = number(kind == "drawn")
        if kind == "fixed" and c.v:
            x += QuadraticNumber(0, c.v, c.w * (1 - a), c.d)
        state.append(x.mod1())
    t0 = qn(draw(st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=12)))
    length = draw(st.fractions(Fraction(1, 100), Fraction(1, 2), max_denominator=100))
    seg = segment_new(TorusLine(slope, *state), t0, t0 + length)
    return tm, seg, draw(st.integers(1, 24))


def test_the_one_step_miss_agrees_with_the_whole_walk():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_integer_segment())
    def check(case):
        tm, seg, budget = case
        loop = not seg.line.is_irrational
        step, start, _ = rule = line_orbit._state_rule(tm, seg.line.slope, seg.line.transverse())
        moves = line_orbit._moves(rule, loop)
        # the search as it walked every state, without the one-step test: the
        # same pair, witness and budget
        want = walked_collision(tm, seg, budget)
        assert find_collision(tm, seg, budget=budget) == want
        pair = (want.n, want.m) if isinstance(want, CollisionCertificate) else None
        if moves:
            # no identifying state ever repeats, at a budget past any period
            states, _ = walked_orbit(tm, seg.line, 200)
            keys = [p[:2] for p in states] if loop else states
            assert len(set(keys)) == len(keys)
        place_moves = loop and step(start)[3] != start[3]
        seen.add((loop, moves, pair is not None, place_moves))

    check()
    # each slope kind misses in one step and walks to a hit and to a miss,
    # and a loop whose place alone moves walks to a hit
    for loop in (False, True):
        assert {(loop, True, False), (loop, False, False), (loop, False, True)} <= {
            key[:3] for key in seen
        }
    assert (True, False, True, True) in seen


@pytest.mark.parametrize(
    "slope,state",
    [
        (SQRT2, ("sqrt(3)/5", "1/7")),  # alpha moves
        (SQRT2, ("1/7", "sqrt(3)/5")),  # beta moves
        (slope_spec((2, -1)), ("sqrt(3)/5", "1/7")),  # a loop's invariant moves
    ],
)
def test_a_moving_state_is_stepped_once_at_any_budget(monkeypatch, slope, state):
    steps = []
    orig = segments._state_rule

    def counted_rule(tm, slope, seed):
        step, start, num = orig(tm, slope, seed)

        def once(p):
            # fail at the second step, before a walk of 10^6 growing states
            steps.append(p)
            if len(steps) > 1:
                raise AssertionError("a moving state was stepped twice")
            return step(p)

        return once, start, num

    monkeypatch.setattr(segments, "_state_rule", counted_rule)
    seg = segment_new(TorusLine(slope, *map(parse_number, state)), qn(0), qn(Fraction(1, 3)))
    got = find_collision(_map("3", "1/2"), seg, budget=10**6)
    assert got == NoCollisionWithinBudget(budget=10**6, group_order=1)
    assert len(steps) == 1
