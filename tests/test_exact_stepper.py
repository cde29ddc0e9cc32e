"""One exact lift type: the re-check and the plots step the collision search's
integer numerators one image at a time (``segments.lift_orbit``).

Checks that ``reverify_collision`` agrees with the QuadraticNumber/BiQuadratic
re-check (``reference.reverify_collision``) on every hit of the collision
goldens and on drawn hits (group mode, rotated k, two-radicand towers and
integer multipliers), and on each certificate with n, m or k off by one; that
a lift spanning three radicands across its coordinates is refused by the plot
and the re-check while its integer-multiplier search still answers, with its
witness unchanged; that the separation horizon on integer numerators equals
its QuadraticNumber bisection; and that the sphere certificate maps each of
its line's states by rho once."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from flatwander import lattes, segments, torus_map
from flatwander.cli import _covering, _model, _parse, _segment_from_args, main
from flatwander.errors import BudgetExceeded, FieldClash, MixedRadicals
from flatwander.lattice import Lattice, point
from flatwander.lattes import lattes_model_new
from flatwander.line_orbit import IrrationalSlope, TorusLine, line_from_point, slope_spec
from flatwander.numbers import QuadraticNumber, parse_complex, parse_number, qn
from flatwander.segments import (
    CollisionCertificate,
    WanderingCertificate,
    _separation,
    find_collision,
    reverify_collision,
    segment_new,
)
from flatwander.torus_map import torus_map_new

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "tests" / "data" / "find_collision_golden.json").read_text())
HEX = "1/2+sqrt(3)/2i"
Q = QuadraticNumber


def _mutants(cert: CollisionCertificate, nu: int | None) -> list[CollisionCertificate]:
    """The certificate with n, m or k off by one, where the indices still
    name iterates 0 <= n < m and a rotation power below the group's order."""
    out = []
    for n, m, k in [(cert.n + 1, cert.m, cert.k), (cert.n - 1, cert.m, cert.k),
                    (cert.n, cert.m + 1, cert.k), (cert.n, cert.m - 1, cert.k),
                    (cert.n, cert.m, cert.k + 1), (cert.n, cert.m, cert.k - 1)]:
        if 0 <= n < m and 0 <= k < (nu or 1):
            out.append(reference.replace(cert, n=n, m=m, k=k))
    return out


def _outcome(check, *args):
    try:
        return check(*args)
    except BudgetExceeded as exc:
        return str(exc)


def _agree(tm, seg, cert, group) -> list:
    """The re-check of the certificate and of each mutant, which must equal
    the reference's, or be refused as it is (a long integer-multiplier lift
    meets more translates than the enumeration cap); the certificate itself
    must hold unless refused."""
    got = []
    for c in [cert, *_mutants(cert, group and group[0])]:
        want = _outcome(reference.reverify_collision, tm, seg, c, group)
        assert _outcome(reverify_collision, tm, seg, c, group) == want, c
        got.append(want)
    assert got[0] is True or "enumeration cap" in got[0], cert
    return got


def _from_argv(argv: list[str]):
    args = _parse(list(argv))[1]
    tm, seg, group = _covering(args.a, args.b, args.omega), _segment_from_args(args), None
    if args.nu is not None:
        group = _model(args.a, args.b, args.omega, args.nu, args.z0).group
    return tm, seg, group, args.budget


def _radicands(tm, seg, group) -> int:
    line = seg.line
    data = [*line.transverse(), *line.direction, seg.t_lo, seg.t_hi, tm.b.x, tm.b.y]
    if group is not None:
        data += [group[1].x, group[1].y]
    return len({x.d for x in data} - {0})


_HITS = [c for c in GOLDEN if c["exit"] == 0 and '"collision"' in c["stdout"]]


@pytest.mark.parametrize("case", _HITS, ids=[c["name"] for c in _HITS])
def test_every_golden_hit_reverifies_as_the_reference_does(case):
    tm, seg, group, budget = _from_argv(case["argv"])
    cert = find_collision(tm, seg, group=group, budget=budget)
    assert isinstance(cert, CollisionCertificate)
    _agree(tm, seg, cert, group and group[:2])


def test_the_golden_hits_cover_every_kind():
    kinds = set()
    for case in _HITS:
        tm, seg, group, _ = _from_argv(case["argv"])
        kinds.add("group" if group else "integer" if tm.has_integer_multiplier else "non-real")
        kinds.add(f"{_radicands(tm, seg, group)} radicands")
    assert kinds >= {"group", "integer", "non-real", "1 radicands", "2 radicands"}, kinds


# ---------------------------------------------------------------------------
# drawn hits
# ---------------------------------------------------------------------------

# (lattice, multiplier, group order or None): integer multipliers, non-real
# ones, and the nu = 3, 4, 6 obstructions
_MAPS = [("i", a, None) for a in ("2", "-2", "3", "1+1i", "2+1i", "2i")] + [
    ("i", a, 4) for a in ("1+1i", "2")
] + [(HEX, "2", nu) for nu in (3, 6)]
_SLOPES = {"h": (1, 0), "v": (0, 1), "1,2": (1, 2), "2,-1": (2, -1)}


@st.composite
def _in_field(draw, d):
    u = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 13)))
    if not d:
        return qn(u)
    return qn(u) + Q(0, draw(st.integers(1, 9)), draw(st.integers(2, 17)), d)


@st.composite
def _hit_case(draw):
    omega, a, nu = draw(st.sampled_from(_MAPS))
    slope = draw(st.sampled_from([*_SLOPES, "sqrt(2)", "sqrt(3)-1"]))
    main_field = draw(st.sampled_from((2, 3, 5)))
    fields = st.sampled_from((0, 0, main_field, 2, 3))
    anchor, b, z0 = (tuple(draw(_in_field(draw(fields))) for _ in range(2)) for _ in range(3))
    length = Fraction(draw(st.integers(1, 8)), 30)
    return omega, a, nu, slope, anchor, b, z0, length, draw(st.integers(2, 6))


def _drawn(case):
    omega, a, nu, slope, anchor, b, z0, length, budget = case
    tm = torus_map_new(parse_complex(a), parse_complex("0"), Lattice(parse_complex(omega)))
    if nu is None:
        tm = reference.replace(tm, b=point(*b))
    spec = slope_spec(_SLOPES[slope] if slope in _SLOPES else parse_number(slope))
    seg = segment_new(line_from_point(spec, anchor), qn(0), qn(length))
    group = None if nu is None else (nu, point(*z0), torus_map.rotation_matrix(tm.lattice, nu))
    return tm, seg, group, find_collision(tm, seg, group=group, budget=budget)


def test_drawn_hits_reverify_as_the_reference_does():
    seen = set()

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_hit_case())
    def check(case):
        try:
            tm, seg, group, cert = _drawn(case)
        except (FieldClash, MixedRadicals):
            return
        if not isinstance(cert, CollisionCertificate):
            return
        group = group and group[:2]
        if _radicands(tm, seg, group) > 2:
            # an integer-multiplier hit decided on states: its lift is refused
            with pytest.raises(MixedRadicals, match="in one search"):
                reverify_collision(tm, seg, cert, group)
            seen.add("3 radicands refused")
            return
        verdicts = _agree(tm, seg, cert, group)
        seen.add("group" if group else "integer" if tm.has_integer_multiplier else "non-real")
        seen.add(f"{_radicands(tm, seg, group)} radicands")
        seen.update(["rotated"] * (cert.k > 0) + ["mutant refused"] * (False in verdicts))

    check()
    assert seen >= {"group", "integer", "non-real", "rotated", "mutant refused",
                    "1 radicands", "2 radicands"}, seen


# ---------------------------------------------------------------------------
# a lift over three radicands, the plot and the witness
# ---------------------------------------------------------------------------

# the state's sqrt(5) and sqrt(7), the slope's sqrt(3): each coordinate holds
# two of them, the lift all three
_THREE = ["--a", "2", "--omega", "i", "--b", "1/3-sqrt(7)/7+(1/4+sqrt(5)/5)i",
          "--slope", "sqrt(3)", "--alpha", "sqrt(5)/5", "--beta", "sqrt(7)/7",
          "--t0=-1/20", "--t1", "1/10"]


def test_a_three_radicand_lift_answers_on_states_and_is_refused_when_lifted(capsys, tmp_path):
    assert main(["find-collision", *_THREE, "--budget", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    # each witness coordinate is reduced mod 1 in its own two-radicand field
    assert (out["n"], out["m"], out["k"]) == (2, 4, 0)
    assert out["witness"] == [0.47796447300922723, 0.4759914852569298]
    message = "sqrt(3), sqrt(5), sqrt(7) in one search"
    svg = tmp_path / "orbit.svg"
    assert main(["plot-orbit", *_THREE, "--iterates", "4", "--out", str(svg)]) == 2
    assert json.loads(capsys.readouterr().out) == {"error": "mixed-radicals", "message": message}
    assert not svg.exists()
    tm, seg, _, _ = _from_argv(["find-collision", *_THREE])
    cert = CollisionCertificate(2, 4, 0, tuple(out["witness"]), True, None, 6)
    with pytest.raises(MixedRadicals, match=message.replace("(", r"\(").replace(")", r"\)")):
        reverify_collision(tm, seg, cert)
    assert reference.reverify_collision(tm, seg, cert)  # the reference lifts per coordinate


def test_the_plot_steps_the_searchs_numerators_once_each(monkeypatch, capsys, tmp_path):
    # one lift_0, and one normalized image per plotted iterate after it
    built, stepped = [], []
    numerators, normalized = segments._segment_numerators, segments._normalized
    monkeypatch.setattr(segments, "_segment_numerators",
                        lambda *args: built.append(args) or numerators(*args))
    monkeypatch.setattr(segments, "_normalized",
                        lambda *args: stepped.append(args) or normalized(*args))
    argv = ["plot-orbit", "--a", "1+1i", "--omega", "i", "--seg", "0.1,0.2,h,0.05",
            "--iterates", "7", "--out", str(tmp_path / "orbit.svg")]
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["segments"] == 8
    assert (len(built), len(stepped)) == (1, 7)


# ---------------------------------------------------------------------------
# the separation horizon on integers
# ---------------------------------------------------------------------------


@st.composite
def _interval(draw):
    """[lo, hi] with rational or sqrt(d) ends, often touching or holding 0."""
    d = draw(st.sampled_from((0, 2, 3, 5, 1000003)))

    def end():
        x = qn(Fraction(draw(st.integers(-400, 400)), draw(st.integers(1, 60))))
        if d and draw(st.booleans()):
            x += Q(0, draw(st.integers(-9, 9)), draw(st.integers(1, 40)), d)
        return x

    kind = draw(st.sampled_from(("any", "from 0", "to 0", "apart")))
    lo, hi = sorted((end(), end()))
    if kind == "from 0":
        lo = qn(0)
    elif kind == "to 0":
        hi = qn(0)
    elif kind == "apart" and lo.sign() <= 0 <= hi.sign():
        lo, hi = (hi + Fraction(1, 7), hi + 1) if draw(st.booleans()) else (lo - 1, lo - Fraction(1, 7))
    if hi.cmp(lo) <= 0:
        hi = lo + Fraction(1, 3)
    return lo, hi, draw(st.sampled_from((2, -2, 3, -3, 4, -4, 5, -5)))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(_interval())
def test_the_separation_on_integers_is_the_quadratic_bisection(case):
    lo, hi, a = case
    assert _separation(lo, hi, a) == reference.separation(lo, hi, a)


def test_the_separation_cases_cover_every_kind():
    seen = set()

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(_interval())
    def collect(case):
        lo, hi, a = case
        d = reference.separation(lo, hi, a)
        seen.add("touches 0" if 0 in (lo.sign(), hi.sign()) else
                 "holds 0" if lo.sign() < 0 < hi.sign() else "negative" if hi.sign() < 0 else "positive")
        seen.add("irrational" if lo.d or hi.d else "rational")
        seen.add("far" if d > 3 else "near" if d else "zero")

    collect()
    assert seen == {"touches 0", "holds 0", "negative", "positive", "irrational", "rational",
                    "far", "near", "zero"}, seen


# ---------------------------------------------------------------------------
# rho at one state of the sphere certificate's cycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "a, alpha, t0",
    [("2", Fraction(1, 5), 0), ("-2", 0, Fraction(1, 100)), ("3", Fraction(1, 101), 0)],
    ids=["paired", "self-paired", "period-100"],
)
def test_the_sphere_certificate_maps_each_state_by_rho_once(monkeypatch, a, alpha, t0):
    tm = torus_map_new(parse_complex(a), parse_complex("0"), Lattice(parse_complex("i")))
    model = lattes_model_new(tm.lattice, tm, 2, point(0, 0))
    line = TorusLine(IrrationalSlope(parse_number("sqrt(2)")), qn(alpha), qn(0))
    seg = segment_new(line, qn(t0), qn(Fraction(1, 10)))
    mapped, orig = [], lattes.rho_numerators

    def counted(*args):
        rho = orig(*args)
        return lambda st: mapped.append(st) or rho(st)

    monkeypatch.setattr(lattes, "rho_numerators", counted)
    cert = lattes.certify_sphere_wandering(model, seg, check_iterates=40)
    assert isinstance(cert, WanderingCertificate) and cert.mode == "subsegment"
    # rho is tested at the cycle's first state alone, whatever the period (100
    # on the last case)
    verdict = lattes.classify_line(tm, line)
    assert len(mapped) <= verdict.preperiod + 2
    assert len(set(mapped)) == len(mapped)
