"""One segment representation: a ``TorusSegment`` is its line and its
parameter interval, and its lift is derived on demand.  Checks that the
certifiers on irrational slopes never build a lift, that the image of a
segment under an integer covering, its line's image with the parameter mapped
by t -> a*t, agrees with the stepped exact lifts for either sign of the multiplier and
both slope kinds, that ``plot-orbit`` output matches a recording, and that
the collision search lifts in its own field: the BiQuadratic tower only when
its data span two radicands, with the same answers as a tower-only search,
shifts composed in the tower with the lifts, and the group's rotation solved
once per search and not again when the process repeats it."""

import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from flatwander import cli, lattes, lift_arith, segments, torus_map
from flatwander.cli import _parse_segment, main
from flatwander.errors import FieldClash, MixedRadicals
from flatwander.lattice import Lattice, point
from flatwander.line_orbit import TorusLine, line_from_point, slope_spec
from flatwander.numbers import BiQuadratic, parse_complex, parse_number, qn
from flatwander.segments import (
    CollisionCertificate,
    TorusSegment,
    find_collision,
    lift_orbit,
    reverify_collision,
    segment_new,
)
from flatwander.torus_map import torus_map_new
from reference import fields, interval_chain, line_image, replace, segment_lift

ROOT = Path(__file__).resolve().parent.parent
# plot-orbit SVGs recorded before the lift became derived: a = 2 and -3 on
# irrational slopes, a = -2 on rational directions, a = 1+i with and without
# a witness glyph
PLOT_GOLDEN = json.loads((ROOT / "tests" / "data" / "plot_orbit_golden.json").read_text())
SQUARE = Lattice(parse_complex("i"))


def test_segment_is_line_and_interval(monkeypatch):
    assert fields(TorusSegment) == ["line", "t_lo", "t_hi"]
    seg = segment_new(
        TorusLine(slope_spec(parse_number("sqrt(2)")), qn(Fraction(1, 5)), qn(0)),
        qn(0),
        qn(Fraction(1, 10)),
    )
    assert seg == TorusSegment(seg.line, seg.t_lo, seg.t_hi)
    built = _count_lift_zeros(monkeypatch)
    tm = torus_map_new(parse_complex("2"), parse_complex("0"), SQUARE)
    _, _, lifts, _ = lift_orbit(tm, seg)
    assert len(built) == 1 and len(list(itertools.islice(lifts, 5))) == 5
    assert len(built) == 1  # lift_0 built once, each lift stepped from the last


def _count_lift_zeros(monkeypatch) -> list:
    """Record, from here on, every lift_0 the search or the stepper builds."""
    built, orig = [], segments._segment_numerators

    def counted(*args):
        built.append(args)
        return orig(*args)

    monkeypatch.setattr(segments, "_segment_numerators", counted)
    return built


def _lines():
    return {
        "irrational": TorusLine(
            slope_spec(parse_number("sqrt(2)")), qn(Fraction(1, 5)), qn(Fraction(2, 7))
        ),
        "horizontal": line_from_point(slope_spec((1, 0)), (qn(Fraction(1, 3)), qn(Fraction(1, 5)))),
        "direction-2,-3": line_from_point(
            slope_spec((2, -3)), (qn(Fraction(1, 4)), parse_number("sqrt(5)/9"))
        ),
    }


def _image(tm, seg):
    """The segment's image under an integer covering: the line keeps its
    slope and steps to ``line_image``, and the parameter maps by t -> a*t,
    the parameterisation the certifiers and the oracle assume."""
    a = tm.multiplier_int()
    return segment_new(line_image(tm, seg.line), *interval_chain(seg.t_lo, seg.t_hi, a, 1)[1])


@pytest.mark.parametrize("kind", ["irrational", "horizontal", "direction-2,-3"])
@pytest.mark.parametrize("a", [2, -2, 3, -3])
def test_iterate_segment_matches_lift_chain(a, kind):
    # the stepper's exact lifts are the reference lifts of the image segments
    tm = torus_map_new(parse_complex(str(a)), parse_complex("1/7"), SQUARE)
    seg = segment_new(_lines()[kind], qn(Fraction(1, 50)), qn(Fraction(1, 10)))
    f, den, lifts, _ = lift_orbit(tm, seg)
    for lift in itertools.islice(lifts, 1, 4):
        seg = _image(tm, seg)
        want = {tuple(f.scalar(v, den) for v in pt) for pt in lift}
        assert {segment_lift(seg).p0, segment_lift(seg).p1} == want


def test_iterate_segment_negative_multiplier_on_rational_direction():
    # z -> -2z sends the horizontal x in [1/3, 13/30] at y = 1/5 to
    # x in [2/15, 1/3] at y = 3/5 (mod 1); the direction flips to (-1, 0)
    tm = torus_map_new(parse_complex("-2"), parse_complex("0"), SQUARE)
    line = line_from_point(slope_spec((1, 0)), (qn(Fraction(1, 3)), qn(Fraction(1, 5))))
    image = _image(tm, segment_new(line, qn(0), qn(Fraction(1, 10))))

    def pt(x, y):
        return (BiQuadratic(qn(x)), BiQuadratic(qn(y)))

    assert {segment_lift(image).p0, segment_lift(image).p1} == {
        pt(Fraction(1, 3), Fraction(3, 5)),
        pt(Fraction(2, 15), Fraction(3, 5)),
    }


_IRRATIONAL_CERTIFIERS = [
    # periodic line: a subsegment certificate and the oracle on it
    ["certify-segment", "--a", "2", "--omega", "i", "--slope", "sqrt(2)",
     "--alpha", "1/5", "--beta", "0", "--verify-oracle"],
    # wandering line: a whole-segment certificate and the oracle on it
    ["certify-segment", "--a=-3", "--b", "1/4", "--omega", "i", "--slope", "sqrt(2)",
     "--alpha", "sqrt(3)-1", "--beta", "1/3", "--verify-oracle"],
    # flexible sphere models run the sphere oracle on every certificate
    ["certify-sphere", "--a", "2", "--omega", "i", "--slope", "sqrt(2)",
     "--alpha", "1/5", "--beta", "0"],
    ["certify-sphere", "--a=-2", "--omega", "i", "--slope", "sqrt(3)",
     "--alpha", "sqrt(5)/3", "--beta", "0"],
]


@pytest.mark.parametrize("argv", _IRRATIONAL_CERTIFIERS, ids=lambda argv: " ".join(argv[:3]))
def test_irrational_certifiers_build_no_lift(monkeypatch, capsys, argv):
    calls = _count_lift_zeros(monkeypatch)
    assert main(list(argv)) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "wandering"
    assert out.get("oracle_pairwise_disjoint", True) is True
    assert calls == []


@pytest.mark.parametrize(
    "case", PLOT_GOLDEN, ids=[f"{i}-a{case['argv'][2]}" for i, case in enumerate(PLOT_GOLDEN)]
)
def test_plot_orbit_matches_golden(monkeypatch, capsys, tmp_path, case):
    monkeypatch.chdir(tmp_path)
    assert main(list(case["argv"])) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]
    assert (tmp_path / "orbit.svg").read_text() == case["svg"]


# ---------------------------------------------------------------------------
# the collision search lifts in its own field
# ---------------------------------------------------------------------------

FIND_COLLISION_GOLDEN = json.loads(
    (ROOT / "tests" / "data" / "find_collision_golden.json").read_text()
)
HEX = "1/2+sqrt(3)/2i"
# (lattice, multiplier, group order or None): non-real multipliers on their
# own, and the nu = 3, 4, 6 obstructions with multipliers that commute with
# the rotation
_SEARCHES = [
    ("i", a, None) for a in ("1+1i", "2+1i", "2i", "1+2i")
] + [("i", a, 4) for a in ("1+1i", "2i", "2")] + [
    (HEX, a, nu) for a in ("2", "3/2+sqrt(3)/2i") for nu in (3, 6)
]
_FIELDS = (0, 2, 3, 5)
_SLOPES = {"h": (1, 0), "v": (0, 1), "1,2": (1, 2), "2,-1": (2, -1)}
_IRRATIONAL_SLOPES = ["sqrt(2)", "sqrt(3)-1", "(1+sqrt(5))/2"]


@st.composite
def _in_field(draw, d):
    """A small number in Q (d = 0) or in Q(sqrt(d))."""
    u = Fraction(draw(st.integers(0, 12)), draw(st.integers(1, 13)))
    if not d:
        return qn(u)
    v = Fraction(draw(st.integers(1, 9)), draw(st.integers(2, 17)))
    return qn(u) + parse_number(f"sqrt({d})") * v


@st.composite
def _lift_search_case(draw):
    """A collision search's data: the anchor, the translation (in lattice
    coordinates) and the rotation center each drawn from Q, Q(sqrt 2),
    Q(sqrt 3) or Q(sqrt 5), so the lifts span one, two or three radicands."""
    omega, a, nu = draw(st.sampled_from(_SEARCHES))
    slope = draw(st.sampled_from([*_SLOPES, *_IRRATIONAL_SLOPES]))
    # most data rational or in one main field, the rest anywhere
    fields = st.sampled_from((0, 0, draw(st.sampled_from((2, 3, 5))), *_FIELDS))
    anchor, b, z0 = (tuple(draw(_in_field(draw(fields))) for _ in range(2)) for _ in range(3))
    length = Fraction(draw(st.integers(1, 6)), 40)
    return omega, a, nu, slope, anchor, b, z0, length, draw(st.integers(2, 5))


def _search(case):
    """The search's outcome, built from scratch: (n, m, k) and the witness
    bytes, no collision, or the refusal's type."""
    omega, a, nu, slope, anchor, b, z0, length, budget = case
    tm = torus_map_new(parse_complex(a), parse_complex("0"), Lattice(parse_complex(omega)))
    # b in lattice coordinates, which need not be a complex literal's
    tm = replace(tm, b=point(*b))
    spec = slope_spec(_SLOPES[slope] if slope in _SLOPES else parse_number(slope))
    try:
        seg = segment_new(line_from_point(spec, anchor), qn(0), qn(length))
        group = None if nu is None else (nu, point(*z0), torus_map.rotation_matrix(tm.lattice, nu))
        got = find_collision(tm, seg, group=group, budget=budget)
    except (MixedRadicals, FieldClash) as exc:
        return type(exc).__name__
    if isinstance(got, CollisionCertificate):
        assert reverify_collision(tm, seg, got, group=group[:2] if group else None)
        return (got.n, got.m, got.k, repr(got.witness))
    return "no-collision"


_PADDING = (1000003, 1000033)  # radicands no drawn case holds
_field_numerators = lift_arith._numerators


def _tower_numerators(xs):
    """``_numerators`` in a tower: past the scalars' own radicands, padded
    with radicands none of them holds, whose coordinates stay 0."""
    own = {x.d for x in xs} - {0}
    pad = [qn(0) + parse_number(f"sqrt({r})") for r in _PADDING][: max(0, 2 - len(own))]
    f, den, vs = _field_numerators([*xs, *pad])
    return f, den, vs[: len(xs)]


def _radicands(case):
    _, _, nu, slope, anchor, b, z0, _, _ = case
    data = [*anchor, *b, *(z0 if nu else ())]
    if slope not in _SLOPES:
        data.append(parse_number(slope))
    return len({x.d for x in data} - {0})


def test_the_lift_search_agrees_with_a_tower_only_search():
    seen = {}

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_lift_search_case())
    def check(case):
        got = _search(case)
        with pytest.MonkeyPatch.context() as mp:
            # the reference: every lift, in the search and in the stepper, on
            # the tower's four-element basis
            mp.setattr(lift_arith, "_numerators", _tower_numerators)
            want = _search(case)
        assert got == want, case
        if got == "FieldClash":
            reject()
        seen.setdefault(_radicands(case), set()).add(got if isinstance(got, str) else "collision")

    check()
    # one-, two- and three-radicand searches, hits among the first two
    assert {1, 2, 3} <= seen.keys(), seen
    assert "collision" in seen[1] and "collision" in seen[2], seen


def _count_towers(monkeypatch):
    built = []
    init = BiQuadratic.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(BiQuadratic, "__init__", counting)
    return built


_ONE_RADICAND = [
    ["find-collision", "--a", "1+1i", "--omega", "i", "--seg", "1/5,1/7,s:sqrt(2),1/18"],
    ["find-collision", "--a", "2+1i", "--omega", "i", "--b", "sqrt(2)/7",
     "--seg", "1/5,2/7,s:sqrt(2),1/15"],
    ["find-collision", "--a", "2i", "--omega", "i", "--b", "1/4+sqrt(5)/9i",
     "--seg", "1/3,1/5,v,1/9"],
    ["find-collision", "--a", "1+1i", "--omega", "i", "--nu", "4", "--z0", "1/2,1/2",
     "--seg", "1/5,1/7,s:sqrt(3),1/18"],
    ["find-collision", "--a", "2", "--omega", HEX, "--nu", "6", "--z0", "0,0",
     "--seg", "1/7,1/5,s:sqrt(2),1/20"],
]


@pytest.mark.parametrize("argv", _ONE_RADICAND, ids=lambda argv: " ".join(argv[1:3]))
def test_a_one_radicand_search_builds_no_tower(monkeypatch, capsys, argv):
    built = _count_towers(monkeypatch)
    assert main(list(argv)) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "collision"
    assert built == []


_TWO_RADICANDS = [c for c in FIND_COLLISION_GOLDEN if c["name"].startswith("two-radicand")]


@pytest.mark.parametrize("case", _TWO_RADICANDS, ids=[c["name"] for c in _TWO_RADICANDS])
def test_a_two_radicand_search_builds_the_tower(monkeypatch, capsys, case):
    built = _count_towers(monkeypatch)
    assert main(list(case["argv"])) == case["exit"] == 0
    assert capsys.readouterr().out == case["stdout"]
    assert built


# b's coordinates in two fields under non-diagonal coverings: each search
# spans two radicands, and composing b's shifts outside the tower raised
# MixedRadicals (exit 2) before they went to the tower with lift_0
_TWO_FIELD_B = "sqrt(3)/4+(sqrt(5)/9)i"
_TWO_FIELD_SEGS = ["5/7,1/3,h,1/9", "2/7,1/5,v,1/8", "1/3,2/5,s:2,1/10"]


@pytest.mark.parametrize("a", ["1+1i", "2i", "1+2i"])
@pytest.mark.parametrize("seg", _TWO_FIELD_SEGS)
def test_shifts_compose_in_the_tower_with_the_lifts(a, seg):
    tm = torus_map_new(parse_complex(a), parse_complex(_TWO_FIELD_B), SQUARE)
    segment = _parse_segment(seg)
    got = find_collision(tm, segment)
    assert isinstance(got, CollisionCertificate)
    assert reverify_collision(tm, segment, got)


_GROUP_SEARCHES = [c["argv"] for c in FIND_COLLISION_GOLDEN if "--nu" in c["argv"]] + [
    argv for argv in _ONE_RADICAND if "--nu" in argv
] + [
    ["certify-sphere", "--a", "1+1i", "--omega", "i", "--nu", "4", "--z0", "0,0",
     "--seg", "1/5,1/7,s:sqrt(3),1/18"],
    ["certify-sphere", "--a", "2", "--omega", HEX, "--nu", "3", "--z0", "0,0",
     "--seg", "1/7,1/5,s:sqrt(2),1/20"],
]


@pytest.mark.parametrize("argv", _GROUP_SEARCHES, ids=lambda argv: " ".join(argv[:8:2]))
def test_a_group_mode_case_solves_its_rotation_once(monkeypatch, capsys, argv):
    solved, built = [], []
    orig, orig_new = torus_map.rotation_matrix, cli.torus_map_new

    def counted(lat, nu):
        solved.append(nu)
        return orig(lat, nu)

    def counted_new(*args):
        built.append(args)
        return orig_new(*args)

    for mod in (torus_map, lattes, segments):
        monkeypatch.setattr(mod, "rotation_matrix", counted)
    monkeypatch.setattr(cli, "torus_map_new", counted_new)
    cli._covering.cache_clear()
    cli._model.cache_clear()
    assert main(list(argv)) == 0
    text = capsys.readouterr().out
    out = json.loads(text)
    cert = out if argv[0] == "find-collision" else out["witness"]
    assert cert["verdict"] == "collision"
    assert (len(solved), len(built)) == (1, 1)
    # the process keeps the validated covering and model, rotation included
    del solved[:], built[:]
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == text
    assert (solved, built) == ([], [])
