"""One segment representation: a ``TorusSegment`` is its line and its
parameter interval, and its lift is derived on demand.  Checks that the
certifiers on irrational slopes never build a lift, that the image of a
segment under an integer covering, its line's image with the parameter mapped
by t -> a*t, agrees with the lift chain for either sign of the multiplier and
both slope kinds, and that ``plot-orbit`` output matches a recording."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest

from flatwander.cli import main
from flatwander.lattice import Lattice
from flatwander.line_orbit import TorusLine, line_from_point, line_image, slope_spec
from flatwander.numbers import BiQuadratic, parse_complex, parse_number, qn
from flatwander.segments import (
    LiftSegment,
    TorusSegment,
    interval_chain,
    lift_chain,
    segment_new,
)
from flatwander.torus_map import torus_map_new

ROOT = Path(__file__).resolve().parent.parent
# plot-orbit SVGs recorded before the lift became derived: a = 2 and -3 on
# irrational slopes, a = -2 on rational directions, a = 1+i with and without
# a witness glyph
PLOT_GOLDEN = json.loads((ROOT / "tests" / "data" / "plot_orbit_golden.json").read_text())
SQUARE = Lattice(parse_complex("i"))


def test_segment_is_line_and_interval():
    assert [f.name for f in dataclasses.fields(TorusSegment)] == ["line", "t_lo", "t_hi"]
    seg = segment_new(
        TorusLine(slope_spec(parse_number("sqrt(2)")), qn(Fraction(1, 5)), qn(0)),
        qn(0),
        qn(Fraction(1, 10)),
    )
    assert seg == TorusSegment(seg.line, seg.t_lo, seg.t_hi)
    assert seg.lift is seg.lift  # built once, on first use


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
    tm = torus_map_new(parse_complex(str(a)), parse_complex("1/7"), SQUARE)
    seg = segment_new(_lines()[kind], qn(Fraction(1, 50)), qn(Fraction(1, 10)))
    for want in lift_chain(tm, seg, 3)[1:]:
        seg = _image(tm, seg)
        assert {seg.lift.p0, seg.lift.p1} == {want.p0, want.p1}


def test_iterate_segment_negative_multiplier_on_rational_direction():
    # z -> -2z sends the horizontal x in [1/3, 13/30] at y = 1/5 to
    # x in [2/15, 1/3] at y = 3/5 (mod 1); the direction flips to (-1, 0)
    tm = torus_map_new(parse_complex("-2"), parse_complex("0"), SQUARE)
    line = line_from_point(slope_spec((1, 0)), (qn(Fraction(1, 3)), qn(Fraction(1, 5))))
    image = _image(tm, segment_new(line, qn(0), qn(Fraction(1, 10))))

    def pt(x, y):
        return (BiQuadratic.lift(qn(x)), BiQuadratic.lift(qn(y)))

    assert {image.lift.p0, image.lift.p1} == {
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
    calls = []
    normalize = LiftSegment.normalize

    def counting(self):
        calls.append(self)
        return normalize(self)

    monkeypatch.setattr(LiftSegment, "normalize", counting)
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
