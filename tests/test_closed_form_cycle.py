"""A periodic line is certified from its preperiod n0 and period p, with no
cycle walked: state n from one modular power against the walk, the
rho-pairing tested at one state and the sweep's classes built from
(n0, p, c) against the walked cycle (``reference.rho_pairing`` and
``reference.pair_classes``), with byte-identical certificates, and the work
guards: no walk on either certificate, and a period-8,008 sphere certificate
at the cost of the torus one."""

import collections
import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from flatwander import cli, lattes, segments
from flatwander.errors import FlatwanderError
from flatwander.lattes import (
    Paired,
    SelfPaired,
    certify_sphere_wandering,
    lattes_model_new,
    rho_numerators,
    rho_pairing,
)
from flatwander.lattice import Lattice, point
from flatwander.line_orbit import EventuallyPeriodic, IrrationalSlope, TorusLine, classify_line
from flatwander.numbers import parse_complex, parse_number, qn
from flatwander.segments import certify_wandering, segment_new
from flatwander.torus_map import torus_map_new

ROOT = Path(__file__).resolve().parent.parent
SQUARE = Lattice(parse_complex("i"))
SQRT2 = IrrationalSlope(parse_number("sqrt(2)"))
ORBIT_GOLDEN = json.loads((ROOT / "tests" / "data" / "orbit_golden.json").read_text())
HALF_GRID = [point(x, y) for x in (0, Fraction(1, 2)) for y in (0, Fraction(1, 2))]


def _walked(model, verdict):
    """The walked pairing, and a ``_pair_classes`` for the sphere and one for
    the torus that ignore rho's shift and class the walked states, on the
    sphere against rho of each of them, as certificates were swept before."""
    states = reference.walked_states(verdict)
    images = tuple(map(rho_numerators(model, verdict), states))

    def classes(sphere: bool):
        def walked(n0, p, top, shift=None):
            return reference.pair_classes(states, n0, top, images if sphere else None)

        return walked

    return reference.rho_pairing(model, verdict), classes


def _certificate(certify, *args) -> str:
    """A certificate as the CLI prints it, or its refusal (a return ratio
    past the digit cap)."""
    try:
        return json.dumps(cli._verdict_json(certify(*args)), sort_keys=True)
    except FlatwanderError as exc:
        return f"{type(exc).__name__}: {exc}"


def _compare(monkeypatch, model, line, t0=qn(0), t1=qn(Fraction(1, 10))) -> str | None:
    """Check a periodic line's closed form against its walk on ``model``; its
    pairing's kind, or None for a line that is not periodic."""
    verdict = classify_line(model.map, line)
    if not isinstance(verdict, EventuallyPeriodic):
        return None
    n0, p = verdict.preperiod, verdict.period
    states = reference.walked_states(verdict)
    assert [verdict.state_ints(i) for i in range(n0 + 2 * p + 1)] == [
        states[i if i < n0 else n0 + (i - n0) % p] for i in range(n0 + 2 * p + 1)
    ]
    walked_pairing, walked_classes = _walked(model, verdict)
    pairing = rho_pairing(model, verdict)
    assert pairing == walked_pairing
    shift = {Paired: p // 2, SelfPaired: 0}.get(type(pairing))
    for top in sorted({0, max(n0 - 1, 0), n0, n0 + p // 2, n0 + p, 12, n0 + 3 * p + 2}):
        for got, want in ((segments._pair_classes(n0, p, top, shift), walked_classes(True)),
                          (segments._pair_classes(n0, p, top), walked_classes(False))):
            want = want(n0, p, top)
            assert (got.period, sorted(got.classes)) == (want.period, sorted(want.classes)), top
    seg = segment_new(line, t0, t1)
    new = [_certificate(certify_sphere_wandering, model, seg),
           _certificate(certify_wandering, model.map, seg)]
    with monkeypatch.context() as m:
        m.setattr(lattes, "rho_pairing", lambda *args: walked_pairing)
        m.setattr(segments, "_pair_classes", walked_classes(True))
        old = [_certificate(certify_sphere_wandering, model, seg)]
        m.setattr(segments, "_pair_classes", walked_classes(False))
        old.append(_certificate(certify_wandering, model.map, seg))
    assert old == new
    off_grid = any(not (x * verdict.num.den).is_integer for x in model.rho_origin)
    return "off the grid" if off_grid else type(pairing).__name__


def test_every_orbit_golden_line_pairs_and_classes_as_its_walk(monkeypatch):
    seen = collections.Counter()
    for case in ORBIT_GOLDEN:
        if case["exit"] != 0:
            continue
        _, args = cli._parse(list(case["argv"]))
        if getattr(args, "slope", None) is None:
            continue
        line = cli._build_line(args)
        if not isinstance(line.slope, IrrationalSlope):
            continue
        lat = Lattice(parse_complex(args.omega))
        t0, t1 = (parse_number(t) if t else None for t in (getattr(args, "t0", None),
                                                           getattr(args, "t1", None)))
        for a in ("2", "-2", "3"):
            tm = torus_map_new(parse_complex(a), parse_complex("0"), lat)
            for z0 in HALF_GRID:
                model = lattes_model_new(lat, tm, 2, z0)
                kind = _compare(monkeypatch, model, line, *((t0, t1) if t0 is not None else ()))
                seen[kind] += 1
    assert seen["Paired"] >= 20 and seen["SelfPaired"] >= 10 and seen["Unpaired"] >= 20, seen


@st.composite
def _drawn_line(draw):
    """A rational line over N = q*|a|^k, q <= 2^12 (a period up to 2^12) and
    k <= 6 (a preperiod up to 6), a rational b over small denominators, and a
    rotation centre z0 = (mu/2 - b)/(a - 1) of the order-2 quotient, so rho(0)
    often lies off the 1/N grid."""
    a = draw(st.sampled_from([2, -2, 3, -3]))
    q = draw(st.one_of(st.integers(1, 64), st.sampled_from([1021, 2039, 4093]),
                       st.integers(2**9, 2**12)))
    n = q * abs(a) ** draw(st.integers(0, 6))
    alpha, beta = (Fraction(draw(st.integers(0, n - 1)), n) for _ in range(2))
    b = [Fraction(draw(st.integers(0, 5)), draw(st.sampled_from([1, 2, 3, 4, 6]))) for _ in range(2)]
    mu = [draw(st.integers(0, 2 * abs(a - 1) - 1)) for _ in range(2)]
    tm = torus_map_new(parse_complex(str(a)), parse_complex(f"{b[0]}+{b[1]}i"), SQUARE)
    z0 = point((Fraction(mu[0], 2) - b[0]) / (a - 1), (Fraction(mu[1], 2) - b[1]) / (a - 1))
    t0 = Fraction(draw(st.integers(-3, 0)), 10)
    return lattes_model_new(SQUARE, tm, 2, z0), TorusLine(SQRT2, qn(alpha), qn(beta)), qn(t0)


def test_drawn_lines_pair_and_class_as_their_walk(monkeypatch):
    seen = collections.Counter()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_drawn_line())
    def check(case):
        model, line, t0 = case
        kind = _compare(monkeypatch, model, line, t0, qn(Fraction(1, 10)))
        verdict = classify_line(model.map, line)
        seen[kind] += 1
        seen["preperiod > 0"] += verdict.preperiod > 0
        seen["preperiod >= 3"] += verdict.preperiod >= 3
        seen["period > 512"] += verdict.period > 512

    check()
    assert min(seen.values()) >= 10 and len(seen) == 7, seen


# ---------------------------------------------------------------------------
# work guards
# ---------------------------------------------------------------------------


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _line_argv(command: str, a: str, alpha: str, beta: str, t0: str, t1: str) -> list[str]:
    argv = [command, f"--a={a}", "--omega", "i", "--slope", "sqrt(2)", "--alpha", alpha,
            "--beta", beta, f"--t0={t0}", f"--t1={t1}"]
    return argv + (["--nu", "2"] if command == "certify-sphere" else ["--verify-oracle"])


@pytest.mark.parametrize("command", ["certify-sphere", "certify-segment"])
@pytest.mark.parametrize(
    "a,alpha,beta,t0,t1",
    [
        ("2", "1/5", "0", "0", "1/10"),  # paired
        ("-2", "0", "0", "1/100", "1/10"),  # self-paired
        ("2", "1/7", "1/3", "0", "1/10"),  # unpaired
        ("3", "1/101", "0", "0", "1/10"),  # period 100
        ("2", "1/12", "5/6", "-1/3", "1/10"),  # preperiod 2
        ("3", "1/8009", "0", "1/10", "1/5"),  # period 8,008
    ],
)
def test_a_periodic_certificate_walks_nothing(monkeypatch, command, a, alpha, beta, t0, t1):
    steps = reference.counted_steps(monkeypatch)
    code, out = _run(_line_argv(command, a, alpha, beta, t0, t1))
    assert code == 0 and json.loads(out)["verdict"] == "wandering", out
    assert len(steps) <= 2


def test_a_period_8008_sphere_certificate_costs_what_the_torus_one_does():
    """In process, best of five: rho tested at one state and the classes
    from (n0, p) leave the sphere certificate no walk of its 8,008 states,
    so it takes at most twice the torus certificate with its oracle."""
    sphere = _line_argv("certify-sphere", "3", "1/8009", "0", "1/10", "1/5")
    torus = _line_argv("certify-segment", "3", "1/8009", "0", "1/10", "1/5")

    def best(argv):
        times = []
        for _ in range(5):
            start = time.perf_counter()
            code, out = _run(argv)
            times.append(time.perf_counter() - start)
            assert code == 0 and json.loads(out)["period"] in (8008, 4004)
        return min(times)

    best(sphere)  # imports lattes
    assert best(sphere) <= 2 * best(torus)
