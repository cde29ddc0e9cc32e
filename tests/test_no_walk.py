"""No orbit is walked in ``src/``: a periodic orbit's states come from its
closed form and a wandering line is certified from one step.

The guards: no module of the package defines a walk or steps a state rule in
a loop; every golden steps each rule at most twice; ``EventuallyPeriodic.states``
is the walked orbit (``reference.walked_orbit``), item by item; the wandering
certificates print the bytes they printed when their states were walked and
reflected (``wandering_golden.json``, recorded then); and the bench tracer
counts a period-8,008 cycle without stepping it."""

import ast
import contextlib
import importlib
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flatwander import cli, lattes, segments
from flatwander.lattice import Lattice
from flatwander.line_orbit import EventuallyPeriodic, IrrationalSlope, TorusLine, classify_line
from flatwander.numbers import parse_complex, parse_number, qn
from flatwander.torus_map import torus_map_new
from reference import counted_steps, walked_orbit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flatwander"
SQUARE = Lattice(parse_complex("i"))
SQRT2 = IrrationalSlope(parse_number("sqrt(2)"))
GOLDENS = ["cli_golden", "find_collision_golden", "input_errors_golden", "orbit_golden",
           "plot_orbit_golden", "semiconj_golden", "usage_errors_golden", "wandering_golden"]


def _golden(name: str) -> list[dict]:
    return json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text())


def _replay(case: dict) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(case["argv"]))
        except SystemExit as exc:  # a usage error
            code = exc.code
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# the source
# ---------------------------------------------------------------------------


def _loops_over_a_step(tree: ast.AST) -> list[str]:
    """Each function that calls a state rule's step (the first of a
    ``_state_rule``'s three, unpacked or ``rule[0]``) inside a loop or a
    comprehension."""
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            continue
        steps = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple)
                    and isinstance(node.targets[0].elts[0], ast.Name)
                    and (isinstance(node.value, ast.Name) and node.value.id == "rule"
                         or isinstance(node.value, ast.Call)
                         and getattr(node.value.func, "id", None) == "_state_rule")):
                steps.add(node.targets[0].elts[0].id)

        def is_step(call: ast.Call) -> bool:
            f = call.func
            return (isinstance(f, ast.Name) and f.id in steps
                    or isinstance(f, ast.Subscript) and getattr(f.value, "id", None) == "rule"
                    and getattr(f.slice, "value", None) == 0)

        for loop in (n for n in ast.walk(fn) if isinstance(n, loops)):
            if any(isinstance(c, ast.Call) and is_step(c) for c in ast.walk(loop)):
                found.append(getattr(fn, "name", "<lambda>"))
    return found


def test_no_module_walks_an_orbit():
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        assert not defined & {"_walk", "orbit_numerators"}, path.name
        assert _loops_over_a_step(tree) == [], path.name
    assert not hasattr(EventuallyPeriodic, "cycle")


def test_the_ast_guard_finds_a_walk():
    walk = '''
def _walk(rule, limit):
    step, state, num = rule
    seen = {}
    for i in range(limit):
        if i:
            state = step(state)
        seen[state] = i
    return seen
'''
    steps = "def f(tm, slope, seed):\n    return [rule[0](p) for p in seed]\n"
    assert _loops_over_a_step(ast.parse(walk)) == ["_walk"]
    assert _loops_over_a_step(ast.parse(steps)) == ["f"]


# ---------------------------------------------------------------------------
# every golden, with each state rule stepped at most twice
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", GOLDENS)
def test_every_golden_steps_each_state_rule_at_most_twice(monkeypatch, tmp_path, name):
    """One step from the zero state reads c for the closed form, and one from
    the seed tells whether an irrational part moves (``_moves``); nothing
    else steps a state."""
    monkeypatch.chdir(tmp_path)
    steps = counted_steps(monkeypatch)
    for case in _golden(name):
        if "config" in case:
            cfg = case["config"]
            Path("cfg.json").write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        steps.clear()
        assert _replay(case) == (case["exit"], case["stdout"]), case.get("name")
        assert len(steps) <= 2, case.get("name")


def test_the_wandering_certificates_print_their_walked_bytes():
    """``wandering_golden.json`` holds what the certify commands printed when a
    wandering line's checked states were walked and their reflections looked
    up: every certify case of the orbit and cli goldens at --check-iterates 0
    and 1, and lines with parts in two fields, certified or refused with
    ``mixed-radicals``."""
    cases = _golden("wandering_golden")
    for case in [*cases, *(c for name in ("orbit_golden", "cli_golden") for c in _golden(name)
                           if c["argv"][0] in ("certify-segment", "certify-sphere"))]:
        assert _replay(case) == (case["exit"], case["stdout"]), case["name"]
    modes = [json.loads(c["stdout"]).get("mode") for c in cases]
    errors = [json.loads(c["stdout"]).get("error") for c in cases]
    assert modes.count("whole-segment") >= 20 and errors.count("mixed-radicals") == 4
    assert sum("--check-iterates" in c["argv"] and c["argv"][-1] == "0" for c in cases) >= 40


@pytest.mark.parametrize("command", ["certify-segment", "certify-sphere"])
def test_a_wandering_certificate_rests_on_one_step(monkeypatch, command):
    """The whole-segment certificate asks ``_moves`` once, on an irrational
    slope, and a state that did not move would be a bug: exit 4."""
    argv = [command, "--a", "-3", "--omega", "i", "--slope", "sqrt(2)", "--alpha", "1/5",
            "--beta", "sqrt(5)/3", "--check-iterates", "0"]
    asked, moves = [], segments._moves
    monkeypatch.setattr(segments, "_moves",
                        lambda rule, loop: asked.append(loop) or moves(rule, loop))
    code, out = _replay({"argv": argv})
    assert (code, json.loads(out)["mode"], asked) == (0, "whole-segment", [False])
    monkeypatch.setattr(segments, "_moves", lambda rule, loop: False)
    code, out = _replay({"argv": argv})
    assert (code, json.loads(out)) == (4, {
        "error": "internal-inconsistency",
        "message": "a wandering line's transverse state does not move"})


# ---------------------------------------------------------------------------
# the states view
# ---------------------------------------------------------------------------


@st.composite
def _periodic_line(draw):
    """A rational line under a rational b over a denominator N = a'^k * q with
    a' a prime of a, k up to 6 (a preperiod) and q prime to a."""
    a = draw(st.sampled_from([2, -2, 3, -3, 5]))
    prime = next(p for p in (2, 3, 5) if a % p == 0)
    q = draw(st.one_of(st.integers(1, 64), st.integers(2000, 9000)).filter(
        lambda q: math.gcd(q, a) == 1))
    n = prime ** draw(st.integers(0, 6)) * q
    alpha, beta = (Fraction(draw(st.integers(0, n - 1)), n) for _ in range(2))
    b = Fraction(draw(st.integers(0, 3)), 4)
    tm = torus_map_new(parse_complex(str(a)), parse_complex(str(b)), SQUARE)
    return tm, TorusLine(SQRT2, qn(alpha), qn(beta))


@settings(max_examples=150, deadline=None)
@given(_periodic_line(), st.data())
def test_the_states_are_the_walked_orbit(case, data):
    tm, line = case
    verdict = classify_line(tm, line)
    n0, p = verdict.preperiod, verdict.period
    assume(n0 <= 6 and p <= 2**13)
    walked, _ = walked_orbit(tm, line, n0 + p)
    states = verdict.states
    assert len(states) == n0 + p
    assert walked[n0 + p] == walked[n0]  # the walk returns to state n0
    n = data.draw(st.integers(0, n0 + p - 1))
    assert states[n] == walked[n] and states[n - n0 - p] == walked[n]
    assert states[n0 + p - 1] == walked[n0 + p - 1] and states[-1] == walked[-2]
    assert states[n0:] == walked[n0:-1] and states[:n0] == walked[:n0]
    with pytest.raises(IndexError):
        states[n0 + p]
    assert list(states) == walked[:-1]  # iterated by stepping a^n


def test_the_drawn_orbits_reach_each_preperiod_and_long_periods():
    seen = set()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_periodic_line())
    def draw(case):
        verdict = classify_line(*case)
        seen.add((verdict.preperiod, verdict.period > 2**12))

    draw()
    assert {pre for pre, _ in seen} >= set(range(7)) and any(long for _, long in seen)


def test_the_states_compute_nothing_until_read(monkeypatch):
    tm = torus_map_new(parse_complex("3"), parse_complex("0"), SQUARE)
    verdict = classify_line(tm, TorusLine(SQRT2, qn(Fraction(1, 8009)), qn(0)))
    read = []
    monkeypatch.setattr(verdict, "state_ints", lambda n, e=None: read.append(n) or (n,))
    assert len(verdict.states) == 8008 and read == []
    assert verdict.states[8007] == (8007,) and verdict.states[-8008] == (0,)
    assert verdict.states[3:5] == [(3,), (4,)] and read == [8007, 0, 3, 4]


# ---------------------------------------------------------------------------
# the tracer
# ---------------------------------------------------------------------------

_SPHERE_8008 = ["certify-sphere", "--a", "3", "--omega", "i", "--slope", "sqrt(2)",
                "--alpha", "1/8009", "--beta", "0", "--t0", "1/10", "--t1", "1/5", "--nu", "2"]


def _bench_tracer():
    """``bench/tracer.py``, imported as ``bench/run.py`` imports it, with no
    byte code written into ``bench/``.  A tracer wraps the modules loaded
    when it is built, so ``lattes`` is imported first, as there."""
    assert lattes.certify_sphere_wandering
    sys.path.insert(0, str(ROOT / "bench"))
    written, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        return importlib.import_module("tracer")
    finally:
        sys.dont_write_bytecode = written
        sys.path.remove(str(ROOT / "bench"))


def test_a_traced_period_8008_sphere_certificate_counts_its_states_without_a_walk(monkeypatch):
    tracing = _bench_tracer()
    steps = counted_steps(monkeypatch)
    tracer = tracing.Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(list(_SPHERE_8008)) == 0
    assert json.loads(out.getvalue())["verdict"] == "wandering"
    assert tracer.layer_metrics(0, len(tracer), 1)[tracing.STATES_VISITED] == 8008
    assert len(steps) <= 2


def test_tracing_a_period_8008_sphere_certificate_costs_at_most_twice_the_case():
    """Best of five, in process: the tracer counts the cycle from its length,
    so a traced case no longer pays for a walk of 8,008 states (18.2 ms traced
    against 1.9 ms untraced when it did)."""
    tracing = _bench_tracer()

    def best(traced: bool) -> float:
        times = []
        for _ in range(5):
            tracer = tracing.Tracer() if traced else contextlib.nullcontext()
            with tracer, contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                assert cli.main(list(_SPHERE_8008)) == 0
                times.append(time.perf_counter() - start)
        return min(times)

    best(False)  # imports lattes
    assert best(True) <= 2 * best(False)
