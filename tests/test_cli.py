import ast
import contextlib
import hashlib
import importlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from child_env import child_env
from reference import argparse_options, nearest_double, option_matches

from flatwander import cli, line_orbit, numbers
from flatwander.cli import COMMANDS, main
from flatwander.errors import UsageError
from flatwander.numbers import parse_number

ROOT = Path(__file__).resolve().parent.parent
# byte-exact certify-segment / certify-sphere output: periodic lines under
# a = 2, -2, 3, the Paired / SelfPaired / Unpaired sphere cases, and wandering
# lines certified whole on the torus and on the sphere
GOLDEN = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text())
# byte-exact classify-line, certify-segment --verify-oracle and certify-sphere
# --nu 2 output over a in {2, -2, 3, -3}: preperiodic lines, paired,
# self-paired and unpaired cycles, rotation centres z0 with 2*z0 off the 1/N
# grid of the orbit, rational translations and wandering lines
GOLDEN += json.loads((ROOT / "tests" / "data" / "orbit_golden.json").read_text())
# byte-exact output of malformed inputs: parse errors, non-coverings, low
# degrees, omega off the upper half-plane, models that do not descend,
# degenerate segments and malformed --slope, --seg, --z0 and --mark-witness
GOLDEN += json.loads((ROOT / "tests" / "data" / "input_errors_golden.json").read_text())


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_classify_map_doubling(capsys):
    code, data = _run(capsys, "classify-map", "--a", "2", "--b", "0", "--omega", "i")
    assert code == 0
    assert data["degree"] == 4
    assert data["multiplier_class"] == {"kind": "integer", "a": 2}
    assert (data["p"], data["q"], data["r"], data["s"]) == (2, 0, 0, 2)


def test_classify_map_not_a_covering(capsys):
    code, data = _run(capsys, "classify-map", "--a", "sqrt(2)", "--b", "0", "--omega", "i")
    assert code == 2
    assert data["error"] == "not-a-covering"


def test_classify_map_degree_too_low(capsys):
    code, data = _run(capsys, "classify-map", "--a", "1", "--b", "1/3", "--omega", "i")
    assert code == 2
    assert data["error"] == "degree-too-low"


def test_classify_line_cycle(capsys):
    code, data = _run(
        capsys,
        "classify-line",
        "--a", "2", "--b", "0", "--omega", "i",
        "--slope", "sqrt(2)", "--alpha", "1/3", "--beta", "0",
    )
    assert code == 0
    assert data["verdict"] == "eventually-periodic"
    assert data["preperiod"] == 0 and data["period"] == 2
    assert data["cycle"] == [["1/3", "0"], ["2/3", "0"]]


def test_classify_line_wandering(capsys):
    code, data = _run(
        capsys,
        "classify-line",
        "--a", "2", "--b", "0", "--omega", "i",
        "--slope", "sqrt(2)", "--alpha", "sqrt(3)-1", "--beta", "0",
    )
    assert code == 0
    assert data == {"verdict": "wandering-line", "witness": "alpha"}


def test_certify_segment_json_round_trip(capsys):
    code, data = _run(
        capsys,
        "certify-segment",
        "--a", "2", "--b", "0", "--omega", "i",
        "--slope", "sqrt(2)", "--alpha", "1/3", "--beta", "0",
        "--t0", "0", "--t1", "1/10",
        "--verify-oracle",
    )
    assert code == 0
    assert data["verdict"] == "wandering" and data["mode"] == "subsegment"
    assert data["oracle_pairwise_disjoint"] is True
    # every exact scalar re-parses to an equal value
    lo = parse_number(data["interval"]["lo"])
    hi = parse_number(data["interval"]["hi"])
    assert abs(lo.to_float() - data["interval"]["lo_float"]) < 1e-12
    assert abs(hi.to_float() - data["interval"]["hi_float"]) < 1e-12
    slack = parse_number(data["slack"])
    assert slack.to_float() == data["slack_float"]


def test_find_collision_cli(capsys):
    code, data = _run(
        capsys,
        "find-collision",
        "--a", "1+1i", "--b", "0", "--omega", "i",
        "--seg", "0.1,0.2,h,0.05",
    )
    assert code == 0
    assert data["verdict"] == "collision"
    assert data["m"] <= 15
    assert data["exact"] is True


def test_find_collision_group_mode(capsys):
    code, data = _run(
        capsys,
        "find-collision",
        "--a", "2", "--b", "0", "--omega", "i",
        "--nu", "4", "--z0", "0,0",
        "--seg", "0,1/7,s:sqrt(2),1/18",
    )
    assert code == 0
    assert data["verdict"] == "collision" and data["m"] <= 7


def test_no_collision_within_budget(capsys):
    code, data = _run(
        capsys,
        "find-collision",
        "--a", "2", "--b", "0", "--omega", "i",
        "--seg", "0,2-sqrt(3),s:sqrt(2),1/10",
        "--budget", "20",
    )
    assert code == 0
    assert data["verdict"] == "no-collision-within-budget"
    assert data["budget"] == 20


def test_certify_sphere_not_flexible(capsys):
    code, data = _run(
        capsys,
        "certify-sphere",
        "--a", "2", "--b", "0", "--omega", "i",
        "--nu", "4",
        "--seg", "0,2-sqrt(3),s:sqrt(2),1/18",
    )
    assert code == 0
    assert data["verdict"] == "not-flexible"
    assert data["witness"]["m"] <= 7


def test_verify_semiconjugacy_cli(tmp_path, capsys):
    csv = tmp_path / "samples.csv"
    code, data = _run(
        capsys,
        "verify-semiconjugacy",
        "--a", "2", "--b", "0", "--omega", "i",
        "--samples", "60", "--tol", "1e-6",
        "--dump-csv", str(csv),
    )
    assert code == 0
    assert data["passed"] is True
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "z_re,z_im,wp_re,wp_im,residual"
    assert len(lines) == 61
    # each line is its row formatted from Python floats
    from flatwander.lattes import lattes_model_new, verify_semiconjugacy
    from flatwander.lattice import Lattice, point
    from flatwander.numbers import parse_complex
    from flatwander.torus_map import torus_map_new

    tm = torus_map_new(parse_complex("2"), parse_complex("0"), Lattice(parse_complex("i")))
    rows = verify_semiconjugacy(lattes_model_new(tm.lattice, tm, 2, point(0, 0)), 60)["rows"]
    assert lines[1:] == [",".join(f"{float(v):.17g}" for v in row) for row in rows]


def test_determinism_byte_identical(capsys):
    argv = [
        "certify-segment",
        "--a", "2", "--b", "0", "--omega", "i",
        "--slope", "sqrt(2)", "--alpha", "1/3", "--beta", "0",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_plot_orbit_svg(tmp_path, capsys):
    out = tmp_path / "orbit.svg"
    code, data = _run(
        capsys,
        "plot-orbit",
        "--a", "2", "--b", "0", "--omega", "i",
        "--slope", "sqrt(2)", "--alpha", "sqrt(3)-1", "--beta", "0",
        "--t0", "0", "--t1", "1/10",
        "--iterates", "5",
        "--out", str(out),
    )
    assert code == 0
    doc = out.read_text()
    assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
    assert doc.count("<polygon") == 1
    assert doc.count("iterate ") == 6
    # deterministic bytes
    main([
        "plot-orbit",
        "--a", "2", "--b", "0", "--omega", "i",
        "--slope", "sqrt(2)", "--alpha", "sqrt(3)-1", "--beta", "0",
        "--t0", "0", "--t1", "1/10",
        "--iterates", "5",
        "--out", str(out),
    ])
    capsys.readouterr()
    assert out.read_text() == doc


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a": "2", "b": "0", "omega": "i"}))
    code, data = _run(
        capsys,
        "--config", str(cfg),
        "classify-map",
    )
    assert code == 0
    assert data["degree"] == 4


def test_usage_error_exit_2(capsys):
    code, data = _run(capsys, "certify-segment", "--a", "2", "--omega", "i")
    assert code == 2
    assert data["error"] == "usage"


def test_empty_svg_is_parallelogram_only(tmp_path):
    from flatwander.cli import emit_orbit_svg
    from flatwander.lattice import Lattice
    from flatwander.numbers import parse_complex

    out = tmp_path / "empty.svg"
    doc = emit_orbit_svg(Lattice(parse_complex("i")), [], str(out))
    assert doc.count("<polygon") == 1
    assert "<polyline" not in doc


def test_witness_glyph_marked(tmp_path, capsys):
    out = tmp_path / "c.svg"
    code, _ = _run(
        capsys,
        "plot-orbit",
        "--a", "1+1i", "--b", "0", "--omega", "i",
        "--seg", "0.1,0.2,h,0.05",
        "--iterates", "4",
        "--mark-witness", "1/4,1/2",
        "--out", str(out),
    )
    assert code == 0
    assert 'stroke="#cc0000"' in out.read_text()


def test_tol_out_of_range_rejected(capsys):
    code, data = _run(
        capsys,
        "verify-semiconjugacy",
        "--a", "2", "--b", "0", "--omega", "i",
        "--samples", "20", "--tol", "2.0",
    )
    assert code == 2 and data["error"] == "usage"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "flatwander.cli", "classify-map", "--a", "2", "--omega", "i"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["degree"] == 4


@pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
def test_certificate_json_matches_golden(capsys, case):
    code = main(list(case["argv"]))
    assert code == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def _process(*argv):
    """One CLI run as its own process: exit code, stdout JSON and seconds.
    It is killed after 10 s, so a regression to a walk of every state fails
    before the walk's numbers fill memory."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "flatwander.cli", *argv],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
        timeout=10,
    )
    return proc.returncode, json.loads(proc.stdout), time.perf_counter() - start


def test_a_moving_miss_costs_one_step_at_any_budget():
    # the invariant's sqrt(7) part doubles at every step, so no two iterates
    # share a loop; walking a million states took minutes
    code, data, seconds = _process(
        "find-collision", "--a=-2", "--omega", "i",
        "--seg", "sqrt(7)/2,sqrt(7)/6,s:-1/3,1/500", "--budget", "1000000",
    )
    assert (code, data) == (
        0, {"budget": 1000000, "group_order": 1, "verdict": "no-collision-within-budget"}
    )
    assert seconds < 5


def test_a_radicand_is_split_fast_up_to_the_cap():
    argv = ("classify-line", "--a", "2", "--omega", "i", "--slope")
    # 10^17 + 3 took 42 s by trial division to its square root
    code, data, seconds = _process(*argv, "sqrt(100000000000000003)")
    assert (code, data["verdict"], data["cycle"]) == (0, "eventually-periodic", [["0", "0"]])
    assert seconds < 5
    code, data, seconds = _process(*argv, "2*sqrt(1000000000000000001)")
    assert (code, data) == (
        3, {"error": "budget-exceeded", "message": "radicands are capped at 10^18"}
    )
    assert seconds < 5


def test_an_orbit_too_long_to_walk_is_refused_fast(capsys):
    argv = ["classify-line", "--a", "3", "--omega", "i", "--slope", "sqrt(2)", "--beta", "0"]
    start = time.perf_counter()
    code, data = _run(capsys, *argv, "--alpha", "1/1000000007")
    assert time.perf_counter() - start < 5
    assert code == 3 and data["error"] == "budget-exceeded"
    # period 100002, the order of 3 mod the prime 100003, is under the cap
    code, data = _run(capsys, *argv, "--alpha", "1/100003")
    assert code == 0 and (data["preperiod"], data["period"]) == (0, 100002)
    assert data["cycle"][1] == ["3/100003", "0"]


def _no_constant(token):
    raise ValueError(f"{token} is not strict JSON")


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)


@pytest.mark.parametrize(
    "name",
    ["cli_golden", "find_collision_golden", "input_errors_golden", "orbit_golden",
     "plot_orbit_golden", "semiconj_golden"],
)
def test_golden_outputs_are_strict_json(name):
    # NaN and Infinity are Python's extensions; strict parsers reject them.
    # The JSON writer writes each payload as json.dumps does.
    cases = json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text())
    for case in cases:
        payload = json.loads(case["stdout"], parse_constant=_no_constant)
        assert cli._json(payload) == _dumps(payload) == case["stdout"][:-1]


_EDGE_PAYLOADS = [
    {"ascii": "plain", "accents": "é ñ ü", "cjk": "数学", "astral": "\U0001d4b5"},
    {"escapes": "quote \" backslash \\ tab \t nl \n cr \r nul \x00 \x1f del \x7f",
     "separators": "\u2028\u2029", "lone surrogate": "\ud800"},
    {"é": 1, "\n": 2, "": 3, "a\"b": 4, "Z": 5, "a": 6},
    {"zeros": [0.0, -0.0, 0, -0], "big": [1e16, -1e16, 1e308, 2**80, -(2**80)],
     "small": [5e-324, -5e-324, 1e-7, 0.1], "ints": [True, False, 1, -1]},
    {"none": None, "bools": [True, False, None], "empty": {}, "nil": [], "tuple": (1, "x")},
    [], {}, [[]], [{}], {"a": {"b": {"c": [[], {}, [1, [2, [3]]]]}}}, "text", 0, -0.0, None,
]


@pytest.mark.parametrize("payload", _EDGE_PAYLOADS)
def test_the_json_writer_matches_json_dumps_on_edge_values(payload):
    assert cli._json(payload) == _dumps(payload)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_VALUES)
def test_the_json_writer_matches_json_dumps_on_nested_payloads(payload):
    # infinities included: both sides refuse them
    try:
        want = _dumps(payload)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            cli._json(payload)
        assert str(got.value) == str(exc)
    else:
        assert cli._json(payload) == want


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [lambda x: x, lambda x: {"a": [1, {"b": x}]}, lambda x: [x]])
def test_the_json_writer_refuses_non_finite_floats_as_json_dumps_does(bad, where):
    with pytest.raises(ValueError) as want:
        _dumps(where(bad))
    with pytest.raises(ValueError) as got:
        cli._json(where(bad))
    assert str(got.value) == str(want.value)


def test_a_non_finite_float_is_still_an_invalid_input(monkeypatch, capsys):
    # main's invalid-input path reports the refusal in a payload of its own
    monkeypatch.setattr(cli, "_verdict_json", lambda v: {"bound_used": math.nan})
    code = main(["find-collision", "--a", "1+1i", "--omega", "i", "--seg", "1/5,1/7,h,1/10"])
    with pytest.raises(ValueError) as refusal:
        _dumps({"bound_used": math.nan})
    want = {"error": "invalid-input", "message": str(refusal.value)}
    assert (code, capsys.readouterr().out) == (2, _dumps(want) + "\n")


def test_integer_multiplier_collision_emits_a_null_bound(capsys):
    code, data = _run(
        capsys,
        "find-collision", "--a=-2", "--omega", "i", "--b", "sqrt(2)/5", "--slope", "sqrt(2)",
        "--alpha", "1/5", "--beta", "0", "--t0=-1/10", "--t1=1/10", "--budget", "6",
    )
    assert code == 0 and data["verdict"] == "collision"
    assert data["bound_used"] is None


def test_certify_segment_slack_beyond_double_range(capsys):
    code, data = _run(
        capsys,
        "certify-segment",
        "--a", "2", "--omega", "i", "--slope", "sqrt(2)",
        "--alpha", "1/1061", "--beta", "0", "--t0", "0", "--t1", "1/10",
    )
    assert code == 0
    assert data["verdict"] == "wandering" and data["period"] == 1060
    assert data["slack_float"] is None
    assert (parse_number(data["slack"]) - 2**1024).sign() > 0


@pytest.mark.parametrize("command", ["certify-segment", "certify-sphere"])
def test_negative_check_iterates_rejected(capsys, command):
    code, data = _run(
        capsys,
        command,
        "--a", "2", "--omega", "i", "--slope", "sqrt(2)",
        "--alpha", "1/5", "--beta", "0", "--check-iterates=-3",
        *(["--verify-oracle"] if command == "certify-segment" else []),
    )
    assert code == 2
    assert data == {"error": "usage", "message": "check_iterates must be >= 0, got -3"}


@pytest.mark.parametrize("command", ["certify-segment", "certify-sphere"])
@pytest.mark.parametrize("check", [1025, 10**6])
def test_check_iterates_above_the_cap_rejected(capsys, command, check):
    # the oracle is O(k^2): at the cap of 1024 a period-1 line takes seconds,
    # and 10**6 would run for days; past it the refusal comes before any walk
    start = time.perf_counter()
    code, data = _run(
        capsys,
        command,
        "--a", "2", "--omega", "i", "--slope", "sqrt(2)",
        "--alpha", "1/5", "--beta", "0", f"--check-iterates={check}",
        *(["--verify-oracle"] if command == "certify-segment" else []),
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert data == {"error": "usage", "message": f"check_iterates must be at most 1024, got {check}"}


def test_negative_check_iterates_rejected_by_api():
    from flatwander.errors import UsageError
    from flatwander.lattice import Lattice
    from flatwander.line_orbit import TorusLine, slope_spec
    from flatwander.numbers import parse_complex, qn
    from flatwander.segments import certify_wandering, segment_new
    from flatwander.torus_map import torus_map_new

    tm = torus_map_new(parse_complex("2"), parse_complex("0"), Lattice(parse_complex("i")))
    line = TorusLine(slope_spec(parse_number("sqrt(2)")), parse_number("1/5"), qn(0))
    with pytest.raises(UsageError):
        certify_wandering(tm, segment_new(line, qn(0), parse_number("1/10")), check_iterates=-1)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["plot-orbit", "--seg", "0.1,0.2,h,0.05", "--iterates=-2"],
         "iterate count must be >= 0, got -2"),
        (["verify-semiconjugacy", "--samples", "0"], "samples must be >= 1, got 0"),
        (["verify-semiconjugacy", "--samples", "100001"],
         "samples must be <= 100000, got 100001"),
        (["plot-orbit", "--seg", "0.1,0.2,h,0.05", "--iterates", "10000"],
         "too many segments to plot"),
    ],
    ids=["plot-iterates", "semiconj-samples", "semiconj-samples-cap", "plot-cap"],
)
def test_bad_counts_rejected(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code, data = _run(capsys, *argv[:1], "--a", "2", "--omega", "i", *argv[1:])
    assert code == 2
    assert data == {"error": "usage", "message": message}
    assert not (tmp_path / "orbit.svg").exists()


def test_the_plot_cap_is_checked_before_any_lift_is_built(tmp_path, monkeypatch, capsys):
    from flatwander import cli

    monkeypatch.chdir(tmp_path)
    built = []
    monkeypatch.setattr(cli, "lift_orbit", lambda *args: built.append(args))
    code, data = _run(capsys, "plot-orbit", "--a", "1+1i", "--omega", "i",
                      "--seg", "0.1,0.2,h,0.05", "--iterates", "40000")
    assert (code, data["error"], built) == (2, "usage", [])


def test_a_plot_stops_building_lifts_at_the_first_beyond_double_range(
    tmp_path, monkeypatch, capsys
):
    from flatwander import segments

    monkeypatch.chdir(tmp_path)
    images = []
    image = segments._normalized

    def counted(f, den, lift):
        images.append(lift)
        return image(f, den, lift)

    monkeypatch.setattr(segments, "_normalized", counted)
    code, data = _run(capsys, "plot-orbit", "--a", "1+1i", "--omega", "i",
                      "--seg", "0.1,0.2,h,0.05", "--iterates", "2100")
    # iterate 2058 is the first beyond double range: lift 0 and the images
    # that are lifts 1..2058, no more
    assert (code, data["error"]) == (3, "budget-exceeded")
    assert 1 + len(images) <= 2059


@pytest.mark.parametrize(
    "a, iterates, refused",
    [("1+1i", 2100, 2058), ("3", 700, 649), ("3", 648, None)],
)
def test_a_plot_beyond_double_range_is_refused(tmp_path, monkeypatch, capsys, a, iterates, refused):
    # exact lifts grow as |a|^n; floats of the SVG cannot follow past ~1e308
    monkeypatch.chdir(tmp_path)
    code, data = _run(capsys, "plot-orbit", "--a", a, "--omega", "i",
                      "--seg", "0.1,0.2,h,0.05", "--iterates", str(iterates))
    if refused is None:
        assert code == 0 and data["segments"] == iterates + 1
        return
    assert code == 3
    assert data == {
        "error": "budget-exceeded",
        "message": f"iterate {refused} lies beyond double range; plot fewer",
    }
    assert not (tmp_path / "orbit.svg").exists()


@pytest.mark.parametrize("value", [True, False])
def test_config_booleans_switch_flags(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify_oracle": value, "check_iterates": 6}))
    code, data = _run(
        capsys,
        "--config", str(cfg),
        "certify-segment", "--a", "2", "--omega", "i",
        "--slope", "sqrt(2)", "--alpha", "1/3", "--beta", "0",
    )
    assert code == 0
    assert data["checked_iterates"] == 6
    assert data.get("oracle_pairwise_disjoint") is (True if value else None)


def test_a_null_config_value_leaves_its_option_unset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": None}))
    argv = ["classify-map", "--a", "2", "--omega", "i"]
    assert main(["--config", "cfg.json", *argv]) == 0
    out = capsys.readouterr().out
    assert main(argv) == 0 and out == capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    # a null budget is the default budget, not the string 'None'
    (tmp_path / "cfg.json").write_text(json.dumps({"budget": None, "nu": None}))
    argv = ["find-collision", "--a", "1+1i", "--omega", "i", "--seg", "0.1,0.2,h,0.05"]
    assert main(["--config", "cfg.json", *argv]) == main(argv) == 0
    first, second = capsys.readouterr().out.split("}\n{")
    assert first + "}\n" == "{" + second
    for argv in (["--config", "cfg.json", *argv], ["--config=cfg.json", "classify-map", "--a=2"]):
        assert _outcome(_table_options, argv) == _outcome(argparse_options, argv)


def test_a_config_that_is_no_json_object_is_a_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    code, data = _run(capsys, "--config", str(cfg), "classify-map", "--a", "2", "--omega", "i")
    assert (code, data) == (2, {"error": "usage", "message": "unreadable config: not a JSON object"})


def _semiconj(capsys, a, omega):
    return _run(capsys, "verify-semiconjugacy", "--a", a, f"--omega={omega}")


def test_semiconjugacy_verdict_is_basis_independent(capsys):
    # 5+1/2i and 1/2i are two bases of one lattice
    for omega in ("5+1/2i", "1/2i"):
        code, data = _semiconj(capsys, "2", omega)
        assert code == 0 and data["passed"], omega
    (c1, d1), (c2, d2) = (_semiconj(capsys, "3", w) for w in ("5+1/2i", "1/2i"))
    assert c1 == c2 and d1.get("error") == d2.get("error")


@pytest.mark.parametrize(
    "argv",
    [
        # a half-period b: R(inf) is finite, so deg Q = deg P - 1 does not hold
        ["--a", "2", "--b", "1/2", "--omega", "i"],
        ["--a", "2", "--b", "1/2i", "--omega", "i"],
        ["--a", "2", "--b", "1/2+1/2i", "--omega", "i"],
        ["--a", "3", "--b", "1/2", "--omega", "1/2+i"],
        # off-centre: the check runs in w = z - z0 with b' = A(z0) - z0
        ["--a", "2", "--b", "3/4", "--omega", "i", "--z0", "1/4,0"],
        ["--a", "2", "--b", "1/4", "--omega", "i", "--z0", "1/4,0"],
        ["--a", "3", "--omega", "2i", "--samples", "420"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_semiconjugacy_closed_form(capsys, argv):
    code, data = _run(capsys, "verify-semiconjugacy", *argv)
    assert code == 0, data
    assert data["max_residual"] < 1e-10
    assert data["fitted_degree"] == int(argv[1]) ** 2
    assert data["coef_rel_error"] is None


# byte-exact verify-semiconjugacy output and --dump-csv rows: the benchmark's
# valid (a, omega) pairs at three sample counts, a = 3 on 2i, half-period
# translations and off-centre rotation centres
SEMICONJ_GOLDEN = json.loads((ROOT / "tests" / "data" / "semiconj_golden.json").read_text())


@pytest.mark.parametrize("case", SEMICONJ_GOLDEN, ids=[c["name"] for c in SEMICONJ_GOLDEN])
def test_semiconjugacy_matches_golden(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    code = main(list(case["argv"]))
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])
    csv = hashlib.sha256((tmp_path / "samples.csv").read_bytes()).hexdigest()
    assert csv == case["csv_sha256"]


def test_a_huge_sample_count_is_refused_before_any_draw(capsys):
    from flatwander import lattes

    drawn = len(lattes._STREAM[1])
    start = time.perf_counter()
    code, data = _run(capsys, "verify-semiconjugacy", "--a", "2", "--omega", "i",
                      "--samples", "100000000")
    assert time.perf_counter() - start < 1
    assert (code, data["error"]) == (2, "usage")
    assert len(lattes._STREAM[1]) == drawn


_THIN = """
import sys
from flatwander.cli import main
sys.exit(main(["verify-semiconjugacy", "--a", "2", "--omega", sys.argv[1]]))
"""


def test_semiconjugacy_refuses_thin_lattices_quietly():
    # wp cancels near e2 = e3 on thin lattices: a typed refusal, no numpy warning
    for omega in ("4i", "20i", "1/100i", "10000i"):
        proc = subprocess.run(
            [sys.executable, "-c", _THIN, omega],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=child_env(),
        )
        assert (proc.returncode, proc.stderr) == (3, ""), omega
        assert json.loads(proc.stdout)["error"] == "residual-exceeds-tol", omega
        if omega == "10000i":
            assert "non-finite residual nan" in json.loads(proc.stdout)["message"]


def _readme_commands() -> list[list[str]]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [ln for ln in block.replace("\\\n", " ").splitlines() if ln.strip()]
    return [shlex.split(ln)[1:] for ln in lines if ln.startswith("flatwander ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) == 8
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, (argv, out)
        assert isinstance(json.loads(out), dict)


# a README row of the table of caps: name, module, value, exit code, error
_CAP_ROW = re.compile(r"^\| `(\w+)` \| `flatwander\.(\w+)` \| ([\d,^]+) \| (\d), `([a-z-]+)`", re.M)
# an argv past each cap; the translate cap's breach needs a long search, so
# its argv breaches it once the cap is lowered in process
_BREACHES = {
    "MAX_RADICAND": "classify-map --a sqrt(1000000000000000001) --omega i",
    "MAX_ORBIT_STATES": "classify-line --a 3 --omega i --slope sqrt(2) --alpha 1/1000000007",
    "MAX_CHECK_ITERATES": "certify-segment --a 2 --omega i --slope sqrt(2) --check-iterates 1025",
    "MAX_RETURN_DIGITS": "certify-sphere --a 3 --omega i --slope sqrt(2) --alpha 1/50021 "
                         "--t0 1/10 --t1 1/5",
    "MAX_SAMPLES": "verify-semiconjugacy --a 2 --omega i --samples 100001",
    "MAX_KERNEL_SAMPLES": "verify-semiconjugacy --a 8 --omega i --samples 100000",
    "_MAX_PLOT_SEGMENTS": "plot-orbit --a 2 --omega i --seg 0,1/7,h,1/10 --iterates 10000",
    "_TRANSLATE_CAP": "find-collision --a 1+1i --omega i --seg 0.1,0.2,h,0.05",
}


def test_the_readme_lists_every_cap_with_its_value_and_exit_code(monkeypatch, capsys):
    rows = _CAP_ROW.findall((ROOT / "README.md").read_text())
    assert [row[0] for row in rows] == list(_BREACHES)
    for name, module, value, code, error in rows:
        mod = importlib.import_module(f"flatwander.{module}")
        base, _, power = value.replace(",", "").partition("^")
        assert getattr(mod, name) == int(base) ** int(power or 1), name
        if name == "_TRANSLATE_CAP":
            monkeypatch.setattr(mod, name, 0)
        assert main(shlex.split(_BREACHES[name])) == int(code), name
        assert json.loads(capsys.readouterr().out)["error"] == error, name


# argparse-class errors: exit 2, nothing on stdout, and the last line of
# stderr; an unreadable config is a JSON usage error instead
USAGE_GOLDEN = json.loads((ROOT / "tests" / "data" / "usage_errors_golden.json").read_text())


def _outcome(parse, argv: list[str]):
    """What ``parse`` makes of argv: its option values, or the exit code and
    the last line of stderr of a SystemExit, or the text of a config error."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return parse(list(argv))
    except SystemExit as exc:
        return exc.code, (err.getvalue().splitlines() or [""])[-1] if exc.code else ""
    except (UsageError, ValueError) as exc:
        return "config", str(exc)


def _table_options(argv: list[str]) -> dict:
    return vars(cli._parse(argv)[1])


def _with_config(case, tmp_path, monkeypatch) -> list[str]:
    monkeypatch.chdir(tmp_path)
    if "config" in case:
        cfg = case["config"]
        (tmp_path / "cfg.json").write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return case["argv"]


@pytest.mark.parametrize("case", USAGE_GOLDEN, ids=[c["name"] for c in USAGE_GOLDEN])
def test_usage_errors_match_golden(tmp_path, monkeypatch, capsys, case):
    argv = _with_config(case, tmp_path, monkeypatch)
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert (code, captured.out, lines[-1] if lines else "") == (
        case["exit"], case["stdout"], case["stderr"]
    )
    if captured.err:
        # the usage line above the error names the command's options
        assert lines[0].startswith("usage: flatwander")


@pytest.mark.parametrize("command", [None, *COMMANDS])
@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_names_every_option(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, flag] if command else [flag])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    names = [opt.name for opt in COMMANDS[command][2]] if command else [*COMMANDS, "--config"]
    assert out.startswith("usage: flatwander") and all(name in out for name in names)


# every spelling of every option name, of any command or of flatwander, and
# arguments that spell none
_SPELLINGS = sorted({"-h", "--help", "--", "--config", "seg", "-", "-x", "---", "", *(
    name[:end] for name in {*cli._TOP, *cli._DESTS} for end in range(3, len(name) + 1))})


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_the_spelling_table_agrees_with_the_prefix_rule(command):
    # each table gives every argument the names, in order, that scanning
    # the command's option names gave it
    names = cli._NAMES[command] if command else cli._TOP
    table = cli._SPELLINGS[command]
    got = {spelling: list(table.get(spelling, ())) for spelling in _SPELLINGS}
    assert got == {spelling: option_matches(names, spelling) for spelling in _SPELLINGS}
    assert set(table) <= set(_SPELLINGS)


@pytest.mark.parametrize("command", COMMANDS)
def test_an_ambiguous_spelling_fails_as_the_prefix_rule_did(capsys, command):
    names = cli._NAMES[command]
    ambiguous = [spelling for spelling in _SPELLINGS if len(option_matches(names, spelling)) > 1]
    assert ambiguous  # "--o" is --omega or --out in every command
    for spelling in ambiguous:
        for arg in (spelling, f"{spelling}=1"):
            with pytest.raises(SystemExit) as exc:
                main([command, arg])
            hits = ", ".join(option_matches(names, spelling))
            error = f"flatwander {command}: error: ambiguous option: {arg} could match {hits}"
            assert exc.value.code == 2
            assert capsys.readouterr() == ("", f"{cli._usage(command)}\n{error}\n")


def test_a_collision_case_skips_the_tokenizer_and_runs_bezout_at_most_once(monkeypatch, capsys):
    # the front end reads the common literals without the parser and builds
    # the direction's frame with its direction; the first call caches the
    # covering, whose complex literals the parser reads
    argv = ["find-collision", "--a=-2", "--omega", "i",
            "--seg", "sqrt(7)/2,sqrt(7)/6,s:-1/3,1/500", "--budget", "9"]
    assert main(list(argv)) == 0
    want = capsys.readouterr().out
    calls, bezout = [], line_orbit.bezout
    monkeypatch.setattr(numbers, "_Parser", None)  # called, it would raise TypeError
    monkeypatch.setattr(line_orbit, "bezout", lambda m, k: calls.append((m, k)) or bezout(m, k))
    assert main(list(argv)) == 0
    assert capsys.readouterr().out == want
    assert json.loads(want)["verdict"] == "no-collision-within-budget"
    assert len(calls) <= 1


def test_the_option_tables_read_argv_as_argparse_did(tmp_path, monkeypatch):
    # every argv of the goldens, errors included, against the argparse front
    # end they were recorded with
    goldens = [*GOLDEN, *USAGE_GOLDEN]
    for name in ("find_collision_golden", "plot_orbit_golden"):
        goldens += json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text())
    for case in goldens:
        argv = _with_config(case, tmp_path, monkeypatch)
        want = _outcome(argparse_options, argv)
        assert _outcome(_table_options, argv) == want, argv


# values taken whole after their option: ones that start with '-', options'
# prefixes and strings with '='; never an exact option name (read as that
# option by both), a '--config' (taken out before parsing) or a lone '--'
# (argparse turns it into an empty list)
_VALUES = st.one_of(
    st.sampled_from(["2", "i", "-1/2", "-i", "-", "--o", "--al", "--t", "-h1", "-1,2",
                     "-0.7,1/5,s:sqrt(2),1/10", "a=b", "--x=1", "", " -1", "x"]),
    st.integers(-50, 50).map(str),
    st.text("-=a1 ,", max_size=4).filter(lambda v: v != "--" and not v.startswith("--c")),
)


def _spellings(names: list[str], name: str) -> list[str]:
    """``name`` and each abbreviation of it that no other option shares."""
    return [name] + [name[:k] for k in range(3, len(name))
                     if [n for n in names if n.startswith(name[:k])] == [name]]


_NUMBERS = {
    int: st.integers(-20, 20).map(str) | st.sampled_from(["-3", "x", "1.5", " 7"]),
    float: st.floats(-1, 1).map(repr) | st.sampled_from(["-1e-3", "x", "nan"]),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options = COMMANDS[command][2]
    names = ["--help", *(opt.name for opt in options)]
    argv = []
    for opt in draw(st.lists(st.sampled_from(options), max_size=9)):
        flag = draw(st.sampled_from(_spellings(names, opt.name)))
        if opt.kind is bool:
            argv.append([flag])
            continue
        value = draw(_NUMBERS[opt.kind] if opt.kind is not str else _VALUES)
        if value in names or value == "-h":
            value = "x"
        argv.append([f"{flag}={value}"] if draw(st.booleans()) else [flag, value])
    # a required option is left out once in ten draws
    required = [[opt.name, "1"] for opt in options if opt.required and draw(st.integers(0, 9))]
    order = draw(st.permutations(argv + required))
    return [command, *(arg for group in order for arg in group)]


@settings(max_examples=300, deadline=None)
@given(_argvs())
def test_the_option_tables_read_shuffled_abbreviated_argv_as_argparse_did(argv):
    # compared as text, since --tol nan reads as a float unequal to itself
    assert repr(_outcome(_table_options, argv)) == repr(_outcome(argparse_options, argv))


_MODULES = """
import contextlib, io, json, sys
before = set(sys.modules)
from flatwander.cli import main
imported = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(imported), sorted(set(sys.modules) - before)]))
"""
_CLI_MODULES = ["flatwander", "flatwander.cli", "flatwander.errors", "flatwander.lattice",
                "flatwander.lift_arith", "flatwander.line_orbit", "flatwander.numbers",
                "flatwander.segments", "flatwander.torus_map"]
_UNUSED_AT_START = {"argparse", "cmath", "colorsys", "dataclasses", "flatwander.lattes",
                    "inspect", "numpy", "random"}


@pytest.mark.parametrize(
    "argv,lattes",
    [
        ("find-collision --a 1+1i --b 0 --omega i --seg 0.1,0.2,h,0.05", False),
        ("certify-sphere --a 2 --b 0 --omega i --nu 2 --z0 0,0 --seg 0,2-sqrt(3),s:sqrt(2),1/10",
         True),
        ("find-collision --a 2 --b 0 --omega i --nu 4 --z0 0,0 --seg 0,1/7,s:sqrt(2),1/18", True),
    ],
    ids=["find-collision", "certify-sphere", "find-collision-nu"],
)
def test_a_command_loads_only_the_modules_it_runs(argv, lattes):
    # a CLI process is mostly start-up: importing the CLI loads the package's
    # modules that every command runs and no stdlib module that only some
    # need, and lattes is loaded by the commands that build a Lattes model
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES, json.dumps(argv.split())],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    code, imported, loaded = json.loads(proc.stdout)
    assert code == 0
    assert [name for name in imported if name.startswith("flatwander")] == _CLI_MODULES
    assert _UNUSED_AT_START.isdisjoint(imported)
    assert ("flatwander.lattes" in loaded) is lattes


@pytest.mark.parametrize("z0, code", [("1/3,1/5", 2), ("0,0", 0)])
def test_group_mode_requires_descent(capsys, z0, code):
    # z -> 2z does not descend through the order-4 quotient about (1/3, 1/5):
    # certify-sphere refuses that model, and so does the group-mode search
    got, data = _run(
        capsys,
        "find-collision",
        "--a", "2", "--omega", "i", "--nu", "4", "--z0", z0,
        "--seg", "0,1/7,s:sqrt(2),1/18",
    )
    assert got == code
    if code:
        assert data["error"] == "not-lattes-compatible"
    else:
        assert data["verdict"] == "collision"


def test_acceptance_passes_under_optimize():
    # verdicts must not rest on assert statements
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


_THREE_RADICANDS = ("find-collision", "--a", "1+1i", "--omega", "i",
                    "--seg", "sqrt(2)/3,1/5,s:sqrt(3),1/10")


def test_three_radicands_are_refused(capsys):
    # the anchor's sqrt(2), the slope's sqrt(3) and b's sqrt(5): no
    # two-radicand field holds the search, so its first surviving translate
    # is refused, naming the three
    code, data = _run(capsys, *_THREE_RADICANDS, "--b", "sqrt(5)/7")
    assert code == 2
    assert data == {"error": "mixed-radicals", "message": "sqrt(2), sqrt(3), sqrt(5) in one search"}


def test_two_radicands_collide_in_their_tower(capsys):
    # the same segment under b = 0 stays in the tower Q(sqrt(2))(sqrt(3)); the
    # witness floats pin the exact floor and float conversion of its lifts
    code, data = _run(capsys, *_THREE_RADICANDS)
    assert code == 0
    assert data == {
        "bound_used": 5.656854249492381,
        "budget": 12,
        "exact": True,
        "k": 0,
        "m": 5,
        "n": 3,
        "verdict": "collision",
        "witness": [0.15703390635493827, 0.40879236339305197],
    }


def test_a_witness_float_is_the_nearest_double_where_its_parts_cancel(capsys):
    # iterate 28's arc is about 2.3e-7 long, and x's parts cancel: added as
    # floats, u/w and v*sqrt(d)/w once printed 0.779296875
    code, data = _run(capsys, "find-collision", "--a", "3", "--omega", "i",
                      "--seg", "sqrt(2)/3,1/7,h,1/100000000000000000000", "--budget", "1000")
    assert code == 0 and (data["n"], data["m"]) == (28, 40)
    assert data["witness"] == [0.7794594972595634, 0.5714285714285714]


@pytest.mark.parametrize(
    "name",
    ["cli_golden", "find_collision_golden", "input_errors_golden", "orbit_golden",
     "plot_orbit_golden", "semiconj_golden"],
)
def test_every_golden_float_is_the_nearest_double(monkeypatch, capsys, tmp_path, name):
    # each exact-to-float conversion replaced by the Decimal reference at 200
    # digits leaves every byte the goldens print as it is
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(numbers.QuadraticNumber, "to_float", nearest_double)
    monkeypatch.setattr(numbers.BiQuadratic, "to_float", nearest_double)
    for case in json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text()):
        assert main(list(case["argv"])) == case["exit"], case.get("name")
        assert capsys.readouterr().out == case["stdout"], case.get("name")
        if "svg" in case:
            assert (tmp_path / "orbit.svg").read_text() == case["svg"]


@pytest.mark.parametrize(
    "seg, check, replayed",
    [
        ("0,sqrt(3)-1,s:sqrt(2),1/10", None, 6),  # whole segment: at most 6
        ("0,sqrt(3)-1,s:sqrt(2),1/10", "4", 4),
        ("0,1/5,s:sqrt(2),1/10", None, 12),  # subsegment: every checked iterate
    ],
)
def test_sphere_certificate_reports_the_iterates_its_oracle_replayed(
    capsys, monkeypatch, seg, check, replayed
):
    from flatwander import lattes

    seen = []
    oracle = lattes.verify_sphere_disjoint_iterates

    def spy(model, sub, k):
        seen.append(k)
        return oracle(model, sub, k)

    monkeypatch.setattr(lattes, "verify_sphere_disjoint_iterates", spy)
    argv = ["certify-sphere", "--a", "2", "--b", "0", "--omega", "i", "--nu", "2",
            "--z0", "0,0", "--seg", seg]
    code, data = _run(capsys, *argv, *(["--check-iterates", check] if check else []))
    assert code == 0 and data["verdict"] == "wandering"
    assert seen == [replayed] and data["checked_iterates"] == replayed


@pytest.mark.parametrize(
    "argv",
    [
        ("find-collision", "--a", "1+1i", "--omega", "i"),
        ("certify-segment", "--a", "2", "--omega", "i"),
    ],
)
def test_an_irrational_segment_starts_at_its_anchor(capsys, argv):
    # the anchor is taken mod Z^2 and the segment runs from it, so anchors a
    # lattice vector apart give one certificate
    outs = []
    for x in ("0.3", "1.3", "-0.7"):
        code, data = _run(capsys, *argv, f"--seg={x},1/5,s:sqrt(2),1/10")
        assert code == 0
        outs.append(data)
    assert outs[0] == outs[1] == outs[2]
    if argv[0] == "find-collision":
        assert (outs[0]["n"], outs[0]["m"]) == (2, 4)
    else:
        assert outs[0]["interval"]["hi"] == "1/10"


def test_a_pair_of_lifts_with_no_common_tower_is_refused(capsys):
    # sqrt(3) in b, sqrt(2) in the anchor and sqrt(5) in the slope: the lift
    # pair has no two-radicand tower, and no float verdict stands in for it
    code, data = _run(capsys, "find-collision", "--a", "2i", "--omega", "i",
                      "--b", "sqrt(3)/7+5*sqrt(3)/11i",
                      "--seg", "9*sqrt(2)/13,7/17,s:sqrt(5),3/100", "--budget", "6")
    assert code == 2
    assert data == {"error": "mixed-radicals", "message": "sqrt(2), sqrt(3), sqrt(5) in one search"}


def test_a_segment_starting_with_a_minus_sign_parses_as_a_separate_argument(capsys, tmp_path):
    # argparse reads a bare '-0.7,...' as an option; the CLI attaches it to
    # --seg, so both spellings, and a config file's segment, give the same
    # certificate
    argv = ("find-collision", "--a", "1+1i", "--omega", "i")
    cfg = tmp_path / "seg.json"
    cfg.write_text(json.dumps({"seg": "-0.7,1/5,s:sqrt(2),1/10"}))
    runs = [
        _run(capsys, *argv, "--seg", "-0.7,1/5,s:sqrt(2),1/10"),
        _run(capsys, *argv, "--seg=-0.7,1/5,s:sqrt(2),1/10"),
        _run(capsys, *argv, "--config", str(cfg)),
    ]
    assert runs[0] == runs[1] == runs[2]
    code, data = runs[0]
    assert code == 0 and (data["n"], data["m"]) == (2, 4)


_DASH_VALUES = [
    (["classify-map", "--omega", "i"], "--a", "-2i"),
    (["classify-map", "--a", "2", "--omega", "i"], "--b", "-1/2"),
    (["classify-line", "--a", "2", "--omega", "i", "--slope", "sqrt(2)"], "--alpha", "-1/3"),
    (["certify-segment", "--a", "2", "--omega", "i", "--slope", "sqrt(2)", "--alpha", "1/5"],
     "--t0", "-1/40"),
    (["classify-line", "--a", "2", "--omega", "i", "--alpha", "1/5"], "--slope", "-sqrt(2)"),
    (["classify-line", "--a", "2", "--omega", "i", "--alpha", "1/5"], "--slope", "-1,2"),
    (["certify-sphere", "--a", "3", "--omega", "i", "--seg", "0,1/7,s:sqrt(2),1/18"],
     "--z0", "-1/2,0"),
]


@pytest.mark.parametrize(
    "argv, flag, value", _DASH_VALUES, ids=[flag for _, flag, _ in _DASH_VALUES]
)
def test_an_option_value_starting_with_a_minus_sign_is_attached(capsys, argv, flag, value):
    # argparse reads a bare '-1/2' as an option; the CLI attaches it to the
    # option before it, so both spellings print the same JSON
    spaced = main([*argv, flag, value])
    out = capsys.readouterr().out
    assert spaced == main([*argv, f"{flag}={value}"]) == 0
    assert out == capsys.readouterr().out


_ABBREVIATED = [
    (["classify-map", "--a", "2"], "--om", "-i"),
    (["classify-line", "--a", "2", "--omega", "i", "--slope", "sqrt(2)"], "--al", "-1/3"),
    (["certify-sphere", "--a", "3", "--omega", "i", "--seg", "0,1/7,s:sqrt(2),1/18"],
     "--z", "-1/2,0"),
    (["find-collision", "--a", "1+1i", "--omega", "i"], "--se", "-0.7,1/5,s:sqrt(2),1/10"),
]


@pytest.mark.parametrize(
    "argv, flag, value", _ABBREVIATED, ids=[flag for _, flag, _ in _ABBREVIATED]
)
def test_an_abbreviated_option_takes_a_value_starting_with_a_minus_sign(
    capsys, argv, flag, value
):
    # argparse resolves '--om' to '--omega' only after the value is split
    # off, so the value is attached to the abbreviation as to the full name
    spaced = main([*argv, flag, value])
    out = capsys.readouterr().out
    assert spaced == main([*argv, f"{flag}={value}"])
    assert out == capsys.readouterr().out and out.startswith("{")


def test_an_ambiguous_abbreviation_is_left_to_argparse(capsys):
    argv = ["certify-segment", "--a", "2", "--omega", "i", "--slope", "sqrt(2)", "--alpha", "1/5"]
    for tail in (["--t", "-1/40"], ["--t=-1/40"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, *tail])
        assert exc.value.code == 2
        assert "could match --t0, --t1" in capsys.readouterr().err


def test_a_config_value_starting_with_a_minus_sign(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": "-1/2"}))
    argv = ["classify-map", "--a", "2", "--omega", "i"]
    code = main(["--config", str(cfg), *argv])
    out = capsys.readouterr().out
    assert code == main([*argv, "--b=-1/2"]) == 0
    assert out == capsys.readouterr().out
    assert json.loads(out)["b"] == ["1/2", "0"]
    # a config value is always a value, even one spelled like an option
    cfg.write_text(json.dumps({"b": "-h"}))
    code, data = _run(capsys, "--config", str(cfg), *argv)
    assert code == 2 and data["error"] == "syntax"


def test_a_command_line_value_overrides_its_config_value(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": "1/3"}))
    code, data = _run(capsys, "--config", str(cfg), "classify-map", "--a", "2", "--omega", "i",
                      "--b=1/5")
    assert code == 0 and data["b"] == ["1/5", "0"]
    # the attached spelling --config=PATH reads the file too, and an
    # abbreviated option on the command line wins over the file's value
    cfg.write_text(json.dumps({"a": "3", "omega": "2i", "b": "1/3"}))
    cases = [
        ([f"--config={cfg}", "classify-map", "--b=1/5"], (3, 0, 0, 3), ["1/5", "0"]),
        (["--config", str(cfg), "classify-map", "--a", "1+1i", "--om", "i"],
         (1, 1, -1, 1), ["1/3", "0"]),
    ]
    for argv, matrix, b in cases:
        code, data = _run(capsys, *argv)
        assert code == 0, data
        assert ((data["p"], data["q"], data["r"], data["s"]), data["b"]) == (matrix, b)


def test_an_option_name_is_never_taken_as_a_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify-map", "--a", "--omega", "i"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["classify-line", "--slope", "a,b"],
         "--slope 'm,k' takes two integers, not both 0, got 'a,b'"),
        (["classify-line", "--slope", "1.5,2"],
         "--slope 'm,k' takes two integers, not both 0, got '1.5,2'"),
        (["classify-line", "--slope", "0,0"],
         "--slope 'm,k' takes two integers, not both 0, got '0,0'"),
        (["certify-segment", "--slope", "1,2,3"],
         "--slope 'm,k' takes two integers, not both 0, got '1,2,3'"),
        (["plot-orbit", "--seg", "0,0,h,1/10", "--mark-witness", "1"],
         "--mark-witness takes 'x,y', got '1'"),
    ],
    ids=["letters", "decimal", "zero", "triple", "witness"],
)
def test_malformed_pairs_name_their_flag(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code, data = _run(capsys, argv[0], "--a", "2", "--omega", "i", *argv[1:])
    assert code == 2
    assert data == {"error": "usage", "message": message}
    assert not (tmp_path / "orbit.svg").exists()


def test_every_child_process_takes_the_shared_environment():
    # an environment of its own would drop PYTHONDONTWRITEBYTECODE, and the
    # child would write byte code into the checkout
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "tests").glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.keyword) and node.arg == "env"
        and not (isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "child_env")
    ]
    assert found == []


@pytest.mark.parametrize("dont_write", [True, False])
def test_a_child_writes_byte_code_only_when_the_test_run_does(monkeypatch, dont_write):
    monkeypatch.setattr(sys, "dont_write_bytecode", dont_write)
    env = child_env(ROOT / "tests")
    assert env["PYTHONPATH"].split(":") == [str(ROOT / "src"), str(ROOT / "tests")]
    assert ("PYTHONDONTWRITEBYTECODE" in env) is dont_write


def test_no_assert_statements_in_the_package():
    # python -O strips asserts, so a check written as one would vanish
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "flatwander").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_dataclasses_in_the_package():
    # a dataclass generates and compiles its methods when its module is
    # imported, and a CLI process is mostly start-up
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "flatwander").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
        or isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
    ]
    assert found == []


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function and class,
    and of each public method of a public class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and member.name[0] != "_":
                    yield f"{node.name}.{member.name}", member


def test_every_public_name_in_the_package_is_named_outside_its_definition():
    # src/ holds what the commands, the certificates and bench/ run; a public
    # function, class or method that only the tests name belongs in
    # tests/reference.py
    package = sorted(p for p in (ROOT / "src" / "flatwander").glob("*.py") if p.name != "__init__.py")
    sources = {p: p.read_text() for p in [*package, *sorted((ROOT / "bench").glob("*.py"))]}
    unnamed = []
    for path in package:
        lines = sources[path].splitlines(keepends=True)
        for qualname, node in _public_definitions(ast.parse(sources[path])):
            outside = "".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            texts = [outside, *(text for p, text in sources.items() if p != path)]
            if not any(re.search(rf"\b{node.name}\b", text) for text in texts):
                unnamed.append(f"{path.stem}.{qualname}")
    assert unnamed == []


_REPLAY = """
import contextlib, io, json, sys
from flatwander.cli import main
out = []
for argv in json.loads(sys.stdin.read()):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
print(json.dumps(out))
"""


def test_golden_cases_replay_under_optimize(tmp_path):
    # one success and one error per subcommand, where the goldens hold one
    goldens = list(GOLDEN)
    for name in ("find_collision_golden", "plot_orbit_golden", "semiconj_golden"):
        goldens += json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text())
    cases = {}
    for case in goldens:
        cases.setdefault((case["argv"][0], case["exit"] == 0), case)
    assert {command for command, _ in cases} == set(COMMANDS)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _REPLAY],
        input=json.dumps([case["argv"] for case in cases.values()]),
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[case["exit"], case["stdout"]] for case in cases.values()]
