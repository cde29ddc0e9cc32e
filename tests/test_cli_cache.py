"""One process reuses each validated covering and Lattès model: ``cli`` keys
them by their option text, up to ``cli._MAPS`` of each.  Checks that the
goldens replay byte for byte when every map repeats in one process, in a
shuffled order, that a map that fails is never kept and fails alike on every
call, and that the caches stay at their bound."""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from flatwander import cli
from flatwander.cli import main

ROOT = Path(__file__).resolve().parent.parent
_REPLAYED = ["cli_golden", "find_collision_golden", "semiconj_golden", "input_errors_golden",
             "usage_errors_golden"]


def _clear():
    cli._covering.cache_clear()
    cli._model.cache_clear()


def _outcome(argv: list[str]) -> tuple:
    """Exit code, stdout and stderr of one ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _golden_cases() -> list[dict]:
    cases = []
    for name in _REPLAYED:
        cases += json.loads((ROOT / "tests" / "data" / f"{name}.json").read_text())
    return cases


@pytest.mark.parametrize("seed", [25, 2025])
def test_the_goldens_replay_byte_for_byte_when_one_process_repeats_them(
    tmp_path, monkeypatch, seed
):
    monkeypatch.chdir(tmp_path)
    _clear()
    cases = _golden_cases()
    order = list(range(len(cases))) * 2
    random.Random(seed).shuffle(order)
    seen = {}
    for i in order:
        case = cases[i]
        if "config" in case:
            cfg = case["config"]
            Path("cfg.json").write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
        Path("samples.csv").unlink(missing_ok=True)
        code, out, err = _outcome(case["argv"])
        csv = Path("samples.csv").read_bytes() if "csv_sha256" in case else None
        got = (code, out, err, None if csv is None else hashlib.sha256(csv).hexdigest())
        if seen.setdefault(i, got) is not got:
            assert got == seen[i], case["name"]
            continue
        want = (case["exit"], case["stdout"], case.get("csv_sha256"))
        assert got[:2] + got[3:] == want, case["name"]
        assert (err.splitlines() or [""])[-1] == case.get("stderr", ""), case["name"]
    assert cli._covering.cache_info().hits and cli._model.cache_info().hits


_FAILING = {
    "not-a-covering": ["classify-map", "--a", "1/2", "--omega", "i"],
    "degree-too-low": ["classify-map", "--a", "1", "--omega", "i"],
    "lower-half-plane": ["classify-map", "--a", "2", "--omega", "-i"],
    "no-descent": ["certify-sphere", "--a", "2", "--omega", "i", "--nu", "4", "--z0", "1/3,1/5",
                   "--seg", "0,1/5,s:sqrt(2),1/10"],
}


@pytest.mark.parametrize("argv", _FAILING.values(), ids=list(_FAILING))
def test_a_map_that_fails_fails_alike_on_every_call_and_is_not_kept(argv):
    _clear()
    first = _outcome(argv)
    assert first[0] == 2 and json.loads(first[1])["error"]
    for _ in range(3):
        assert _outcome(argv) == first
    kept = cli._model if argv[0] == "certify-sphere" else cli._covering
    assert kept.cache_info().currsize == 0
    assert kept.cache_info().misses == 4


def test_more_maps_than_the_bound_leave_the_caches_at_it():
    _clear()
    multipliers = [str(a) for a in range(2, cli._MAPS + 12)]
    for a in multipliers:
        code, out, _ = _outcome(["classify-map", "--a", a, "--omega", "i"])
        assert code == 0 and json.loads(out)["degree"] == int(a) ** 2
        assert cli._model(a, "0", "i", 2, "0,0").map.m == (int(a), 0, 0, int(a))
    for cache in (cli._covering, cli._model):
        info = cache.cache_info()
        assert info.currsize == info.maxsize == cli._MAPS
        assert info.misses == len(multipliers)
    # the least recently used map was evicted and is built again
    cli._covering("2", "0", "i")
    assert cli._covering.cache_info().misses == len(multipliers) + 1
