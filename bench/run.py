#!/usr/bin/env python3
"""flatwander benchmark: seeded batches of real CLI invocations.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, collide, collide-miss, semiconj (workloads.py says what
each holds and why).  One process is one client in a closed loop: each case
calls ``flatwander.cli.main(argv)`` in-process with stdout captured, and the
next case starts when it returns.  Every verdict is checked after the timed
loop (checks.py).  A non-zero exit, an error payload, an uncaught exception
or a wrong verdict counts the case as failed, and the run goes on.  Cases
known to fail today run apart, once and untimed, and are reported but not
counted (workloads.known_defects).

--trace 0 reports the end-to-end metrics, with timings in reference time:
a short fixed kernel runs between cases and each timing is scaled by the
kernel's speed around it, so the host's swings in speed cancel (speed.py).
The wall-clock figures are printed and recorded beside them.  --trace 1 runs
each case untraced and then traced, and reports per-layer metrics, in wall
time, from spans around each module's public functions (tracer.py),
isolated layer probes (probes.py) and the tracing overhead.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it print every metric with its unit.
A fuller record (failures, environment, setup samples, latencies and, when
traced, the spans) goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

CASES = 3000  # more than a run completes, so a run does not repeat a case
# p95 needs at least 10 cases beyond it; a slow host gets up to 4x --seconds
MIN_CASES = 200
SETUP_SAMPLES = 11

# shares of traced case time that show each mechanism/bypass pairing
SHARES = {
    "lift_intersect": "segments.lift_intersect_ms",
    "prefilter": "segments.prefilter_ms",
    "exact": "segments.exact_ms",
    "squarefree_split": "numbers.squarefree_split_ms",
    "wp_pair": "lattes.wp_pair_ms",
    "classify_line": "line_orbit.classify_line_ms",
    "sphere_oracle": "lattes.sphere_oracle_ms",
    "cli_self": "cli.self_ms",
}


def setup(workload: str) -> float:
    """Import flatwander and build the per-lattice objects the workload
    reuses across cases; return the seconds it took."""
    t0 = time.perf_counter()
    import flatwander.cli  # noqa: F401
    from flatwander.lattes import weierstrass_context
    from flatwander.lattice import Lattice
    from flatwander.numbers import parse_complex

    for omega in workloads.lattices(workload):
        weierstrass_context(Lattice(parse_complex(omega)))
    return time.perf_counter() - t0


def timed_setup(workload: str) -> tuple[float, float]:
    """Set-up seconds and the reference kernel's seconds around them."""
    before = speed.kernel_median()
    seconds = setup(workload)
    return seconds, (before + speed.kernel_median()) / 2


def setup_in_fresh_process(workload: str) -> tuple[float, float]:
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; "
            "print(*run.timed_setup(sys.argv[3]))")
    done = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR), str(SRC), workload],
        capture_output=True, text=True, timeout=120, check=True,
    )
    seconds, kernel_s = map(float, done.stdout.split()[-2:])
    return seconds, kernel_s


@dataclass
class Record:
    index: int  # position in the case list
    seconds: float
    exit_code: int | None
    output: str
    exception: str | None
    failure: str | None = None  # set by judge()
    kernel_s: float = 0.0  # reference kernel's time around the case, set by timed_loop()

    @property
    def reference_s(self) -> float:
        return speed.to_reference(self.seconds, self.kernel_s)


def run_case(cli, cases: list, i: int) -> Record:
    argv = list(cases[i % len(cases)].argv)
    buf = io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects bad arguments this way
        code, exc = e.code, "SystemExit"
    except Exception as e:  # noqa: BLE001 - a crashing case is a failed case
        code, exc = None, f"{type(e).__name__}: {e}"
    return Record(i, time.perf_counter() - t0, code, buf.getvalue(), exc)


def timed_loop(cli, cases: list, seconds: float) -> list[Record]:
    """Closed loop over the cases, in order, until ``seconds`` have passed
    and MIN_CASES have run.  The reference kernel runs before the first case
    and after every case; a case's kernel time is the mean of the runs on
    either side of it."""
    records = []
    gc.collect()
    kernel = [speed.kernel_seconds()]
    begin = time.perf_counter()
    while _more(records, time.perf_counter() - begin, seconds):
        records.append(run_case(cli, cases, len(records)))
        kernel.append(speed.kernel_seconds())
    for rec, before, after in zip(records, kernel, kernel[1:]):
        rec.kernel_s = (before + after) / 2
    return records


def _more(records: list, elapsed: float, seconds: float) -> bool:
    return elapsed < seconds or (len(records) < MIN_CASES and elapsed < 4 * seconds)


def judge(workload: str, cases: list, records: list[Record]) -> tuple[Counter, dict]:
    """Count failures by kind.  The first record of a case is checked; any
    later run of the same case must repeat its output byte for byte."""
    first: dict[int, Record] = {}
    kinds: Counter = Counter()
    examples: dict = {}
    for rec in records:
        case = cases[rec.index % len(cases)]
        seen = first.setdefault(rec.index % len(cases), rec)
        if seen is not rec:
            same = (seen.exit_code, seen.output, seen.exception) == (rec.exit_code, rec.output, rec.exception)
            rec.failure = seen.failure if same else "wrong-verdict: output differs between runs of one case"
        elif rec.exception is not None:
            rec.failure = f"exception {rec.exception.split(':')[0]} (exit {rec.exit_code})"
        else:
            rec.failure = _verdict_failure(workload, case, rec)
        if rec.failure:
            kinds[rec.failure] += 1
            examples.setdefault(rec.failure, {
                "argv": list(case.argv), "detail": rec.exception or rec.output[-300:],
            })
    return kinds, examples


def _verdict_failure(workload: str, case, rec: Record) -> str | None:
    import checks  # imports flatwander, so only once src/ is on the path

    try:
        payload = json.loads(rec.output)
    except json.JSONDecodeError:
        return f"wrong-verdict: output is not JSON (exit {rec.exit_code})"
    if rec.exit_code != 0 or "error" in payload:
        return f"error {payload.get('error')} (exit {rec.exit_code})"
    try:
        reason = checks.check(workload, case.command, payload, case.params)
    except Exception as e:  # noqa: BLE001 - a payload the check cannot read is wrong
        reason = f"check raised {type(e).__name__}: {e}"
    return reason and f"wrong-verdict: {reason}"


def assert_no_float_jitter() -> None:
    from flatwander.numbers import parse_number

    # flatwander.float_jitter scales every exact-to-float conversion
    if parse_number("1/3").to_float() != 1 / 3:
        raise RuntimeError("float jitter is on; timings and verdicts would not be comparable")


def environment() -> dict:
    import numpy

    commit = "unknown"
    git_dir = ROOT / ".git"
    if git_dir.is_dir():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def timings(lat: list[float], passed: int, setup_s: list[float]) -> dict:
    """Verdicts that passed their check per second of case time, case
    latency percentiles, and the median set-up."""
    return {
        "certs_per_s": passed / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_p95_ms": statistics.quantiles(lat, n=20, method="inclusive")[18] * 1e3,
        "setup_s": statistics.median(setup_s),
    }


def end_to_end(records: list[Record], setup_samples: list[tuple[float, float]]) -> tuple[dict, dict]:
    """The end-to-end metrics, timed in reference time (speed.py), and the
    same timings as the wall clock read them, for the record."""
    passed = sum(r.failure is None for r in records)
    metrics = timings([r.reference_s for r in records], passed,
                      [speed.to_reference(*s) for s in setup_samples])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = timings([r.seconds for r in records], passed, [s for s, _ in setup_samples])
    wall["kernel_p50_ms"] = statistics.median(r.kernel_s for r in records) * 1e3
    return metrics, wall


def traced_run(cli, args, cases) -> tuple[list[Record], dict, dict]:
    """Each case runs untraced and then traced until the time is up, so the
    pairs give the tracing overhead even while the machine's speed drifts.
    Per-layer metrics come from the traced runs."""
    import probes
    import tracer as tracing
    from flatwander.lattes import WeierstrassContext
    from flatwander.lattice import Lattice
    from flatwander.numbers import parse_complex

    tracer = tracing.Tracer()
    with tracer:
        # the set-up part of the Weierstrass layer, on fresh contexts
        for omega in workloads.lattices(args.workload):
            WeierstrassContext(Lattice(parse_complex(omega)))
    loop_from = len(tracer)
    plain, traced = [], []
    gc.collect()
    begin = time.perf_counter()
    while _more(traced, time.perf_counter() - begin, args.seconds):
        plain.append(run_case(cli, cases, len(plain)))
        with tracer:
            traced.append(run_case(cli, cases, len(traced)))
    n = len(traced)
    layer = tracer.layer_metrics(loop_from, len(tracer), n)
    setup_spans = tracer.totals(0, loop_from)
    layer["lattes.g_invariants_ms"] = setup_spans.get("lattes.g_invariants", {"s": 0.0})["s"] * 1e3
    layer.update(probes.run())
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    layer["trace.overhead_frac"] = 1 - plain_s / traced_s
    layer["trace.case_ms"] = traced_s * 1e3 / n
    shares = {k: layer[m] / layer["trace.case_ms"] for k, m in SHARES.items()}
    RESULTS.mkdir(exist_ok=True)
    tracer.dump(
        RESULTS / f"{args.workload}-seed{args.seed}.spans.json.gz",
        {"workload": args.workload, "seed": args.seed, "loop_from": loop_from, "traced_cases": n},
    )
    return plain + traced, layer, shares


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "flatwander" / "cli.py").is_file():
        print(f"error: flatwander sources not found under {SRC}", file=sys.stderr)
        return 2

    cases = workloads.generate(args.workload, args.seed, CASES)
    setup_samples = [] if args.trace else [
        setup_in_fresh_process(args.workload) for _ in range(SETUP_SAMPLES)
    ]
    sys.path.insert(0, str(SRC))
    setup(args.workload)
    import flatwander.cli as cli

    # warm-up: one case per subcommand, so lazy imports land outside timing
    for cmd in sorted({c.command for c in cases}):
        warm = next(c for c in cases if c.command == cmd)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(Exception):
            cli.main(list(warm.argv))

    assert_no_float_jitter()
    if args.trace:
        records, metrics, shares = traced_run(cli, args, cases)
    else:
        records = timed_loop(cli, cases, args.seconds)
        shares = None
    assert_no_float_jitter()

    kinds, examples = judge(args.workload, cases, records)
    failed = sum(kinds.values())
    # cases that fail today, kept out of the timed loop; run once, untimed
    defects = workloads.known_defects(args.workload, args.seed)
    defect_kinds, defect_examples = judge(
        args.workload, defects, [run_case(cli, defects, i) for i in range(len(defects))]
    )
    failed_frac = failed / len(records)
    wall = None
    if not args.trace:
        metrics, wall = end_to_end(records, setup_samples)
    correct = not any(k.startswith("wrong-verdict") for k in kinds)
    units = declared_units(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    env = environment()

    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "correct": correct,
        "attempted": len(records), "failed": failed, "failed_frac": failed_frac,
        "failures": dict(kinds), "failure_examples": examples,
        "known_defects": {"run": len(defects), "failures": dict(defect_kinds),
                          "failure_examples": defect_examples},
        "metrics": metrics, "wall_clock": wall, "layer_shares": shares,
        "setup_samples_s_and_kernel_s": setup_samples,
        "latencies_ms": [round(r.seconds * 1e3, 4) for r in records],
        "kernel_ms": [round(r.kernel_s * 1e3, 4) for r in records],
    }, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} commit={env['commit'][:12]} "
          f"python={env['python']} numpy={env['numpy']} nproc={env['nproc']}")
    print(f"# attempted={len(records)} failed={failed} correct={correct}")
    for kind, count in sorted(kinds.items()):
        print(f"#   {count} x {kind}")
    if defects:
        print(f"# known defects (untimed, not in attempted): "
              f"{sum(defect_kinds.values())} of {len(defects)} still fail")
        for kind, count in sorted(defect_kinds.items()):
            print(f"#   {count} x {kind}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    print(f"# failed_frac = {failed_frac:.6g} ratio")
    if wall:
        print("# the timings above are in reference time (speed.py); wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
    if shares:
        print("# share of traced case time: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
