"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import random
import time
from fractions import Fraction

from flatwander.lattice import Lattice, point
from flatwander.lattes import (
    NotFlexible,
    Paired,
    certify_sphere_wandering,
    lattes_model_new,
    rho_pairing,
    verify_semiconjugacy,
    verify_sphere_disjoint_iterates,
    weierstrass_context,
)
from flatwander.line_orbit import (
    EventuallyPeriodic,
    IrrationalSlope,
    TorusLine,
    classify_line,
    line_from_point,
    slope_spec,
)
from flatwander.numbers import (
    QuadraticNumber,
    float_jitter,
    parse_complex,
    parse_number,
    qn,
)
from flatwander.segments import (
    CollisionCertificate,
    WanderingCertificate,
    certify_wandering,
    collision_bound,
    default_collision_budget,
    find_collision,
    reverify_collision,
    segment_new,
    verify_disjoint_iterates,
)
from flatwander.torus_map import torus_map_new
from reference import (
    g_invariants,
    half_lattice_q,
    lift_length,
    lift_segments_intersect_torus,
    line_image,
    passes_through_q,
    segment_lift,
    segments_intersect,
)

Q = QuadraticNumber
SQUARE = Lattice(parse_complex("i"))


def _map(a, b="0", lat=SQUARE):
    return torus_map_new(parse_complex(a), parse_complex(b), lat)


def _line(alpha, beta, slope_expr="sqrt(2)"):
    spec = IrrationalSlope(parse_number(slope_expr))
    return TorusLine(spec, qn(alpha).mod1(), qn(beta).mod1())


def _report(num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_forward_dichotomy():
    t0 = time.monotonic()
    failures = 0
    # the three named configurations
    for omega in ("i", "2i", "1/2+1i"):
        lat = Lattice(parse_complex(omega))
        tm = _map("2", "0", lat)
        seg = segment_new(_line(parse_number("sqrt(3)-1"), 0), qn(0), qn(Fraction(1, 10)))
        cert = certify_wandering(tm, seg)
        if not (isinstance(cert, WanderingCertificate) and cert.mode == "whole-segment"):
            failures += 1
            continue
        ok, _ = verify_disjoint_iterates(tm, seg, 12)
        if not ok:
            failures += 1
    # 200 randomized flexible configurations
    rng = random.Random(101)
    slope_pool = [2, 5, 7]
    trans_pool = [3, 6, 11]
    count = 0
    while count < 200:
        a = rng.choice(["2", "-2", "3"])
        om_re = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
        om_im = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        lat = Lattice(parse_complex(f"{om_re}+{om_im}i"))
        ds = rng.choice(slope_pool)
        dt = rng.choice([d for d in trans_pool if d != ds])
        alpha = qn(Fraction(rng.randint(0, 9), 10)) + Q(0, 1, rng.randint(2, 5), dt)
        beta = qn(Fraction(rng.randint(0, 9), 10))
        b = f"{rng.randint(0, 3)}/4"
        tm = _map(a, b, lat)
        line = TorusLine(IrrationalSlope(Q(0, 1, 1, ds)), alpha.mod1(), beta.mod1())
        seg = segment_new(line, qn(0), qn(Fraction(1, 10)))
        count += 1
        cert = certify_wandering(tm, seg)
        if not (isinstance(cert, WanderingCertificate) and cert.mode == "whole-segment"):
            failures += 1
            continue
        ok, _ = verify_disjoint_iterates(tm, seg, 12)
        if not ok:
            failures += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        failures == 0 and elapsed < 30.0,
        f"whole-segment certificates with 12-iterate exact oracle, "
        f"{failures} failures over 203 configs, {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_and_3_reverse_direction_with_bound():
    tm = _map("1+1i")
    theta = math.pi / 4
    bound = collision_bound(SQUARE, theta=theta)
    assert abs(bound - 4 * math.sqrt(2)) < 1e-12

    def _run_one(seg):
        start = time.monotonic()
        budget = default_collision_budget(tm, seg)
        cert = find_collision(tm, seg, budget=budget)
        elapsed = time.monotonic() - start
        ok = (
            isinstance(cert, CollisionCertificate)
            and cert.m <= budget
            and reverify_collision(tm, seg, cert)
            and elapsed < 5.0
        )
        return cert, budget, ok, elapsed

    # the named configuration: length 0.05 anchored at (1/10, 1/5)
    line = line_from_point(slope_spec((1, 0)), (qn(Fraction(1, 10)), qn(Fraction(1, 5))))
    seg0 = segment_new(line, qn(0), qn(Fraction(1, 20)))
    cert0, budget0, ok0, _ = _run_one(seg0)
    named_ok = ok0 and cert0.m <= 15

    rng = random.Random(202)
    bound_violations = 0
    budget_violations = 0
    slow = 0
    for _ in range(100):
        ax = Fraction(rng.randint(0, 99), 100)
        ay = Fraction(rng.randint(0, 99), 100)
        mode = rng.choice([(1, 0), (0, 1)])
        length = Fraction(rng.randint(4, 15), 100)
        line = line_from_point(slope_spec(mode), (qn(ax), qn(ay)))
        seg = segment_new(line, qn(0), qn(length))
        cert, budget, ok, elapsed = _run_one(seg)
        if not ok:
            budget_violations += 1
        if elapsed >= 5.0:
            slow += 1
        # criterion 3: every disjoint consecutive pair respects the bound
        cur = segment_lift(seg).normalize()
        for _n in range(cert.m if isinstance(cert, CollisionCertificate) else budget):
            nxt = cur.affine_image(tm.m, (tm.b.x, tm.b.y)).normalize()
            if lift_segments_intersect_torus(SQUARE, cur, nxt) is None:
                if lift_length(cur, SQUARE) > bound + 1e-9:
                    bound_violations += 1
            cur = nxt
    _report(
        2,
        named_ok and budget_violations == 0 and slow == 0,
        f"named collision m={cert0.m} <= 15 (budget {budget0}), witness re-verified; "
        f"100 random segments within log-derived budgets, {slow} over 5s",
    )
    _report(
        3,
        bound_violations == 0,
        f"all disjoint consecutive iterate lengths <= 2(1+|w|)/|sin t| + 1e-9 "
        f"(= {bound:.5f}), {bound_violations} violations",
    )


def test_criterion_4_group_obstruction():
    lat = SQUARE
    tm = _map("2", "0", lat)
    model = lattes_model_new(lat, tm, 4, point(0, 0))
    bound = collision_bound(lat, nu=4)
    assert abs(bound - 8 / math.sqrt(3)) < 1e-12
    rng = random.Random(404)
    failures = 0
    for _ in range(50):
        ds = rng.choice([2, 5, 7])
        slope = Q(0, 1, 1, ds)
        ax = Fraction(rng.randint(0, 19), 20)
        ay = Fraction(rng.randint(0, 19), 20)
        line = line_from_point(IrrationalSlope(slope), (qn(ax), qn(ay)))
        # parameter length chosen so the euclidean length is >= 0.1
        dir_norm = abs(1 + slope.to_float() * 1j)
        plen = Fraction(1, math.floor(dir_norm * 10))
        seg = segment_new(line, qn(0), qn(plen))
        assert seg.euclidean_length(lat) >= 0.1 - 1e-12
        cert = find_collision(tm, seg, group=(4, point(0, 0), model.rotation))
        if not (isinstance(cert, CollisionCertificate) and cert.m <= 7):
            failures += 1
            continue
        verdict = certify_sphere_wandering(model, seg)
        if not (
            isinstance(verdict, NotFlexible)
            and isinstance(verdict.witness, CollisionCertificate)
            and verdict.witness.m <= 7
        ):
            failures += 1
    _report(
        4,
        failures == 0,
        f"group-mode collisions with m <= 7 (budget from 8/sqrt(3) = {bound:.4f}) and "
        f"NotFlexible witnesses over 50 random segments, {failures} failures",
    )


def test_criterion_5_cycle_detection_vs_oracle():
    rng = random.Random(505)
    discrepancies = 0
    for _ in range(500):
        a = rng.choice(["2", "3"])
        b = rng.choice(["0", "1/2"])
        tm = _map(a, b)
        alpha = Fraction(rng.randint(0, 47), 48)
        beta = Fraction(rng.randint(0, 47), 48)
        line = _line(alpha, beta)
        got = classify_line(tm, line)
        if not isinstance(got, EventuallyPeriodic):
            discrepancies += 1
            continue
        # independent oracle: pure pairwise scanning for the first repeat
        states = []
        cur = line
        n0 = p = None
        while True:
            st = cur.transverse()
            hit = None
            for j, prev in enumerate(states):
                if prev == st:
                    hit = j
                    break
            if hit is not None:
                n0, p = hit, len(states) - hit
                break
            states.append(st)
            cur = line_image(tm, cur)
        if (n0, p) != (got.preperiod, got.period):
            discrepancies += 1
            continue
        seen = set()
        dup = False
        for st in got.states:
            if st in seen:
                dup = True
            seen.add(st)
        if dup:
            discrepancies += 1
    _report(
        5,
        discrepancies == 0,
        f"(preperiod, period) match brute-force pairwise comparison on 500 random "
        f"rational lines, {discrepancies} discrepancies",
    )


def test_criterion_6_rho_pairing_period_halving():
    lat = SQUARE
    tm = _map("2")
    model = lattes_model_new(lat, tm, 2, point(0, 0))
    failures = 0
    details = []
    for alpha, expect_p, expect_half in [
        (Fraction(1, 5), 4, 2),
        (Fraction(1, 3), 2, 1),
        (Fraction(1, 17), 8, 4),
    ]:
        verdict = classify_line(tm, _line(alpha, 0))
        assert isinstance(verdict, EventuallyPeriodic) and verdict.period == expect_p
        pairing = rho_pairing(model, verdict)
        if not (isinstance(pairing, Paired) and pairing.half_period == expect_half):
            failures += 1
            continue
        seg = segment_new(_line(alpha, 0), qn(0), qn(Fraction(1, 10)))
        cert = certify_sphere_wandering(model, seg)
        if not (
            isinstance(cert, WanderingCertificate)
            and cert.mode == "subsegment"
            and cert.period == expect_half
        ):
            failures += 1
            continue
        sub = segment_new(seg.line, cert.interval[0], cert.interval[1])
        ok, pair = verify_sphere_disjoint_iterates(model, sub, 12)
        if not ok:
            failures += 1
            continue
        details.append(f"1/{alpha.denominator}: period {expect_p} -> {expect_half}")
    _report(
        6,
        failures == 0,
        "paired cycles halve the period and E0 passes the 12-iterate Theta "
        "oracle (" + "; ".join(details) + ")",
    )


def test_criterion_7_semiconjugacy():
    t0 = time.monotonic()
    lat = SQUARE
    tm = _map("2", "0", lat)
    model = lattes_model_new(lat, tm, 2, point(0, 0))
    report = verify_semiconjugacy(model, samples=500, tol=1e-6)
    elapsed = time.monotonic() - t0
    ok = (
        report["max_residual"] < 1e-6
        and report["fitted_degree"] == 4
        and elapsed < 60.0
    )
    _report(
        7,
        ok,
        f"max residual {report['max_residual']:.2e} < 1e-6 on 500 samples of the "
        f"degree-{report['fitted_degree']} closed-form quotient map, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_symmetry_sanity():
    hexlat = Lattice(parse_complex("1/2+sqrt(3)/2i"))
    g2s, g3s = g_invariants(SQUARE)
    g2h, _ = g_invariants(hexlat)
    ok = abs(g3s) < 1e-10 and abs(g2h) < 1e-10
    rng = random.Random(808)
    ctx = weierstrass_context(SQUARE)
    worst = 0.0
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        if abs(ctx._reduce(z)) < 0.05:
            continue
        checked += 1
        x = ctx.wp_pair(z)[0]
        worst = max(worst, abs(ctx.wp_pair(-z)[0] - x))
        worst = max(worst, abs(ctx.wp_pair(z + 1)[0] - x))
        worst = max(worst, abs(ctx.wp_pair(z + 1j)[0] - x))
    ok = ok and worst < 1e-9
    _report(
        8,
        ok,
        f"|g3(Z[i])| = {abs(g3s):.1e} < 1e-10, |g2(hex)| = {abs(g2h):.1e} < 1e-10, "
        f"wp symmetry residuals {worst:.1e} < 1e-9 on 100 points",
    )


def _verdict_battery():
    """All verdict-bearing decisions exercised by criterion 9."""
    out = []
    tm = _map("2")
    tm_b = _map("2", "1/2")
    q_pts = half_lattice_q(SQUARE)
    lines = [
        _line(Fraction(1, 3), 0),
        _line(parse_number("sqrt(3)-1"), 0),
        _line(Fraction(1, 5), Fraction(1, 7)),
        _line(0, Fraction(1, 2)),
    ]
    for ln in lines:
        v = classify_line(tm, ln)
        out.append(type(v).__name__)
        if isinstance(v, EventuallyPeriodic):
            out.append((v.preperiod, v.period))
        hit = passes_through_q(ln, q_pts)
        out.append(None if hit is None else hit.coords())
    for ln in lines[:2]:
        v = classify_line(tm_b, ln)
        out.append(type(v).__name__)
    seg = segment_new(lines[0], qn(0), qn(Fraction(1, 10)))
    cert = certify_wandering(tm, seg)
    out.append((cert.interval[0].to_expr(), cert.interval[1].to_expr()))
    # touching segments: exact predicates must call this an intersection
    s_a = segment_new(lines[0], qn(Fraction(1, 100)), qn(Fraction(1, 10)))
    s_b = segment_new(lines[0], qn(Fraction(1, 10)), qn(Fraction(2, 10)))
    out.append(segments_intersect(SQUARE, s_a, s_b) is not None)
    s_c = segment_new(lines[0], qn(Fraction(21, 100)), qn(Fraction(3, 10)))
    out.append(segments_intersect(SQUARE, s_a, s_c) is not None)
    out.append(segments_intersect(SQUARE, s_a, segment_new(lines[1], qn(0), qn(1))) is not None)
    model = lattes_model_new(SQUARE, tm, 2, point(0, 0))
    verdict = classify_line(tm, _line(Fraction(1, 5), 0))
    out.append(type(rho_pairing(model, verdict)).__name__)
    tm_c = _map("1+1i")
    ln_h = line_from_point(slope_spec((1, 0)), (qn(Fraction(1, 10)), qn(Fraction(1, 5))))
    seg_h = segment_new(ln_h, qn(0), qn(Fraction(1, 20)))
    cert_c = find_collision(tm_c, seg_h)
    out.append((cert_c.n, cert_c.m, cert_c.k))
    return out


def test_criterion_9_exactness_regression():
    base = _verdict_battery()
    with float_jitter(1e-13):
        plus = _verdict_battery()
    with float_jitter(-1e-13):
        minus = _verdict_battery()
    ok = base == plus == minus
    _report(
        9,
        ok,
        "verdict battery (line classes, grid membership, certificates, "
        "interval disjointness, collision indices) unchanged under 1e-13 "
        "float perturbation",
    )
