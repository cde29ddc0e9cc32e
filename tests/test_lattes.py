import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwander import lattes
from flatwander.errors import (
    InternalInconsistency,
    NearPole,
    NotLattesCompatible,
    ResidualExceedsTol,
    WrongLatticeForGroup,
)
from flatwander.lattice import Lattice, embed, point
from flatwander.lattes import (
    NotFlexible,
    Paired,
    SelfPaired,
    Unpaired,
    WeierstrassContext,
    _row_sum,
    _sample_points,
    certify_sphere_wandering,
    lattes_model_new,
    quotient_map,
    quotient_probes,
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
from flatwander.numbers import QuadraticNumber, parse_complex, parse_number, qn
from flatwander.segments import (
    CollisionCertificate,
    WanderingCertificate,
    certify_classified,
    segment_new,
)
from flatwander.torus_map import rotation_matrix, torus_map_new
from reference import (
    ClosedCurveImage,
    FoldedRay,
    InjectiveGeodesicImage,
    apply_map,
    g_invariants,
    half_lattice_q,
    passes_through_q,
    q_grid,
    quotient_map as reference_quotient_map,
    reduce_nearest,
    rho_transverse,
    segments_intersect,
    theta_line_type,
    wp_pair,
)

Q = QuadraticNumber
SQUARE = Lattice(parse_complex("i"))
HEX = Lattice(parse_complex("1/2+sqrt(3)/2i"))
SQRT2 = IrrationalSlope(parse_number("sqrt(2)"))
# every (a, omega) with a*L inside L among the multipliers 2, 3, 2i, 1+i,
# 3/2+sqrt(3)/2i and the lattices i, 2i, 1/2+i and hex: the pairs that
# verify-semiconjugacy is benchmarked on
SEMICONJ_PAIRS = (
    ("2", "i"), ("2", "2i"), ("2", "1/2+i"), ("2", "1/2+sqrt(3)/2i"),
    ("3", "i"), ("3", "2i"), ("3", "1/2+i"), ("3", "1/2+sqrt(3)/2i"),
    ("2i", "i"), ("2i", "2i"), ("1+1i", "i"), ("3/2+sqrt(3)/2i", "1/2+sqrt(3)/2i"),
)  # fmt: skip
ORIGIN = point(0, 0)
SEMICONJ_LATTICES = ("i", "2i", "1/2+i", "1/2+sqrt(3)/2i")


def _wp(z):
    """(wp(z), wp'(z)) on the square lattice."""
    return weierstrass_context(SQUARE).wp_pair(z)


def _map(a, b="0", lat=SQUARE):
    return torus_map_new(parse_complex(a), parse_complex(b), lat)


def _model(a="2", b="0", lat=SQUARE, nu=2, z0=ORIGIN):
    return lattes_model_new(lat, _map(a, b, lat), nu, z0)


def g_invariants_direct(lat: Lattice, radius: float) -> tuple[complex, complex]:
    """Plain truncated lattice sums; the independent low-accuracy oracle.

    Truncation over a disk |w| <= radius, which every lattice rotation
    preserves, so symmetry cancellations survive the cutoff."""
    w = lat.omega_complex()
    n_cap = int(radius / 1.0) + int(radius * abs(w.real) / w.imag) + 2
    m_cap = int(radius / w.imag) + 2
    g2 = 0j
    g3 = 0j
    for n in range(-n_cap, n_cap + 1):
        for m in range(-m_cap, m_cap + 1):
            if n == 0 and m == 0:
                continue
            v = n + m * w
            if abs(v) > radius:
                continue
            g2 += v**-4
            g3 += v**-6
    return 60 * g2, 140 * g3


def rho_embed(model, z: complex) -> complex:
    """The involution on the complex plane: z -> 2*z0 - z."""
    return 2 * embed(model.z0, model.lattice) - z


def _line(alpha, beta, slope=SQRT2):
    return TorusLine(slope, qn(alpha).mod1(), qn(beta).mod1())


def test_flexible_model_accepted():
    model = _model()
    assert model.flexible
    assert model.signature == (2, 2, 2, 2)


def test_incompatible_translation_rejected():
    # 2*0 + 1/3 is not in the half grid
    with pytest.raises(NotLattesCompatible):
        _model(b="1/3")


def test_wrong_lattice_for_group():
    with pytest.raises(WrongLatticeForGroup):
        _model(nu=3)
    # hexagonal lattice supports order 3 and 6
    m3 = _model(lat=HEX, nu=3)
    assert m3.signature == (3, 3, 3) and not m3.flexible
    m6 = _model(lat=HEX, nu=6)
    assert m6.signature == (2, 3, 6)


def test_offcenter_z0_compatibility():
    # z0 = (1/4, 0), a = 3, b = 0: A(z0) - z0 = (1/2, 0) is annihilated by
    # (I - R) = 2I mod Z^2, so the grid is forward invariant
    model = _model(a="3", z0=point(Fraction(1, 4), 0))
    assert model.flexible
    # a = 2 moves the grid off itself, and the descent test says so
    with pytest.raises(NotLattesCompatible, match=r"A\(z0\) - z0 = .* is not \(I - R\)"):
        _model(a="2", z0=point(Fraction(1, 4), 0))


def _descends_pointwise(tm, nu, z0):
    """The model check on exact torus points: (I - R)(A(z0) - z0) in Z^2 and,
    for nu = 2, the four grid points mapped into the grid."""
    rp, rq, rr, rs = rotation_matrix(tm.lattice, nu)
    az0 = apply_map(tm, z0)
    shift = point(az0.x - z0.x, az0.y - z0.y)
    cx = shift.x * (1 - rp) - shift.y * rr
    cy = shift.y * (1 - rs) - shift.x * rq
    ok = cx.is_integer and cy.is_integer
    if ok and nu == 2:
        grid = set(half_lattice_q(tm.lattice, z0))
        ok = all(apply_map(tm, g) in grid for g in grid)
    return ok, shift


def test_model_check_agrees_with_the_pointwise_reference():
    maps = [("2", "i", 4), ("-3", "i", 4), ("1+1i", "i", 4), ("2i", "2i", 2),
            ("3", "1/2+i", 2), ("2", "1/2+sqrt(3)/2i", 3), ("3/2+sqrt(3)/2i", "1/2+sqrt(3)/2i", 6),
            ("-2", "1/2+sqrt(3)/2i", 6)]  # fmt: skip
    b_parts = ("0", "1/2", "1/3", "2/3")
    z_parts = (0, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
    verdicts = Counter()
    for a, omega, nu_other in maps:
        lat = Lattice(parse_complex(omega))
        for bx, by in itertools.product(b_parts, repeat=2):
            # on hex, an imaginary part of b gives irrational lattice coordinates
            tm = _map(a, f"{bx}+({by})i", lat)
            for nu, zx, zy in itertools.product({2, nu_other}, z_parts, z_parts):
                z0 = point(zx, zy)
                ok, shift = _descends_pointwise(tm, nu, z0)
                verdicts[nu, ok] += 1
                if ok:
                    assert lattes_model_new(lat, tm, nu, z0).shift == shift
                else:
                    with pytest.raises(NotLattesCompatible, match=r"\(I - R\)-annihilated"):
                        lattes_model_new(lat, tm, nu, z0)
    assert all(verdicts[nu, ok] for nu in (2, 3, 4, 6) for ok in (True, False)), verdicts


def test_theta_line_type_examples():
    model = _model()
    rat = line_from_point(slope_spec((1, 1)), (qn(0), qn(0)))
    assert isinstance(theta_line_type(model, rat), ClosedCurveImage)
    folded = theta_line_type(model, _line(0, Fraction(1, 2)))
    assert isinstance(folded, FoldedRay)
    assert folded.fold_point == point(Fraction(1, 2), 0)
    free = theta_line_type(model, _line(parse_number("sqrt(3)-1"), 0))
    assert isinstance(free, InjectiveGeodesicImage)


def _cycle(model, alpha, beta):
    verdict = classify_line(model.map, _line(alpha, beta))
    assert isinstance(verdict, EventuallyPeriodic)
    return verdict


def test_rho_pairing_period_two():
    model = _model()
    verdict = _cycle(model, Fraction(1, 3), 0)
    got = rho_pairing(model, verdict)
    assert got == Paired(1)


def test_rho_pairing_period_four():
    model = _model()
    verdict = _cycle(model, Fraction(1, 5), 0)
    assert verdict.period == 4
    got = rho_pairing(model, verdict)
    assert isinstance(got, Paired) and got.half_period == 2


def test_rho_pairing_unpaired():
    model = _model()
    verdict = _cycle(model, Fraction(1, 7), Fraction(1, 3))
    got = rho_pairing(model, verdict)
    assert isinstance(got, Unpaired) and got.period == verdict.period


def test_rho_pairing_self_symmetric():
    model = _model()
    verdict = _cycle(model, 0, 0)
    assert verdict.period == 1
    got = rho_pairing(model, verdict)
    assert got == SelfPaired(1)


def test_certify_sphere_wandering_line():
    model = _model()
    seg = segment_new(_line(parse_number("sqrt(3)-1"), 0), qn(0), qn(Fraction(1, 10)))
    got = certify_sphere_wandering(model, seg)
    assert isinstance(got, WanderingCertificate)
    assert got.level == "sphere" and got.mode == "whole-segment"
    ok, pair = verify_sphere_disjoint_iterates(model, seg, 12)
    assert ok, f"iterates {pair} meet"


def test_certify_sphere_paired_subsegment():
    model = _model()
    seg = segment_new(_line(Fraction(1, 5), 0), qn(0), qn(Fraction(1, 10)))
    got = certify_sphere_wandering(model, seg)
    assert isinstance(got, WanderingCertificate)
    assert got.mode == "subsegment"
    # rho pairs the period-4 cycle: certified against the halved period
    assert got.period == 2
    assert got.multiplier == -4
    u, v = got.interval
    sub = segment_new(seg.line, u, v)
    ok, pair = verify_sphere_disjoint_iterates(model, sub, 12)
    assert ok, f"iterates {pair} meet"


def test_certify_sphere_self_paired_negative_multiplier():
    model = _model(a="-2")
    seg = segment_new(_line(0, 0), qn(Fraction(1, 100)), qn(Fraction(1, 10)))
    got = certify_sphere_wandering(model, seg)
    assert isinstance(got, WanderingCertificate)
    u, v = got.interval
    sub = segment_new(seg.line, u, v)
    ok, pair = verify_sphere_disjoint_iterates(model, sub, 12)
    assert ok, f"iterates {pair} meet"


@pytest.mark.parametrize(
    "z0, b",
    [
        (ORIGIN, "0"),
        (point(Fraction(1, 2), 0), "1/2"),
        (point(Fraction(1, 4), Fraction(1, 3)), "-1/4-1/3i"),
        (point(Fraction(5, 6), Fraction(7, 12)), "-5/6-7/12i"),
    ],
)
def test_a_line_meets_the_grid_iff_rho_fixes_its_state(z0, b):
    # so the rho check on a wandering line's states also keeps it off the grid
    model = _model(b=b, z0=z0)
    rng = random.Random(20)
    states = [(qn(Fraction(i, 12)), qn(Fraction(j, 12))) for i in range(12) for j in range(12)]
    for d in rng.choices(range(1, 31), k=200):
        states.append((qn(Fraction(rng.randrange(d), d)), qn(Fraction(rng.randrange(d), d))))
    on_grid = 0
    for st in states:
        hit = passes_through_q(TorusLine(SQRT2, *st), q_grid(model)) is not None
        assert hit == (rho_transverse(model, st) == st), st
        on_grid += hit
    assert on_grid >= 4


def test_a_wrong_sphere_return_map_is_caught_by_the_sweep():
    model = _model(a="-2")
    seg = segment_new(_line(0, 0), qn(Fraction(1, 100)), qn(Fraction(1, 2)))
    verdict = classify_line(model.map, seg.line)
    assert rho_pairing(model, verdict) == SelfPaired(1)

    rho = model.rho_origin
    # a self-paired line must avoid both sides of the fixed point: ratio 2, not 4
    # (the return map is (period, sign, both_sides), multiplier sign*a^period = -2,
    # and rho shifts the cycle by 0)
    with pytest.raises(InternalInconsistency, match="certified iterates 0, 1 overlap"):
        certify_classified(model.map, seg, verdict, 12, rho, (1, 1, False, 0))
    got = certify_classified(model.map, seg, verdict, 12, rho, (1, 1, True, 0))
    assert got.level == "sphere" and got.multiplier == -2
    torus = certify_classified(model.map, seg, verdict, 12)
    assert torus.level == "torus" and torus.multiplier == -2


def test_certify_sphere_not_flexible_group_witness():
    model = _model(nu=4)
    seg = segment_new(_line(parse_number("sqrt(3)-1"), 0), qn(0), qn(Fraction(1, 18)))
    got = certify_sphere_wandering(model, seg)
    assert isinstance(got, NotFlexible)
    assert isinstance(got.witness, CollisionCertificate)
    assert got.witness.m <= 7


def test_group_collision_on_hexagonal_lattice():
    from flatwander.segments import find_collision

    tm = _map("2", "0", HEX)
    line = line_from_point(SQRT2, (qn(Fraction(1, 7)), qn(Fraction(2, 7))))
    seg = segment_new(line, qn(0), qn(Fraction(1, 21)))
    assert seg.euclidean_length(HEX) >= 0.1
    for nu in (3, 6):
        cert = find_collision(tm, seg, group=(nu, ORIGIN, rotation_matrix(HEX, nu)))
        assert isinstance(cert, CollisionCertificate)
        assert cert.m <= 7 and cert.exact


def test_certify_sphere_not_flexible_nonreal():
    model = _model(a="1+1i")
    line = line_from_point(slope_spec((1, 0)), (qn(Fraction(1, 10)), qn(Fraction(1, 5))))
    seg = segment_new(line, qn(0), qn(Fraction(1, 20)))
    got = certify_sphere_wandering(model, seg)
    assert isinstance(got, NotFlexible)
    assert isinstance(got.witness, CollisionCertificate)


def test_g_invariants_symmetries():
    g2, g3 = g_invariants(SQUARE)
    assert abs(g3) < 1e-10
    assert abs(g2.imag) < 1e-10 and g2.real > 0
    h2, h3 = g_invariants(HEX)
    assert abs(h2) < 1e-10


def test_g_invariants_match_direct_sum_oracle():
    for lat in (SQUARE, HEX, Lattice(parse_complex("2i")), Lattice(parse_complex("1/2+1i"))):
        g2, g3 = g_invariants(lat)
        o2, o3 = g_invariants_direct(lat, 60)
        # the direct sum has an O(N^-2) tail; agreement at its accuracy level
        assert abs(g2 - o2) < 2e-2 * max(1, abs(g2))
        assert abs(g3 - o3) < 2e-2 * max(1, abs(g3))


def test_wp_evenness_and_periodicity():
    rng = random.Random(47)
    ctx = weierstrass_context(SQUARE)
    for _ in range(100):
        z = complex(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        if abs(ctx._reduce(z)) < 0.05:
            continue
        assert abs(_wp(-z)[0] - _wp(z)[0]) < 1e-9
        assert abs(_wp(z + 1)[0] - _wp(z)[0]) < 1e-9
        assert abs(_wp(z + 1j)[0] - _wp(z)[0]) < 1e-9


def test_wp_half_period_critical():
    z = (1 + 1j) / 2
    assert abs(_wp(z)[1]) < 1e-6
    # e3 is real for the square lattice
    assert abs(_wp(z)[0].imag) < 1e-9


def test_wp_near_pole_rejected():
    with pytest.raises(NearPole):
        _wp(1e-9 + 0j)


def duplication_map_coefficients(g2: complex, g3: complex) -> tuple[list, list]:
    """Degree-4 rational map satisfying wp(2z) = P(wp(z))/Q(wp(z)), derived
    from the tangent construction: wp(2z) = -2x + ((6x^2 - g2/2)/(2 wp'))^2.
    P is monic; coefficients are listed from degree 0 upward.  The
    independent oracle for the closed-form quotient map at a = 2."""
    P = [g2 * g2 / 16, 2 * g3, g2 / 2, 0j, 1.0 + 0j]
    Q = [-g3, -g2, 0j, 4.0 + 0j]
    return P, Q


def test_duplication_coefficients_derivation():
    ctx = weierstrass_context(SQUARE)
    P, Q = duplication_map_coefficients(ctx.g2, ctx.g3)
    assert P[4] == 1.0 and abs(P[3]) == 0.0
    rng = random.Random(53)
    for _ in range(25):
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        if min(abs(ctx._reduce(2 * z)), abs(ctx._reduce(z))) < 0.08:
            continue
        x = _wp(z)[0]
        num = ((x * x + ctx.g2 / 4) ** 2) + 2 * ctx.g3 * x
        den = 4 * x**3 - ctx.g2 * x - ctx.g3
        assert abs(num / den - _wp(2 * z)[0]) < 1e-7


def test_semiconjugacy_square_lattice():
    model = _model()
    report = verify_semiconjugacy(model, samples=500, tol=1e-6)
    assert report["passed"]
    assert report["max_residual"] < 1e-6
    assert report["fitted_degree"] == 4
    assert report["coef_rel_error"] is None


@pytest.mark.parametrize("a", ["2", "-2"])
@pytest.mark.parametrize("omega", ["i", "2i", "1/2+i", "1/2+sqrt(3)/2i", "5+1/2i"])
def test_closed_form_duplication_matches_the_tangent_construction(a, omega):
    import numpy as np

    lat = Lattice(parse_complex(omega))
    ctx = weierstrass_context(lat)
    P, Q = duplication_map_coefficients(ctx.g2, ctx.g3)
    rng = random.Random(71)
    w = lat.omega_complex()
    halves = (0, 0.5, 0.5 * w, 0.5 + 0.5 * w)
    z = []
    while len(z) < 40:
        c = rng.uniform(0.05, 0.95) + rng.uniform(0.05, 0.95) * w
        # keep z and 2z off the half-lattice, so neither wp'(z) nor R's poles are near
        if min(abs(ctx._reduce(k * c - h)) for k in (1, 2) for h in halves) > 0.05:
            z.append(c)
    x = ctx.wp_pair(np.array(z))[0]
    want = np.polyval(P[::-1], x) / np.polyval(Q[::-1], x)
    model = _model(a, lat=lat)
    got = quotient_map(model, ctx.wp_pair(np.array(quotient_probes(model)))[0])(x)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10


def test_semiconjugacy_passes_at_every_sample_count():
    model = _model(a="3", lat=Lattice(parse_complex("2i")))
    worst = max(verify_semiconjugacy(model, samples=n)["max_residual"] for n in range(200, 501))
    assert worst < 1e-10


def test_semiconjugacy_rows_hold_the_point_and_its_offset_coordinate():
    z0 = point(Fraction(1, 4), 0)
    model = _model(b="1/4", z0=z0)
    for zr, zi, xr, xi, _ in verify_semiconjugacy(model, samples=20)["rows"]:
        assert abs(_wp(complex(zr - 0.25, zi))[0] - complex(xr, xi)) < 1e-9


def test_semiconjugacy_rectangular_lattice():
    model = _model(lat=Lattice(parse_complex("2i")))
    report = verify_semiconjugacy(model, samples=300, tol=1e-6)
    assert report["passed"]


def test_semiconjugacy_fitted_degree_nine():
    model = _model(a="3")
    report = verify_semiconjugacy(model, samples=500, tol=1e-5)
    assert report["fitted_degree"] == 9
    assert report["max_residual"] < 1e-5


def test_rho_embed_matches_wp_identification():
    rng = random.Random(59)
    model = _model()
    for _ in range(200):
        z = complex(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        ctx = weierstrass_context(SQUARE)
        if abs(ctx._reduce(z)) < 0.08 or abs(ctx._reduce(rho_embed(model, z))) < 0.08:
            continue
        assert abs(_wp(rho_embed(model, z))[0] - _wp(z)[0]) < 1e-9


def test_sphere_disjointness_reduction_matches_wp_proximity():
    rng = random.Random(61)
    model = _model()
    ctx = weierstrass_context(SQUARE)

    def sample(seg):
        out = []
        for i in range(9):
            t = seg.t_lo + (seg.t_hi - seg.t_lo) * Fraction(i, 8)
            x = (seg.line.beta + t).to_float()
            y = (-seg.line.alpha).mod1().to_float() + t.to_float() * math.sqrt(2)
            z = complex(x, y)
            if abs(ctx._reduce(z)) > 0.05:
                out.append(_wp(z)[0])
        return out

    checked = 0
    for _ in range(1000):
        a1 = Fraction(rng.randint(0, 90), 100)
        a2 = Fraction(rng.randint(0, 90), 100)
        s1 = segment_new(_line(a1, 0), qn(0), qn(Fraction(1, 25)))
        s2 = segment_new(_line(a2, 0), qn(0), qn(Fraction(1, 25)))
        # rho in canonical parameters is t -> -t on the reflected line
        mirror = segment_new(
            TorusLine(s2.line.slope, *rho_transverse(model, s2.line.transverse())),
            -s2.t_hi,
            -s2.t_lo,
        )
        meet = (
            segments_intersect(SQUARE, s1, s2) is not None
            or segments_intersect(SQUARE, s1, mirror) is not None
        )
        im1, im2 = sample(s1), sample(s2)
        if not im1 or not im2:
            continue
        dmin = min(abs(p - q) for p in im1 for q in im2)
        if meet:
            # the shared Theta point exists; sampled images may or may not
            # land on it, so only the disjoint direction is quantitative
            checked += 1
        else:
            # Theta images of disjoint, non-rho-identified segments stay apart
            assert dmin > 1e-8
            checked += 1
    assert checked > 500


def _reference_sample_points(model, shift, count):
    """The sampler with one random.uniform call per coordinate and four
    probes per point, one for each coset of L in (1/2)L."""
    rng = random.Random(20240801)
    w = model.lattice.omega_complex()
    ac = model.map.a.to_complex()
    ctx = weierstrass_context(model.lattice)

    def clear(p):
        probes = (p, p - 0.5, p - 0.5 * w, p - 0.5 - 0.5 * w)
        return np.minimum.reduce([np.abs(ctx._reduce(q)) for q in probes]) >= 0.08 * ctx.r_min

    chunks, found, attempts = [], 0, 0
    while found < count and attempts < 100 * count:
        k = min(2 * (count - found), 100 * count - attempts)
        attempts += k
        z = np.array([rng.uniform(0.02, 0.98) + rng.uniform(0.02, 0.98) * w for _ in range(k)])
        z = z[clear(z) & clear(ac * z + shift)]
        chunks.append(z)
        found += len(z)
    return np.concatenate(chunks)[:count]


@pytest.mark.parametrize(
    "a,omega,b", [(a, omega, "0") for a, omega in SEMICONJ_PAIRS]
    + [("2", "i", "1/2"), ("3", "1/2+i", "1/4+1/2i"), ("2i", "i", "1/2+1/2i")],
)
def test_one_probe_sampling_keeps_the_four_probe_points(a, omega, b):
    # dist(p, L/2) = dist(2p, L)/2 and uniform(lo, hi) = lo + (hi - lo)*random(),
    # so one reduction of 2p on numpy-mapped draws keeps the same points
    lat = Lattice(parse_complex(omega))
    model = _model(a, b, lat=lat)
    shift = embed(model.shift, lat)
    assert (shift != 0) == (b != "0")
    for count in (1, 20, 200, 363, 500):
        got = _sample_points(model, shift, count)
        assert len(got) == count
        assert np.array_equal(got, _reference_sample_points(model, shift, count))


@pytest.mark.parametrize("a,omega,b", [(a, omega, "0") for a, omega in SEMICONJ_PAIRS[::3]]
                         + [("2", "i", "1/2"), ("2i", "i", "1/2+1/2i")])
def test_the_sample_points_do_not_depend_on_the_batch_size(monkeypatch, a, omega, b):
    lat = Lattice(parse_complex(omega))
    model = _model(a, b, lat=lat)
    shift = embed(model.shift, lat)
    want = {count: _sample_points(model, shift, count) for count in (1, 37, 300)}
    for batch in (lambda missing: 1, lambda missing: 2 * missing):
        monkeypatch.setattr(lattes, "_batch", batch)
        for count, points in want.items():
            assert np.array_equal(_sample_points(model, shift, count), points)


def _bits(x):
    """x's shape, dtype and bytes: signed zeros and NaN payloads included."""
    x = np.asarray(x)
    return x.shape, x.dtype, x.tobytes()


@pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
@pytest.mark.parametrize("n", [*range(1, 26), 64, 65, 80, 131])
def test_the_row_sum_adds_as_numpys_sum_does(n, shape):
    # past 64 terms numpy splits the sum in halves; R's kernel sums reach it
    rng = np.random.default_rng(n)
    for trial in range(20):
        v = 10.0 ** rng.uniform(-300, 300, (*shape, n, 2)) * rng.choice([-1.0, 1.0], (*shape, n, 2))
        v[rng.random(v.shape) < 0.15] = 0.0
        v[rng.random(v.shape) < 0.15] = -0.0
        if trial == 0:
            v[:] = -0.0
        terms = v.view(complex)[..., 0]
        assert _bits(_row_sum(np.moveaxis(terms, -1, 0).copy())) == _bits(terms.sum(-1))


# on the cell boundaries, at lattice points, half-lattice points and the
# three-way ties of hex, and between them; nan and inf stand for any
# non-finite point
_COORDS = st.one_of(
    st.integers(-24, 24).map(lambda k: k / 6),
    st.floats(-5, 5),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SEMICONJ_LATTICES), st.booleans(),
       st.lists(st.tuples(_COORDS, _COORDS), max_size=12))
def test_the_nearest_point_reduction_matches_complex_candidates(omega, reduced, coords):
    lat = Lattice(parse_complex(omega))
    ctx = weierstrass_context(lat)
    v1, v2 = (ctx.v1, ctx.v2) if reduced else (1, lat.omega_complex())
    with np.errstate(all="ignore"):
        z = np.array([x * v1 + y * v2 for x, y in coords], dtype=complex)
        for points in [z, z.reshape(-1, 2) if len(z) % 2 == 0 else z[:1], *z[:2]]:
            assert _bits(ctx._reduce(points)) == _bits(reduce_nearest(ctx, points))


@pytest.mark.parametrize("a", ["2", "3", "1+1i", "7", "9"])
def test_the_quotient_map_adds_its_kernel_terms_as_before(a):
    # a = 9 has 80 kernel terms, past the 64 where numpy's sum splits
    model = _model(a)
    ctx = weierstrass_context(SQUARE)
    x = ctx.wp_pair(_sample_points(model, 0j, 300))[0]
    probes = ctx.wp_pair(np.array(quotient_probes(model)))[0]
    with np.errstate(all="ignore"):
        got, want = quotient_map(model, probes), reference_quotient_map(model, probes)
        for points in (x, x.reshape(20, 15), x[0]):
            assert _bits(got(points)) == _bits(want(points))


@pytest.mark.parametrize("a,omega", SEMICONJ_PAIRS)
def test_a_wrong_quotient_map_is_refused(monkeypatch, a, omega):
    model = _model(a, lat=Lattice(parse_complex(omega)))
    assert verify_semiconjugacy(model, samples=200, tol=1e-6)["passed"]
    exact = lattes.quotient_map

    def scaled(m, wp_probes):
        R = exact(m, wp_probes)
        return lambda x: (1 + 1e-4) * R(x)

    monkeypatch.setattr(lattes, "quotient_map", scaled)
    with pytest.raises(ResidualExceedsTol):
        verify_semiconjugacy(model, samples=200, tol=1e-6)


def _evaluated(f, ctx, z):
    """What f(ctx, z) returns, or the type and text of its refusal."""
    try:
        return f(ctx, z)
    except (NearPole, ResidualExceedsTol) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("omega", ["i", "2i", "1/2+i", "1/2+sqrt(3)/2i", "4i"])
@pytest.mark.parametrize("count", [0, 1, 8, 700])
def test_the_evaluator_matches_its_reference_bit_for_bit(omega, count):
    # count 0 stands for one complex number rather than an array
    lat = Lattice(parse_complex(omega))
    ctx, w = weierstrass_context(lat), lat.omega_complex()
    rng = random.Random(count)
    z = np.array([rng.uniform(-2, 2) + rng.uniform(-2, 2) * w for _ in range(max(count, 1))])
    z = complex(z[0]) if count == 0 else z
    assert np.array_equal(ctx._reduce(z), reduce_nearest(ctx, z))
    got, want = ctx.wp_pair(z), wp_pair(ctx, z)
    assert [type(v) for v in got] == [type(v) for v in want]
    assert all(np.array_equal(g, h) for g, h in zip(got, want))


def test_the_evaluator_refuses_as_its_reference_does():
    ctx = weierstrass_context(SQUARE)
    for z in (1e-9 + 0j, np.array([0.3 + 0.2j, 1 + 1j + 5e-9, 1e-8j])):
        with pytest.raises(NearPole):
            ctx.wp_pair(z)
        assert _evaluated(WeierstrassContext.wp_pair, ctx, z) == _evaluated(wp_pair, ctx, z)
    nan_ctx = WeierstrassContext(SQUARE)
    nan_ctx.e2 = math.nan
    for z in (0.3 + 0.2j, np.array([0.3 + 0.2j, 0.4 + 0.1j])):
        got = _evaluated(WeierstrassContext.wp_pair, nan_ctx, z)
        assert got[0] is ResidualExceedsTol and got == _evaluated(wp_pair, nan_ctx, z)


@pytest.mark.parametrize("b", ["0", "1/2+1/2i"])
def test_one_semiconjugacy_check_evaluates_wp_once(monkeypatch, b):
    model = _model("3", b)
    calls = []
    evaluate = WeierstrassContext.wp_pair

    def counted(ctx, z):
        calls.append(np.shape(z))
        return evaluate(ctx, z)

    monkeypatch.setattr(WeierstrassContext, "wp_pair", counted)
    assert verify_semiconjugacy(model, samples=50)["passed"]
    # the 8 kernel points P != 0, b' when it is not 0, and 2 x 50 points
    assert calls == [(8 + (b != "0") + 100,)]


def test_the_sample_stream_grows_to_the_longest_prefix_asked():
    rng = random.Random(20240801)
    head = lattes._stream(10)
    assert np.array_equal(head, [rng.uniform(0.02, 0.98) for _ in range(10)])
    drawn = len(lattes._STREAM[1])
    assert np.array_equal(lattes._stream(3), head[:3]) and len(lattes._STREAM[1]) == drawn
    longer = lattes._stream(drawn + 5)
    assert len(lattes._STREAM[1]) == drawn + 5
    assert np.array_equal(longer[:10], head)
