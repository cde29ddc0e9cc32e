"""The Weierstrass layer against an independent oracle, on reduced and skewed
bases of the same lattices and on thin lattices.

The oracle is the theta-function form of wp for Z + tau*Z (DLMF 23.6.5 with
2*omega_1 = 1), summed in mpmath at 30 digits:
    wp(u) = (pi th2 th3 th4(pi u) / th1(pi u))^2 - (pi^2/3)(th2^4 + th3^4)
at the nome q = exp(i pi tau), with g2 = 2(e1^2 + e2^2 + e3^2) and
g3 = 4 e1 e2 e3 from the half-period values.  A lattice v1*(Z + tau*Z) is
reached by weight, wp(z) = v1^-2 wp(z/v1) and wp'(z) = v1^-3 wp'(z/v1), and
the oracle is evaluated at the reduced basis (v1, tau') that the context
holds: as q -> 1 the direct form loses digits (at omega = 0.0001i its
relative error exceeds 10).  It shares no code with the
Lambert series and the csc^2 series that ``flatwander.lattes`` uses.
"""

import math
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from flatwander.errors import NearPole, ResidualExceedsTol
from flatwander.lattes import WeierstrassContext, weierstrass_context
from flatwander.lattice import Lattice
from flatwander.numbers import parse_complex
from reference import g_invariants

ROOT = Path(__file__).resolve().parent.parent
# reduced bases and skewed spellings of three of them: omega and omega + k
# span one lattice, so 1/2i ~ 5+1/2i, i ~ -2+i, 1/2+i ~ 7/2+i
BASES = ("i", "1/2+i", "1/2+sqrt(3)/2i", "1/3+3/2i", "1/2i", "5+1/2i", "-2+i", "7/2+i")
# thin lattices: the Laurent series with argument halving and duplication
# that the csc^2 series replaced missed the 1e-12 oracle bound on all five
THIN = ("4i", "20i", "100i", "1/100i", "10000i")


def _lat(omega: str) -> Lattice:
    return Lattice(parse_complex(omega))


def oracle_pair(v1: complex, tau: complex, z: complex) -> tuple[complex, complex]:
    """wp and wp' of the lattice v1*(Z + tau*Z) at z.  The theta series are
    summed term by term: mpmath's jtheta loses every digit once |Im u| is in
    the hundreds, as it is on 10000i."""
    with mpmath.workdps(30):
        v1 = mpmath.mpmathify(v1)
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpmathify(tau))
        u = mpmath.pi * mpmath.mpmathify(z) / v1
        t1 = d1 = t2 = d4 = 0
        t3 = t4 = 1
        for n in range(40):
            sign, h = (-1) ** n, q ** ((n + 0.5) ** 2)
            t1 += 2 * sign * h * mpmath.sin((2 * n + 1) * u)
            d1 += 2 * sign * h * (2 * n + 1) * mpmath.cos((2 * n + 1) * u)
            t2 += 2 * h
            if n:
                g = q ** (n * n)
                t3 += 2 * g
                t4 += 2 * sign * g * mpmath.cos(2 * n * u)
                d4 -= 4 * n * sign * g * mpmath.sin(2 * n * u)
        c = mpmath.pi * t2 * t3
        r = t4 / t1
        x = (c * r) ** 2 - mpmath.pi**2 / 3 * (t2**4 + t3**4)
        y = 2 * c * c * r * mpmath.pi * (d4 * t1 - t4 * d1) / t1**2
        return complex(x / v1**2), complex(y / v1**3)


def oracle_invariants(v1: complex, tau: complex) -> tuple[complex, complex]:
    halves = (v1 / 2, v1 * tau / 2, v1 * (1 + tau) / 2)
    e1, e2, e3 = (oracle_pair(v1, tau, h)[0] for h in halves)
    return 2 * (e1 * e1 + e2 * e2 + e3 * e3), 4 * e1 * e2 * e3


def _scale(g2: complex, g3: complex) -> float:
    """The size of wp on the lattice (weight -2); errors are measured against
    max(|value|, scale) so that zeros of wp and wp' do not inflate them."""
    return abs(g2) ** 0.5 + abs(g3) ** (1 / 3)


@pytest.mark.parametrize("omega", BASES + THIN)
def test_invariants_match_the_theta_oracle(omega):
    g2, g3 = g_invariants(_lat(omega))
    ctx = weierstrass_context(_lat(omega))
    o2, o3 = oracle_invariants(ctx.v1, ctx.tau)
    s = _scale(o2, o3)
    assert abs(g2 - o2) < 1e-12 * s**2
    assert abs(g3 - o3) < 1e-12 * s**3


@pytest.mark.parametrize("omega", BASES + THIN)
def test_wp_matches_the_theta_oracle(omega):
    lat = _lat(omega)
    w = lat.omega_complex()
    ctx = weierstrass_context(lat)
    s = _scale(ctx.g2, ctx.g3)
    rng = random.Random(omega)
    checked = 0
    while checked < 30:
        z = rng.uniform(-1, 2) + rng.uniform(-1, 2) * w
        if abs(ctx._reduce(z)) < 0.1 * ctx.r_min:
            continue  # away from the poles
        x, y = ctx.wp_pair(z)
        ox, oy = oracle_pair(ctx.v1, ctx.tau, z)
        assert abs(x - ox) < 1e-12 * max(abs(ox), s), z
        assert abs(y - oy) < 1e-12 * max(abs(oy), s**1.5), z
        checked += 1


def row_sum_reference(ctx, z):
    """wp and wp' by the csc^2 series with one exponential per row, the 25
    rows |m| <= 12 each with its own sign s (DLMF §23.8)."""
    m = np.arange(-12, 13)
    t = (ctx._reduce(z) / ctx.v1)[..., None] + m * ctx.tau
    s = np.where(t.imag < 0, -1, 1)
    w = np.exp(2j * np.pi * s * t)
    x = (np.pi / ctx.v1) ** 2 * ((-4 * w / (1 - w) ** 2).sum(-1) - ctx.e2 / 3)
    y = -2 * (np.pi / ctx.v1) ** 3 * (4j * s * w * (w + 1) / (1 - w) ** 3).sum(-1)
    return x, y


@pytest.mark.parametrize("omega", BASES + THIN + ("0.0001i",))
def test_factored_rows_match_the_row_sum(omega):
    # points anywhere in three cells, and on the lines Im u = +-Im tau'/2 and
    # near the poles, where one factor of a factored row reaches modulus 1
    lat = _lat(omega)
    ctx = weierstrass_context(lat)
    rng = random.Random(omega)
    w = lat.omega_complex()
    z = [rng.uniform(-1, 2) + rng.uniform(-1, 2) * w for _ in range(480)]
    z += [rng.uniform(0, 1) * ctx.v1 + sign * ctx.v2 / 2 for sign in (1, -1) for _ in range(10)]
    z = np.array(z)
    assert len(z) == 500
    z = np.where(np.abs(ctx._reduce(z)) < 1e-3 * ctx.r_min, z + 1e-3 * ctx.r_min, z)
    s = _scale(ctx.g2, ctx.g3)
    rx, ry = row_sum_reference(ctx, z)
    x, y = ctx.wp_pair(z)
    # the reference is finite everywhere, so neither may wp_pair be
    assert np.all(np.isfinite(rx)) and np.all(np.isfinite(ry))
    assert np.all(np.isfinite(x)) and np.all(np.isfinite(y))
    # measured against max(|value|, scale), as for the oracle
    assert np.max(np.abs(x - rx) / np.maximum(np.abs(rx), s)) < 1e-13
    assert np.max(np.abs(y - ry) / np.maximum(np.abs(ry), s**1.5)) < 1e-13


def test_thin_contexts_keep_one_power_of_q():
    # |q| = exp(-2 pi Im tau') underflows on 10000i; rows past |m| = 1 are
    # dropped once 9 |q|^M < 1e-20, and at most twelve powers are kept
    assert weierstrass_context(_lat("10000i")).q_powers == (1,)
    assert weierstrass_context(_lat("0.0001i")).q_powers == (1,)
    for omega in BASES:
        ctx = weierstrass_context(_lat(omega))
        q, m = ctx.q_powers[1], len(ctx.q_powers)
        assert m <= 12 and 9 * abs(q) ** m < 1e-20 <= 9 * abs(q) ** (m - 1)


@pytest.mark.parametrize("omega", ("i", "1/2+sqrt(3)/2i", "5+1/2i", "20i", "1/100i"))
def test_array_and_scalar_calls_agree(omega):
    lat = _lat(omega)
    w = lat.omega_complex()
    ctx = weierstrass_context(lat)
    rng = random.Random(3)
    zs = np.array([rng.uniform(0.1, 0.9) + rng.uniform(0.1, 0.9) * w for _ in range(40)])
    xs, ys = ctx.wp_pair(zs)
    assert xs.shape == ys.shape == zs.shape
    for z, x, y in zip(zs, xs, ys):
        sx, sy = ctx.wp_pair(complex(z))
        assert type(sx) is complex and type(sy) is complex
        assert abs(x - sx) <= 1e-15 * abs(sx) and abs(y - sy) <= 1e-15 * abs(sy)


def test_near_pole_is_measured_in_shortest_vectors():
    # r_min = 1/100: the pole guard sits at 1e-8, so 5e-7 is a regular point
    lat = _lat("1/100i")
    ctx = weierstrass_context(lat)
    assert abs(ctx.wp_pair(5e-7j)[0] * (5e-7j) ** 2 - 1) < 1e-9
    assert abs(ctx.wp_pair(1 + 5e-7)[0] * 5e-7**2 - 1) < 1e-9  # 1 is a lattice point
    with pytest.raises(NearPole):
        ctx.wp_pair(5e-9 + 0j)
    with pytest.raises(NearPole):
        ctx.wp_pair(np.array([0.3 + 0.004j, -1 + 0.01j + 5e-9]))


def test_a_nan_residual_is_caught():
    ctx = WeierstrassContext(_lat("i"))
    ctx.e2 = math.nan
    with pytest.raises(ResidualExceedsTol):
        ctx.wp_pair(0.3 + 0.2j)
    with pytest.raises(ResidualExceedsTol):
        ctx.wp_pair(np.array([0.3 + 0.2j, 0.4 + 0.1j]))


def test_the_weierstrass_layer_does_not_import_numpy():
    # importing the CLI and building a context stay numpy-free; numpy is
    # imported by the first evaluation
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import flatwander.cli; "
        "from flatwander.lattes import weierstrass_context; "
        "from flatwander.lattice import Lattice; "
        "from flatwander.numbers import parse_complex; "
        "weierstrass_context(Lattice(parse_complex('i'))); "
        "print('numpy' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_wp_on_a_skewed_basis():
    # the nearest-point search in the basis (1, 5+1/2i) missed omega - 5 and
    # left this z far from 0, where the series diverged
    lat = _lat("5+1/2i")
    z = 2.9 + 0.22j
    ox, oy = oracle_pair(1, lat.omega_complex(), z)
    x, y = weierstrass_context(lat).wp_pair(z)
    assert abs(x - ox) < 1e-12 * abs(ox)
    assert abs(y - oy) < 1e-12 * abs(oy)


@pytest.mark.parametrize("pair", [("1/2i", "5+1/2i"), ("i", "-2+i"), ("1/2+i", "7/2+i")])
def test_two_bases_of_one_lattice_agree(pair):
    c1, c2 = (weierstrass_context(_lat(w)) for w in pair)
    s = _scale(c1.g2, c1.g3)
    assert abs(c1.g2 - c2.g2) < 1e-12 * s**2 and abs(c1.g3 - c2.g3) < 1e-12 * s**3
    assert abs(c1.r_min - c2.r_min) < 1e-15
    rng = random.Random(7)
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(c1._reduce(z)) < 0.1 * c1.r_min:
            continue
        assert abs(c1._reduce(z) - c2._reduce(z)) < 1e-12
        x1, x2 = c1.wp_pair(z)[0], c2.wp_pair(z)[0]
        assert abs(x1 - x2) < 1e-12 * max(abs(x1), s)


def test_thin_lattice_invariants_follow_the_weights():
    # 1 and 0.0001i span 0.0001i * (Z + 10000i Z): g2 and g3 scale by
    # lambda^-4 and lambda^-6 with lambda = 0.0001i
    g2, g3 = g_invariants(_lat("0.0001i"))
    h2, h3 = g_invariants(_lat("10000i"))
    lam = 0.0001j
    assert abs(g2 - h2 * lam**-4) < 1e-12 * abs(g2)
    assert abs(g3 - h3 * lam**-6) < 1e-12 * abs(g3)


@pytest.mark.parametrize(
    "omega,v1,v2",
    [
        ("1/2+sqrt(3)/2i", 1, 0.5 + 0.8660254037844386j),  # |omega| = 1: kept
        ("1/2+i", 1, 0.5 + 1j),  # 2 Re(omega) = 1: kept
        ("5+1/2i", 0.5j, -1),
        ("-2+i", 1, 1j),
        ("0.0001i", 0.0001j, -1),
        ("1/100i", 0.01j, -1),
        ("20i", 1, 20j),
    ],
)
def test_the_context_holds_a_reduced_basis(omega, v1, v2):
    ctx = weierstrass_context(_lat(omega))
    assert (ctx.v1, ctx.v2) == (v1, v2)
    assert ctx.r_min == abs(v1)


@pytest.mark.parametrize("omega", ["5+1/2i", "7/2+i", "-2+i", "1/3+3/2i"])
def test_reduce_finds_the_nearest_lattice_point(omega):
    lat = _lat(omega)
    w = lat.omega_complex()
    ctx = weierstrass_context(lat)
    rng = random.Random(11)
    for _ in range(50):
        z = complex(rng.uniform(-6, 6), rng.uniform(-3, 3))
        best = min(abs(z - (n + m * w)) for n in range(-40, 41) for m in range(-20, 21))
        assert abs(abs(ctx._reduce(z)) - best) < 1e-12
