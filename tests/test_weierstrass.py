"""The Weierstrass layer against an independent oracle, on reduced and skewed
bases of the same lattices.

The oracle is the theta-function form of wp for Z + omega*Z (DLMF 23.6.5 with
2*omega_1 = 1), evaluated by mpmath at 30 digits:
    wp(z) = (pi th2 th3 th4(pi z) / th1(pi z))^2 - (pi^2/3)(th2^4 + th3^4)
at the nome q = exp(i pi omega), with g2 = 2(e1^2 + e2^2 + e3^2) and
g3 = 4 e1 e2 e3 from the half-period values.  It shares no code with the
q-series, Laurent series and duplication that ``flatwander.lattes`` uses.
"""

import random

import mpmath
import pytest

from flatwander.lattes import g_invariants, weierstrass_context, wp, wp_prime
from flatwander.lattice import Lattice
from flatwander.numbers import parse_complex

# reduced bases and skewed spellings of three of them: omega and omega + k
# span one lattice, so 1/2i ~ 5+1/2i, i ~ -2+i, 1/2+i ~ 7/2+i
BASES = ("i", "1/2+i", "1/2+sqrt(3)/2i", "1/3+3/2i", "1/2i", "5+1/2i", "-2+i", "7/2+i")


def _lat(omega: str) -> Lattice:
    return Lattice(parse_complex(omega))


def oracle_pair(omega: complex, z: complex) -> tuple[complex, complex]:
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpmathify(omega))
        t2, t3 = mpmath.jtheta(2, 0, q), mpmath.jtheta(3, 0, q)
        u = mpmath.pi * mpmath.mpmathify(z)
        t1, t4 = mpmath.jtheta(1, u, q), mpmath.jtheta(4, u, q)
        d1, d4 = mpmath.jtheta(1, u, q, 1), mpmath.jtheta(4, u, q, 1)
        c = mpmath.pi * t2 * t3
        r = t4 / t1
        x = (c * r) ** 2 - mpmath.pi**2 / 3 * (t2**4 + t3**4)
        y = 2 * c * c * r * mpmath.pi * (d4 * t1 - t4 * d1) / t1**2
        return complex(x), complex(y)


def oracle_invariants(omega: complex) -> tuple[complex, complex]:
    e1, e2, e3 = (oracle_pair(omega, h)[0] for h in (0.5, omega / 2, (1 + omega) / 2))
    return 2 * (e1 * e1 + e2 * e2 + e3 * e3), 4 * e1 * e2 * e3


def _scale(g2: complex, g3: complex) -> float:
    """The size of wp on the lattice (weight -2); errors are measured against
    max(|value|, scale) so that zeros of wp and wp' do not inflate them."""
    return abs(g2) ** 0.5 + abs(g3) ** (1 / 3)


@pytest.mark.parametrize("omega", BASES)
def test_invariants_match_the_theta_oracle(omega):
    g2, g3 = g_invariants(_lat(omega), 1e-13)
    o2, o3 = oracle_invariants(_lat(omega).omega_complex())
    s = _scale(o2, o3)
    assert abs(g2 - o2) < 1e-12 * s**2
    assert abs(g3 - o3) < 1e-12 * s**3


@pytest.mark.parametrize("omega", BASES)
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
        ox, oy = oracle_pair(w, z)
        assert abs(x - ox) < 1e-12 * max(abs(ox), s), z
        assert abs(y - oy) < 1e-12 * max(abs(oy), s**1.5), z
        checked += 1


def test_wp_on_a_skewed_basis():
    # the nearest-point search in the basis (1, 5+1/2i) missed omega - 5 and
    # left this z far from 0, where the series diverged
    lat = _lat("5+1/2i")
    z = 2.9 + 0.22j
    ox, oy = oracle_pair(lat.omega_complex(), z)
    assert abs(wp(lat, z) - ox) < 1e-12 * abs(ox)
    assert abs(wp_prime(lat, z) - oy) < 1e-12 * abs(oy)


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
    g2, g3 = g_invariants(_lat("0.0001i"), 1e-12)
    h2, h3 = g_invariants(_lat("10000i"), 1e-12)
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
