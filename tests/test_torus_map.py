import random
from fractions import Fraction

import pytest

from flatwander.errors import DegreeTooLow, NotACovering
from flatwander.lattice import Lattice, embed, point
from flatwander.numbers import ComplexPair, QuadraticNumber, parse_complex
from flatwander.torus_map import (
    IntegerDerivative,
    NonRealMultiplier,
    classify_multiplier,
    kernel,
    solve_lattice_multiplier,
    torus_map_new,
)
from reference import apply_map, iterate_map, preimages

Q = QuadraticNumber
SQUARE = Lattice(parse_complex("i"))
HEX = Lattice(parse_complex("1/2+sqrt(3)/2i"))
ZERO_C = parse_complex("0")


def test_doubling_map():
    tm = torus_map_new(parse_complex("2"), ZERO_C, SQUARE)
    assert tm.m == (2, 0, 0, 2)
    assert tm.degree == 4


def test_one_plus_i():
    # (1+i)*1 = 1 + 1*i and (1+i)*i = -1 + 1*i, so r=-1, s=1
    tm = torus_map_new(parse_complex("1+1i"), ZERO_C, SQUARE)
    assert tm.m == (1, 1, -1, 1)
    assert tm.degree == 2


def test_sqrt2_not_a_covering():
    with pytest.raises(NotACovering):
        torus_map_new(parse_complex("sqrt(2)"), ZERO_C, SQUARE)


def test_degree_one_rejected():
    with pytest.raises(DegreeTooLow):
        torus_map_new(parse_complex("1"), parse_complex("1/3"), SQUARE)


def test_b_reduced_to_lattice_coords():
    tm = torus_map_new(parse_complex("2"), parse_complex("1/3"), SQUARE)
    assert tm.b.x == Fraction(1, 3) and tm.b.y.is_zero
    # b = omega/2 has lattice coordinates (0, 1/2)
    tm = torus_map_new(parse_complex("2"), parse_complex("1/4+sqrt(3)/4i"), HEX)
    assert tm.b.x.is_zero and tm.b.y == Fraction(1, 2)


def test_classify_multiplier():
    tm = torus_map_new(parse_complex("2"), ZERO_C, SQUARE)
    assert classify_multiplier(tm) == IntegerDerivative(2)
    tm = torus_map_new(parse_complex("-3"), ZERO_C, SQUARE)
    got = classify_multiplier(tm)
    assert got == IntegerDerivative(-3)
    assert tm.degree == 9
    tm = torus_map_new(parse_complex("1+1i"), ZERO_C, SQUARE)
    got = classify_multiplier(tm)
    assert isinstance(got, NonRealMultiplier)
    assert abs(got.theta - 0.7853981633974483) < 1e-14


def test_apply_examples():
    tm = torus_map_new(parse_complex("2"), ZERO_C, SQUARE)
    assert apply_map(tm, point(Fraction(1, 3), 0)) == point(Fraction(2, 3), 0)
    tm = torus_map_new(parse_complex("1+1i"), ZERO_C, SQUARE)
    assert apply_map(tm, point(Fraction(1, 2), 0)) == point(Fraction(1, 2), Fraction(1, 2))
    tm = torus_map_new(parse_complex("2"), ZERO_C, SQUARE)
    assert iterate_map(tm, point(Fraction(1, 3), 0), 2) == point(Fraction(1, 3), 0)
    assert iterate_map(tm, point(Fraction(1, 3), 0), 0) == point(Fraction(1, 3), 0)


def _random_point(rng, d=0):
    return point(
        Fraction(rng.randint(0, 99), 100) if d == 0 else Q(rng.randint(0, 30), rng.randint(0, 5), 31, d),
        Fraction(rng.randint(0, 99), 100),
    )


@pytest.mark.parametrize(
    "a_text,omega",
    [("2", SQUARE), ("1+1i", SQUARE), ("-2", HEX), ("2+1i", SQUARE), ("3", HEX)],
)
def test_matrix_scalar_coherence(a_text, omega):
    rng = random.Random(23)
    a = parse_complex(a_text)
    tm = torus_map_new(a, parse_complex("1/5"), omega)
    ac = a.to_complex()
    bc = embed(tm.b, omega)
    for _ in range(1000):
        pt = _random_point(rng)
        img = apply_map(tm, pt)
        expected = ac * embed(pt, omega) + bc
        got = embed(img, omega)
        # compare mod the lattice
        diff = got - expected
        w = omega.omega_complex()
        y = diff.imag / w.imag
        x = diff.real - y * w.real
        assert abs(x - round(x)) < 1e-10 and abs(y - round(y)) < 1e-10


@pytest.mark.parametrize("a_text", ["2", "1+1i", "2+1i", "-2"])
def test_covering_count(a_text):
    rng = random.Random(29)
    tm = torus_map_new(parse_complex(a_text), parse_complex("1/7"), SQUARE)
    for _ in range(10):
        target = _random_point(rng)
        pre = preimages(tm, target)
        assert len(pre) == tm.degree
        for s in pre:
            assert apply_map(tm, s) == target


@pytest.mark.parametrize("a_text", ["2", "3", "-2", "1+1i", "2+1i", "2i"])
def test_kernel_is_the_preimage_of_zero(a_text):
    tm = torus_map_new(parse_complex(a_text), ZERO_C, SQUARE)
    det = tm.degree
    got = {point(Fraction(n1, det), Fraction(n2, det)) for n1, n2 in kernel(tm)}
    assert len(kernel(tm)) == det and kernel(tm)[0] == (0, 0)
    assert got == set(preimages(tm, point(0, 0)))


def test_real_non_integer_never_covers():
    rng = random.Random(31)
    count = 0
    while count < 1000:
        num = rng.randint(-30, 30)
        den = rng.randint(2, 12)
        if num % den == 0:
            continue
        count += 1
        omega = rng.choice([SQUARE, HEX])
        with pytest.raises(NotACovering):
            torus_map_new(ComplexPair.make(Fraction(num, den)), ZERO_C, omega)


@pytest.mark.parametrize("omega", ["i", "2i", "1/2+i", "1/2+sqrt(3)/2i", "1/3+sqrt(5)i"])
def test_real_multipliers_solve_exactly(omega):
    lat = Lattice(parse_complex(omega))
    w = lat.omega
    for n in range(-3, 4):
        p, q, r, s = solve_lattice_multiplier(lat, ComplexPair.make(n))
        # a*1 = p + q*omega and a*omega = r + s*omega, on exact parts
        assert (w.re * q + p, w.im * q) == (Q(n), Q(0))
        assert (w.re * s + r, w.im * s) == (w.re * n, w.im * n)
    for a in ("1/2", "-7/3", "sqrt(2)", "1+sqrt(3)"):
        with pytest.raises(NotACovering, match=r"a\*1 not in the lattice for a = "):
            solve_lattice_multiplier(lat, parse_complex(a))
