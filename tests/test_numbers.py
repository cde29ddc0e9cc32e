import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatwander import numbers
from flatwander.errors import BudgetExceeded, InternalInconsistency, MixedRadicals, ParseError
from flatwander.numbers import (
    MAX_RADICAND,
    BiQuadratic,
    QuadraticNumber,
    _Parser,
    float_jitter,
    parse_complex,
    parse_number,
    qn,
    squarefree_split,
)
from reference import nearest_double, squarefree_split_trial

Q = QuadraticNumber


def test_parse_rational_literal():
    x = parse_number("1/3")
    assert (x.u, x.v, x.w, x.d) == (1, 0, 3, 0)


def test_parse_quadratic_literal():
    x = parse_number("(1+2*sqrt(3))/5")
    assert (x.u, x.v, x.w, x.d) == (1, 2, 5, 3)


def test_parse_sqrt8_reduces_radicand():
    x = parse_number("sqrt(8)")
    # independent oracle: the parsed value must square back to 8
    assert x * x == 8
    assert (x.u, x.v, x.w, x.d) == (0, 2, 1, 2)


def test_parse_negative_and_whitespace():
    assert parse_number(" - 1 / 4 ") == Fraction(-1, 4)
    assert parse_number("2 - sqrt( 9 )") == -1


def test_parse_decimal_literal_is_exact():
    assert parse_number("0.05") == Fraction(1, 20)
    assert parse_number("0.1") == Fraction(1, 10)


@pytest.mark.parametrize("bad", ["", "1+", "sqrt(2", "sqrt(x)", "1//2", "2**3", "1/0"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_number(bad)


def test_parse_rejects_mixed_radicals():
    with pytest.raises(MixedRadicals):
        parse_number("sqrt(2)+sqrt(3)")
    with pytest.raises(MixedRadicals):
        parse_number("sqrt(2)*sqrt(3)")


def test_sign_examples():
    # 1 - sqrt(2) < 0 because 1^2 < 2
    assert Q(1, -1, 1, 2).sign() == -1
    assert Q(0).sign() == 0
    # (-3 + 2 sqrt(3))/5 > 0 because 2^2 * 3 > 3^2
    assert Q(-3, 2, 5, 3).sign() == 1


def test_sign_never_uses_floats():
    with float_jitter(0.5):
        assert Q(1, -1, 1, 2).sign() == -1
        assert Q(-3, 2, 5, 3).sign() == 1


def test_mod1_examples():
    assert qn(Fraction(7, 3)).mod1() == Fraction(1, 3)
    # floor(sqrt(2)) = 1, via isqrt oracle: isqrt(2) == 1
    assert math.isqrt(2) == 1
    assert Q(0, 1, 1, 2).mod1() == Q(-1, 1, 1, 2)
    assert qn(Fraction(-1, 4)).mod1() == Fraction(3, 4)


def test_mod1_idempotent():
    rng = random.Random(7)
    for _ in range(200):
        x = Q(rng.randint(-50, 50), rng.randint(-10, 10), rng.randint(1, 30), 5)
        assert x.mod1().mod1() == x.mod1()
        assert 0 <= x.mod1().to_float() < 1


def test_field_closure_random():
    rng = random.Random(42)
    for _ in range(10_000):
        d = rng.choice([0, 2, 3, 5])
        x = Q(rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(1, 20), d)
        y = Q(rng.randint(-40, 40), rng.randint(-40, 40), rng.randint(1, 20), d)
        assert (x + y) - y == x
        z = x * y
        assert z.d in (0, d)
        if not y.is_zero:
            assert (x / y) * y == x


def test_sign_trichotomy_matches_float():
    rng = random.Random(1)
    for _ in range(10_000):
        d = rng.choice([0, 2, 3, 5])
        x = Q(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 20), d)
        y = Q(rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 20), d)
        lt, eq, gt = x < y, x == y, x > y
        assert sum([lt, eq, gt]) == 1
        fx, fy = x.to_float(), y.to_float()
        if eq:
            # bounded entries keep unequal values > 1e-7 apart, so float
            # agreement is meaningful
            assert abs(fx - fy) < 1e-9
        elif lt:
            assert fx < fy + 1e-9
        else:
            assert fx > fy - 1e-9


def test_floor_large_and_negative():
    assert Q(0, 1, 1, 2).floor() == 1
    assert Q(0, -1, 1, 2).floor() == -2
    assert Q(10**30, 1, 7, 2).floor() == (10**30 + 1) // 7
    assert qn(-3).floor() == -3
    assert qn(Fraction(-7, 2)).floor() == -4


def test_pow_and_inverse():
    x = Q(1, 1, 2, 5)  # golden ratio
    assert x * x == x + 1
    assert x ** 5 == x * x * x * x * x
    assert x ** -1 == 1 / x


def test_expr_round_trip():
    rng = random.Random(9)
    samples = [Q(0), Q(5), Q(-3, 0, 7), Q(0, 1, 1, 2), Q(0, -1, 3, 2), Q(1, -2, 3, 5)]
    for _ in range(200):
        d = rng.choice([0, 2, 3, 5, 6])
        samples.append(Q(rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(1, 99), d))
    for x in samples:
        assert parse_number(x.to_expr()) == x


def test_parse_complex_forms():
    i = parse_complex("i")
    assert i.re.is_zero and i.im == 1
    assert parse_complex("-i").im == -1
    z = parse_complex("1+2i")
    assert z.re == 1 and z.im == 2
    z = parse_complex("1/2+1/2i")
    assert z.re == Fraction(1, 2) and z.im == Fraction(1, 2)
    z = parse_complex("2-i")
    assert z.re == 2 and z.im == -1
    z = parse_complex("sqrt(2)i")
    assert z.re.is_zero and z.im == Q(0, 1, 1, 2)
    z = parse_complex("1/2+sqrt(3)/2i")
    assert z.im == Q(0, 1, 2, 3)


def test_complex_expr_round_trip():
    for text in ["i", "-i", "2", "1+2i", "1/2+1/2i", "2-i", "sqrt(2)i", "-1/4+3i"]:
        z = parse_complex(text)
        back = parse_complex(z.to_expr())
        assert back == z


def test_complex_mul():
    a = parse_complex("1+1i")
    w = parse_complex("i")
    prod = a.mul(w)
    assert prod.re == -1 and prod.im == 1


def test_biquadratic_tower_sign():
    # sqrt(3) - 1 + (1/2) * sqrt(2): all positive
    x = BiQuadratic(Q(-1, 1, 1, 3), Q(1, 0, 2), 2)
    assert x.sign() == 1
    # sqrt(3) - 3 + (1/2) sqrt(2): 0.732... - 3 + 0.707... < 0
    y = BiQuadratic(Q(-3, 1, 1, 3), Q(1, 0, 2), 2)
    assert y.sign() == -1
    # exact zero: (2 - sqrt(2)*sqrt(2)) as a tower
    z = BiQuadratic(qn(2), qn(-1) * 2, 2) * BiQuadratic(qn(0), qn(1), 2) + qn(4) - BiQuadratic(
        qn(0), qn(2), 2
    )
    # 2*sqrt2 - 2*sqrt2*sqrt2... keep it simple instead:
    z = BiQuadratic(qn(-2), qn(0)) + BiQuadratic(qn(0), qn(1), 2) * BiQuadratic(qn(0), qn(1), 2)
    assert z.sign() == 0 and z.is_zero


def test_biquadratic_folds_degenerate_towers():
    assert BiQuadratic(qn(1), qn(1), 1).q.is_zero  # sqrt(1) folds
    x = BiQuadratic(qn(1), qn(2), 4)  # sqrt(4) = 2
    assert x.q.is_zero and x.p == 5
    # inner field equals outer radicand: folds to a single QuadraticNumber
    y = BiQuadratic(Q(0, 1, 1, 2), qn(3), 2)
    assert y.q.is_zero and y.p == Q(0, 4, 1, 2)
    # both parts rational: generates the quadratic field directly
    z = BiQuadratic(qn(1), qn(1), 2)
    assert z.q.is_zero and z.p == Q(1, 1, 1, 2)


def test_biquadratic_arithmetic_and_division():
    rng = random.Random(3)
    for _ in range(500):
        p1 = Q(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), 3)
        q1 = Q(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), 3)
        p2 = Q(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), 3)
        q2 = Q(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 9), 3)
        x = BiQuadratic(p1, q1, 2)
        y = BiQuadratic(p2, q2, 2)
        s = x + y
        assert abs(s.to_float() - (x.to_float() + y.to_float())) < 1e-9
        m = x * y
        assert abs(m.to_float() - x.to_float() * y.to_float()) < 1e-7
        if not y.is_zero:
            assert ((x / y) * y - x).is_zero


def test_biquadratic_floor_exact_under_jitter():
    x = BiQuadratic(Q(-1, 1, 1, 3), Q(1, 0, 2), 2)  # ~ 1.439
    assert x.floor() == 1
    with float_jitter(1e-13):
        assert x.floor() == 1
    with float_jitter(-1e-13):
        assert x.floor() == 1


def test_float_jitter_alters_floats_only():
    x = Q(1, 1, 3, 2)
    base = x.to_float()
    with float_jitter(1e-13):
        assert x.to_float() != base
        assert x.sign() == 1
        assert x.mod1() == x  # in [0,1): (1+sqrt2)/3 ~ 0.80


def test_float_jitter_still_applies_to_every_conversion():
    values = [Q(1, 0, 3), Q(1, 1, 3, 2), BiQuadratic(Q(-1, 1, 1, 3), Q(1, 0, 2), 2)]
    base = [x.to_float() for x in values]
    with float_jitter(1e-13):
        assert [x.to_float() for x in values] == [x * (1 + 1e-13) for x in base]


# ---------------------------------------------------------------------------
# every float the nearest double
# ---------------------------------------------------------------------------


def _float_outcome(convert, x):
    try:
        return convert(x).hex()
    except OverflowError:
        return "OverflowError"


_BIG = st.integers(-(10**1000), 10**1000)
_WIDE_RADICANDS = st.sampled_from((2, 3, 5, 7, 1000003, 1000000007))


def _cancelling(draw, d, scale):
    """u close to -v*sqrt(d), which leaves u + v*sqrt(d) a few units or less."""
    v = draw(st.integers(1, scale)) * draw(st.sampled_from((1, -1)))
    u = -math.isqrt(v * v * d) if v > 0 else math.isqrt(v * v * d)
    return u + draw(st.integers(-3, 3)), v


@st.composite
def _wide_quadratic(draw):
    """(u + v*sqrt(d))/w with parts up to 10^1000: any, cancelling to a few
    units, tiny (down past the subnormals) or near 1e308 (and past it)."""
    d, kind = draw(_WIDE_RADICANDS), draw(st.sampled_from(("any", "cancel", "tiny", "huge")))
    if kind == "any":
        u, v, w = draw(_BIG), draw(_BIG), draw(st.integers(1, 10**1000))
    elif kind == "cancel":
        (u, v), w = _cancelling(draw, d, 10 ** draw(st.integers(1, 1000))), draw(_BIG.filter(bool))
    elif kind == "tiny":
        u, v = draw(st.integers(-(10**6), 10**6)), draw(st.integers(-(10**6), 10**6))
        w = draw(st.integers(1, 10**6)) * 10 ** draw(st.integers(290, 340))
    else:
        u, v = (draw(st.integers(-(10**20), 10**20)) * 10**k for k in (288, 287))
        w = draw(st.integers(1, 9))
    return Q(u, v, abs(w), d)


@settings(max_examples=600, deadline=None)
@given(_wide_quadratic())
def test_to_float_is_the_nearest_double(x):
    assert _float_outcome(Q.to_float, x) == _float_outcome(nearest_double, x)


@st.composite
def _wide_tower(draw):
    """p + q*sqrt(e), p and q in Q(sqrt d) with parts up to 10^60, p often
    close to -q*sqrt(e)."""
    d, e = draw(st.sampled_from(((2, 3), (2, 5), (3, 7), (5, 1000003))))
    big = st.integers(-(10**60), 10**60)
    q = Q(draw(big), draw(big), draw(st.integers(1, 10**60)), d)
    if draw(st.booleans()):
        # p's parts cancel q*sqrt(e)'s to within 1/10^k each
        k = draw(st.integers(0, 40))
        (a, _), (b, _) = (_cancelling(draw, e * 10 ** (2 * k), n)
                          for n in (abs(q.u) + 1, abs(q.v) + 1))
        p = Q(a * (1 if q.u > 0 else -1), b * (1 if q.v > 0 else -1), q.w * 10**k, d)
    else:
        p = Q(draw(big), draw(big), draw(st.integers(1, 10**60)), d)
    return BiQuadratic(p, q, e)


@settings(max_examples=300, deadline=None)
@given(_wide_tower())
def test_a_tower_float_is_the_nearest_double_and_its_floor_exact(x):
    assert _float_outcome(BiQuadratic.to_float, x) == _float_outcome(nearest_double, x)
    n = x.floor()
    assert (x - n).sign() >= 0 > (x - (n + 1)).sign()


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize(
    "m,scale",
    [
        # normal: a 53-bit m, from the least normal binade to near 2^1023
        (2**52, -1074), (2**52 + 1, -1074), (2**53 - 1, 0), (2**52 + 1, 0), (2**53 - 2, 970),
        # subnormal, on the grid of 2^-1074: its top binade, lower ones, and
        # the half of the least subnormal
        (2**51, -1074), (2**51 + 1, -1074), (2**52 - 1, -1074), (5, -1074), (1, -1074), (0, -1074),
    ],
)
def test_a_float_beside_a_rounding_midpoint_rounds_to_its_side(m, scale, side):
    # x = (m + 1/2 + side*sqrt(2)/10^20) * 2^scale lies just above (side 1) or
    # below (side -1) the midpoint of m*2^scale and (m + 1)*2^scale
    u, v, w = (2 * m + 1) * 10**20, side, 10**20
    x = Q(u << max(scale - 1, 0), v << max(scale - 1, 0), w << max(1 - scale, 0), 2)
    assert x.to_float() == math.ldexp(m + (side > 0), scale) == nearest_double(x)
    assert (-x).to_float() == -x.to_float()


def test_a_floor_with_too_few_bits_is_not_rounded():
    with pytest.raises(InternalInconsistency):
        numbers._nearest_double(2**54 - 1, 0)
    assert numbers._nearest_double(2**54, 0) == 2.0**54
    assert numbers._nearest_double(1, 1076) == 0.0  # below half the least subnormal


def test_a_float_past_the_largest_double_raises_overflow():
    top = Q(2**1024 - 2**970, 0, 1)  # halfway past the largest double: rounds up
    assert _float_outcome(Q.to_float, top) == "OverflowError"
    assert Q(2**1024 - 2**971, 0, 1).to_float() == sys.float_info.max
    # just below and just above 2^1024 with the irrational part in play
    near = Q(2**1024, -1, 1, 2)
    assert _float_outcome(Q.to_float, near) == "OverflowError"
    assert _float_outcome(nearest_double, near) == "OverflowError"
    below = Q(2**1023, 2**1000, 1, 2)
    assert below.to_float() == nearest_double(below) < math.inf


# ---------------------------------------------------------------------------
# the trusted constructors against the validating one
# ---------------------------------------------------------------------------

_RADICANDS = (2, 3, 1000003)


def _beyond_doubles(lo: int, hi: int):
    """Integers a*2^64 + b with a in [lo, hi] and 64 random low bits b: past
    2^53 with low bits set, where a float conversion that is not correctly
    rounded shows."""
    return st.builds(lambda a, b: a * 2**64 + b, st.integers(lo, hi), st.integers(0, 2**64 - 1))


_ints = st.one_of(st.integers(-(10**12), 10**12), _beyond_doubles(-(2**40), 2**40))
_small = st.integers(-4, 4)


@st.composite
def _canonical(draw, d=None):
    """A canonical value through the public constructor: an integer, a
    rational or an element of Q(sqrt(d))."""
    d = draw(st.sampled_from(_RADICANDS)) if d is None else d
    kind = draw(st.sampled_from(("int", "rational", "quadratic", "quadratic")))
    u = draw(_ints)
    if kind == "int":
        return Q(u)
    w = draw(st.one_of(st.integers(1, 10**9), _beyond_doubles(1, 2**30)))
    v = draw(_ints) if kind == "quadratic" else 0
    return Q(u, v, w, d)


@st.composite
def _scaled(draw, d):
    """A canonical value of Q(sqrt(d)) times a^n, n up to 600, through the
    validating constructor: integers of the size an interval chain of the
    certifier reaches, of either sign."""
    x = draw(_canonical(d))
    k = draw(st.sampled_from((-3, -2, 2, 3, 5))) ** draw(st.integers(0, 600))
    return Q(x.u * k, x.v * k, x.w, d)


def _value(d):
    return st.one_of(_canonical(d), _scaled(d))


@st.composite
def _pair(draw):
    d = draw(st.sampled_from(_RADICANDS))
    return draw(_value(d)), draw(_value(d))


def _parts(x):
    """x = a + b*sqrt(d) with a, b rational."""
    return Fraction(x.u, x.w), Fraction(x.v, x.w)


def _rebuilt(a, b, d):
    """a + b*sqrt(d) through the validating constructor."""
    w = a.denominator * b.denominator
    return Q(int(a * w), int(b * w), w, d)


def _fields(x):
    return (x.u, x.v, x.w, x.d)


def _floor_by_search(x):
    """The largest n with x - n >= 0, by bisection on exact signs."""
    bound = (abs(x.u) + abs(x.v) * (math.isqrt(x.d) + 1)) // x.w + 1
    lo, hi = -bound, bound  # x - lo >= 0 > x - hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (x - mid).sign() >= 0:
            lo = mid
        else:
            hi = mid
    return lo


@settings(max_examples=400, deadline=None)
@given(_pair(), st.integers(-(10**6), 10**6))
def test_trusted_arithmetic_equals_the_validating_constructor(pair, k):
    x, y = pair
    d = x.d or y.d
    (xa, xb), (ya, yb) = _parts(x), _parts(y)
    want = {
        "add": _rebuilt(xa + ya, xb + yb, d),
        "sub": _rebuilt(xa - ya, xb - yb, d),
        "mul": _rebuilt(xa * ya + xb * yb * d, xa * yb + xb * ya, d),
        "neg": _rebuilt(-xa, -xb, d),
        "add_int": _rebuilt(xa + k, xb, d),
        "sub_int": _rebuilt(xa - k, xb, d),
        "rsub_int": _rebuilt(k - xa, -xb, d),
        "mul_int": _rebuilt(xa * k, xb * k, d),
        "mul_fraction": _rebuilt(xa * Fraction(k, 7), xb * Fraction(k, 7), d),
        "mod1": _rebuilt(xa - _floor_by_search(x), xb, d),
    }
    got = {
        "add": x + y,
        "sub": x - y,
        "mul": x * y,
        "neg": -x,
        "add_int": x + k,
        "sub_int": x - k,
        "rsub_int": k - x,
        "mul_int": k * x,
        "mul_fraction": x * Fraction(k, 7),
        "mod1": x.mod1(),
    }
    assert {op: _fields(v) for op, v in got.items()} == {op: _fields(v) for op, v in want.items()}


@settings(max_examples=400, deadline=None)
@given(_canonical())
def test_floor_hash_and_float_match_their_references(x):
    assert x.floor() == _floor_by_search(x)
    a, b = _parts(x)
    assert x.to_float().hex() == nearest_double(x).hex()
    if x.is_rational:
        assert hash(x) == hash(a)


@settings(max_examples=400, deadline=None)
@given(_canonical())
def test_inverse_equals_the_validating_constructor(x):
    # the norm u^2 - v^2*d takes either sign; the trusted result must equal
    # the one the validating constructor reduces, field for field
    if x.is_zero:
        return
    norm = x.u * x.u - x.v * x.v * x.d
    assert _fields(x.inverse()) == _fields(Q(x.w * x.u, -x.w * x.v, norm, x.d))
    assert x * x.inverse() == 1


@pytest.mark.parametrize(
    "x, norm_sign",
    [(Q(1, 1, 1, 2), -1), (Q(3, 1, 1, 2), 1), (Q(-1, -1, 3, 2), -1), (Q(-2, 7, 5, 1000000007), -1),
     (Q(-10**9, 3, 7, 1000000007), 1), (Q(-4, 0, 9), 1)],
)
def test_inverse_on_both_signs_of_the_norm(x, norm_sign):
    assert (x.u * x.u - x.v * x.v * x.d > 0) == (norm_sign > 0)
    inv = x.inverse()
    assert inv.w > 0 and x * inv == 1 and x / x == 1 and inv.inverse() == x


@pytest.mark.parametrize(
    "num, den",
    [(0, 1), (-1, 1), (1, 2), (-1, 2), (7, 2**61 - 1), (-7, 2 * (2**61 - 1)), (-(10**40), 3)],
)
def test_rational_hash_is_the_fraction_hash(num, den):
    # a denominator that is a multiple of the hash modulus hashes as infinity
    assert hash(Q(num, 0, den)) == hash(Fraction(num, den))


@st.composite
def _comparable(draw):
    """Two values of one field: apart, equal, or within a tiny (possibly
    irrational) offset of each other, where only the norm decides the sign."""
    d = draw(st.sampled_from(_RADICANDS))
    x = draw(_value(d))
    kind = draw(st.sampled_from(("apart", "equal", "near")))
    if kind == "apart":
        return x, draw(_value(d))
    if kind == "equal":
        return x, Q(x.u, x.v, x.w, x.d)
    eps = draw(_canonical(d))
    return x, x + Q(eps.u, eps.v, eps.w * 10 ** draw(st.integers(20, 400)), eps.d)


@settings(max_examples=400, deadline=None)
@given(_comparable())
def test_comparisons_are_the_sign_of_the_difference(pair):
    x, y = pair
    s = (x - y).sign()
    assert (x.cmp(y), y.cmp(x)) == (s, -s)
    assert (x < y, x <= y, x > y, x >= y, x == y) == (s < 0, s <= 0, s > 0, s >= 0, s == 0)
    assert max(x, y) == (x if s >= 0 else y) and min(x, y) == (y if s > 0 else x)


@settings(max_examples=100, deadline=None)
@given(st.data(), st.permutations(_RADICANDS))
def test_comparing_two_radicands_raises(data, rads):
    x, y = (data.draw(_value(d).filter(lambda z: z.v)) for d in rads[:2])
    for compare in (x.cmp, x.__lt__, x.__le__, x.__gt__, x.__ge__):
        with pytest.raises(MixedRadicals):
            compare(y)
    assert x != y  # equality stays structural


@settings(max_examples=200, deadline=None)
@given(_ints, st.integers(1, 10**9))
def test_equality_with_ints_and_fractions(num, den):
    x, f = Q(num, 0, den), Fraction(num, den)
    assert x == f and f == x and x != f + 1 and hash(x) == hash(f)
    assert Q(num) == num and num == Q(num) and Q(num) != num + 1
    assert Q(num, 1, den, 2) != f and Q(num, 0, den) != str(f)


@st.composite
def _tower(draw, e):
    d = draw(st.sampled_from((2, 3)))
    p = Q(draw(_small), draw(_small), draw(st.integers(1, 3)), d)
    q = Q(draw(_small), draw(_small), draw(st.integers(1, 3)), d)
    return BiQuadratic(p, q, e)


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from((5, 7, 1000003)), _small)
def test_tower_arithmetic_equals_the_validating_constructor(data, e, k):
    # small coefficients make results that fold (q == 0, or both parts
    # rational) and operand pairs with different inner radicands
    x, y = data.draw(_tower(e)), data.draw(_tower(e))
    try:
        # the operands' common tower (a folded operand may join one) and
        # their parts in it, as the arithmetic defines them
        ee = x._common_e(y)
        (xp, xq), (yp, yq) = x._parts(ee), y._parts(ee)
        want = {
            "add": BiQuadratic(xp + yp, xq + yq, ee),
            "sub": BiQuadratic(xp - yp, xq - yq, ee),
            "mul": BiQuadratic(xp * yp + xq * yq * ee, xp * yq + xq * yp, ee),
        }
    except MixedRadicals:
        for op in (lambda: x + y, lambda: x - y, lambda: x * y):
            with pytest.raises(MixedRadicals):
                op()
        return
    want |= {
        "neg": BiQuadratic(-x.p, -x.q, x.e),
        "scale": BiQuadratic(x.p * k, x.q * k, x.e),
        "shift": BiQuadratic(x.p + k, x.q, x.e),
    }
    got = {"add": x + y, "sub": x - y, "mul": x * y, "neg": -x, "scale": x * k, "shift": x + k}
    assert {op: (v.p, v.q, v.e) for op, v in got.items()} == {
        op: (v.p, v.q, v.e) for op, v in want.items()
    }


@st.composite
def _plain_scalar(draw):
    """An int, a Fraction or a QuadraticNumber, rational or in one of three
    fields, some in a tower's inner or outer field."""
    kind = draw(st.sampled_from(("int", "fraction", "quadratic")))
    if kind == "int":
        return draw(_small)
    if kind == "fraction":
        return Fraction(draw(_small), draw(st.integers(1, 4)))
    d = draw(st.sampled_from((0, 2, 3, 5)))
    return Q(draw(_small), draw(_small), draw(st.integers(1, 3)), d)


_MIXED_OPS = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "div": lambda x, y: x / y,
    "eq": lambda x, y: x == y,
    "lt": lambda x, y: x < y,
    "le": lambda x, y: x <= y,
    "gt": lambda x, y: x > y,
    "ge": lambda x, y: x >= y,
}


def _outcome(op, x, y):
    try:
        got = op(x, y)
    except (MixedRadicals, ZeroDivisionError) as exc:
        return type(exc)
    return (got.p, got.q, got.e) if isinstance(got, BiQuadratic) else got


@settings(max_examples=400, deadline=None)
@given(st.data(), st.sampled_from((5, 7)), _plain_scalar())
def test_mixed_type_operators_agree_with_the_tower(data, e, x):
    # a plain scalar against a BiQuadratic, on either side, gives what the
    # same operator gives on the scalar lifted into BiQuadratic: the same
    # value, the same refusal, or the same division by zero
    y = data.draw(st.one_of(_tower(e), _plain_scalar().map(lambda v: BiQuadratic(qn(v)))))
    lifted = BiQuadratic(qn(x))
    for name, op in _MIXED_OPS.items():
        assert _outcome(op, x, y) == _outcome(op, lifted, y), (name, "left")
        assert _outcome(op, y, x) == _outcome(op, y, lifted), (name, "right")


def test_a_plain_scalar_divides_by_a_tower_element():
    y = BiQuadratic(Q(1, 1, 1, 2), qn(1), 5)  # 1 + sqrt(2) + sqrt(5)
    for x in (3, Fraction(1, 3), Q(0, 1, 1, 2)):
        assert (x / y) * y == x
        assert x / y == BiQuadratic(qn(x)) / y


def test_mixed_radicals_still_raise():
    r2, r3, r5 = Q.sqrt_int(2), Q.sqrt_int(3), Q.sqrt_int(5)
    for op in (lambda: r2 + r5, lambda: r2 - r5, lambda: r2 * r5, lambda: r5 + r2 * 3):
        with pytest.raises(MixedRadicals):
            op()
    # within one tower: inner radicands that differ, and outer ones that do
    with pytest.raises(MixedRadicals):
        BiQuadratic(r2, qn(1), 5) + BiQuadratic(qn(0), r3, 5)
    with pytest.raises(MixedRadicals):
        BiQuadratic(r2, qn(1), 5) * BiQuadratic(r2, qn(1), 7)
    with pytest.raises(MixedRadicals):
        BiQuadratic(r2, qn(1), 5) + r3


def _literal_terms(draw, n, depth):
    """Text of a sum of terms in one radicand n, with its value A + B*sqrt(n)
    as Fractions."""
    text, a, b = "", Fraction(0), Fraction(0)
    for j in range(draw(st.integers(1, 3))):
        sign = draw(st.sampled_from(("", "+", "-") if j == 0 else ("+", "-")))
        kind = draw(st.sampled_from(("sqrt", "frac", "decimal") + (("paren",) if depth < 2 else ())))
        ta, tb = Fraction(0), Fraction(0)
        if kind == "sqrt":
            k, q = draw(st.integers(1, 60)), draw(st.integers(1, 30))
            t, tb = f"{k}*sqrt({n})/{q}", Fraction(k, q)
        elif kind == "frac":
            p, r = draw(st.integers(0, 60)), draw(st.integers(1, 30))
            t, ta = f"{p}/{r}", Fraction(p, r)
        elif kind == "decimal":
            whole = draw(st.sampled_from(("", "0", "3", "12")))
            t = f"{whole}.{draw(st.text('0123456789', min_size=1, max_size=4))}"
            ta = Fraction(t)
        else:
            inner, ia, ib = _literal_terms(draw, n, depth + 1)
            m = draw(st.integers(1, 9))
            if draw(st.booleans()):
                t, ta, tb = f"{m}*({inner})", m * ia, m * ib
            else:
                t, ta, tb = f"({inner})/{m}", ia / m, ib / m
        if sign == "-":
            ta, tb = -ta, -tb
        text, a, b = text + sign + t, a + ta, b + tb
    return text, a, b


@st.composite
def _literals(draw):
    # square-free, non-square-free, 0 and 1 radicands
    n = draw(st.sampled_from((0, 1, 2, 3, 4, 8, 12, 18, 50, 1000003)))
    return (n, *_literal_terms(draw, n, 0))


@settings(max_examples=400, deadline=None)
@given(_literals())
def test_literals_parse_to_their_value_in_canonical_form(lit):
    n, text, a, b = lit
    want = Q(a.numerator * b.denominator, b.numerator * a.denominator, a.denominator * b.denominator, n)
    for got in (parse_number(text), parse_complex(text).re, parse_complex(f"({text})i").im):
        assert _fields(got) == _fields(want)
        assert got.w > 0 and math.gcd(got.u, got.v, got.w) == 1
        assert (got.d == 0) == (got.v == 0) and got.d != 1
        assert all(got.d % (p * p) for p in range(2, math.isqrt(got.d) + 1))


# ---------------------------------------------------------------------------
# radicands split to the cube root, and capped
# ---------------------------------------------------------------------------

_PRIMES_NEAR_1E6 = (999_979, 999_983, 1_000_003, 1_000_033)


def test_squarefree_split_matches_trial_division():
    for n in range(20_000):
        assert squarefree_split(n) == squarefree_split_trial(n), n
    # the cofactor left past the cube root: a prime, a square or two primes
    assert all(squarefree_split_trial(p) == (1, p) for p in _PRIMES_NEAR_1E6)
    products = [p * q for i, p in enumerate(_PRIMES_NEAR_1E6) for q in _PRIMES_NEAR_1E6[i:]]
    for n in (*products, 12 * 999_979 * 1_000_003, 45 * 999_983**2):
        assert squarefree_split(n) == squarefree_split_trial(n), n


def test_a_radicand_above_the_cap_is_refused_when_read():
    assert parse_number(f"sqrt({MAX_RADICAND})") == 10**9
    x = parse_number(f"sqrt({MAX_RADICAND - 1})")
    assert x * x == MAX_RADICAND - 1 and x.v == 9  # 10^18 - 1 = 81 * 12345679012345679
    for text in (
        f"sqrt({MAX_RADICAND + 1})",
        f"-2*sqrt({10**30})/3",
        f"1 + sqrt({MAX_RADICAND + 1})",
        f"sqrt({MAX_RADICAND + 1})/0",
    ):
        with pytest.raises(BudgetExceeded, match="capped at 10\\^18"):
            parse_number(text)
    with pytest.raises(BudgetExceeded):
        parse_complex(f"1+sqrt({MAX_RADICAND + 1})i")


# ---------------------------------------------------------------------------
# the literal fast path against the parser
# ---------------------------------------------------------------------------


def _parse_outcome(parse, text):
    """A parse's value as fields and ``to_expr``, or its error's type and text."""
    try:
        val = parse(text)
    except Exception as exc:  # the differential compares every failure
        return type(exc), str(exc)
    return _fields(val), val.to_expr()


def _parser_only(text):
    p = _Parser(text)
    val = p.expr()
    p.done()
    return val


def test_common_literals_skip_the_parser(monkeypatch):
    want = {t: _parse_outcome(parse_number, t) for t in _FAST}
    monkeypatch.setattr(numbers, "_Parser", None)  # called, it would raise TypeError
    assert {t: _parse_outcome(parse_number, t) for t in _FAST} == want
    assert all(isinstance(fields, tuple) for fields, _ in want.values())


_FAST = ("5", "-5", "007", "0/5", "-12/8", "sqrt(7)/6", "-sqrt(7)/2", "2*sqrt(8)/4",
         "sqrt(1)", "sqrt(4)/2", "-0", "3*sqrt(12)", f"sqrt({MAX_RADICAND})")


@pytest.mark.parametrize(
    "text",
    [*_FAST, "sqrt(0)", "0*sqrt(2)", "1/0", "2*sqrt(3)/0", " 5", "5 ", "+5", "--5", "- 5",
     "1/ 2", "sqrt (2)", "sqrt(2)/", "sqrt()", "sqrt(-2)", "sqrt(2", "2*", "/2", "", " ",
     "1.5", "5i", "x", "1/2/3", "sqrt(2)*sqrt(2)", "2sqrt(2)", "0x10", "\u0663",
     f"sqrt({MAX_RADICAND + 1})", f"0*sqrt({MAX_RADICAND + 1})"],
)
def test_literal_examples_parse_as_the_parser_does(text):
    assert _parse_outcome(parse_number, text) == _parse_outcome(_parser_only, text)


def test_a_radicand_is_refused_before_a_denominator_too_long_for_int():
    text = f"sqrt({MAX_RADICAND + 1})/{'1' * 5000}"
    want = (BudgetExceeded, "radicands are capped at 10^18")
    assert _parse_outcome(parse_number, text) == _parse_outcome(_parser_only, text) == want


_DIGITS = st.one_of(
    st.integers(0, 10**6).map(str),
    st.text("0123456789", min_size=1, max_size=22),
    st.sampled_from(("0", "00", "1", "007", str(MAX_RADICAND), str(MAX_RADICAND + 1))),
)


@st.composite
def _literal_texts(draw):
    """The fast path's shapes with any digits, under any sign, and then
    perhaps one character inserted or one deleted."""
    sign = draw(st.sampled_from(("", "", "-", "+", "--", " -", "- ")))
    k, r, p, q = (draw(_DIGITS) for _ in range(4))
    core = draw(st.sampled_from((
        p, f"{p}/{q}", f"sqrt({r})", f"{k}*sqrt({r})", f"sqrt({r})/{q}", f"{k}*sqrt({r})/{q}",
    )))
    text = sign + core
    at = draw(st.integers(0, len(text)))
    edit = draw(st.sampled_from(("", "", "insert", "delete")))
    if edit == "insert":
        text = text[:at] + draw(st.sampled_from(" \t()*/+-.0ix")) + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1 :]
    return text


@settings(max_examples=600, deadline=None)
@given(_literal_texts())
def test_the_literal_fast_path_parses_as_the_parser_does(text):
    assert _parse_outcome(parse_number, text) == _parse_outcome(_parser_only, text)
