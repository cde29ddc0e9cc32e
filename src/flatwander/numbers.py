"""Exact scalars over Q and real quadratic fields Q(sqrt(D)).

A :class:`QuadraticNumber` stores (u + v*sqrt(D))/w with unbounded integers,
canonicalized so that equality is structural and sign/floor are decided by
integer arithmetic alone.  :class:`BiQuadratic` layers one further radicand on
top (values p + q*sqrt(E) with p, q quadratic); planar predicates on geodesic
segments need it only when a lift's data span two radicands, say an anchor in
one field on a line whose slope lies in another.
"""

from __future__ import annotations

import math
import re
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import total_ordering
from typing import Iterator, NamedTuple, Union

from .errors import BudgetExceeded, InternalInconsistency, MixedRadicals, ParseError

_FLOAT_JITTER = 0.0
MAX_RADICAND = 10**18  # squarefree_split takes about 0.1 s at the cap


def set_float_jitter(eps: float) -> None:
    """Perturb every exact-to-float conversion by a relative ``eps``.

    Test harness knob: exact verdicts must be immune to it.
    """
    global _FLOAT_JITTER
    _FLOAT_JITTER = float(eps)


@contextmanager
def float_jitter(eps: float) -> Iterator[None]:
    old = _FLOAT_JITTER
    set_float_jitter(eps)
    try:
        yield
    finally:
        set_float_jitter(old)


def _jittered(x: float) -> float:
    if _FLOAT_JITTER:
        return x * (1.0 + _FLOAT_JITTER)
    return x


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (f, d) with n = f*f*d and d square-free, for n <= MAX_RADICAND.
    Trial division stops at p^3 > m, the part not yet factored, which then
    has at most two prime factors: one isqrt tells a square from square-free."""
    if n < 0:
        raise ValueError("radicand must be non-negative")
    if n > MAX_RADICAND:
        raise BudgetExceeded("radicands are capped at 10^18")
    f, d, m, p = 1, 1, n, 2
    while p * p * p <= m:
        while m % p == 0:  # each p goes into d, or pairs with the one there
            m //= p
            f, d = (f * p, d // p) if d % p == 0 else (f, d * p)
        p += 1 if p == 2 else 2
    r = math.isqrt(m)
    return (f * r, d) if m and r * r == m else (f, d * m)


def floor_parts(u: int, v: int, w: int, d: int) -> int:
    """floor((u + v*sqrt(d))/w) for w > 0 and a square-free d, from one integer
    square root: floor((u + y)/w) = (u + floor(y)) // w, and v^2*d is never a
    square, so floor(v*sqrt(d)) is isqrt(v^2*d), or -isqrt(v^2*d) - 1 for v < 0."""
    if v == 0:
        return u // w
    r = math.isqrt(v * v * d)
    return (u + r) // w if v > 0 else (u - r - 1) // w


def _nearest_double(f: int, k: int) -> float:
    """The nearest double to an irrational x > 0 from F = floor(x*2^k), which
    has 55 bits or more, or k >= 1076, where x below 2^-1022 is subnormal.
    F is cut to 55 bits, or to units of 2^-1076, and its last bit set: x*2^k
    is never an integer, so this sticky bit keeps F on x's side of every
    midpoint.  ``float`` rounds to 53 bits and ``ldexp`` scales exactly; a
    subnormal is rounded by ``ldexp`` to its grid of 4 units, after
    ``float`` leaves F exact or, with 54 bits, breaks the tie at its last bit
    to the multiple of 4 nearest x.  Past the largest double ``ldexp``
    raises ``OverflowError``."""
    if f.bit_length() < 55 and k < 1076:
        raise InternalInconsistency(f"floor(x*2^{k}) = {f} has too few bits to round")
    s = max(f.bit_length() - 55, k - 1076, 0)
    return math.ldexp(float(f >> s | 1), s - k)


def tower_sign(a: int, b: int, c: int, g: int, d: int, e: int) -> int:
    """sign(p + q*sqrt(e)), p = a + b*sqrt(d) and q = c + g*sqrt(d), for
    square-free d and e with sqrt(e) outside Q(sqrt d) (d = 0 for Q): p^2
    and q^2*e are compared when p and q differ in sign, and are never equal
    for q != 0."""
    sp, sq = _sign_parts(a, b, d), _sign_parts(c, g, d)
    if sq == 0 or sp == sq:
        return sp
    return sp if _sign_parts(a * a + b * b * d - e * (c * c + g * g * d),
                             2 * (a * b - e * c * g), d) > 0 else sq


def _tower_guess(a: int, b: int, c: int, g: int, w: int, d: int, e: int) -> float:
    """(p + q*sqrt(e))/w in floats, nan past double range: far off where the
    parts cancel."""
    try:
        return (a / w + b / w * math.sqrt(d)) + (c / w + g / w * math.sqrt(d)) * math.sqrt(e)
    except OverflowError:
        return math.nan


def tower_floor(a: int, b: int, c: int, g: int, w: int, d: int, e: int) -> int:
    """floor((p + q*sqrt(e))/w) for w > 0, with ``tower_sign``'s p, q, d and
    e: a float guess, then exact signs in steps that double until [lo, hi)
    holds the value, and bisection, so a guess off by n costs O(log n)."""
    x = _tower_guess(a, b, c, g, w, d, e)
    lo = math.floor(x) if math.isfinite(x) else 0
    hi, step = lo + 1, 1
    while tower_sign(a - lo * w, b, c, g, d, e) < 0:
        lo, hi, step = lo - step, lo, step * 2
    while tower_sign(a - hi * w, b, c, g, d, e) >= 0:
        lo, hi, step = hi, hi + step, step * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if tower_sign(a - mid * w, b, c, g, d, e) < 0 else (mid, hi)
    return lo


def _sign_parts(u: int, v: int, d: int) -> int:
    """sign(u + v*sqrt(d)) for a square-free d, by integer case analysis
    (never floats): only mixed signs need the norm u^2 - v^2*d."""
    if v == 0:
        return (u > 0) - (u < 0)
    if u == 0:
        return (v > 0) - (v < 0)
    if u > 0 and v > 0:
        return 1
    if u < 0 and v < 0:
        return -1
    t = u * u - v * v * d
    s = (t > 0) - (t < 0)
    return s if u > 0 else -s


Scalar = Union["QuadraticNumber", int, Fraction]

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


@total_ordering
class QuadraticNumber:
    """(u + v*sqrt(d))/w with w > 0, gcd(u, v, w) = 1, d square-free.

    v == 0 forces d == 0, so rationals have a unique representation and
    structural equality is value equality.
    """

    __slots__ = ("u", "v", "w", "d")

    def __init__(self, u: int, v: int = 0, w: int = 1, d: int = 0):
        if w == 0:
            raise ZeroDivisionError("zero denominator")
        if d < 0:
            raise ValueError("negative radicand")
        if v != 0 and d > 1:
            f, d = squarefree_split(d)
            v *= f
        if d <= 1:
            # sqrt(0) = 0 and sqrt(1) = 1 fold into the rational part.
            u, v, d = (u + v, 0, 0) if d == 1 else (u, 0, 0)
        if v == 0:
            d = 0
        if w < 0:
            u, v, w = -u, -v, -w
        g = math.gcd(math.gcd(abs(u), abs(v)), w)
        if g > 1:
            u, v, w = u // g, v // g, w // g
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "d", d)

    def __setattr__(self, *_):
        raise AttributeError("QuadraticNumber is immutable")

    @classmethod
    def _canon(cls, u: int, v: int, w: int, d: int) -> QuadraticNumber:
        """Trusted constructor for results of arithmetic on canonical values:
        ``d`` is square-free or 0 and ``w > 0``.  Reduces by gcd(u, v, w) and
        drops ``d`` when ``v == 0``; nothing else."""
        g = math.gcd(u, v, w)
        if g > 1:
            u, v, w = u // g, v // g, w // g
        return _exact(u, v, w, d if v else 0)

    @classmethod
    def sqrt_int(cls, n: int) -> QuadraticNumber:
        """Exact sqrt of a non-negative integer, radicand reduced."""
        return cls(0, 1, 1, n)

    @staticmethod
    def _coerce(x: Scalar) -> QuadraticNumber:
        if isinstance(x, QuadraticNumber):
            return x
        if isinstance(x, int):
            return QuadraticNumber._canon(x, 0, 1, 0)
        if isinstance(x, Fraction):
            return QuadraticNumber._canon(x.numerator, 0, x.denominator, 0)
        return NotImplemented  # type: ignore[return-value]

    @property
    def is_rational(self) -> bool:
        return self.v == 0

    @property
    def is_integer(self) -> bool:
        return self.v == 0 and self.w == 1

    @property
    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError("not an integer")
        return self.u

    def _common_d(self, other: QuadraticNumber) -> int:
        # canonical values carry d == 0 exactly when they are rational
        a, b = self.d, other.d
        if a and b and a != b:
            raise MixedRadicals(f"sqrt({a}) and sqrt({b}) in one scalar")
        return a or b

    def __add__(self, other: Scalar) -> QuadraticNumber:
        if isinstance(other, int):
            return _exact(self.u + other * self.w, self.v, self.w, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticNumber._canon(
            self.u * o.w + o.u * self.w,
            self.v * o.w + o.v * self.w,
            self.w * o.w,
            self._common_d(o),
        )

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> QuadraticNumber:
        if isinstance(other, int):
            return _exact(self.u - other * self.w, self.v, self.w, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return QuadraticNumber._canon(
            self.u * o.w - o.u * self.w,
            self.v * o.w - o.v * self.w,
            self.w * o.w,
            self._common_d(o),
        )

    def __rsub__(self, other: Scalar) -> QuadraticNumber:
        return (-self) + other

    def __neg__(self) -> QuadraticNumber:
        return _exact(-self.u, -self.v, self.w, self.d)

    def __mul__(self, other: Scalar) -> QuadraticNumber:
        if isinstance(other, int):
            # _canon then divides out gcd(k*u, k*v, w) = gcd(k, w)
            return QuadraticNumber._canon(self.u * other, self.v * other, self.w, self.d)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._common_d(o)
        return QuadraticNumber._canon(
            self.u * o.u + self.v * o.v * d,
            self.u * o.v + self.v * o.u,
            self.w * o.w,
            d,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadraticNumber:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        # 1 / ((u + v sqrt(d))/w) = w (u - v sqrt(d)) / (u^2 - v^2 d); the
        # norm is nonzero for a square-free d, and its sign moves to the top
        norm = self.u * self.u - self.v * self.v * self.d
        s = 1 if norm > 0 else -1
        return QuadraticNumber._canon(s * self.w * self.u, -s * self.w * self.v, s * norm, self.d)

    def __truediv__(self, other: Scalar) -> QuadraticNumber:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: Scalar) -> QuadraticNumber:
        return self.inverse() * other

    def __pow__(self, n: int) -> QuadraticNumber:
        if n < 0:
            return self.inverse() ** (-n)
        out = QuadraticNumber(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __abs__(self) -> QuadraticNumber:
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        """Exact sign, by integer case analysis (never floats)."""
        return _sign_parts(self.u, self.v, self.d)

    def cmp(self, other: QuadraticNumber) -> int:
        """sign(self - other), read off the integers without building the
        difference: its numerator over w*w' > 0 is
        (u*w' - u'*w) + (v*w' - v'*w)*sqrt(d)."""
        sw, ow = self.w, other.w
        return _sign_parts(
            self.u * ow - other.u * sw, self.v * ow - other.v * sw, self._common_d(other)
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not QuadraticNumber:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (
            self.u == other.u
            and self.v == other.v
            and self.w == other.w
            and self.d == other.d
        )

    def __lt__(self, other: Scalar) -> bool:
        o = other if type(other) is QuadraticNumber else self._coerce(other)
        return NotImplemented if o is NotImplemented else self.cmp(o) < 0

    def __le__(self, other: Scalar) -> bool:
        o = other if type(other) is QuadraticNumber else self._coerce(other)
        return NotImplemented if o is NotImplemented else self.cmp(o) <= 0

    def __hash__(self) -> int:
        if self.v:
            return hash((self.u, self.v, self.w, self.d))
        # hash(Fraction(u, w)) without building it (the numeric hash rule)
        u, w = self.u, self.w
        if w == 1:
            return hash(u)
        try:
            h = hash(hash(abs(u)) * pow(w, -1, _HASH_MODULUS))
        except ValueError:  # w is a multiple of the modulus
            h = _HASH_INF
        h = h if u >= 0 else -h
        return -2 if h == -1 else h

    def floor(self) -> int:
        """Exact floor, by ``floor_parts``."""
        return floor_parts(self.u, self.v, self.w, self.d)

    def mod1(self) -> QuadraticNumber:
        """x - floor(x), exactly in [0, 1)."""
        u, v, w, d = self.u, self.v, self.w, self.d
        return _exact(u - w * floor_parts(u, v, w, d), v, w, d)

    def to_float(self) -> float:
        """The nearest double: u / w for a rational (int / int is correctly
        rounded), else by ``_nearest_double`` on ``floor_parts`` of the
        numerators scaled by 2^k.  k starts from a lower bound on |x|: its
        larger part, or, when the parts cancel, its norm over its conjugate,
        whose parts do not."""
        if not self.v:
            return _jittered(self.u / self.w)
        u, v, w, d = self.u, self.v, self.w, self.d
        s = _sign_parts(u, v, d)
        u, v, bu, bv, bd = s * u, s * v, abs(u).bit_length(), abs(v).bit_length(), d.bit_length()
        if u < 0 or v < 0:  # |x| = |u^2 - v^2*d| / (w*(|u| + |v|*sqrt(d)))
            e = (u * u - v * v * d).bit_length() - max(bu, bv + (bd + 1) // 2) - 2
        else:
            e = max(bu, bv + (bd - 1) // 2) - 1
        k = 54 - e + w.bit_length()  # x*2^k >= 2^54: F has 55 bits or more
        f = floor_parts(u << k, v << k, w, d) if k >= 0 else floor_parts(u, v, w << -k, d)
        return _jittered(s * _nearest_double(f, k))

    def __float__(self) -> float:
        return self.to_float()

    def to_expr(self) -> str:
        """Render in the number-expression grammar; re-parses to an equal value."""
        u, v, w, d = self.u, self.v, self.w, self.d
        if v == 0:
            return str(u) if w == 1 else f"{u}/{w}"
        if v == 1:
            rad = f"sqrt({d})"
        elif v == -1:
            rad = f"-sqrt({d})"
        else:
            rad = f"{v}*sqrt({d})"
        if u == 0:
            core = rad
        else:
            core = f"{u}+{rad}" if not rad.startswith("-") else f"{u}{rad}"
        if w == 1:
            return core
        if u == 0 and v in (1, -1):
            return f"{rad}/{w}"
        return f"({core})/{w}"

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.to_expr()!r})"

    def __str__(self) -> str:
        return self.to_expr()


# the slots' own setters, which the immutable __setattr__ does not guard
_set_u, _set_v, _set_w, _set_d = (
    getattr(QuadraticNumber, slot).__set__ for slot in QuadraticNumber.__slots__
)


def _exact(u: int, v: int, w: int, d: int) -> QuadraticNumber:
    """A value from integers already canonical: nothing is reduced.  A shift
    by an integer (``mod1`` is one) or a negation keeps them so, since
    gcd(u + k*w, v, w) = gcd(u, v, w) and ``v``, ``w`` and ``d`` do not
    change."""
    x = object.__new__(QuadraticNumber)
    _set_u(x, u)
    _set_v(x, v)
    _set_w(x, w)
    _set_d(x, d)
    return x


ZERO = QuadraticNumber(0)
ONE = QuadraticNumber(1)
HALF = QuadraticNumber(1, 0, 2)


def qn(x: Scalar) -> QuadraticNumber:
    out = QuadraticNumber._coerce(x)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {x!r}")
    return out


class ComplexPair(NamedTuple):
    """A complex number as an exact (re, im) pair."""

    re: QuadraticNumber
    im: QuadraticNumber

    @classmethod
    def make(cls, re: Scalar, im: Scalar = 0) -> ComplexPair:
        return cls(qn(re), qn(im))

    def mul(self, other: ComplexPair) -> ComplexPair:
        return ComplexPair(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def neg(self) -> ComplexPair:
        return ComplexPair(-self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im.is_zero

    def abs2(self) -> QuadraticNumber:
        return self.re * self.re + self.im * self.im

    def to_complex(self) -> complex:
        return complex(self.re.to_float(), self.im.to_float())

    def to_expr(self) -> str:
        re_s, im = self.re, self.im
        if im.is_zero:
            return re_s.to_expr()
        if im == ONE:
            im_part = "i"
        elif im == -ONE:
            im_part = "-i"
        else:
            e = im.to_expr()
            im_part = f"{e}i" if re.fullmatch(r"-?\d+(/\d+)?", e) else f"({e})i"
        if re_s.is_zero:
            return im_part
        sign = "" if im_part.startswith("-") else "+"
        return f"{re_s.to_expr()}{sign}{im_part}"


@total_ordering
class BiQuadratic:
    """p + q*sqrt(e) with p, q in one quadratic field and e a second radicand.

    Closed under +, -, *, /; sign and floor are exact.  The constructor folds
    degenerate towers (q == 0, e in {0, 1}, or e equal to the inner radicand)
    back into a single QuadraticNumber.
    """

    __slots__ = ("p", "q", "e")

    def __init__(self, p: QuadraticNumber, q: QuadraticNumber = ZERO, e: int = 0):
        if e < 0:
            raise ValueError("negative radicand")
        if e > 1 and not q.is_zero:
            f, e = squarefree_split(e)
            if f > 1:
                q = q * f
        if e <= 1:
            if e == 1:
                p, q = p + q, ZERO
            elif not q.is_zero:
                q = ZERO
            e = 0
        elif q.is_zero:
            e = 0
        else:
            dp = p.d if p.v != 0 else 0
            dq = q.d if q.v != 0 else 0
            if dp and dq and dp != dq:
                raise MixedRadicals(f"inner radicands sqrt({dp}) vs sqrt({dq})")
            inner = dp or dq
            if inner in (0, e):
                # sqrt(e) lies in (or generates) the inner field: fold.
                p = p + q * QuadraticNumber(0, 1, 1, e)
                q, e = ZERO, 0
            elif e < inner:
                # canonical orientation: the smaller radicand goes inside
                pa, pb = Fraction(p.u, p.w), Fraction(p.v, p.w)
                qa, qb = Fraction(q.u, q.w), Fraction(q.v, q.w)
                root_e = QuadraticNumber(0, 1, 1, e)
                new_p = qn(pa) + qn(qa) * root_e
                new_q = qn(pb) + qn(qb) * root_e
                p, q, e = new_p, new_q, inner
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "e", e)

    def __setattr__(self, *_):
        raise AttributeError("BiQuadratic is immutable")

    @classmethod
    def _canon(cls, p: QuadraticNumber, q: QuadraticNumber, e: int) -> BiQuadratic:
        """Trusted constructor for sums, products and integer multiples within
        one tower over the square-free ``e``.  A result that may fold (q == 0,
        or both parts rational) takes the full constructor, as does one whose
        parts leave the tower."""
        dp, dq = p.d, q.d
        folds = q.v == 0 and (q.u == 0 or dp == 0)
        if folds or (dp and dq and dp != dq) or (dp or dq) >= e:
            return cls(p, q, e)
        x = object.__new__(cls)
        _set_p(x, p)
        _set_q(x, q)
        _set_e(x, e)
        return x

    def _common_e(self, other: BiQuadratic) -> int:
        a = self.e if not self.q.is_zero else 0
        b = other.e if not other.q.is_zero else 0
        if a and b and a != b:
            raise MixedRadicals(f"outer radicands sqrt({a}) vs sqrt({b})")
        if a or b:
            return a or b
        # both operands folded: two distinct single fields still form a tower
        da = self.p.d if self.p.v != 0 else 0
        db = other.p.d if other.p.v != 0 else 0
        if da and db and da != db:
            return max(da, db)
        return 0

    def _parts(self, e: int) -> tuple[QuadraticNumber, QuadraticNumber]:
        """Components relative to outer radicand ``e``; un-folds a value whose
        single quadratic field happens to be generated by sqrt(e)."""
        if not self.q.is_zero:
            return self.p, self.q
        if e and self.p.v != 0 and self.p.d == e:
            return (
                QuadraticNumber(self.p.u, 0, self.p.w),
                QuadraticNumber(self.p.v, 0, self.p.w),
            )
        return self.p, ZERO

    @staticmethod
    def _coerce(x: object) -> BiQuadratic:
        if isinstance(x, BiQuadratic):
            return x
        if isinstance(x, (QuadraticNumber, int, Fraction)):
            return BiQuadratic(qn(x))  # type: ignore[arg-type]
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> BiQuadratic:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        e = self._common_e(o)
        sp, sq = self._parts(e)
        op, oq = o._parts(e)
        return BiQuadratic._canon(sp + op, sq + oq, e)

    __radd__ = __add__

    def __neg__(self) -> BiQuadratic:
        return BiQuadratic._canon(-self.p, -self.q, self.e)

    def __sub__(self, other: object) -> BiQuadratic:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> BiQuadratic:
        return (-self) + other

    def __mul__(self, other: object) -> BiQuadratic:
        if isinstance(other, int):
            return BiQuadratic._canon(self.p * other, self.q * other, self.e)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        e = self._common_e(o)
        sp, sq = self._parts(e)
        op, oq = o._parts(e)
        return BiQuadratic._canon(
            sp * op + sq * oq * e,
            sp * oq + sq * op,
            e,
        )

    __rmul__ = __mul__

    def inverse(self) -> BiQuadratic:
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        if self.q.is_zero:
            return BiQuadratic(self.p.inverse())
        norm = self.p * self.p - self.q * self.q * self.e
        inv = norm.inverse()
        return BiQuadratic(self.p * inv, -(self.q * inv), self.e)

    def __truediv__(self, other: object) -> BiQuadratic:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: object) -> BiQuadratic:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o * self.inverse()

    def sign(self) -> int:
        a, b, c, g, _, d, e = self._numerators()
        return tower_sign(a, b, c, g, d, e)

    @property
    def is_zero(self) -> bool:
        return self.p.is_zero and self.q.is_zero

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        try:
            return (self - o).is_zero
        except MixedRadicals:
            return False

    def __hash__(self) -> int:
        if self.q.is_zero:
            return hash(self.p)
        return hash((self.p, self.q, self.e))

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return (self - o).sign() < 0

    def _numerators(self) -> tuple[int, int, int, int, int, int, int]:
        """(a, b, c, g, w, d, e) with x = (a + b*sqrt(d) + (c + g*sqrt(d))*sqrt(e))/w."""
        p, q = self.p, self.q
        w = math.lcm(p.w, q.w)
        i, j = w // p.w, w // q.w
        return p.u * i, p.v * i, q.u * j, q.v * j, w, p.d or q.d, self.e

    def floor(self) -> int:
        if self.q.is_zero:
            return self.p.floor()
        return tower_floor(*self._numerators())

    def to_float(self) -> float:
        """The nearest double, by ``_nearest_double`` on ``tower_floor`` of
        the numerators scaled by 2^k, k from the float guess's exponent."""
        if self.q.is_zero:
            return self.p.to_float()
        a, b, c, g, w, d, e = self._numerators()
        s = tower_sign(a, b, c, g, d, e)
        a, b, c, g = s * a, s * b, s * c, s * g
        x = abs(_tower_guess(a, b, c, g, w, d, e))
        k = 56 - math.frexp(x)[1] if 0 < x < math.inf else 56
        while True:  # the guess is far off where the parts cancel: k grows
            f = (tower_floor(a << k, b << k, c << k, g << k, w, d, e) if k >= 0
                 else tower_floor(a, b, c, g, w << -k, d, e))
            if f.bit_length() >= 55 or k >= 1076:
                return _jittered(s * _nearest_double(f, k))
            k += 56 - f.bit_length() if f else 64

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        if self.q.is_zero:
            return f"BiQuadratic({self.p.to_expr()!r})"
        return f"BiQuadratic({self.p.to_expr()!r} + ({self.q.to_expr()})*sqrt({self.e}))"


_set_p, _set_q, _set_e = (getattr(BiQuadratic, slot).__set__ for slot in BiQuadratic.__slots__)


# ---------------------------------------------------------------------------
# Number-expression grammar
#
#   expr    := term (('+'|'-') term)*
#   term    := factor (('*' factor) | ('/' posint))*
#   factor  := int | decimal | 'sqrt(' posint ')' | '(' expr ')'
#   complex := [expr] (('+'|'-') [term] 'i')* | expr
#
# Whitespace is insignificant.  Decimal literals parse to exact rationals.
# ---------------------------------------------------------------------------

_TOKEN = r"\d+\.\d+|\.\d+|\d+|sqrt|[()+\-*/i]"
_TOKENS = re.compile(rf"(?:\s*(?:{_TOKEN}))*")
_TOKEN_RE = re.compile(_TOKEN)


def _tokenize(text: str) -> list[str]:
    # the longest run of tokens from the start; anything after it but
    # whitespace is an error
    end = _TOKENS.match(text).end()
    if text[end:].strip():
        raise ParseError(f"unexpected character at {text[end:]!r}")
    return _TOKEN_RE.findall(text, 0, end)


class _Parser:
    """Recursive descent over the tokens, which end in an empty sentinel."""

    def __init__(self, text: str):
        self.toks = _tokenize(text)
        if not self.toks:
            raise ParseError("empty expression")
        self.toks.append("")
        self.i = 0

    def take(self) -> str:
        tok = self.toks[self.i]
        if not tok:
            raise ParseError("unexpected end of expression")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, got {got!r}")

    def _number(self, tok: str) -> QuadraticNumber:
        if "." in tok:
            whole, frac = tok.split(".")
            return QuadraticNumber._canon(int((whole or "0") + frac), 0, 10 ** len(frac), 0)
        return QuadraticNumber._canon(int(tok), 0, 1, 0)

    def factor(self) -> QuadraticNumber:
        tok = self.take()
        if tok == "sqrt":
            self.expect("(")
            arg = self.take()
            if not arg.isdigit():
                raise ParseError("sqrt() takes a positive integer")
            self.expect(")")
            return QuadraticNumber.sqrt_int(int(arg))
        if tok == "(":
            val = self.expr()
            self.expect(")")
            return val
        if tok[0].isdigit() or tok[0] == ".":
            return self._number(tok)
        raise ParseError(f"unexpected token {tok!r}")

    def term(self) -> QuadraticNumber:
        val = self.factor()
        while (op := self.toks[self.i]) in ("*", "/"):
            self.i += 1
            if op == "*":
                val = val * self.factor()
                continue
            den = self.take()
            if not den.isdigit() or int(den) == 0:
                raise ParseError("division only by a positive integer")
            # a canonical value over a positive integer: _canon reduces it
            val = QuadraticNumber._canon(val.u, val.v, val.w * int(den), val.d)
        return val

    def expr(self) -> QuadraticNumber:
        sign = self.toks[self.i]
        if sign in ("+", "-"):
            self.i += 1
        val = -self.term() if sign == "-" else self.term()
        while (op := self.toks[self.i]) in ("+", "-"):
            self.i += 1
            val = val + self.term() if op == "+" else val - self.term()
        return val

    def complex_expr(self) -> ComplexPair:
        parts = [ZERO, ZERO]  # the real and the imaginary sum
        first = True
        while tok := self.toks[self.i]:
            if tok in ("+", "-"):
                self.i += 1
            elif not first:
                raise ParseError(f"expected '+' or '-', got {tok!r}")
            first = False
            # a bare 'i' is 1*i
            t = ONE if self.toks[self.i] == "i" else self.term()
            if tok == "-":
                t = -t
            im = self.toks[self.i] == "i"
            if im:
                self.i += 1
            # the first term of a sum is the sum: no addition to ZERO
            parts[im] = t if parts[im] is ZERO else parts[im] + t
        return ComplexPair(*parts)

    def done(self) -> None:
        if self.toks[self.i]:
            raise ParseError(f"trailing input near {self.toks[self.i]!r}")


_LITERAL = re.compile(r"(-?)(?:([0-9]+)(?:/([0-9]+))?"
                      r"|(?:([0-9]+)\*)?sqrt\(([0-9]+)\)(?:/([0-9]+))?)")


def parse_number(text: str) -> QuadraticNumber:
    """Parse a real scalar in the number-expression grammar.  ``_LITERAL``
    reads [-]k, [-]p/q and [-][k*]sqrt(r)[/n]; other text, a zero or a
    radicand above the cap goes to ``_Parser``: errors come from one place."""
    if m := _LITERAL.fullmatch(text):
        sign, num, den, k, r, n = m.groups()  # converted in the parser's order
        if num is not None:
            num, den = int(num), int(den or 1)
            if den:
                return QuadraticNumber._canon(-num if sign else num, 0, den, 0)
        elif (k := int(k or 1)) and 0 < (r := int(r)) <= MAX_RADICAND and (n := int(n or 1)):
            f, d = squarefree_split(r)  # k*sqrt(r) = k*f*sqrt(d), rational when d = 1
            v = -k * f if sign else k * f
            return QuadraticNumber._canon(*((v, 0) if d == 1 else (0, v)), n, d)
    p = _Parser(text)
    val = p.expr()
    p.done()
    return val


def parse_complex(text: str) -> ComplexPair:
    """Parse a complex scalar (``expr``, ``expr+expr i``, ``expr i`` or ``i``)."""
    p = _Parser(text)
    val = p.complex_expr()
    p.done()
    return val
