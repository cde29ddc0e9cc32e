"""Flat lines mod the lattice and the classification of their orbits.

Both slope kinds share one representation: an integer frame matrix F of
determinant 1 per slope, and a line stored as its base point's state
F*(x, y) mod 1.  An irrational slope's frame (x, y) -> (-y, x) gives the
transverse pair (alpha, beta): the functional slope*x - y is constant on the
line and decomposes uniquely as alpha + beta*slope when the transverse field
does not contain the slope radicand, so line equality and grid membership are
exact decisions.  A rational direction (m, k) closes up into a Jordan curve;
its frame (x, y) -> (k*x - m*y, u*x + v*y), u*m + v*k = 1, gives the loop's
invariant and the base point's place on the loop.  An integer covering keeps
every slope (a rational direction up to sign, which is the same set of
lines), so it steps every state by one affine rule, st -> a*st + F*b mod 1.
A transverse orbit's states are integers over one denominator N: a pair
(u, v) per coordinate for (u + v*sqrt(d))/N, with v = 0 on rational data.  A
periodic orbit is in closed form: its preperiod and period (``_shape``), and
state n from one modular power (``_state_ints``), which also serves a state
whose irrational parts stay fixed; a wandering line's states never repeat,
as one step shows (``_moves``).  The order-2 involution acts on the states
as one integer map (``Numerators.reflection``).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from functools import cached_property, partial
from itertools import accumulate, repeat
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    FieldClash,
    InternalInconsistency,
    IrrationalOffset,
    MixedRadicals,
    SlopeNotInvariant,
)
from .lattice import CoordPair, Record
from .numbers import ZERO, QuadraticNumber, floor_parts, qn
from .torus_map import AffineTorusMap

TransverseState = tuple[QuadraticNumber, QuadraticNumber]
StateInts = tuple[int, int, int, int]  # (u0, v0, u1, v1), see ``Numerators``

MAX_ORBIT_STATES = 2**18  # above every period in the tests and the bench (~1e5)


class _Frame:
    """What both slope kinds share: an integer ``frame`` (f11, f12, f21, f22)
    of determinant 1 and the radicand of the slope (0 for a rational one).
    A lattice translate of a point keeps its state, and ``from_state``
    inverts ``to_state`` up to one."""

    __slots__ = ()

    def to_state(self, p: CoordPair) -> TransverseState:
        x, y = p  # F*p mod 1, on p's numerators over one denominator
        f11, f12, f21, f22 = self.frame
        den = math.lcm(x.w, y.w)
        sx, sy = den // x.w, den // y.w
        xu, xv, xd, yu, yv, yd = x.u * sx, x.v * sx, x.d, y.u * sy, y.v * sy, y.d
        if xv and yv and xd != yd and (f11 and f12 or f21 and f22):  # a row adds two fields
            raise MixedRadicals(f"sqrt({xd}) and sqrt({yd}) in one scalar")
        u0, v0, d0 = f11 * xu + f12 * yu, f11 * xv + f12 * yv, xd if f11 and xv else yd
        u1, v1, d1 = f21 * xu + f22 * yu, f21 * xv + f22 * yv, xd if f21 and xv else yd
        return (QuadraticNumber._canon(u0 - den * floor_parts(u0, v0, den, d0), v0, den, d0),
                QuadraticNumber._canon(u1 - den * floor_parts(u1, v1, den, d1), v1, den, d1))

    def from_state(self, st: TransverseState) -> CoordPair:
        f11, f12, f21, f22 = self.frame
        s0, s1 = st
        return (s0 * f22 - s1 * f12, s1 * f11 - s0 * f21)

    def check_field(self, st: TransverseState) -> None:
        """A state in the slope's field would not identify the line."""
        # rationals have d = 0, so only a shared radicand matches
        d = self.radicand
        if d and d in (st[0].d, st[1].d):
            raise FieldClash(f"transverse data in Q(sqrt({d})) collides with the slope radicand")


class RationalDirection(Record, _Frame):
    """Primitive integer direction vector (m, k) in lattice coordinates, with
    its ``frame`` (k, -m, u, v), u*m + v*k = 1: a state is the invariant of
    the closed loop through the point and the place on it, +1 along (m, k)."""

    __slots__ = ("m", "k", "frame")
    _fields = ("m", "k")
    radicand = 0

    def __init__(self, m: int, k: int):
        if m == 0 and k == 0:
            raise ValueError("zero direction")
        if math.gcd(abs(m), abs(k)) != 1:
            raise ValueError("direction vector must be primitive")
        u, v = bezout(m, k)
        self.m, self.k, self.frame = m, k, (k, -m, u, v)


def bezout(m: int, k: int) -> tuple[int, int]:
    """(u, v) with u*m + v*k = 1 for a primitive direction (m, k), by the
    extended Euclidean algorithm."""
    r0, r1, u0, u1, v0, v1 = m, k, 1, 0, 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    u, v = u0 * r0, v0 * r0  # r0 is the gcd up to sign, +-1 when primitive
    if u * m + v * k != 1:
        raise InternalInconsistency(f"no Bezout pair for the direction ({m}, {k})")
    return u, v


class IrrationalSlope(Record, _Frame):
    __slots__ = _fields = ("s",)
    # (x, y) -> (alpha, beta) = (-y, x)
    frame = (0, -1, 1, 0)

    def __init__(self, s: QuadraticNumber):
        if s.is_rational:
            raise ValueError("slope is rational; use RationalDirection")
        self.s = s

    @property
    def radicand(self) -> int:
        return self.s.d


SlopeSpec = RationalDirection | IrrationalSlope


def slope_spec(value: QuadraticNumber | tuple[int, int]) -> SlopeSpec:
    """Build a slope spec, folding rational slope values into directions."""
    if isinstance(value, tuple):
        m, k = value
        g = math.gcd(abs(m), abs(k))
        return RationalDirection(m // g, k // g)
    if value.is_rational:
        # canonical: u/w is in lowest terms with w > 0
        return RationalDirection(value.w, value.u)
    return IrrationalSlope(value)


class TorusLine(Record):
    """A flat line mod Z^2, stored as its base point's state (alpha, beta) in
    the slope's frame, each reduced mod 1: for an irrational slope the full
    identity of the line, provided neither lies in the slope's field
    (``FieldClash`` otherwise); for a rational direction the loop invariant
    k*x - m*y, which identifies the line, and the base point's place on it.
    """

    _fields = ("slope", "alpha", "beta")

    def __init__(self, slope: SlopeSpec, alpha: QuadraticNumber, beta: QuadraticNumber):
        slope.check_field((alpha, beta))
        self.slope, self.alpha, self.beta = slope, alpha, beta

    def __eq__(self, other):  # ``Record``'s, spelt out for the hottest record
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.slope, self.alpha, self.beta) == (other.slope, other.alpha, other.beta)

    def __hash__(self):
        return hash((self.slope._key(self.slope), self.alpha, self.beta))

    @property
    def is_irrational(self) -> bool:
        return isinstance(self.slope, IrrationalSlope)

    def transverse(self) -> TransverseState:
        return (self.alpha, self.beta)

    @cached_property
    def direction(self) -> tuple[QuadraticNumber, QuadraticNumber]:
        if isinstance(self.slope, IrrationalSlope):
            return (qn(1), self.slope.s)
        return (qn(self.slope.m), qn(self.slope.k))


def line_from_point(slope: SlopeSpec, base: CoordPair) -> TorusLine:
    """Line through ``base`` with the given slope, at the state
    ``slope.to_state(base)``; for an irrational slope, (alpha, beta) =
    (-P2 mod 1, P1 mod 1), which must avoid the slope radicand."""
    return TorusLine(slope, *slope.to_state(base))


def _translation_state(tm: AffineTorusMap, slope: SlopeSpec) -> tuple[int, TransverseState]:
    """a and c = to_state(b); a c in the slope's field is refused once here."""
    if not tm.has_integer_multiplier:
        raise SlopeNotInvariant("a non-real multiplier turns every slope")
    if tm.b.x.is_zero and tm.b.y.is_zero:
        return tm.multiplier_int(), (ZERO, ZERO)
    c = slope.to_state(tm.b.coords())
    slope.check_field(c)
    return tm.multiplier_int(), c


class Numerators(NamedTuple):
    """An orbit's states are integers (u0, v0, u1, v1) over ``den``, the
    coordinates (u_i + v_i*sqrt(rads[i]))/den; v_i = 0 on a rational one."""

    den: int
    rads: tuple[int, int]

    def value(self, p: StateInts) -> TransverseState:
        den, (d0, d1) = self
        canon = QuadraticNumber._canon
        return (canon(p[0], p[1], den, d0), canon(p[2], p[3], den, d1))

    def reflection(self, origin: TransverseState) -> Callable[[StateInts], StateInts | None]:
        """The involution st -> origin - st mod 1 on these integers, for a
        rational ``origin`` = r/den: u -> r - u reduced by ``floor_parts``,
        v -> -v.  Off the 1/den grid it maps no state onto one over den, and
        every image is None."""
        den, (d0, d1) = self
        r0, r1 = (x * den for x in origin)
        if not (r0.is_integer and r1.is_integer):
            return lambda p: None

        def rho(p: StateInts) -> StateInts:
            u0, u1 = r0.u - p[0], r1.u - p[2]
            return (u0 - den * floor_parts(u0, -p[1], den, d0), -p[1],
                    u1 - den * floor_parts(u1, -p[3], den, d1), -p[3])

        return rho


def _state_rule(tm: AffineTorusMap, slope: SlopeSpec, seed: TransverseState) -> tuple:
    """The covering on states in ``slope``'s frame, F(a*p + b) = a*F(p) + F(b),
    so st -> a*st + c mod 1 with c = to_state(b), on integers over N, the lcm
    of the denominators of the seed and c: the rule, the seed as its state,
    and the ``Numerators``.  A seed and c in two fields are refused at the
    first step."""
    a, (c0, c1) = _translation_state(tm, slope)
    s0, s1 = seed
    den = math.lcm(c0.w, c1.w, s0.w, s1.w)
    j0, j1, k0, k1 = den // c0.w, den // c1.w, den // s0.w, den // s1.w
    cu0, cv0, cu1, cv1 = c0.u * j0, c0.v * j0, c1.u * j1, c1.v * j1
    start = (s0.u * k0, s0.v * k0, s1.u * k1, s1.v * k1)
    d0, d1 = rads = (s0.d or c0.d, s1.d or c1.d)
    # a coordinate whose c lies in a field apart from its seed's
    clash = (d0, c0.d) if c0.d not in (0, d0) else (d1, c1.d) if c1.d not in (0, d1) else None

    def step(p: StateInts) -> StateInts:
        if clash:
            raise MixedRadicals("sqrt(%d) and sqrt(%d) in one scalar" % clash)
        u0, v0, u1, v1 = a * p[0] + cu0, a * p[1] + cv0, a * p[2] + cu1, a * p[3] + cv1
        return (u0 - den * floor_parts(u0, v0, den, d0), v0,
                u1 - den * floor_parts(u1, v1, den, d1), v1)

    return step, start, Numerators(den, rads)


class JordanCurve(Record):
    __slots__ = _fields = ("direction",)

    def __init__(self, direction: RationalDirection):
        self.direction = direction


class EventuallyPeriodic:
    """An orbit's preperiod and period, in closed form (``_shape``), its
    multiplier ``a``, its ``_state_rule`` and the rule's ``_conjugate``:
    ``state_ints(n)`` is state n over ``num`` (``_state_ints``), for any n,
    and ``states`` the preperiod + period distinct ones, none kept."""

    def __init__(self, preperiod: int, period: int, a: int, rule: tuple, conj: tuple):
        self.preperiod, self.period, self.a, self.rule, self.conj = preperiod, period, a, rule, conj
        self.num, self.states = rule[2], OrbitStates(self)
        self.state_ints = partial(_state_ints, a, rule, conj)


class OrbitStates(Sequence):
    """States 0 .. n0 + p - 1 of an ``EventuallyPeriodic`` orbit: ``len`` is
    n0 + p, item n is ``state_ints(n)``, and they are iterated by stepping
    a^n mod M, one product a state (``_conjugate``)."""

    def __init__(self, orbit: EventuallyPeriodic):
        self.orbit = orbit

    def __len__(self) -> int:
        return self.orbit.preperiod + self.orbit.period

    def __getitem__(self, n):
        i = range(len(self))[n]  # IndexError past the orbit; a range for a slice
        return self.orbit.state_ints(i) if isinstance(i, int) else [*map(self.orbit.state_ints, i)]

    def __iter__(self):
        o, m = self.orbit, self.orbit.conj[0]
        powers = accumulate(repeat(o.a, len(self) - 1), lambda e, g: e * g % m, initial=1 % m)
        return (o.state_ints(n, e) for n, e in enumerate(powers))


class WanderingLine(Record):
    __slots__ = _fields = ("witness",)

    def __init__(self, witness: str):
        self.witness = witness  # "alpha" or "beta"


LineOrbitClass = JordanCurve | EventuallyPeriodic | WanderingLine


def _moves(rule: tuple, loop: bool) -> bool:
    """Does the first step of a ``_state_rule`` move the irrational part v of
    a coordinate that identifies the iterate: either on an irrational slope,
    the invariant (coordinate 0) on a loop?  Then no state repeats: v is never
    reduced, so v_n - v* = a^n*(v_0 - v*) about its fixed point v*, |a| >= 2."""
    step, start, _ = rule
    p = step(start)
    return p[1] != start[1] or (not loop and p[3] != start[3])


def _order(a: int, m: int, limit: int) -> int:
    """The least n >= 1 with a^n = 1 mod m, for a prime to m, or limit + 1
    when n is past ``limit``, in O(sqrt(n)) multiply-mods: baby and giant
    steps (Shanks) with a step s that doubles until they find n (after Terr).
    At step s the baby steps keep a^j, j < s, and try n <= s; the giant steps
    a^(-i*s), i <= s, find n = i*s + j < s*(s + 1).  Each doubling costs about
    what all the steps before it did, so n costs at most about 5*sqrt(n)."""
    one = x = 1 % m
    baby, j, s = {}, 0, 1
    while True:
        while j < s:  # x = a^j
            baby[x], x, j = j, x * a % m, j + 1
            if x == one:
                return j
        giant = y = pow(x, -1, m)  # a^(-s); the a^j, j < s, are distinct
        for i in range(1, s + 1):
            if y in baby:
                return i * s + baby[y]
            y = y * giant % m
        if s * (s + 1) > limit:
            return limit + 1
        s *= 2


def _conjugate(a: int, rule: tuple) -> tuple[int, tuple[int, int], StateInts]:
    """A ``_state_rule``'s u parts as a power map: per coordinate,
    y = (a-1)*u + c_u mod M, M = N*|a-1|, turns u -> a*u + c_u mod N into
    y -> a*y.  Returns M, the seed's (y_0, y_1) and c, read as one step from
    the zero state.  u mod N follows this rule whatever v does, since the
    floor only takes multiples of N off."""
    step, start, num = rule
    c, m = step((0, 0, 0, 0)), num.den * abs(a - 1)
    return m, (((a - 1) * start[0] + c[0]) % m, ((a - 1) * start[2] + c[2]) % m), c


def _shape(a: int, conj: tuple, limit: int, loop: bool = False) -> tuple[int, int]:
    """The preperiod and period of a ``_state_rule`` whose v parts stay
    fixed, in closed form from its ``_conjugate`` (past ``limit``, any period
    past it); on a ``loop``, of coordinate 0 alone, the invariant.  Per
    coordinate, y's orbit under y -> a*y is that of a^n mod M/gcd(y, M):
    peeling gcd(M, a) off it takes the preperiod, and the period is the order
    of a on the rest.  The pair's are the max and the lcm of the two's."""
    big, ys, _ = conj
    pre, period = 0, 1
    for y in ys[:1] if loop else ys:
        m, k = big // math.gcd(y, big), 0
        while (g := math.gcd(m, a)) > 1:
            m, k = m // g, k + 1
        pre, period = max(pre, k), math.lcm(period, _order(a, m, limit))
    return pre, period


def _state_ints(a: int, rule: tuple, conj: tuple, n: int, e: int | None = None) -> StateInts:
    """State n of a ``_state_rule`` from its seed, in closed form: per
    coordinate, u mod N = (y_n - c_u)/(a - 1) from y_n = e*y_0 mod M, e = a^n
    (``_conjugate``), v_n = a^n*v_0 + G_n*c_v, G_n = (a^n - 1)/(a - 1), which
    is v_0 when v is fixed, and then u reduced by one ``floor_parts``."""
    _, start, (den, (d0, d1)) = rule
    m, (y0, y1), c = conj
    e, a1 = pow(a, n, m) if e is None else e, a - 1
    u0, u1 = (e * y0 % m - c[0]) // a1 % den, (e * y1 % m - c[2]) // a1 % den
    if not (start[1] or start[3] or c[1] or c[3]):  # rational states
        return (u0, 0, u1, 0)
    v0, v1 = [v if a * v + cv == v else a**n * v + (a**n - 1) // a1 * cv
              for v, cv in ((start[1], c[1]), (start[3], c[3]))]
    return (u0 - den * floor_parts(u0, v0, den, d0), v0,
            u1 - den * floor_parts(u1, v1, den, d1), v1)


def _prime_factors(n: int) -> list[int]:
    """The primes dividing n >= 1, by trial division up to sqrt(n)."""
    out, q = [], 2
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


def classify_line(tm: AffineTorusMap, line: TorusLine) -> LineOrbitClass:
    """Trichotomy for the orbit of a line under an integer-multiplier covering.

    Rational direction -> Jordan curve.  Irrational slope with rational
    transverse pair -> eventually periodic, in closed form by ``_shape``
    (denominators never grow under x -> a*x + c with integer a, rational c),
    refused with ``BudgetExceeded`` past ``MAX_ORBIT_STATES`` states, and
    checked on a few states computed directly (``state_ints``).
    Irrational transverse component -> wandering: a periodic state of that
    affine map is rational, and a*irr + rational stays irrational.
    """
    if isinstance(line.slope, RationalDirection):
        return JordanCurve(line.slope)
    if not tm.has_integer_multiplier:
        raise SlopeNotInvariant(
            "irrational slope is not preserved by a non-real multiplier"
        )
    if not (tm.b.x.is_rational and tm.b.y.is_rational):
        raise IrrationalOffset("classification requires a rational translation part")
    if not line.alpha.is_rational:
        return WanderingLine("alpha")
    if not line.beta.is_rational:
        return WanderingLine("beta")
    a, rule = tm.multiplier_int(), _state_rule(tm, line.slope, line.transverse())
    conj = _conjugate(a, rule)
    pre, period = _shape(a, conj, MAX_ORBIT_STATES)
    if pre + period > MAX_ORBIT_STATES:
        raise BudgetExceeded(f"the orbit has more than {MAX_ORBIT_STATES} states to walk")
    orbit = EventuallyPeriodic(pre, period, a, rule, conj)
    # the shape on states computed directly: state n0 returns after p steps and
    # after no p/q for a prime q, and state n0 - 1 does not return
    s = orbit.state_ints
    head = s(pre)
    if (s(pre + period) != head or pre and s(pre - 1 + period) == s(pre - 1)
            or any(s(pre + period // q) == head for q in _prime_factors(period))):
        raise InternalInconsistency("the closed-form period disagrees with the orbit's states")
    return orbit
