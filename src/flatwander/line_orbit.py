"""Flat lines mod the lattice and the classification of their orbits.

An irrational-slope line is identified by its transverse pair (alpha, beta)
mod Z^2: the functional slope*x - y is constant on the line and decomposes
uniquely as alpha + beta*slope when the transverse field does not contain the
slope radicand.  Line equality and grid membership are then exact integer
decisions.  Rational directions close up into Jordan curves and carry a
one-dimensional invariant instead.  A transverse orbit is walked in one place,
``_walk``; every consumer indexes its states instead of re-applying
``line_image``.  Under an integer multiplier that walk serves rational
directions too: their iterates are closed loops parallel to the seed, and the
state is the anchor in the seed's loop frame (``RationalDirection.loop_coords``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import FieldClash, InternalInconsistency, IrrationalOffset, SlopeNotInvariant
from .lattice import CoordPair, TorusPoint, reduce_to_fundamental
from .numbers import QuadraticNumber, qn
from .torus_map import AffineTorusMap, apply_map


@dataclass(frozen=True)
class RationalDirection:
    """Primitive integer direction vector (m, k) in lattice coordinates."""

    m: int
    k: int

    def __post_init__(self):
        if self.m == 0 and self.k == 0:
            raise ValueError("zero direction")
        if math.gcd(abs(self.m), abs(self.k)) != 1:
            raise ValueError("direction vector must be primitive")

    def loop_coords(self, p: CoordPair) -> TransverseState:
        """The point in the unimodular loop frame of this direction:
        (k*x - m*y, u*x + v*y) mod 1 with u*m + v*k = 1.  The first coordinate
        is the invariant of the closed loop through the point, the second its
        place on that loop, where the direction advances it by 1."""
        u, v = bezout(self.m, self.k)
        x, y = p
        return ((x * self.k - y * self.m).mod1(), (x * u + y * v).mod1())

    def loop_point(self, inv: QuadraticNumber, c: QuadraticNumber) -> CoordPair:
        """Inverse of ``loop_coords`` up to lattice translation: the point
        (v*inv + m*c, -u*inv + k*c)."""
        u, v = bezout(self.m, self.k)
        return (inv * v + c * self.m, c * self.k - inv * u)


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


@dataclass(frozen=True)
class IrrationalSlope:
    s: QuadraticNumber

    def __post_init__(self):
        if self.s.is_rational:
            raise ValueError("slope is rational; use RationalDirection")


SlopeSpec = RationalDirection | IrrationalSlope


def slope_spec(value: QuadraticNumber | tuple[int, int]) -> SlopeSpec:
    """Build a slope spec, folding rational slope values into directions."""
    if isinstance(value, tuple):
        m, k = value
        g = math.gcd(abs(m), abs(k))
        return RationalDirection(m // g, k // g)
    if value.is_rational:
        f = value.as_fraction()
        return RationalDirection(f.denominator, f.numerator)
    return IrrationalSlope(value)


@dataclass(frozen=True)
class TorusLine:
    """A flat line mod Z^2.

    slope: direction data.  For an irrational slope the pair (alpha, beta),
    each reduced mod 1, is the full identity of the line, provided neither
    lies in the slope's field (``FieldClash`` otherwise); for a rational
    direction the anchor point plus the invariant k*x - m*y mod 1 is.
    """

    slope: SlopeSpec
    alpha: QuadraticNumber
    beta: QuadraticNumber
    anchor: TorusPoint | None = None

    def __post_init__(self):
        # rationals have d = 0, so only a shared radicand matches
        d = self.slope.s.d if isinstance(self.slope, IrrationalSlope) else 0
        if d and d in (self.alpha.d, self.beta.d):
            raise FieldClash(f"transverse data in Q(sqrt({d})) collides with the slope radicand")

    @property
    def is_irrational(self) -> bool:
        return isinstance(self.slope, IrrationalSlope)

    def transverse(self) -> tuple[QuadraticNumber, QuadraticNumber]:
        return (self.alpha, self.beta)

    def direction(self) -> tuple[QuadraticNumber, QuadraticNumber]:
        if isinstance(self.slope, IrrationalSlope):
            return (qn(1), self.slope.s)
        return (qn(self.slope.m), qn(self.slope.k))

    def base_point(self) -> CoordPair:
        """A point on a lift: (beta, -alpha) mod 1 for irrational slope."""
        if isinstance(self.slope, IrrationalSlope):
            return (self.beta, (-self.alpha).mod1())
        return self.loop_anchor().coords()

    def loop_anchor(self) -> TorusPoint:
        """The anchor of a rational-direction line; a line built without one
        (not through ``line_from_point``) is a construction bug."""
        if self.anchor is None:
            raise InternalInconsistency("a rational-direction line has no anchor")
        return self.anchor

    def same_line(self, other: TorusLine) -> bool:
        if self.slope != other.slope:
            return False
        if self.is_irrational:
            return self.alpha == other.alpha and self.beta == other.beta
        return self.alpha == other.alpha  # rational case: stored invariant

    def key(self):
        if self.is_irrational:
            s = self.slope.s
            return ("irr", s.u, s.v, s.w, s.d, hash(self.alpha), hash(self.beta))
        return ("rat", self.slope.m, self.slope.k, hash(self.alpha))


def line_from_point(slope: SlopeSpec, base: CoordPair) -> TorusLine:
    """Line through ``base`` with the given slope.

    Irrational slope: transverse pair (alpha, beta) = (-P2 mod 1, P1 mod 1);
    the base coordinates must avoid the slope radicand.  Rational direction:
    stores the reduced anchor and the invariant k*x - m*y mod 1.
    """
    p1, p2 = base
    if isinstance(slope, IrrationalSlope):
        return TorusLine(slope, (-p2).mod1(), p1.mod1())
    inv = (p1 * slope.k - p2 * slope.m).mod1()
    return TorusLine(slope, inv, qn(0), anchor=reduce_to_fundamental(base))


def line_image(tm: AffineTorusMap, line: TorusLine) -> TorusLine:
    """Image of a line under the covering.

    Integer multiplier: slope is preserved and the transverse pair maps by
    (alpha, beta) -> (a*alpha - b_y, a*beta + b_x) mod 1.  A rational direction
    transforms by the integer matrix under any covering.
    """
    if isinstance(line.slope, RationalDirection):
        p, q, r, s = tm.m
        m, k = line.slope.m, line.slope.k
        new_dir = (p * m + r * k, q * m + s * k)
        new_anchor = apply_map(tm, line.loop_anchor())
        return line_from_point(slope_spec(new_dir), new_anchor.coords())
    if not tm.has_integer_multiplier:
        raise SlopeNotInvariant(
            "irrational slope is not preserved by a non-real multiplier"
        )
    a = tm.multiplier_int()
    alpha = (line.alpha * a - tm.b.y).mod1()
    beta = (line.beta * a + tm.b.x).mod1()
    return TorusLine(line.slope, alpha, beta)


@dataclass(frozen=True)
class JordanCurve:
    direction: RationalDirection


TransverseState = tuple[QuadraticNumber, QuadraticNumber]


@dataclass(frozen=True)
class EventuallyPeriodic:
    """The preperiod + period distinct transverse states in orbit order;
    ``state(n)`` folds any later index back into the cycle."""

    preperiod: int
    period: int
    states: tuple[TransverseState, ...]

    @property
    def cycle(self) -> tuple[TransverseState, ...]:
        return self.states[self.preperiod :]

    def state(self, n: int) -> TransverseState:
        if n >= self.preperiod:
            n = self.preperiod + (n - self.preperiod) % self.period
        return self.states[n]


@dataclass(frozen=True)
class WanderingLine:
    witness: str  # "alpha" or "beta"


LineOrbitClass = JordanCurve | EventuallyPeriodic | WanderingLine


def _require_rational_b(tm: AffineTorusMap) -> None:
    if not (tm.b.x.is_rational and tm.b.y.is_rational):
        raise IrrationalOffset("classification requires a rational translation part")


def _walk(
    tm: AffineTorusMap, line: TorusLine, limit: int
) -> tuple[tuple[TransverseState, ...], int | None]:
    """The distinct states of the orbit of ``line`` in orbit order, up to the
    first repeat or ``limit`` states, and the index the repeat returns to
    (None when the limit came first): the one loop over orbit states.

    An irrational slope's state is its transverse pair, stepped by
    ``line_image``.  An integer multiplier keeps a rational direction (m, k)
    up to sign, so every iterate is a closed loop parallel to the seed; the
    state is the iterate's anchor in the seed's loop frame (``loop_coords``),
    where the covering steps it by (inv, c) -> a*(inv, c) + loop_coords(b)
    mod 1.  The frame is the seed's, so the reversed direction of a negative
    multiplier does not flip the invariant's sign, and the anchor fixes the
    rest of the orbit, so a repeated state is a repeated iterate."""
    if isinstance(line.slope, RationalDirection):
        if not tm.has_integer_multiplier:
            raise SlopeNotInvariant("a non-real multiplier turns a rational direction")
        frame, a = line.slope, tm.multiplier_int()
        shift = frame.loop_coords(tm.b.coords())
        state = frame.loop_coords(line.base_point())

        def step(st: TransverseState) -> TransverseState:
            return ((st[0] * a + shift[0]).mod1(), (st[1] * a + shift[1]).mod1())

    else:
        slope, state = line.slope, line.transverse()

        def step(st: TransverseState) -> TransverseState:
            return line_image(tm, TorusLine(slope, *st)).transverse()

    seen: dict[TransverseState, int] = {}  # insertion order is orbit order
    for i in range(limit):
        if i:
            state = step(state)
        if state in seen:
            return tuple(seen), seen[state]
        seen[state] = i
    return tuple(seen), None


def classify_line(tm: AffineTorusMap, line: TorusLine) -> LineOrbitClass:
    """Trichotomy for the orbit of a line under an integer-multiplier covering.

    Rational direction -> Jordan curve.  Irrational slope with rational
    transverse pair -> eventually periodic, by cycle detection on the single
    walk of the exact finite orbit (denominators never grow under
    x -> a*x + c with integer a, rational c), which stops at the first repeat:
    preperiod + period applications of ``line_image``.  Irrational transverse
    component -> wandering: a periodic state of that affine map is rational,
    and a*irr + rational stays irrational, so the state can never repeat.
    """
    if isinstance(line.slope, RationalDirection):
        return JordanCurve(line.slope)
    if not tm.has_integer_multiplier:
        raise SlopeNotInvariant(
            "irrational slope is not preserved by a non-real multiplier"
        )
    _require_rational_b(tm)
    if not line.alpha.is_rational:
        return WanderingLine("alpha")
    if not line.beta.is_rational:
        return WanderingLine("beta")
    lcm = math.lcm(*(x.as_fraction().denominator for x in (*line.transverse(), tm.b.x, tm.b.y)))
    # at most lcm^2 distinct states, so the walk repeats within the limit
    states, n0 = _walk(tm, line, lcm * lcm + 1)
    if n0 is None:
        raise InternalInconsistency("finite rational orbit exceeded its sanity cap")
    return EventuallyPeriodic(preperiod=n0, period=len(states) - n0, states=states)


def orbit_states(tm: AffineTorusMap, line: TorusLine, n: int) -> list[TransverseState]:
    """States 0..n of the orbit of a line, as ``_walk`` defines them: the
    transverse pair of an irrational slope, the anchor in the seed's loop
    frame for a rational direction under an integer multiplier.

    The orbit is walked at most n steps; once a state repeats, the rest is
    indexed out of the cycle.  This needs no classification, so it holds for
    any translation part, rational or not."""
    states, n0 = _walk(tm, line, n + 1)
    if n0 is None:
        return list(states)
    orbit = EventuallyPeriodic(preperiod=n0, period=len(states) - n0, states=states)
    return [orbit.state(i) for i in range(n + 1)]


def passes_through_q(
    line: TorusLine, q_points: tuple[TorusPoint, ...]
) -> TorusPoint | None:
    """First grid point lying on the line, if any.

    (q1, q2) is on an irrational-slope line iff beta = q1 and alpha = -q2
    mod 1; an irrational transverse pair can never match the rational grid.
    """
    if not line.is_irrational:
        raise ValueError("grid membership is defined for irrational-slope lines")
    for qp in q_points:
        if line.beta == qp.x and line.alpha == (-qp.y).mod1():
            return qp
    return None
