"""Segments of flat lines: exact intersection, wandering certificates and the
collision finder.

The certificate logic lives in the canonical line parameterization: a segment
runs from its line's base point, the point its state in the slope's frame
stands for, and an integer covering maps base point to base point, so it acts
on the parameter as t -> a*t for both slope kinds.  The return map of a
period-p line is then t -> a^p * t with fixed point 0, and a certified
subinterval only has to avoid 0 and satisfy an expansion-disjointness ratio.
The sphere certificate is the same one seen through rho, which acts on the
parameter as t -> -t and only adds reflected comparisons and the quotient's
return multiplier.  States are indexed out of ``line_orbit``'s single walk,
and one exact sweep, ``first_overlap``, compares only iterates that share a
state; it decides both the certificates and the integer-multiplier collision
search, for both slope kinds: parameter intervals on an irrational-slope
line, arcs of a closed loop for a rational direction.  The lift chain and its
bounding-box translate search serve only non-real multipliers, group mode and
the fallback for orbit states with no common tower or in the slope's field.
Everything verdict-bearing is an exact predicate, and a pair of lifts with no
common two-radicand tower is refused with ``MixedRadicals``; floats appear
only in bounding-box prefilters and reports.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .errors import (
    BudgetExceeded,
    DegenerateSegment,
    FieldClash,
    IncompatibleField,
    InternalInconsistency,
    MixedRadicals,
    SlopeNotInvariant,
    UncertainAtTolerance,
    UsageError,
)
from .lattice import Lattice, TorusPoint
from .line_orbit import (
    JordanCurve,
    LineOrbitClass,
    RationalDirection,
    TorusLine,
    TransverseState,
    WanderingLine,
    classify_line,
    line_image,
    orbit_states,
)
from .numbers import HALF, BiQuadratic, QuadraticNumber, qn
from .torus_map import (
    AffineTorusMap,
    NonRealMultiplier,
    classify_multiplier,
    rotation_matrix,
)

Point = tuple[BiQuadratic, BiQuadratic]

_BOX_MARGIN = 1e-6
_TRANSLATE_CAP = 2_000_000
_FLOAT_BAND = 1e-9


def _orient(a: Point, b: Point, c: Point) -> int:
    return ((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])).sign()


def _within(a: BiQuadratic, lo: BiQuadratic, hi: BiQuadratic) -> bool:
    return (a - lo).sign() >= 0 and (hi - a).sign() >= 0


def _on_collinear_segment(p0: Point, p1: Point, r: Point) -> bool:
    for i in (0, 1):
        lo, hi = (p0[i], p1[i]) if (p1[i] - p0[i]).sign() >= 0 else (p1[i], p0[i])
        if not _within(r[i], lo, hi):
            return False
    return True


def _cross(u: Point, v: Point) -> BiQuadratic:
    return u[0] * v[1] - u[1] * v[0]


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def segments_meet_exact(p0: Point, p1: Point, q0: Point, q1: Point) -> Point | None:
    """Exact closed-segment intersection; returns a witness point or None."""
    o1 = _orient(p0, p1, q0)
    o2 = _orient(p0, p1, q1)
    o3 = _orient(q0, q1, p0)
    o4 = _orient(q0, q1, p1)
    if o1 * o2 < 0 and o3 * o4 < 0:
        dp = _sub(p1, p0)
        dq = _sub(q1, q0)
        t = _cross(_sub(q0, p0), dq) / _cross(dp, dq)
        return (p0[0] + t * dp[0], p0[1] + t * dp[1])
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # collinear: overlap iff the coordinate boxes overlap
        for cand in (q0, q1):
            if _on_collinear_segment(p0, p1, cand):
                return cand
        for cand in (p0, p1):
            if _on_collinear_segment(q0, q1, cand):
                return cand
        return None
    if o1 == 0 and _on_collinear_segment(p0, p1, q0):
        return q0
    if o2 == 0 and _on_collinear_segment(p0, p1, q1):
        return q1
    if o3 == 0 and _on_collinear_segment(q0, q1, p0):
        return p0
    if o4 == 0 and _on_collinear_segment(q0, q1, p1):
        return p1
    return None


def _orient_float(a, b, c, scale: float) -> int:
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if abs(det) <= _FLOAT_BAND * max(1.0, scale):
        raise UncertainAtTolerance("orientation within float tolerance band")
    return 1 if det > 0 else -1


def segments_meet_float(fp0, fp1, fq0, fq1) -> bool:
    """Float prefilter; raises UncertainAtTolerance near degeneracy."""
    scale = max(abs(v) for pt in (fp0, fp1, fq0, fq1) for v in pt) ** 2
    o1 = _orient_float(fp0, fp1, fq0, scale)
    o2 = _orient_float(fp0, fp1, fq1, scale)
    o3 = _orient_float(fq0, fq1, fp0, scale)
    o4 = _orient_float(fq0, fq1, fp1, scale)
    return o1 != o2 and o3 != o4


@dataclass(frozen=True)
class LiftSegment:
    """A segment in the plane, endpoints exact; the unit of collision search."""

    p0: Point
    p1: Point

    def midpoint(self) -> Point:
        return ((self.p0[0] + self.p1[0]) * HALF, (self.p0[1] + self.p1[1]) * HALF)

    def translate(self, n: int, m: int) -> LiftSegment:
        return LiftSegment(
            (self.p0[0] + n, self.p0[1] + m), (self.p1[0] + n, self.p1[1] + m)
        )

    def normalize(self) -> LiftSegment:
        """Translate so the midpoint lies in the fundamental cell [0,1)^2."""
        mx, my = self.midpoint()
        return self.translate(-mx.floor(), -my.floor())

    def affine_image(
        self, m: tuple[int, int, int, int], shift: tuple[QuadraticNumber, QuadraticNumber]
    ) -> LiftSegment:
        p, q, r, s = m
        bx, by = shift

        def f(pt: Point) -> Point:
            return (pt[0] * p + pt[1] * r + bx, pt[0] * q + pt[1] * s + by)

        return LiftSegment(f(self.p0), f(self.p1))

    @cached_property
    def float_endpoints(self) -> tuple[tuple[float, float], tuple[float, float]]:
        """The endpoints as floats, converted once per segment."""
        return (
            (self.p0[0].to_float(), self.p0[1].to_float()),
            (self.p1[0].to_float(), self.p1[1].to_float()),
        )

    def box(self) -> tuple[float, float, float, float]:
        (x0, y0), (x1, y1) = self.float_endpoints
        return (min(x0, x1), max(x0, x1), min(y0, y1), max(y0, y1))

    def euclidean_length(self, lat: Lattice) -> float:
        (x0, y0), (x1, y1) = self.float_endpoints
        return abs((x1 - x0) + (y1 - y0) * lat.omega_complex())


@dataclass(frozen=True)
class IntersectionResult:
    hit: bool
    witness: tuple[float, float] | None = None

    def __bool__(self) -> bool:
        return self.hit


def lift_segments_intersect_torus(
    lat: Lattice, s1: LiftSegment, s2: LiftSegment
) -> IntersectionResult:
    """Do the projections of two lifted segments intersect on the torus?

    Enumerates the lattice translates of s2 whose bounding box meets s1's box
    (a conservative float prefilter), then decides each candidate with exact
    orientation predicates.  A pair whose scalars span more than two radicands
    is refused with ``MixedRadicals``: floats never decide a hit.
    """
    b1 = s1.box()
    b2 = s2.box()
    n_lo = math.floor(b1[0] - b2[1] - _BOX_MARGIN)
    n_hi = math.ceil(b1[1] - b2[0] + _BOX_MARGIN)
    m_lo = math.floor(b1[2] - b2[3] - _BOX_MARGIN)
    m_hi = math.ceil(b1[3] - b2[2] + _BOX_MARGIN)
    count = (n_hi - n_lo + 1) * (m_hi - m_lo + 1)
    if count > _TRANSLATE_CAP:
        raise BudgetExceeded(f"{count} lattice translates exceed the enumeration cap")
    f1 = s1.float_endpoints
    f2 = s2.float_endpoints
    for n in range(n_lo, n_hi + 1):
        for m in range(m_lo, m_hi + 1):
            shifted = (
                (f2[0][0] + n, f2[0][1] + m),
                (f2[1][0] + n, f2[1][1] + m),
            )
            # float prefilter: a decisive clean miss needs no exact work; the
            # uncertainty band is four orders above double rounding error
            try:
                if not segments_meet_float(f1[0], f1[1], *shifted):
                    continue
            except UncertainAtTolerance:
                pass
            cand = s2.translate(n, m)
            w = segments_meet_exact(s1.p0, s1.p1, cand.p0, cand.p1)
            if w is not None:
                return IntersectionResult(True, reduce_mod1_float(w))
    return IntersectionResult(False)


def reduce_mod1_float(p: Point) -> tuple[float, float]:
    """The point mod 1, reduced exactly and then rounded to floats."""
    return tuple((c - c.floor()).to_float() for c in p)


# ---------------------------------------------------------------------------
# Torus segments
# ---------------------------------------------------------------------------


def _point_at(line: TorusLine, t: QuadraticNumber) -> Point:
    """The point at parameter t on the lift of ``line`` through its base
    point: base + t * direction, for an irrational slope the canonical
    (beta, -alpha) + t*(1, slope)."""
    (bx, by), (dx, dy) = line.base_point(), line.direction()
    t = BiQuadratic.lift(t)
    return (t * dx + bx, t * dy + by)


@dataclass(frozen=True)
class TorusSegment:
    """A segment of a flat line, given by the line and the parameter interval
    [t_lo, t_hi] of ``_point_at``; its lift into the plane is derived from
    them on first use (``lift``)."""

    line: TorusLine
    t_lo: QuadraticNumber
    t_hi: QuadraticNumber

    @cached_property
    def lift(self) -> LiftSegment:
        """The lifted segment, midpoint-normalized into the fundamental cell."""
        return LiftSegment(
            _point_at(self.line, self.t_lo), _point_at(self.line, self.t_hi)
        ).normalize()

    def direction_complex(self, lat: Lattice) -> complex:
        dx, dy = self.line.direction()
        return dx.to_float() + dy.to_float() * lat.omega_complex()

    def euclidean_length(self, lat: Lattice) -> float:
        return (self.t_hi - self.t_lo).to_float() * abs(self.direction_complex(lat))

    def interval(self) -> tuple[QuadraticNumber, QuadraticNumber]:
        return (self.t_lo, self.t_hi)


def _check_param_field(t: QuadraticNumber, line: TorusLine) -> None:
    # rationals have d = 0, and so has a rational direction
    if t.d not in (0, line.slope.radicand):
        raise IncompatibleField(
            "segment parameters must be rational or share the slope radicand"
        )


def segment_new(
    line: TorusLine, t_lo: QuadraticNumber, t_hi: QuadraticNumber
) -> TorusSegment:
    """Validate and build a segment: t_lo < t_hi, each parameter rational or
    in the slope's field."""
    if (t_hi - t_lo).sign() <= 0:
        raise DegenerateSegment("need t_lo < t_hi")
    _check_param_field(t_lo, line)
    _check_param_field(t_hi, line)
    return TorusSegment(line, t_lo, t_hi)


def iterate_segment(tm: AffineTorusMap, seg: TorusSegment) -> TorusSegment:
    """Image under an integer-multiplier covering: the line keeps its slope,
    so the parameter maps by t -> a*t."""
    a = tm.multiplier_int()
    return segment_new(line_image(tm, seg.line), *interval_chain(seg.t_lo, seg.t_hi, a, 1)[1])


Interval = tuple[QuadraticNumber, QuadraticNumber]


def _overlap(i1: Interval, i2: Interval) -> bool:
    return (i2[0] - i1[1]).sign() <= 0 and (i1[0] - i2[1]).sign() <= 0


def _on_arc(arc: Interval, c: QuadraticNumber) -> bool:
    """Does the closed arc [lo, hi] of the loop R/Z contain c?"""
    return ((c - arc[0]).mod1() - (arc[1] - arc[0])).sign() <= 0


def _arcs_meet(a1: Interval, a2: Interval) -> bool:
    """Two closed arcs of R/Z meet iff one starts on the other."""
    return _on_arc(a1, a2[0]) or _on_arc(a2, a1[0])


def _arc_witness(
    direction: RationalDirection, inv: QuadraticNumber, earlier: Interval, later: Interval
) -> tuple[float, float]:
    """The point mod 1 on the loop with invariant ``inv`` where the later of
    two meeting arcs starts, or, if that start lies off the earlier arc, where
    the earlier one starts."""
    c = later[0] if _on_arc(earlier, later[0]) else earlier[0]
    x, y = direction.from_state((inv, c))
    return (x.mod1().to_float(), y.mod1().to_float())


def _overlap_witness(line: TorusLine, i1: Interval, i2: Interval) -> tuple[float, float]:
    """The point mod 1 at the midpoint of two overlapping parameter intervals
    on one irrational-slope line."""
    return reduce_mod1_float(_point_at(line, (max(i1[0], i2[0]) + min(i1[1], i2[1])) / 2))


def segments_intersect(
    lat: Lattice, s1: TorusSegment, s2: TorusSegment
) -> IntersectionResult:
    """Torus-level intersection of two segments, exact verdicts.

    Segments on the same irrational-slope line reduce to one-dimensional
    interval overlap in the shared canonical parameter; distinct parallel
    lines are disjoint injective geodesics and need no geometry.
    """
    if (
        s1.line.is_irrational
        and s2.line.is_irrational
        and s1.line.slope == s2.line.slope
    ):
        if not (s1.line.same_line(s2.line) and _overlap(s1.interval(), s2.interval())):
            return IntersectionResult(False)
        return IntersectionResult(True, _overlap_witness(s1.line, s1.interval(), s2.interval()))
    return lift_segments_intersect_torus(lat, s1.lift, s2.lift)


def verify_disjoint_iterates(
    tm: AffineTorusMap,
    seg: TorusSegment,
    k: int,
    reflect: Callable[[TorusSegment], TorusSegment] | None = None,
) -> tuple[bool, tuple[int, int] | None]:
    """Brute-force oracle: are iterates 0..k pairwise disjoint?  With
    ``reflect`` each pair (i, j) is also tested between iterate i and the
    reflection of iterate j.  Returns the first failing (i, j) in order.

    Independent of ``first_overlap``: it builds every iterate (and its
    reflection) once with ``iterate_segment`` and decides every pair with
    ``segments_intersect``."""
    segs = [seg]
    for _ in range(k):
        segs.append(iterate_segment(tm, segs[-1]))
    mirrors = [reflect(s) for s in segs] if reflect is not None else None
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if segments_intersect(tm.lattice, segs[i], segs[j]).hit or (
                mirrors is not None and segments_intersect(tm.lattice, segs[i], mirrors[j]).hit
            ):
                return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# Wandering certificates (integer multiplier)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WanderingCertificate:
    mode: str  # "whole-segment" | "subsegment"
    level: str  # "torus" | "sphere"
    interval: tuple[QuadraticNumber, QuadraticNumber]
    preperiod: int
    period: int
    multiplier: int  # effective return multiplier; 0 in whole-segment mode
    offset: QuadraticNumber
    fixed_point: QuadraticNumber
    checked_iterates: int
    slack: QuadraticNumber | None
    line: TorusLine


@dataclass(frozen=True)
class NotWanderable:
    reason: str


def certify_interval(
    t_lo: QuadraticNumber,
    t_hi: QuadraticNumber,
    lam: int,
    both_sides: bool = False,
) -> tuple[QuadraticNumber, QuadraticNumber, QuadraticNumber]:
    """Largest-practical subinterval [u, v] of [t_lo, t_hi] with 0 outside and
    max(|u|,|v|) < ratio * min(|u|,|v|), with ratio from ``_return_ratio``.

    The supremum is an open condition, so the inner endpoint backs off from it
    by a 1/1024 notch.  Returns (u, v, slack) with slack = ratio*min/max > 1.
    For t_lo < t_hi one side of 0 always yields an interval.
    """
    ratio = _return_ratio(lam, both_sides)

    def one_side(lo: QuadraticNumber, hi: QuadraticNumber):
        # requires 0 <= lo < hi, returns candidate on the positive side
        if hi.sign() <= 0:
            return None
        lo = lo if lo.sign() > 0 else None
        if lo is not None and (hi - lo * ratio).sign() < 0:
            return (lo, hi)
        inner = hi / ratio
        notch = (hi - inner) * Fraction(1, 1024)
        u = inner + notch
        if lo is not None and (u - lo).sign() < 0:
            u = lo
        if (hi - u).sign() <= 0:
            return None
        return (u, hi)

    pos = one_side(t_lo if t_lo.sign() > 0 else qn(0), t_hi)
    neg = one_side(-t_hi if t_hi.sign() < 0 else qn(0), -t_lo)
    sides = [c for c in (pos, neg and (-neg[1], -neg[0])) if c]
    if not sides:
        raise InternalInconsistency(
            f"no certified subinterval of [{t_lo.to_expr()}, {t_hi.to_expr()}]"
        )
    # the longer side; the positive one on a tie
    u, v = max(sides, key=lambda c: c[1] - c[0])
    return (u, v, certified_slack(u, v, lam, both_sides))


def _return_ratio(lam: int, both_sides: bool) -> int:
    """The effective one-sided ratio of return multiplier lam: lam for
    lam > 0, lam^2 for lam < 0, and |lam| when images on both sides of the
    fixed point must be avoided."""
    if lam in (-1, 0, 1):
        raise ValueError("return multiplier must be expanding")
    if lam > 0:
        return lam
    return -lam if both_sides else lam * lam


def certified_slack(
    u: QuadraticNumber, v: QuadraticNumber, lam: int, both_sides: bool = False
) -> QuadraticNumber:
    """ratio * min(|u|,|v|) / max(|u|,|v|) for a certified [u, v] under
    return multiplier lam; a value not above 1 is a certifier bug."""
    lo_abs, hi_abs = sorted((abs(u), abs(v)))
    slack = lo_abs * _return_ratio(lam, both_sides) / hi_abs
    if (slack - 1).sign() <= 0:
        raise InternalInconsistency(f"certified slack {slack.to_expr()} is not above 1")
    return slack


def interval_chain(u: QuadraticNumber, v: QuadraticNumber, a: int, n: int) -> list[Interval]:
    """Parameter intervals of iterates 0..n of [u, v] under t -> a*t."""
    chain, cur = [], (u, v)
    for _ in range(n + 1):
        chain.append(cur)
        cur = (cur[1] * a, cur[0] * a) if a < 0 else (cur[0] * a, cur[1] * a)
    return chain


def first_overlap(
    states: list[Hashable],
    intervals: list[Interval],
    rho_states: list[TransverseState] | None,
    circular: bool = False,
) -> tuple[int, int] | None:
    """Exact disjointness sweep over iterates with the given states and
    intervals: the first pair (n, m), n < m, that meets, ordered by m and then
    by n, or None.  The sweep stops at the first m with a hit.

    Distinct states are distinct parallel geodesics, so only iterates that
    share a state are compared: by 1-D interval overlap, or, with
    ``circular``, as closed arcs of the loop R/Z.  With rho-states (rho in
    canonical parameters is t -> -t) iterate m's reflection is also compared
    against every iterate n on the line it is reflected onto."""
    meet = _arcs_meet if circular else _overlap
    by_state: dict[Hashable, list[int]] = {}
    for i, st in enumerate(states):
        by_state.setdefault(st, []).append(i)
    for m, (lo, hi) in enumerate(intervals):
        hits = [n for n in by_state[states[m]] if n < m and meet(intervals[n], (lo, hi))]
        if rho_states is not None:
            hits += [
                n
                for n in by_state.get(rho_states[m], ())
                if n < m and meet(intervals[n], (-hi, -lo))
            ]
        if hits:
            return (min(hits), m)
    return None


def certify_wandering(
    tm: AffineTorusMap, seg: TorusSegment, check_iterates: int = 12
) -> WanderingCertificate | NotWanderable:
    """Constructive wandering decision for an integer-multiplier covering.

    Jordan curve -> not wanderable.  Wandering line -> whole segment (iterates
    live on pairwise-distinct parallel geodesics).  Eventually periodic line
    -> certified subsegment avoiding the return-map fixed point with the
    expansion-disjointness ratio; cross-checked by the exact sweep.
    """
    if not tm.has_integer_multiplier:
        raise SlopeNotInvariant("wandering certificates require an integer multiplier")
    return certify_classified(tm, seg, classify_line(tm, seg.line), check_iterates)


def certify_classified(
    tm: AffineTorusMap,
    seg: TorusSegment,
    verdict: LineOrbitClass,
    check_iterates: int,
    rho: Callable[[TransverseState], TransverseState] | None = None,
    returns: tuple[int, int, bool] | None = None,
) -> WanderingCertificate | NotWanderable:
    """``certify_wandering`` for a line already classified as ``verdict``.

    With ``rho``, the order-2 involution on transverse states, the certificate
    is for the quotient (level "sphere"), and ``returns`` gives the quotient's
    return map (period, multiplier, both_sides); without it the return map is
    the line's (p, a^p, False).  A wandering line must then also keep its
    states apart from their reflections, and a periodic line is swept against
    the reflections to the dominance horizon: past the preperiod a pair
    repeats one period later scaled by a^p, and pairs further apart than
    ``dominance`` steps are separated by growth, so the sweep covers them all.
    """
    if check_iterates < 0:
        raise UsageError(f"check_iterates must be >= 0, got {check_iterates}")
    if isinstance(verdict, JordanCurve):
        return NotWanderable("closed-geodesic")
    level = "torus" if rho is None else "sphere"
    if isinstance(verdict, WanderingLine):
        # transverse states never repeat; exact check over the budget
        states = orbit_states(tm, seg.line, check_iterates)
        if len(set(states)) != len(states):
            raise InternalInconsistency("a wandering line repeated a transverse state")
        # a state rho fixes is a line through the grid
        if rho is not None and not {rho(st) for st in states}.isdisjoint(states):
            raise InternalInconsistency("rho collision on a wandering line")
        return WanderingCertificate(
            mode="whole-segment",
            level=level,
            interval=(seg.t_lo, seg.t_hi),
            preperiod=0,
            period=0,
            multiplier=0,
            offset=qn(0),
            fixed_point=qn(0),
            checked_iterates=check_iterates,
            slack=None,
            line=seg.line,
        )
    a = tm.multiplier_int()
    period, lam, both_sides = returns or (verdict.period, a**verdict.period, False)
    u, v, slack = certify_interval(seg.t_lo, seg.t_hi, lam, both_sides)
    if lam < 0 and u.sign() * (u * lam).sign() != -1:
        # one period must carry the certified side across the fixed point,
        # which makes that single pair disjoint
        raise InternalInconsistency("negative return multiplier kept the certified side")
    horizon = check_iterates
    if rho is not None:
        dominance = math.ceil(math.log(max(2.0, abs(float(v / u)))) / math.log(abs(a))) + 2
        horizon = max(check_iterates, verdict.preperiod + verdict.period + dominance)
    states = [verdict.state(i) for i in range(horizon + 1)]
    rho_states = None if rho is None else [rho(st) for st in states]
    pair = first_overlap(states, interval_chain(u, v, a, horizon), rho_states)
    if pair is not None:
        raise InternalInconsistency(f"certified iterates {pair[0]}, {pair[1]} overlap")
    return WanderingCertificate(
        mode="subsegment",
        level=level,
        interval=(u, v),
        preperiod=verdict.preperiod,
        period=period,
        multiplier=lam,
        offset=qn(0),
        fixed_point=qn(0),
        checked_iterates=check_iterates,
        slack=slack,
        line=seg.line,
    )


# ---------------------------------------------------------------------------
# Collision bound and collision finder
# ---------------------------------------------------------------------------


def collision_bound(lat: Lattice, theta: float | None = None, nu: int | None = None) -> float:
    """Length bound forcing collisions: 2(1+|omega|)/|sin(theta)| for a
    non-real multiplier at angle theta; 2(1+|omega|)/sin(pi/3) for the group
    obstruction with nu in {3, 4, 6} (worst case over those angles)."""
    if (theta is None) == (nu is None):
        raise ValueError("provide exactly one of theta, nu")
    if nu is not None:
        if nu not in (3, 4, 6):
            raise ValueError("group order must be 3, 4 or 6")
        denom = math.sin(math.pi / 3)
    else:
        denom = abs(math.sin(theta))
        if denom < 1e-15:
            raise ValueError("theta must have a nonzero sine")
    return 2.0 * (1.0 + abs(lat.omega_complex())) / denom


@dataclass(frozen=True)
class CollisionCertificate:
    n: int
    m: int
    k: int
    witness: tuple[float, float]
    exact: bool  # always True: floats never decide a collision
    bound_used: float
    budget: int


@dataclass(frozen=True)
class NoCollisionWithinBudget:
    budget: int
    group_order: int


def _forcing_bound(tm: AffineTorusMap, nu: int | None) -> float:
    """The length bound that forces a collision: by group order nu, else by
    the angle of a non-real multiplier; no length forces one under an
    integer multiplier (inf)."""
    if nu is not None:
        return collision_bound(tm.lattice, nu=nu)
    mc = classify_multiplier(tm)
    if isinstance(mc, NonRealMultiplier):
        return collision_bound(tm.lattice, theta=mc.theta)
    return math.inf


def default_collision_budget(
    tm: AffineTorusMap, seg: TorusSegment, nu: int | None = None
) -> int:
    """ceil(log_|a|(bound / length)) + 2 iterations suffice to force a
    collision (the +2 covers an exact-power edge)."""
    bound = _forcing_bound(tm, nu)
    if math.isinf(bound):
        raise ValueError(
            "no finite default budget for an integer multiplier; pass one explicitly"
        )
    length = seg.euclidean_length(tm.lattice)
    if length <= 0:
        raise DegenerateSegment("zero-length segment")
    if length >= bound:
        return 2
    return math.ceil(math.log(bound / length) / math.log(tm.abs_multiplier())) + 2


def _rho_affine(
    lat: Lattice, nu: int, z0: TorusPoint, k: int
) -> tuple[tuple[int, int, int, int], tuple[QuadraticNumber, QuadraticNumber]]:
    """Lattice-coordinate form of the k-th rotation power about z0: an integer
    matrix plus a rational shift (I - R^k) z0."""
    p, q, r, s = rotation_matrix(lat, nu)
    rk = (1, 0, 0, 1)
    for _ in range(k):
        a1, b1, c1, d1 = rk  # (p, q, r, s) layout: [[p, r], [q, s]]
        rk = (p * a1 + r * b1, q * a1 + s * b1, p * c1 + r * d1, q * c1 + s * d1)
    pk, qk, rr, sk = rk
    sx = z0.x * (1 - pk) - z0.y * rr
    sy = z0.y * (1 - sk) - z0.x * qk
    return rk, (sx, sy)


def _lift_step(tm: AffineTorusMap, lift: LiftSegment) -> LiftSegment:
    """The lift of the next iterate: the covering's affine image of ``lift``,
    midpoint-normalized into the fundamental cell."""
    return lift.affine_image(tm.m, (tm.b.x, tm.b.y)).normalize()


def lift_chain(tm: AffineTorusMap, seg: TorusSegment, n: int) -> list[LiftSegment]:
    """Lifts of iterates 0..n of the segment under the covering, each
    midpoint-normalized into the fundamental cell; works for any multiplier."""
    if n < 0:
        raise UsageError(f"iterate count must be >= 0, got {n}")
    chain = [seg.lift]
    for _ in range(n):
        chain.append(_lift_step(tm, chain[-1]))
    return chain


def find_collision(
    tm: AffineTorusMap,
    seg: TorusSegment,
    group: tuple[int, TorusPoint] | None = None,
    budget: int | None = None,
) -> CollisionCertificate | NoCollisionWithinBudget:
    """Search indices n < m <= budget (and rotation powers k in group mode) for
    an intersection of iterate m with the k-rotated iterate n.

    The minimal-m certificate is returned (ties broken by n, then k), which
    keeps the returned m within the log-derived forcing bound.  An integer
    multiplier keeps every slope, so iterates are parallel and ``first_overlap``
    decides the search in the same order, for both slope kinds: on an
    irrational slope iterates meet iff they share a transverse state and their
    parameter intervals overlap; on a rational direction iff they lie on one
    closed loop (share the loop invariant) and their arcs of it overlap.  The
    lift chain serves non-real multipliers and group mode, and states with no
    common tower or that a translation in the slope's field takes into it.
    """
    lat = tm.lattice
    nu = 1
    rhos: list[tuple[tuple[int, int, int, int], tuple[QuadraticNumber, QuadraticNumber]]] = []
    if group is not None:
        nu, z0 = group
        if nu not in (3, 4, 6):
            raise ValueError("group order must be 3, 4 or 6")
        rhos = [_rho_affine(lat, nu, z0, k) for k in range(nu)]
    if budget is None:
        budget = default_collision_budget(tm, seg, nu=nu if group else None)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    bound = _forcing_bound(tm, nu if group else None)

    if group is None and tm.has_integer_multiplier:
        try:
            states = orbit_states(tm, seg.line, budget)
        except (MixedRadicals, FieldClash):
            pass  # the states share no tower or meet the slope's field: lift chain
        else:
            intervals = interval_chain(seg.t_lo, seg.t_hi, tm.multiplier_int(), budget)
            if seg.line.is_irrational:
                pair = first_overlap(states, intervals, None)
            else:
                # iterate n is the arc place + a^n * [t_lo, t_hi] of its loop
                intervals = [(c + lo, c + hi) for (_, c), (lo, hi) in zip(states, intervals)]
                pair = first_overlap([inv for inv, _ in states], intervals, None, circular=True)
            if pair is None:
                return NoCollisionWithinBudget(budget=budget, group_order=1)
            n, m = pair
            if seg.line.is_irrational:
                line = TorusLine(seg.line.slope, *states[m])
                witness = _overlap_witness(line, intervals[m], intervals[n])
            else:
                witness = _arc_witness(seg.line.slope, states[m][0], intervals[n], intervals[m])
            return CollisionCertificate(n, m, 0, witness, True, bound, budget)

    # iterate m is built when the search reaches it, so a first hit at m
    # costs m lift steps, not budget
    chain = [seg.lift]
    rotated: dict[tuple[int, int], LiftSegment] = {}

    def rot(n: int, k: int) -> LiftSegment:
        if k == 0:
            return chain[n]
        key = (n, k)
        if key not in rotated:
            mat, shift = rhos[k]
            rotated[key] = chain[n].affine_image(mat, shift).normalize()
        return rotated[key]

    for m in range(1, budget + 1):
        chain.append(_lift_step(tm, chain[-1]))
        for n in range(m):
            for k in range(nu if group else 1):
                res = lift_segments_intersect_torus(lat, chain[m], rot(n, k))
                if res.hit:
                    return CollisionCertificate(n, m, k, res.witness, True, bound, budget)
    return NoCollisionWithinBudget(budget=budget, group_order=nu)


def reverify_collision(
    tm: AffineTorusMap,
    seg: TorusSegment,
    cert: CollisionCertificate,
    group: tuple[int, TorusPoint] | None = None,
) -> bool:
    """Recompute the claimed intersection from scratch."""
    lat = tm.lattice
    lifts = lift_chain(tm, seg, cert.m)
    target = lifts[cert.n]
    if cert.k:
        if group is None:
            raise ValueError("a rotated collision needs its group to re-verify")
        mat, shift = _rho_affine(lat, group[0], group[1], cert.k)
        target = target.affine_image(mat, shift).normalize()
    return lift_segments_intersect_torus(lat, lifts[cert.m], target).hit
