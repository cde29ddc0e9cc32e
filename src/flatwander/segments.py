"""Segments of flat lines: exact intersection, wandering certificates and the
collision finder.

The certificate logic lives in the canonical line parameterization: a segment
runs from its line's base point, and an integer covering maps base point to
base point, so it acts on the parameter as t -> a*t for both slope kinds.  The
return map of a period-p line is then t -> a^p * t with fixed point 0, and a
certified subinterval only has to avoid 0 and satisfy an expansion-disjointness
ratio; the sphere certificate adds rho, t -> -t, and the quotient's return
multiplier.  One exact sweep, ``first_overlap``, decides the certificates and
the integer-multiplier collision search: it compares only iterates on one
state, as arcs of a closed loop or, once per index difference, as parameter
intervals (a^n*I meets a^m*I iff I meets a^(m-n)*I), the pairs of a periodic
orbit taken by classes of differences from its preperiod, its period and
rho's shift of its cycle, and the states it reads computed in closed form;
a wandering line is certified from one step (``_moves``).  The lift search
serves non-real multipliers, group mode and orbit states with no common field
or in the slope's field; the oracle, ``verify_disjoint_iterates``, derives
each state in closed form from the seed by its own arithmetic, and
compares the iterates on one state, pair by pair.  The sweep reads its
intervals from an ``IntervalChain``, integer numerators over one denominator
times a^n, and the oracle builds the same spans itself; ``QuadraticNumber``s
are built only for a hit's witness and, once each, a certificate's interval
and slack (``certify_interval``).

The lift search filters in floats and decides on integers, both in
``lift_arith``: a translate is skipped only when the float lifts' proven
bounds show it misses, and every survivor, and every witness, is decided
exactly on integer numerators of exact lifts built on demand, in the field the
segment, b and the rotation shifts span (``MixedRadicals`` past two
radicands).  The re-check and the plots step the same numerators one image at
a time (``lift_orbit``).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Hashable, Iterator, Sequence
from functools import partial
from itertools import islice
from typing import NamedTuple

from .errors import (
    BudgetExceeded,
    DegenerateSegment,
    FieldClash,
    IncompatibleField,
    InternalInconsistency,
    MixedRadicals,
    SlopeNotInvariant,
    UsageError,
)
from .lattice import Lattice, Record, TorusPoint
from .lift_arith import (
    Coord,
    FloatLift,
    Lift,
    Matrix,
    Vector,
    _affine,
    _box,
    _centred,
    _compose,
    _coordinates,
    _Field,
    _float_image,
    _float_lift,
    _float_of,
    _float_shift,
    _meet,
    _normalized,
    _segment_numerators,
    _surviving_translates,
    _then,
)
from .line_orbit import (
    JordanCurve,
    LineOrbitClass,
    Numerators,
    RationalDirection,
    StateInts,
    TorusLine,
    TransverseState,
    WanderingLine,
    _conjugate,
    _moves,
    _shape,
    _state_ints,
    _state_rule,
    _translation_state,
    classify_line,
)
from .numbers import QuadraticNumber, _sign_parts, floor_parts
from .torus_map import (
    AffineTorusMap,
    classify_multiplier,
    rotation_matrix,
)

MAX_CHECK_ITERATES = 1024  # the goldens check at most 40
MAX_RETURN_DIGITS = 4000  # the JSON prints the ratio's digits; str(int) stops at 4300


def reduce_mod1_float(p: tuple[Coord, Coord]) -> tuple[float, float]:
    """The point mod 1, reduced exactly and then rounded to floats."""
    return tuple([(c - c.floor()).to_float() for c in p])


# ---------------------------------------------------------------------------
# Torus segments
# ---------------------------------------------------------------------------


class TorusSegment(Record):
    """A segment of a flat line, given by the line and the parameter interval
    [t_lo, t_hi] from its base point; its lift into the plane is built as
    integer numerators where a search or a plot needs it
    (``_segment_numerators``)."""

    __slots__ = _fields = ("line", "t_lo", "t_hi")

    def __init__(self, line: TorusLine, t_lo: QuadraticNumber, t_hi: QuadraticNumber):
        self.line, self.t_lo, self.t_hi = line, t_lo, t_hi

    def euclidean_length(self, lat: Lattice) -> float:
        dx, dy = self.line.direction
        direction = dx.to_float() + dy.to_float() * lat.omega_complex()
        return (self.t_hi - self.t_lo).to_float() * abs(direction)


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
    if t_hi.cmp(t_lo) <= 0:
        raise DegenerateSegment("need t_lo < t_hi")
    _check_param_field(t_lo, line)
    _check_param_field(t_hi, line)
    return TorusSegment(line, t_lo, t_hi)


Interval = tuple[QuadraticNumber, QuadraticNumber]
Span = tuple[int, int, int, int]  # (lo_u, lo_v, hi_u, hi_v) over an ``IntervalChain``'s den


class IntervalChain:
    """The parameter intervals of iterates 0, 1, ... of [u, v] under t -> a*t,
    on integers.  u and v share one denominator den = lcm(u.w, v.w) and one
    radicand d (each lies in Q or in the slope's field), so an interval is a
    ``Span``, [(lo_u + lo_v*sqrt(d))/den, (hi_u + hi_v*sqrt(d))/den]: iterate
    n's is [u, v]'s numerators times a^n, swapped when a^n < 0, and the
    reflection t -> -t negates and swaps them.  A span is built when first
    asked for, from iterate 0's and a^n.

    On a closed loop, ``loop`` is the orbit's ``Numerators`` and its state n
    as a function of n, and iterate n's span is the arc of R/Z at its place
    plus its interval, over lcm(N, den): its start mod 1, from a^n mod den
    (the parameters of a rational direction are rational, so the place's
    radicand is d), and its length, cut to 1 from iterate ``cover`` on, where
    an arc covers its loop."""

    def __init__(
        self,
        u: QuadraticNumber,
        v: QuadraticNumber,
        a: int,
        loop: tuple[Numerators, Callable[[int], StateInts]] | None = None,
    ):
        den, self.a, self.d, self.loop = math.lcm(u.w, v.w), a, u.d or v.d, loop
        if loop is not None:
            num, length = loop[0], v - u  # rational on a loop
            den = math.lcm(num.den, den)
            self.d, self.place_scale, self.cover, g = num.rads[1], den // num.den, 0, length.u
            while g < length.w:  # |a|^cover*(v - u) >= 1
                self.cover, g = self.cover + 1, g * abs(a)
        su, sv, self.den = den // u.w, den // v.w, den
        self.ends = (u.u * su, u.v * su, v.u * sv, v.v * sv)
        self.spans: dict[int, Span] = {}  # by iterate

    def span(self, n: int) -> Span:
        """Iterate n's interval, or on a loop its arc."""
        spans = self.spans
        if n not in spans:
            p, q, r, s = self.ends
            if self.loop is None:
                an = self.a**n
                # a negative factor swaps the ends
                spans[n] = ((r * an, s * an, p * an, q * an) if an < 0
                            else (p * an, q * an, r * an, s * an))
            else:
                _, _, pu, pv = self.loop[1](n)
                pu, pv, den = pu * self.place_scale, pv * self.place_scale, self.den
                start = pu + pow(self.a, n, den) * (r if self.a < 0 and n % 2 else p) % den
                length = den if n >= self.cover else abs(self.a) ** n * (r - p)
                spans[n] = (start, pv, start + length, pv)
        return spans[n]

    def value(self, n: int) -> Interval:
        """Iterate n's span as ``QuadraticNumber``s, for a certificate or a
        witness."""
        lo_u, lo_v, hi_u, hi_v = self.span(n)
        canon = QuadraticNumber._canon
        return (canon(lo_u, lo_v, self.den, self.d), canon(hi_u, hi_v, self.den, self.d))

    def meet(self, n: int, m: int, reflect: bool = False) -> bool:
        """Do iterate n's and iterate m's (with ``reflect``, its reflection's)
        closed intervals meet: lo_m <= hi_n and lo_n <= hi_m?  Two closed
        arcs of a loop meet iff one starts on the other."""
        if self.loop is not None and max(n, m) >= self.cover:
            return True  # an arc of length 1 covers its loop
        s1, s2 = self.span(n), self.span(m)
        if reflect:
            s2 = (-s2[2], -s2[3], -s2[0], -s2[1])
        if self.loop is not None:
            return self._on_arc(s1, s2) or self._on_arc(s2, s1)
        d = self.d
        return (
            _sign_parts(s1[2] - s2[0], s1[3] - s2[1], d) >= 0
            and _sign_parts(s2[2] - s1[0], s2[3] - s1[1], d) >= 0
        )

    def _on_arc(self, arc: Span, other: Span) -> bool:
        """Does the closed arc [lo, hi] contain ``other``'s start c:
        (c - lo) mod 1 <= hi - lo?"""
        d, den = self.d, self.den
        xu, xv = other[0] - arc[0], other[1] - arc[1]
        xu -= den * floor_parts(xu, xv, den, d)
        return _sign_parts(arc[2] - arc[0] - xu, arc[3] - arc[1] - xv, d) >= 0


def _arc_witness(
    direction: RationalDirection, inv: QuadraticNumber, chain: IntervalChain, n: int, m: int
) -> tuple[float, float]:
    """The point mod 1 on the loop with invariant ``inv`` where the arc of
    iterate m starts, or, if that start lies off iterate n's arc, where
    iterate n's starts."""
    earlier, later = chain.span(n), chain.span(m)
    start = later if chain._on_arc(earlier, later) else earlier
    c = QuadraticNumber._canon(start[0], start[1], chain.den, chain.d)
    x, y = direction.from_state((inv, c))
    return (x.mod1().to_float(), y.mod1().to_float())


def _overlap_witness(line: TorusLine, i1: Interval, i2: Interval) -> tuple[float, float]:
    """The point mod 1 at the midpoint of two overlapping parameter intervals
    on one irrational-slope line, each coordinate reduced in its own field."""
    t = (max(i1[0], i2[0]) + min(i1[1], i2[1])) / 2
    return tuple([f.scalar(_centred(f, den, p, p)[0], den).to_float()
                  for f, den, (p,) in _coordinates(line, [t])])


def verify_disjoint_iterates(
    tm: AffineTorusMap,
    seg: TorusSegment,
    k: int,
    reflect: TransverseState | None = None,
) -> tuple[bool, tuple[int, int] | None]:
    """Brute-force oracle: are iterates 0..k of an irrational-slope segment
    pairwise disjoint?  Returns the first failing (i, j) in order.  On
    parallel geodesics i and j meet iff they share a transverse state and
    their intervals overlap; with ``reflect``, rho(0) of an involution
    st -> rho(0) - st that maps the parameter by t -> -t, iterate i is also
    tested against the reflection of j.  Independent of ``first_overlap``
    and ``_state_ints``: iterate n's state is a^n*s0 + G_n*c mod 1,
    G_n = (a^n - 1)/(a - 1), in closed form on numerators over one
    denominator, and its span a^n*[u, v] (and its reflection's) is built once
    on integers; a dict of buckets finds the pairs on one state (or on a
    reflection's), each tested by two signs.  A rational direction is
    refused: states do not decide arcs of a closed loop."""
    if not seg.line.is_irrational:
        raise ValueError("the oracle decides irrational-slope segments only")
    a, c = _translation_state(tm, seg.line.slope)
    xs = (*seg.line.transverse(), *c)  # the seed s0, then c
    clash = [(s.d, t.d) for s, t in zip(xs, c) if s.d and t.d and s.d != t.d]
    if clash and k > 0:
        raise MixedRadicals("sqrt(%d) and sqrt(%d) in one scalar" % clash[0])
    den = math.lcm(*[x.w for x in xs])
    su0, sv0, su1, sv1, cu0, cv0, cu1, cv1 = [n * (den // x.w) for x in xs for n in (x.u, x.v)]
    d0, d1 = rads = (xs[0].d or c[0].d, xs[1].d or c[1].d)
    rho = (lambda p: None) if reflect is None else Numerators(den, rads).reflection(reflect)
    d, w = seg.t_lo.d or seg.t_hi.d, math.lcm(seg.t_lo.w, seg.t_hi.w)
    lu, lv, hu, hv = [x * (w // t.w) for t in (seg.t_lo, seg.t_hi) for x in (t.u, t.v)]
    states, spans, own = [], [], []  # own[j]: where iterate j's own span sits in its bucket
    # a state: the spans on it or reflected onto it, as (iterate, span), by iterate
    buckets: dict[Hashable, list[tuple[int, int, int, int, int]]] = {}
    an, g = 1, 0  # a^n and G_n
    for n in range(k + 1):
        u0, v0 = an * su0 + g * cu0, an * sv0 + g * cv0
        u1, v1 = an * su1 + g * cu1, an * sv1 + g * cv1
        st = (u0 - den * floor_parts(u0, v0, den, d0), v0,
              u1 - den * floor_parts(u1, v1, den, d1), v1)
        # a^n*[u, v] over w, its ends swapped when a^n < 0
        p, q, r, s = span = ((an * lu, an * lv, an * hu, an * hv) if an > 0
                             else (an * hu, an * hv, an * lu, an * lv))
        states.append(st)
        spans.append(span)
        bucket = buckets.setdefault(st, [])
        own.append(len(bucket))
        bucket.append((n, *span))
        mirror = rho(st)
        if mirror is not None:
            buckets.setdefault(mirror, []).append((n, -r, -s, -p, -q))
        an, g = an * a, g * a + 1
    for i, st in enumerate(states):
        bucket = buckets[st]
        if len(bucket) > own[i] + 1:
            lo_u, lo_v, hi_u, hi_v = spans[i]
            for j, p, q, r, s in islice(bucket, own[i] + 1, None):
                if (j > i and _sign_parts(hi_u - p, hi_v - q, d) >= 0
                        and _sign_parts(r - lo_u, s - lo_v, d) >= 0):
                    return False, (i, j)
    return True, None


# ---------------------------------------------------------------------------
# Wandering certificates (integer multiplier)
# ---------------------------------------------------------------------------


class WanderingCertificate:
    """``multiplier`` is the effective return multiplier, 0 in mode "whole-segment"."""

    __slots__ = ("mode", "level", "interval", "preperiod", "period", "multiplier",
                 "checked_iterates", "slack", "line")

    def __init__(self, mode: str, level: str, interval: Interval, preperiod: int, period: int,
                 multiplier: int, checked_iterates: int, slack: QuadraticNumber | None,
                 line: TorusLine):
        self.mode, self.level, self.interval, self.preperiod = mode, level, interval, preperiod
        self.period, self.multiplier, self.checked_iterates = period, multiplier, checked_iterates
        self.slack, self.line = slack, line


class NotWanderable:
    __slots__ = ("reason",)

    def __init__(self, reason: str):
        self.reason = reason


def certify_interval(
    t_lo: QuadraticNumber,
    t_hi: QuadraticNumber,
    lam: int,
    both_sides: bool = False,
) -> tuple[QuadraticNumber, QuadraticNumber, QuadraticNumber]:
    """Largest-practical subinterval [u, v] of [t_lo, t_hi] with 0 outside and
    max(|u|,|v|) < ratio * min(|u|,|v|), with ratio from ``_return_ratio``.

    The supremum is an open condition, so the inner endpoint backs off from it
    by a 1/1024 notch, to hi*(ratio + 1023)/(1024*ratio), which lies above
    any lo > 0 with hi >= ratio*lo.  Returns (u, v, slack) with
    slack = ratio*min/max > 1.  For t_lo < t_hi one side of 0 always yields
    an interval; the longer wins, the positive one on a tie.  A side is a
    ``Span`` over 1024*ratio*w, w = lcm(t_lo.w, t_hi.w)."""
    ratio, d, w = _return_ratio(lam, both_sides), t_lo.d or t_hi.d, math.lcm(t_lo.w, t_hi.w)
    big, notch = 1024 * ratio, ratio + 1023
    lu, lv, hu, hv = [x * (w // t.w) for t in (t_lo, t_hi) for x in (t.u, t.v)]

    def one_side(lo_u: int, lo_v: int, hi_u: int, hi_v: int) -> Span | None:
        # [max(lo, 0), hi] cut to a certified side, None when hi <= 0
        if _sign_parts(hi_u, hi_v, d) <= 0:
            return None
        if _sign_parts(lo_u, lo_v, d) > 0 > _sign_parts(hi_u - ratio * lo_u,
                                                        hi_v - ratio * lo_v, d):
            return (lo_u * big, lo_v * big, hi_u * big, hi_v * big)
        return (hi_u * notch, hi_v * notch, hi_u * big, hi_v * big)

    pos, neg = one_side(lu, lv, hu, hv), one_side(-hu, -hv, -lu, -lv)  # neg on t -> -t
    if pos is None and neg is None:
        raise InternalInconsistency(
            f"no certified subinterval of [{t_lo.to_expr()}, {t_hi.to_expr()}]"
        )
    longer = pos is None or neg is not None and _sign_parts(
        neg[2] - neg[0] - pos[2] + pos[0], neg[3] - neg[1] - pos[3] + pos[1], d) > 0
    side = neg if longer else pos  # its near end, then its far one
    ends = (-neg[2], -neg[3], -neg[0], -neg[1]) if longer else pos
    canon, den = QuadraticNumber._canon, big * w
    slack = certified_slack(side[:2], side[2:], ratio, d)
    return canon(ends[0], ends[1], den, d), canon(ends[2], ends[3], den, d), slack


def _return_ratio(lam: int, both_sides: bool) -> int:
    """The effective one-sided ratio of return multiplier lam: lam for lam > 0,
    lam^2 for lam < 0 (one period carries the certified side across the fixed
    point, two bring it back), and |lam| when both sides must be avoided."""
    if lam in (-1, 0, 1):
        raise ValueError("return multiplier must be expanding")
    if lam > 0:
        return lam
    return -lam if both_sides else lam * lam


def certified_slack(
    near: tuple[int, int], far: tuple[int, int], ratio: int, d: int
) -> QuadraticNumber:
    """ratio * near / far for the ends 0 < near < far of a certified side (or
    of its mirror image), each x + y*sqrt(d) as numerators over one
    denominator; a value not above 1 is a certifier bug."""
    (a, b), (c, e) = near, far
    norm = c * c - e * e * d  # far times its conjugate, nonzero for a square-free d
    s = ratio if norm > 0 else -ratio
    slack = QuadraticNumber._canon(s * (a * c - b * e * d), s * (b * c - a * e), abs(norm), d)
    if _sign_parts(ratio * a - c, ratio * b - e, d) <= 0:
        raise InternalInconsistency(f"certified slack {slack.to_expr()} is not above 1")
    return slack


def first_overlap(
    pairs: PairClasses, chain: Callable[[], IntervalChain]
) -> tuple[int, int] | None:
    """The first pair (n, m), n < m, of ``pairs`` whose intervals meet, by m
    and then n, or None: each class is scanned once by increasing m, and
    ``chain`` is called for their ``IntervalChain`` at the first comparison.
    On a line two intervals are compared once per difference m - n (and
    reflection, rho being t -> -t); on a loop, whose arcs depend on their
    place, once per pair."""
    ivs, gaps = None, {}

    def meet(n: int, m: int, reflect: bool = False) -> bool:
        # a^n*I meets (-)a^m*I iff I meets (-)a^(m-n)*I; an arc depends on its place
        nonlocal ivs
        ivs = ivs or chain()
        if ivs.loop is not None:
            return ivs.meet(n, m, reflect)
        key = (m - n, reflect)
        return gaps[key] if key in gaps else gaps.setdefault(key, ivs.meet(0, m - n, reflect))

    hits = []  # each class's first, as (m, n)
    for first, n, reflect, last in pairs.classes:
        for m in range(first, last + 1, pairs.period):
            if meet(n, m, reflect):
                hits.append((m, n))
                break
    return min(hits)[::-1] if hits else None


class PairClasses(NamedTuple):
    """The pairs ``first_overlap`` compares on an orbit of period p, as
    classes (m, n, reflect, last): iterate n against iterates m, m + p, ...
    up to ``last`` (with ``reflect``, against their reflections)."""

    period: int
    classes: list[tuple[int, int, bool, int]]


def _pair_classes(n0: int, p: int, top: int, shift: int | None = None) -> PairClasses:
    """The ``PairClasses`` of iterates 0..``top`` of an orbit of preperiod n0
    and period p, from n0, p and rho's ``shift`` c of the cycle, not from its
    states.  States before n0 are unique, and iterates n < m past it share a
    state iff p divides m - n, so the plain pairs are (n0, n0 + p),
    (n0, n0 + 2p), ...  rho commutes with the covering, so rho(s_x) = s_y
    gives rho(s_(x+t)) = s_(y+t) for every t: on the cycle,
    rho(s_(n0+j)) = s_(n0+c+j) with 2c = 0 mod p (c = 0 or p/2; None when
    rho maps no state of the cycle into it), so iterate m >= n0's reflection
    lands c states on, and the reflected pairs are one class of m - n = -c
    mod p, met first from the least state reflected onto by an m <= ``top``.
    A preperiod state s_x is reflected onto no other state of the orbit: if
    rho(s_x) = s_y, then rho(s_n0) = s_(y+n0-x) = s_(y+n0-x+p), so y >= x,
    since a preperiod state does not return; y >= n0 would give
    s_x = rho(s_(y+p)) = s_(x+p); so y < n0, and y = x by symmetry: a line
    on itself, which makes no pair n < m."""
    classes = [(n0 + p, n0, False, top)]
    if shift is not None:
        # iterate n0 + j reflects onto n0 + (j + c) mod p, which wraps to n0 once j reaches p - c
        k = n0 if shift == 0 or top - n0 >= p - shift else n0 + shift
        if k <= top:
            classes.append((k + (-shift % p or p), k, True, top))
    return PairClasses(p, classes)


def _separation(lo: QuadraticNumber, hi: QuadraticNumber, a: int) -> int:
    """The least D with |a|^D * min|t| > max|t| on [lo, hi], 0 when 0 lies in
    it: the interval and its images under t -> a^j*t, j >= D, are apart.
    Decided by ``_sign_parts`` on the ends' numerators over one denominator."""
    d, w = lo.d or hi.d, math.lcm(lo.w, hi.w)
    lu, lv, hu, hv = [x * (w // t.w) for t in (lo, hi) for x in (t.u, t.v)]
    if _sign_parts(lu, lv, d) <= 0 <= _sign_parts(hu, hv, d):
        return 0
    # the near end, then the far one, of [lo, hi] or of its mirror image
    nu, nv, fu, fv = (lu, lv, hu, hv) if _sign_parts(lu, lv, d) > 0 else (-hu, -hv, -lu, -lv)

    def apart(j: int) -> bool:
        g = abs(a) ** j
        return _sign_parts(g * nu - fu, g * nv - fv, d) > 0

    top = 1  # doubled past D, then bisected: O(log D) exact comparisons
    while not apart(top):
        top *= 2
    return bisect.bisect(range(top), False, key=apart)


def certify_wandering(
    tm: AffineTorusMap, seg: TorusSegment, check_iterates: int = 12
) -> WanderingCertificate | NotWanderable:
    """Constructive wandering decision for an integer-multiplier covering:
    Jordan curve -> not wanderable; wandering line -> whole segment (iterates
    live on pairwise-distinct parallel geodesics); eventually periodic line
    -> certified subsegment avoiding the return-map fixed point with the
    expansion-disjointness ratio, cross-checked by the exact sweep."""
    if not tm.has_integer_multiplier:
        raise SlopeNotInvariant("wandering certificates require an integer multiplier")
    return certify_classified(tm, seg, classify_line(tm, seg.line), check_iterates)


def check_request(check_iterates: int, a: int = 1, power: int = 0, exact: bool = True) -> None:
    """Refuse ``check_iterates`` outside [0, ``MAX_CHECK_ITERATES``], then a return
    ratio |a|^power (or more, unless ``exact``) past ``MAX_RETURN_DIGITS`` digits."""
    if check_iterates < 0:
        raise UsageError(f"check_iterates must be >= 0, got {check_iterates}")
    if check_iterates > MAX_CHECK_ITERATES:  # a period-1 line puts every pair on one state
        raise UsageError(f"check_iterates must be at most {MAX_CHECK_ITERATES}, "
                         f"got {check_iterates}")
    if power * math.log10(abs(a)) > MAX_RETURN_DIGITS:
        raise BudgetExceeded(f"the return ratio {abs(a)}^{power}{'' if exact else ' or more'} "
                             f"has more than {MAX_RETURN_DIGITS} digits")


def certify_classified(
    tm: AffineTorusMap,
    seg: TorusSegment,
    verdict: LineOrbitClass,
    check_iterates: int,
    rho: TransverseState | None = None,
    returns: tuple[int, int, bool, int | None] | None = None,
) -> WanderingCertificate | NotWanderable:
    """``certify_wandering`` for a line already classified as ``verdict``.

    With ``rho``, rho(0) of the order-2 involution st -> rho(0) - st, the
    certificate is for the quotient (level "sphere"), and on a periodic line
    ``returns`` gives what rho's pairing of the cycle makes of it: the
    quotient's return map (period, sign, both_sides), multiplier
    sign*a^period, and rho's shift of the cycle, as ``_pair_classes`` takes
    it; without rho the return map is the line's (p, 1, False) and no shift.
    A wandering line's states, one step shows (``_moves``), never repeat nor
    meet their reflections.  A periodic line's pairs are classed from its
    preperiod and period, and a return ratio past ``MAX_RETURN_DIGITS``
    digits is refused before it is built.  On the quotient it is swept
    against the reflections to the dominance horizon: past the preperiod a
    pair repeats one period later scaled by a^p, and pairs ``_separation`` or
    more steps apart are separated by growth."""
    check_request(check_iterates)
    if isinstance(verdict, JordanCurve):
        return NotWanderable("closed-geodesic")
    cert = partial(WanderingCertificate, level="torus" if rho is None else "sphere",
                   checked_iterates=check_iterates, line=seg.line)
    if isinstance(verdict, WanderingLine):
        # v, alpha's or beta's irrational part, moves and is never reduced, so no
        # state repeats; b and rho(0) are rational: rho takes v_n = a^n*v_0 to -v_n
        if not _moves(_state_rule(tm, seg.line.slope, seg.line.transverse()), False):
            raise InternalInconsistency("a wandering line's transverse state does not move")
        return cert(mode="whole-segment", interval=(seg.t_lo, seg.t_hi), preperiod=0,
                    period=0, multiplier=0, slack=None)
    a = tm.multiplier_int()
    period, sign, both_sides, shift = returns or (verdict.period, 1, False, None)
    power = period * (2 if sign * a ** (period % 2) < 0 and not both_sides else 1)  # the ratio's
    check_request(check_iterates, a, power)
    lam = sign * a**period
    u, v, slack = certify_interval(seg.t_lo, seg.t_hi, lam, both_sides)
    n0, p = verdict.preperiod, verdict.period
    top = check_iterates if rho is None else max(check_iterates, n0 + p + _separation(u, v, a))
    pair = first_overlap(_pair_classes(n0, p, top, shift), partial(IntervalChain, u, v, a))
    if pair is not None:
        raise InternalInconsistency(f"certified iterates {pair[0]}, {pair[1]} overlap")
    return cert(mode="subsegment", interval=(u, v), preperiod=verdict.preperiod,
                period=period, multiplier=lam, slack=slack)


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


class CollisionCertificate(Record):
    __slots__ = _fields = ("n", "m", "k", "witness", "exact", "bound_used", "budget")

    def __init__(self, n: int, m: int, k: int, witness: tuple[float, float], exact: bool,
                 bound_used: float, budget: int):
        self.n, self.m, self.k, self.witness = n, m, k, witness
        # exact is always True: floats never decide a collision
        self.exact, self.bound_used, self.budget = exact, bound_used, budget


class NoCollisionWithinBudget(Record):
    __slots__ = _fields = ("budget", "group_order")

    def __init__(self, budget: int, group_order: int):
        self.budget, self.group_order = budget, group_order


def _forcing_bound(tm: AffineTorusMap, nu: int | None) -> float:
    """The length bound that forces a collision: by group order nu, else by
    the angle of a non-real multiplier; no length forces one under an
    integer multiplier (inf)."""
    if nu is not None:
        return collision_bound(tm.lattice, nu=nu)
    if tm.has_integer_multiplier:
        return math.inf
    return collision_bound(tm.lattice, theta=classify_multiplier(tm).theta)


def default_collision_budget(
    tm: AffineTorusMap, seg: TorusSegment, nu: int | None = None, bound: float | None = None
) -> int:
    """ceil(log_|a|(bound / length)) + 2 iterations suffice to force a
    collision (the +2 covers an exact-power edge); ``bound`` is
    ``_forcing_bound(tm, nu)`` when the caller has it."""
    if bound is None:
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
    return math.ceil(math.log(bound / length) / math.log(math.sqrt(tm.degree))) + 2


AffineMap = tuple[Matrix, tuple[QuadraticNumber, QuadraticNumber]]
def _rotations(rot: Matrix, nu: int, z0: TorusPoint) -> list[AffineMap]:
    """Lattice-coordinate form of the powers k = 1..nu-1 of the rotation R
    about z0: integer matrices R^k plus rational shifts (I - R^k) z0."""
    rk, out = (1, 0, 0, 1), []
    for _ in range(1, nu):
        rk = _compose(rot, rk)
        pk, qk, rr, sk = rk
        out.append((rk, (z0.x * (1 - pk) - z0.y * rr, z0.y * (1 - sk) - z0.x * qk)))
    return out


def lift_orbit(
    tm: AffineTorusMap, seg: TorusSegment, *shifts: QuadraticNumber
) -> tuple[_Field, int, Iterator[Lift], list[Vector]]:
    """The segment's lift and its images under the covering x -> M*x + b,
    exactly, for any multiplier: integer numerators over one denominator in
    the field of the segment, b and ``shifts`` (``_segment_numerators``,
    ``MixedRadicals`` past two radicands), each image stepped from the last
    and moved back by the exact floor of its midpoint; then ``shifts`` as
    numerators.  The lifts are built as they are asked for."""
    ts, b = (seg.t_lo, seg.t_hi), (tm.b.x, tm.b.y)
    f, den, (x0, y0, x1, y1, bx, by, *rest) = _segment_numerators(seg.line, ts, (*b, *shifts))

    def lifts() -> Iterator[Lift]:
        lift = ((x0, y0), (x1, y1))
        while True:
            yield lift
            lift = _normalized(f, den, [_affine(tm.m, (bx, by), pt) for pt in lift])

    return f, den, lifts(), rest


class _LiftSearch:
    """The lifts the collision search compares: iterate m of the segment
    under the covering x -> M*x + b, and its images under the group's
    ``_rotations`` x -> R_k*x + s_k (k = 0 is the identity).

    Every lift is carried as a ``FloatLift`` with its ``_box``, normalized
    by the integer translate ``_float_image`` records.  Exact lifts are built
    on demand: iterate m is M^m * lift_0 + S_m, with S_0 = 0 and
    S_m = M*S_{m-1} + b - t_m following the recorded translates t_m, and its
    rotation k is R_k applied to that, plus s_k minus the rotation's own
    translate: one affine image of lift_0.  lift_0, b and the s_k are
    numerators over one denominator in their field (``_segment_numerators``).
    Past two radicands the filter runs on a float lift_0 built coordinate by
    coordinate, and the first survivor is refused."""

    def __init__(self, tm: AffineTorusMap, seg: TorusSegment, rotations: Sequence[AffineMap]):
        self.exact_maps = [(tm.m, (tm.b.x, tm.b.y)), *rotations]  # the covering, then the R_k
        shifts = [c for _, shift in self.exact_maps for c in shift]
        try:
            self.field, den, vs = _segment_numerators(seg.line, (seg.t_lo, seg.t_hi), shifts)
        except MixedRadicals as exc:
            self.field, self.refusal = None, exc
            (x0, x1), (y0, y1) = [
                [_float_of(f, v, den) for v in _centred(f, den, *ends)]
                for f, den, ends in _coordinates(seg.line, (seg.t_lo, seg.t_hi))
            ]
            lift0 = FloatLift(x0[0], y0[0], x1[0], y1[0], max(x0[1], y0[1], x1[1], y1[1]))
            fs = [_float_shift(s) for _, s in self.exact_maps]
        else:
            self.den, zero = den, (0,) * len(vs[0])  # S_0
            self.points = ((vs[0], vs[1]), (vs[2], vs[3]))
            self.maps = [((1, 0, 0, 1), (zero, zero))]  # lift_0 -> iterate m
            it = iter(vs[4:])
            self.num_maps = [(mat, (next(it), next(it))) for mat, _ in self.exact_maps]
            lift0 = _float_lift(self.field, den, self.points)
            xs, es = zip(*[_float_of(self.field, v, den) for v in vs[4:]])
            fs = [(*xs[i : i + 2], max(es[i : i + 2])) for i in range(0, len(xs), 2)]
        self.float_maps = [(mat, fb) for (mat, _), fb in zip(self.exact_maps, fs)]
        self.iterates = [(lift0, (0, 0), _box(*lift0[:4]))]  # float lift, translate, box
        self.targets: list[list[tuple]] = []  # [n][k]: float lift, translate, box
        self.exact_lifts: dict[tuple[int, int], Lift] = {}

    def step(self) -> None:
        """Build the next iterate, and the rotations of the last one."""
        last, _, box = self.iterates[-1]
        self.targets.append(
            [(last, (0, 0), box)] + [_float_image(last, *rot) for rot in self.float_maps[1:]]
        )
        self.iterates.append(_float_image(last, *self.float_maps[0]))

    def exact(self, n: int, k: int = 0) -> Lift:
        """The exact lift that rotation k of iterate n stands for."""
        if (n, k) not in self.exact_lifts:
            while len(self.maps) <= n:
                t = self.iterates[len(self.maps)][1]
                self.maps.append(_then(self.maps[-1], self.num_maps[0], t, self.den))
            amap = self.maps[n]
            if k:
                amap = _then(amap, self.num_maps[k], self.targets[n][k][1], self.den)
            self.exact_lifts[n, k] = tuple(_affine(*amap, pt) for pt in self.points)
        return self.exact_lifts[n, k]

    def meet(self, m: int, n: int, k: int, i: int, j: int) -> tuple[float, float] | None:
        """The witness mod 1 where iterate m meets the translate (i, j) of
        rotation k of iterate n, or None.  Past two radicands (no field),
        this first survivor raises ``_numerators``' ``MixedRadicals``."""
        if self.field is None:
            raise self.refusal
        w = _meet(self.field, self.den, self.exact(m), self.exact(n, k), i, j)
        return None if w is None else reduce_mod1_float(w)


def find_collision(
    tm: AffineTorusMap,
    seg: TorusSegment,
    group: tuple | None = None,
    budget: int | None = None,
) -> CollisionCertificate | NoCollisionWithinBudget:
    """Search indices n < m <= budget (and rotation powers k in group mode) for
    an intersection of iterate m with the k-rotated iterate n; the minimal-m
    certificate is returned (ties by n, then k), which keeps m within the
    forcing bound.  Under an integer multiplier iterates are parallel and meet
    iff they share a state (the loop invariant, on a rational direction) and
    their intervals (arcs) overlap, which ``first_overlap`` decides on the
    orbit's closed form, with no state walked, after one step when no state
    repeats (``_moves``); the lift search serves the rest.  A ``group`` is
    (nu, z0, R), with R = rotation_matrix(tm.lattice, nu) as the caller
    solved it, and may add R's ``_rotations`` (both as
    ``LattesModel.group`` keeps them)."""
    nu, rotations = None, []
    if group is not None:
        nu, z0, rot, *maps = group
        if nu not in (3, 4, 6):
            raise ValueError("group order must be 3, 4 or 6")
        rotations = maps[0] if maps else _rotations(rot, nu, z0)
    bound = _forcing_bound(tm, nu)
    if budget is None:
        budget = default_collision_budget(tm, seg, bound=bound)
    if budget < 1:
        raise ValueError("budget must be >= 1")

    if group is None and tm.has_integer_multiplier:
        loop = not seg.line.is_irrational
        try:
            rule = _state_rule(tm, seg.line.slope, seg.line.transverse())
            moves = _moves(rule, loop)
        except (MixedRadicals, FieldClash):
            pass  # the states share no field or meet the slope's field: lift search
        else:
            if moves:
                return NoCollisionWithinBudget(budget=budget, group_order=1)
            # the orbit's n0 and p in closed form (a loop's, its invariant's),
            # an order past the budget a miss, and its states by ``_state_ints``
            a, num = tm.multiplier_int(), rule[2]
            conj = _conjugate(a, rule)
            n0, p = _shape(a, conj, budget, loop)
            state = partial(_state_ints, a, rule, conj)
            ivs = IntervalChain(seg.t_lo, seg.t_hi, a, (num, state) if loop else None)
            if loop:
                # an arc's place breaks the m - n symmetry: one class per n, up
                # to iterate max(n0, cover), which meets the one p later
                last = max(n0, ivs.cover)
                top = min(budget, last + p)
                pairs = PairClasses(p, [(n + p, n, False, top)
                                        for n in range(n0, min(last, top - p) + 1)])
            else:
                # a hit (n, m) has m - n < D, so past n0 + p + D one period earlier meets too
                cut = n0 + p + _separation(seg.t_lo, seg.t_hi, a)
                pairs = _pair_classes(n0, p, min(budget, cut))
            pair = first_overlap(pairs, lambda: ivs)
            if pair is None:
                return NoCollisionWithinBudget(budget=budget, group_order=1)
            n, m = pair
            st = num.value(state(m))
            if loop:
                witness = _arc_witness(seg.line.slope, st[0], ivs, n, m)
            else:
                line = TorusLine(seg.line.slope, *st)
                witness = _overlap_witness(line, ivs.value(m), ivs.value(n))
            return CollisionCertificate(n, m, 0, witness, True, bound, budget)

    # iterate m is stepped when the search reaches it, so a first hit at m
    # costs m float steps, not budget, and exact lifts only for survivors
    lifts = _LiftSearch(tm, seg, rotations)
    for m in range(1, budget + 1):
        lifts.step()
        current, _, box = lifts.iterates[m]
        for n in range(m):
            for k, (target, _, target_box) in enumerate(lifts.targets[n]):
                for i, j in _surviving_translates(current, target, box, target_box):
                    w = lifts.meet(m, n, k, i, j)
                    if w is not None:
                        return CollisionCertificate(n, m, k, w, True, bound, budget)
    if math.isfinite(bound) and budget >= default_collision_budget(tm, seg, bound=bound):
        # the forcing bound promises a collision within this budget
        raise InternalInconsistency(f"no collision within the forcing budget {budget}")
    return NoCollisionWithinBudget(budget=budget, group_order=nu or 1)


def reverify_collision(
    tm: AffineTorusMap,
    seg: TorusSegment,
    cert: CollisionCertificate,
    group: tuple[int, TorusPoint] | None = None,
) -> bool:
    """Recompute the claimed intersection from scratch; ``group`` is (nu, z0).

    Iterates n and m are stepped from lift_0 one image at a time
    (``lift_orbit``), not composed as the search composes them, and rotation
    k is solved again; every translate the float bounds leave is decided by
    ``_meet``."""
    rotation = []
    if cert.k:
        if group is None:
            raise ValueError("a rotated collision needs its group to re-verify")
        rotation = [_rotations(rotation_matrix(tm.lattice, group[0]), *group)[cert.k - 1]]
    f, den, lifts, shift = lift_orbit(tm, seg, *(c for _, s in rotation for c in s))
    lifts = list(islice(lifts, cert.m + 1))
    target, current = lifts[cert.n], lifts[cert.m]
    if rotation:
        target = _normalized(f, den, [_affine(rotation[0][0], shift, pt) for pt in target])
    translates = _surviving_translates(_float_lift(f, den, current), _float_lift(f, den, target))
    return any(_meet(f, den, current, target, i, j) is not None for i, j in translates)
