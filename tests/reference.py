"""Reference implementations that the tests compare flatwander against.

Each one reaches a result the package computes another way, by the direct
route: a line stepped one image at a time, parameter intervals and arcs as
``QuadraticNumber`` pairs, two segments intersected as a pair, a point
iterated or pulled back, the grid of rho's fixed points built and searched, a
line's image under the quotient typed by that search, wp evaluated with one
new array per operation, its rows and R's kernel terms on the last axis, the
nearest lattice point picked among complex candidates, argv read by
argparse, as the command line was read before its option tables, an
option's spelling matched by scanning every name, as before its spelling tables, a point's state from its frame products, a
line's states and their reflections as ``QuadraticNumber`` pairs, the
disjointness oracle with each state stepped from the one before and every
pair compared, and with closed-form states bucketed and each pair compared
by ``IntervalChain.meet``, a certificate's interval and slack built in
``QuadraticNumber`` steps, a separation horizon bisected on
``QuadraticNumber`` products, a segment lifted and stepped in
``QuadraticNumber``/``BiQuadratic`` with two lifts met by orientation signs
and a collision re-checked on those lifts, a radicand split by trial
division up to its square root, a record copied with some fields
changed, as ``dataclasses.replace`` copied one, a periodic orbit's
rho-pairing and sweep classes from its walked cycle, every state mapped by
rho and looked up, the integer-multiplier collision search with every
state walked up to the budget and bucketed by state, an orbit's states
walked one step at a time until one repeats (``walk``), and the double
nearest an exact value from its ``Decimal`` at 200 digits.
No command and no certificate runs them.
"""

from __future__ import annotations

import argparse
import bisect
import decimal
import functools
import inspect
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from flatwander.errors import (
    IncompatibleField,
    InternalInconsistency,
    MixedRadicals,
    NearPole,
    ResidualExceedsTol,
    UsageError,
)
from flatwander.lattes import (
    LattesModel,
    Paired,
    SelfPaired,
    Unpaired,
    WeierstrassContext,
    rho_numerators,
    weierstrass_context,
)
from flatwander import line_orbit, segments
from flatwander.lattice import ORIGIN, Lattice, TorusPoint, reduce_to_fundamental
from flatwander.line_orbit import (
    EventuallyPeriodic,
    Numerators,
    TorusLine,
    _translation_state,
    line_from_point,
    slope_spec,
)
from flatwander.lift_arith import FloatLift, _float_of, _numerators, _surviving_translates
from flatwander.numbers import HALF, ZERO, BiQuadratic, QuadraticNumber, floor_parts
from flatwander.segments import (
    CollisionCertificate,
    Interval,
    IntervalChain,
    NoCollisionWithinBudget,
    PairClasses,
    TorusSegment,
    _overlap_witness,
    _return_ratio,
    _rotations,
    reduce_mod1_float,
)
from flatwander.torus_map import AffineTorusMap, kernel, rotation_matrix


def fields(cls: type) -> list[str]:
    """The fields of a record class of the package: its constructor's
    parameters, in order."""
    return list(inspect.signature(cls).parameters)


def replace(record, **changes):
    """A new record of ``record``'s class from its constructor's arguments,
    each read back from ``record`` unless ``changes`` names it."""
    names = fields(type(record))
    if not set(changes) <= set(names):
        raise TypeError(f"{type(record).__name__} has no field {sorted(set(changes) - set(names))}")
    return type(record)(*[changes.get(name, getattr(record, name)) for name in names])


def as_fraction(x: QuadraticNumber) -> Fraction:
    """A rational value as a ``Fraction``."""
    if not x.is_rational:
        raise ValueError("not rational")
    return Fraction(x.u, x.w)


# ---------------------------------------------------------------------------
# points and lines, one step at a time
# ---------------------------------------------------------------------------


def base_point(line: TorusLine) -> tuple[QuadraticNumber, QuadraticNumber]:
    """The line's base point mod 1: (beta, -alpha) for an irrational slope."""
    x, y = line.slope.from_state(line.transverse())
    return (x.mod1(), y.mod1())


def apply_map(tm: AffineTorusMap, pt: TorusPoint) -> TorusPoint:
    """(x, y) -> M (x, y)^T + b, coordinate-wise mod 1."""
    p, q, r, s = tm.m
    try:
        nx = pt.x * p + pt.y * r + tm.b.x
        ny = pt.x * q + pt.y * s + tm.b.y
    except MixedRadicals as exc:
        raise IncompatibleField(str(exc)) from exc
    return reduce_to_fundamental((nx, ny))


def iterate_map(tm: AffineTorusMap, pt: TorusPoint, n: int) -> TorusPoint:
    if n < 0:
        raise ValueError("iterate count must be non-negative")
    for _ in range(n):
        pt = apply_map(tm, pt)
    return pt


def preimages(tm: AffineTorusMap, target: TorusPoint) -> list[TorusPoint]:
    """All solutions of apply_map(P) = target: one exact solve, shifted by
    each point of the kernel; there are exactly ``degree`` of them."""
    p, q, r, s = tm.m
    cx, cy = target.x - tm.b.x, target.y - tm.b.y
    # M^{-1} = adj(M)/det with adj = [[s, -r], [-q, p]]
    x, y = cx * s - cy * r, cy * p - cx * q
    det = tm.degree
    return [reduce_to_fundamental(((x + n1) / det, (y + n2) / det)) for n1, n2 in kernel(tm)]


def _state_step(tm: AffineTorusMap, slope):
    """The covering on states in ``slope``'s frame, stepped in
    ``QuadraticNumber``s: F(a*p + b) = a*F(p) + F(b), so
    st -> a*st + to_state(b) mod 1."""
    a, (c0, c1) = _translation_state(tm, slope)

    def step(st):
        return ((st[0] * a + c0).mod1(), (st[1] * a + c1).mod1())

    return step


def walk(rule: tuple, limit: int) -> tuple[tuple, int | None, Numerators]:
    """The distinct states of a ``_state_rule`` in orbit order, up to the first
    repeat or ``limit`` states, the index the repeat returns to (None when the
    limit came first) and their ``Numerators``.  A state fixes the iterate's
    line and base point, so a repeated state is a repeated iterate."""
    step, state, num = rule
    seen: dict = {}  # insertion order is orbit order
    for i in range(limit):
        if i:
            state = step(state)
        if state in seen:
            return tuple(seen), seen[state], num
        seen[state] = i
    return tuple(seen), None, num


def walked_states(orbit: EventuallyPeriodic) -> tuple:
    """The preperiod + period distinct states of a periodic orbit, walked from
    its rule until one repeats, where its preperiod says."""
    states, n0, _ = walk(orbit.rule, orbit.preperiod + orbit.period + 1)
    if (n0, len(states)) != (orbit.preperiod, orbit.preperiod + orbit.period):
        raise InternalInconsistency("the walk disagrees with the closed-form period")
    return states


def counted_steps(monkeypatch) -> list:
    """Count the steps of every ``_state_rule`` built while the patch holds,
    through each flatwander namespace that binds it: one entry per state
    stepped."""
    calls, orig = [], line_orbit._state_rule

    def counted_rule(tm, slope, seed):
        step, start, num = orig(tm, slope, seed)
        return (lambda p: calls.append(p) or step(p)), start, num

    for mod in (line_orbit, segments):
        monkeypatch.setattr(mod, "_state_rule", counted_rule)
    return calls


def folded(states, n0: int | None, n: int) -> list:
    """States 0..n of a walk's distinct ``states`` (``walk``), read past
    the last one around the cycle that starts at state n0 (None when no
    state repeats)."""
    if n0 is None:
        return list(states[: n + 1])
    p = len(states) - n0
    return [states[i if i < n0 else n0 + (i - n0) % p] for i in range(n + 1)]


def walked_orbit(tm: AffineTorusMap, line: TorusLine, n: int):
    """States 0..n of the line's ``walk``, folded into its cycle, as
    integers, and their ``Numerators``."""
    rule = line_orbit._state_rule(tm, line.slope, line.transverse())
    states, n0, num = walk(rule, n + 1)
    return folded(states, n0, n), num


def orbit_states(tm: AffineTorusMap, line: TorusLine, n: int) -> list:
    """States 0..n of the walk (``walked_orbit``) as ``QuadraticNumber``
    pairs: the transverse pair of an irrational slope; the loop invariant and
    place of a rational direction."""
    states, num = walked_orbit(tm, line, n)
    return [num.value(p) for p in states]


def _reflected(origin, state):
    (r0, r1), (alpha, beta) = origin, state
    return ((r0 - alpha).mod1(), (r1 - beta).mod1())


def rho_transverse(model: LattesModel, state):
    """rho(v) = 2*z0 - v on transverse pairs, on values: (alpha, beta) ->
    rho(0) - (alpha, beta) mod 1, with rho(0) = (-2*z0_y, 2*z0_x)."""
    return _reflected(model.rho_origin, state)


def rho_pairing(model: LattesModel, orbit: EventuallyPeriodic):
    """The rho-pairing of an orbit's walked cycle: every state of the cycle
    mapped by its ``rho_numerators`` and looked up in it, the image of its
    first state giving the shift c, and every image checked to be the state
    c further on."""
    cycle = walked_states(orbit)[orbit.preperiod :]
    images = list(map(rho_numerators(model, orbit), cycle))
    p = len(cycle)
    index = {cycle[j]: j for j in range(p)}
    if images[0] not in index:
        if any(img in index for img in images[1:]):
            raise InternalInconsistency("rho maps part of the cycle into it")
        return Unpaired(p)
    c = index[images[0]]
    if any(images[j] != cycle[(j + c) % p] for j in range(p)):
        raise InternalInconsistency("rho image of the cycle is not an index shift")
    if c == 0:
        return SelfPaired(p)
    if p % 2 == 1 or c != p // 2:
        raise InternalInconsistency(
            f"involution shift {c} on a cycle of period {p} contradicts rho^2 = id"
        )
    return Paired(p // 2)


def pair_classes(states, n0: int, top: int, images=None) -> PairClasses:
    """``first_overlap``'s classes on iterates 0..``top`` of an orbit from
    its walked distinct ``states``, whose cycle starts at n0, and the state
    each one is reflected onto (``images``, None for none), every state
    looked up: on a preperiod state k, iterate m's reflection meets only
    iterate k; on a cycle state k, the pairs of one class of m - n mod p are
    met first, at each difference, by the least such k."""
    p = len(states) - n0
    firsts = {(0, False): n0}  # (m - n mod p, reflect): the least n
    out = []
    if images is not None:
        index = dict(zip(states, range(n0 + p)))
        # iterate i < n0 + p is on states[i], and its reflection on images[i]
        for i in range(min(n0 + p, top + 1)):
            k = index.get(images[i])
            if k is None:
                continue
            if k < n0:
                if k < i:
                    out.append((i, k, True, i if i < n0 else top))
            elif i >= n0 and k < firsts.get(((i - k) % p, True), top + 1):
                firsts[(i - k) % p, True] = k
    return PairClasses(p, out + [(k + (gap or p), k, reflect, top)
                                 for (gap, reflect), k in firsts.items()])


def bucketed_first_overlap(states, chain, rho_states=None) -> tuple[int, int] | None:
    """The first pair (n, m), n < m, of iterates with these states whose
    intervals meet, by m and then n, or None, as ``first_overlap`` found it
    before it took its pairs as classes: iterate m is compared against every
    earlier iterate on its state and, with ``rho_states``, its reflection
    against those on the state it is reflected onto.  Two intervals of a
    line are compared once per difference m - n (and reflection); arcs of a
    loop (a chain with a ``loop``), once per pair."""
    ivs, gaps = None, {}

    def meet(n, m, reflect=False):
        nonlocal ivs
        ivs = ivs or chain()
        if ivs.loop is not None:
            return ivs.meet(n, m, reflect)
        key = (m - n, reflect)
        return gaps[key] if key in gaps else gaps.setdefault(key, ivs.meet(0, m - n, reflect))

    by_state = {}  # the iterates before m, by state
    for m, st in enumerate(states):
        same = by_state.setdefault(st, [])
        mirrored = by_state.get(rho_states[m], ()) if rho_states is not None else ()
        if same or mirrored:
            hits = [n for n in same if meet(n, m)] + [n for n in mirrored if meet(n, m, True)]
            if hits:
                return (min(hits), m)
        same.append(m)
    return None


class QuadraticChain:
    """Iterate n's parameter interval a^n*[u, v] in ``QuadraticNumber``s,
    or, given the places of a loop's iterates, its arc at its place, neither
    reduced nor cut; ``meet`` as ``IntervalChain.meet``."""

    def __init__(self, u, v, a, places=None):
        self.u, self.v, self.a, self.loop = u, v, a, places

    def value(self, n):
        lo, hi = _interval_at(self.u, self.v, self.a, n)
        return (lo, hi) if self.loop is None else (self.loop[n] + lo, self.loop[n] + hi)

    def meet(self, n, m, reflect=False):
        i1, i2 = self.value(n), self.value(m)
        if reflect:
            i2 = (-i2[1], -i2[0])
        return _arcs_meet(i1, i2) if self.loop is not None else _overlap(i1, i2)


def walked_collision(tm: AffineTorusMap, seg: TorusSegment, budget: int):
    """``find_collision``'s integer-multiplier search with nothing cut short:
    every state walked up to the budget and folded into the cycle once one
    repeats, every iterate up to the budget swept, the states (a loop's
    invariants) bucketed by ``bucketed_first_overlap``, and intervals, arcs
    and the witness in ``QuadraticNumber``s.  A state that moves is walked
    like any other.  The walk's ``MixedRadicals`` and the rule's
    ``FieldClash`` propagate: the lift search takes those cases."""
    loop, a = not seg.line.is_irrational, tm.multiplier_int()
    rule = line_orbit._state_rule(tm, seg.line.slope, seg.line.transverse())
    walked, n0, num = walk(rule, budget + 1)
    states = [num.value(p) for p in folded(walked, n0, budget)]
    chain = QuadraticChain(seg.t_lo, seg.t_hi, a, [s[1] for s in states] if loop else None)
    pair = bucketed_first_overlap([s[0] for s in states] if loop else states, lambda: chain)
    if pair is None:
        return NoCollisionWithinBudget(budget=budget, group_order=1)
    n, m = pair
    earlier, later = chain.value(n), chain.value(m)
    if loop:
        c = later[0] if _on_arc(earlier, later[0]) else earlier[0]
        x, y = seg.line.slope.from_state((states[m][0], c))
        witness = (x.mod1().to_float(), y.mod1().to_float())
    else:
        witness = _overlap_witness(TorusLine(seg.line.slope, *states[m]), later, earlier)
    return CollisionCertificate(n, m, 0, witness, True, math.inf, budget)


def stepped_disjoint_iterates(tm: AffineTorusMap, seg: TorusSegment, k: int, origin=None):
    """The first meeting pair (i, j) of iterates 0..k of an irrational-slope
    segment, or (True, None): each state stepped from the one before in
    ``QuadraticNumber``s, every pair compared, and with an ``origin`` rho(0)
    each iterate also against the reflection st -> rho(0) - st mod 1 of each
    later one, whose interval maps by t -> -t."""
    if not seg.line.is_irrational:
        raise ValueError("the oracle decides irrational-slope segments only")
    step, states = _state_step(tm, seg.line.slope), [seg.line.transverse()]
    for _ in range(k):
        states.append(step(states[-1]))
    chain = IntervalChain(seg.t_lo, seg.t_hi, tm.multiplier_int())
    mirrors = [_reflected(origin, st) for st in states] if origin else []
    for i in range(k + 1):
        for j in range(i + 1, k + 1):
            if (states[i] == states[j] and chain.meet(i, j)) or (
                mirrors and states[i] == mirrors[j] and chain.meet(i, j, reflect=True)
            ):
                return False, (i, j)
    return True, None


def bucketed_disjoint_iterates(tm: AffineTorusMap, seg: TorusSegment, k: int, reflect=None):
    """``verify_disjoint_iterates`` as it compared each pair through
    ``IntervalChain.meet``: iterate n's state a^n*s0 + G_n*c mod 1 in closed
    form on numerators, a set of each iterate's state and its reflection
    bucketed, and the pairs on one bucket compared in order."""
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
    states = []
    for an in (a**n for n in range(k + 1)):
        g = (an - 1) // (a - 1)
        u0, v0 = an * su0 + g * cu0, an * sv0 + g * cv0
        u1, v1 = an * su1 + g * cu1, an * sv1 + g * cv1
        states.append((u0 - den * floor_parts(u0, v0, den, d0), v0,
                       u1 - den * floor_parts(u1, v1, den, d1), v1))
    rho = (lambda p: None) if reflect is None else Numerators(den, rads).reflection(reflect)
    mirrors = list(map(rho, states))
    buckets = {}  # a state: the iterates on it or reflected onto it
    for j, (st, mirror) in enumerate(zip(states, mirrors)):
        for key in {st, mirror} - {None}:
            buckets.setdefault(key, []).append(j)
    chain = IntervalChain(seg.t_lo, seg.t_hi, a)
    for i, st in enumerate(states):
        for j in buckets[st]:
            if j > i and ((states[j] == st and chain.meet(i, j))
                          or (mirrors[j] == st and chain.meet(i, j, reflect=True))):
                return False, (i, j)
    return True, None


def line_image(tm: AffineTorusMap, line: TorusLine) -> TorusLine:
    """Image of a line under the covering: under an integer multiplier it
    keeps its slope and its state steps by ``_state_step``; a rational
    direction transforms by the integer matrix under any other covering."""
    if tm.has_integer_multiplier or line.is_irrational:
        return TorusLine(line.slope, *_state_step(tm, line.slope)(line.transverse()))
    p, q, r, s = tm.m
    m, k = line.slope.m, line.slope.k
    image = apply_map(tm, TorusPoint(*base_point(line)))
    return line_from_point(slope_spec((p * m + r * k, q * m + s * k)), image.coords())


def same_line(line: TorusLine, other: TorusLine) -> bool:
    if line.slope != other.slope:
        return False
    if line.is_irrational:
        return line.alpha == other.alpha and line.beta == other.beta
    return line.alpha == other.alpha  # rational case: the loop invariant


# ---------------------------------------------------------------------------
# parameter intervals in QuadraticNumber, one product per endpoint
# ---------------------------------------------------------------------------


def _overlap(i1: Interval, i2: Interval) -> bool:
    return i2[0].cmp(i1[1]) <= 0 and i1[0].cmp(i2[1]) <= 0


def _on_arc(arc: Interval, c: QuadraticNumber) -> bool:
    """Does the closed arc [lo, hi] of the loop R/Z contain c?"""
    return (c - arc[0]).mod1().cmp(arc[1] - arc[0]) <= 0


def _arcs_meet(a1: Interval, a2: Interval) -> bool:
    """Two closed arcs of R/Z meet iff one starts on the other."""
    return _on_arc(a1, a2[0]) or _on_arc(a2, a1[0])


def _interval_at(u: QuadraticNumber, v: QuadraticNumber, a: int, n: int) -> Interval:
    """Parameter interval of iterate n of [u, v] under t -> a*t."""
    k = a**n
    return (v * k, u * k) if k < 0 else (u * k, v * k)


def interval_chain(u: QuadraticNumber, v: QuadraticNumber, a: int, n: int) -> list[Interval]:
    """Parameter intervals of iterates 0..n."""
    return [_interval_at(u, v, a, i) for i in range(n + 1)]


def certify_interval(
    t_lo: QuadraticNumber,
    t_hi: QuadraticNumber,
    lam: int,
    both_sides: bool = False,
) -> tuple[QuadraticNumber, QuadraticNumber, QuadraticNumber]:
    """``segments.certify_interval`` in QuadraticNumbers, step by step: the
    largest-practical subinterval [u, v] of [t_lo, t_hi] with 0 outside and
    max(|u|,|v|) < ratio * min(|u|,|v|), the inner endpoint backed off from
    the supremum by a 1/1024 notch; (u, v, slack), slack = ratio*min/max."""
    ratio = _return_ratio(lam, both_sides)

    def one_side(lo: QuadraticNumber, hi: QuadraticNumber):
        # requires 0 <= lo < hi, returns candidate on the positive side
        if hi.sign() <= 0:
            return None
        lo = lo if lo.sign() > 0 else None
        if lo is not None and hi.cmp(lo * ratio) < 0:
            return (lo, hi)
        inner = hi / ratio
        notch = (hi - inner) * Fraction(1, 1024)
        u = inner + notch
        if lo is not None and u.cmp(lo) < 0:
            u = lo
        if hi.cmp(u) <= 0:
            return None
        return (u, hi)

    pos = one_side(t_lo if t_lo.sign() > 0 else ZERO, t_hi)
    neg = one_side(-t_hi if t_hi.sign() < 0 else ZERO, -t_lo)
    sides = [c for c in (pos, neg and (-neg[1], -neg[0])) if c]
    if not sides:
        raise InternalInconsistency(
            f"no certified subinterval of [{t_lo.to_expr()}, {t_hi.to_expr()}]"
        )
    # the longer side; the positive one on a tie
    u, v = max(sides, key=lambda c: c[1] - c[0])
    lo_abs, hi_abs = sorted((abs(u), abs(v)))
    slack = lo_abs * ratio / hi_abs
    if (slack - 1).sign() <= 0:
        raise InternalInconsistency(f"certified slack {slack.to_expr()} is not above 1")
    return (u, v, slack)


def separation(lo: QuadraticNumber, hi: QuadraticNumber, a: int) -> int:
    """The least D with |a|^D * min|t| > max|t| on [lo, hi], 0 when 0 lies in
    it, by doubling and bisection on ``QuadraticNumber`` products."""
    if lo.sign() <= 0 <= hi.sign():
        return 0
    near, far = sorted((abs(lo), abs(hi)))
    top = 1
    while (near * abs(a) ** top).cmp(far) <= 0:
        top *= 2
    return bisect.bisect(range(top), False, key=lambda j: (near * abs(a) ** j).cmp(far) > 0)


# ---------------------------------------------------------------------------
# segments, a pair at a time
# ---------------------------------------------------------------------------


def segments_intersect(
    lat: Lattice, s1: TorusSegment, s2: TorusSegment
) -> tuple[float, float] | None:
    """A witness mod 1 where two segments meet on the torus, or None, exactly.

    Segments on the same irrational-slope line reduce to one-dimensional
    interval overlap in the shared canonical parameter; distinct parallel
    lines are disjoint injective geodesics and need no geometry.
    """
    if (
        s1.line.is_irrational
        and s2.line.is_irrational
        and s1.line.slope == s2.line.slope
    ):
        i1, i2 = (s1.t_lo, s1.t_hi), (s2.t_lo, s2.t_hi)
        if not (same_line(s1.line, s2.line) and _overlap(i1, i2)):
            return None
        return _overlap_witness(s1.line, i1, i2)
    return lift_segments_intersect_torus(lat, segment_lift(s1), segment_lift(s2))


# ---------------------------------------------------------------------------
# lifts in QuadraticNumber/BiQuadratic, one segment pair at a time
# ---------------------------------------------------------------------------

Point = tuple  # a lift's coordinates, QuadraticNumber or BiQuadratic


def numerators(xs):
    """``lift_arith._numerators`` of scalars that may lie in a BiQuadratic
    tower: each p + q*sqrt(e) as p's numerators plus q's times sqrt(e)'s,
    over the square of one denominator."""
    towers = [x for x in xs if isinstance(x, BiQuadratic) and not x.q.is_zero]
    parts = [x.p if isinstance(x, BiQuadratic) else x for x in xs]
    qs = [x.q if isinstance(x, BiQuadratic) else ZERO for x in xs]
    roots = [QuadraticNumber(0, 1, 1, e) for e in {x.e for x in towers}]
    f, den, vs = _numerators([*parts, *qs, *roots])
    root = vs[-1] if roots else vs[0]
    out = []
    for p, q in zip(vs[: len(xs)], vs[len(xs) : 2 * len(xs)]):
        out.append(tuple(a * den + b for a, b in zip(p, f.mul(q, root))))
    return f, den * den, out


def _on_collinear_segment(p0: Point, p1: Point, r: Point) -> bool:
    """Does each coordinate of r lie between p0's and p1's?"""
    return all((r[i] - p0[i]).sign() * (r[i] - p1[i]).sign() <= 0 for i in (0, 1))


def _cross(u: Point, v: Point):
    return u[0] * v[1] - u[1] * v[0]


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def segments_meet_exact(p0: Point, p1: Point, q0: Point, q1: Point) -> Point | None:
    """Exact closed-segment intersection; returns a witness point or None."""
    dp, dq = _sub(p1, p0), _sub(q1, q0)
    pq = _sub(p0, q0)
    c3, c4 = _cross(dq, pq), _cross(dq, _sub(p1, q0))
    o1 = -_cross(dp, pq).sign()  # orient(p0, p1, q0)
    o2 = _cross(dp, _sub(q1, p0)).sign()
    o3, o4 = c3.sign(), c4.sign()
    if o1 * o2 < 0 and o3 * o4 < 0:
        # p0 + t*dp lies on q's line where the orientation c3 + t*(c4 - c3)
        # vanishes
        t = c3 / (c3 - c4)
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


@dataclass(frozen=True)
class LiftSegment:
    """A segment in the plane, endpoints exact."""

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

    def affine_image(self, m: tuple[int, int, int, int], shift) -> LiftSegment:
        (p, q, r, s), (bx, by) = m, shift
        ends = [(x * p + y * r + bx, x * q + y * s + by) for x, y in (self.p0, self.p1)]
        return LiftSegment(*ends)

    def float_lift(self) -> FloatLift:
        """The endpoints as floats, with one bound on every coordinate's
        conversion error.  Not cached: the bound reads the float jitter."""
        coords = [_float_of(*_one_numerator(c)) for c in (*self.p0, *self.p1)]
        return FloatLift(*(x for x, _ in coords), max(e for _, e in coords))


def _one_numerator(x):
    f, den, (v,) = numerators([x])
    return f, v, den


def _needs_tower(*xs) -> bool:
    """Is one of the scalars in the BiQuadratic tower, or do they span more
    than one radicand?"""
    return any(isinstance(x, BiQuadratic) for x in xs) or len({x.d for x in xs} - {0}) > 1


def _common_field(shifts, *lifts: LiftSegment) -> list[LiftSegment]:
    """The lifts in one field that also holds ``shifts``: as they are when
    all their scalars share at most one radicand, else in the tower."""
    if not _needs_tower(*shifts, *(c for lift in lifts for c in (*lift.p0, *lift.p1))):
        return list(lifts)
    tower = BiQuadratic._coerce
    return [LiftSegment(tuple(map(tower, s.p0)), tuple(map(tower, s.p1))) for s in lifts]


def lift_segments_intersect_torus(
    lat: Lattice, s1: LiftSegment, s2: LiftSegment
) -> tuple[float, float] | None:
    """A witness mod 1 where two lifted segments meet on the torus, or None:
    every translate the float bounds leave, decided by
    ``segments_meet_exact`` in one common field."""
    s1, s2 = _common_field((), s1, s2)
    for i, j in _surviving_translates(s1.float_lift(), s2.float_lift()):
        cand = s2.translate(i, j)
        w = segments_meet_exact(s1.p0, s1.p1, cand.p0, cand.p1)
        if w is not None:
            return reduce_mod1_float(w)
    return None


def _point_at(line: TorusLine, t: QuadraticNumber) -> Point:
    """The point at parameter t on the lift of ``line`` through its base
    point: base + t * direction, in the tower only if its data span two
    radicands."""
    (bx, by), (dx, dy) = base_point(line), line.direction
    if _needs_tower(bx, by, dx, dy, t):
        t = BiQuadratic(t)
    return (t * dx + bx, t * dy + by)


@functools.lru_cache(maxsize=4096)
def segment_lift(seg: TorusSegment) -> LiftSegment:
    """The segment's lift, midpoint-normalized into the fundamental cell."""
    return LiftSegment(_point_at(seg.line, seg.t_lo), _point_at(seg.line, seg.t_hi)).normalize()


def iterate_lifts(tm: AffineTorusMap, seg: TorusSegment, n: int):
    """Lifts of iterates 0..n of the segment under the covering, each the
    normalized affine image of the one before; in the tower only when b
    brings a second radicand."""
    if n < 0:
        raise UsageError(f"iterate count must be >= 0, got {n}")
    shift = (tm.b.x, tm.b.y)
    (lift,) = _common_field(shift, segment_lift(seg))
    yield lift
    for _ in range(n):
        lift = lift.affine_image(tm.m, shift).normalize()
        yield lift


def lift_chain(tm: AffineTorusMap, seg: TorusSegment, n: int) -> list[LiftSegment]:
    return list(iterate_lifts(tm, seg, n))


def reverify_collision(
    tm: AffineTorusMap, seg: TorusSegment, cert: CollisionCertificate, group=None
) -> bool:
    """Recompute a claimed intersection on the ``lift_chain`` lifts, the
    rotation solved again from ``group`` = (nu, z0)."""
    lat = tm.lattice
    lifts = lift_chain(tm, seg, cert.m)
    target = lifts[cert.n]
    if cert.k:
        if group is None:
            raise ValueError("a rotated collision needs its group to re-verify")
        mat, shift = _rotations(rotation_matrix(lat, group[0]), *group)[cert.k - 1]
        (target,) = _common_field(shift, target)
        target = target.affine_image(mat, shift).normalize()
    return lift_segments_intersect_torus(lat, lifts[cert.m], target) is not None


def lift_length(lift: LiftSegment, lat: Lattice) -> float:
    """The Euclidean length of a lifted segment, from its float endpoints."""
    x0, y0, x1, y1, _ = lift.float_lift()
    return abs((x1 - x0) + (y1 - y0) * lat.omega_complex())


# ---------------------------------------------------------------------------
# the half-lattice grid and line types on the order-2 quotient
# ---------------------------------------------------------------------------


def half_lattice_q(lat: Lattice, z0: TorusPoint = ORIGIN) -> tuple[TorusPoint, ...]:
    """The four fixed points of z -> 2*z0 - z: z0 shifted by the half-lattice,
    sorted for deterministic iteration."""
    if not (z0.x.is_rational and z0.y.is_rational):
        raise ValueError("z0 must be rational")
    shifts = [(ZERO, ZERO), (HALF, ZERO), (ZERO, HALF), (HALF, HALF)]
    pts = {reduce_to_fundamental((z0.x + sx, z0.y + sy)) for sx, sy in shifts}
    if len(pts) != 4:
        raise InternalInconsistency(f"{len(pts)} fixed points of rho, not 4")
    return tuple(sorted(pts, key=lambda p: (as_fraction(p.x), as_fraction(p.y))))


def q_grid(model: LattesModel) -> tuple[TorusPoint, ...]:
    return half_lattice_q(model.lattice, model.z0)


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


@dataclass(frozen=True)
class InjectiveGeodesicImage:
    pass


@dataclass(frozen=True)
class FoldedRay:
    fold_point: TorusPoint


@dataclass(frozen=True)
class ClosedCurveImage:
    pass


ThetaLineType = InjectiveGeodesicImage | FoldedRay | ClosedCurveImage


def theta_line_type(model: LattesModel, line: TorusLine) -> ThetaLineType:
    """Rational direction -> closed curve; an irrational-slope line through a
    grid point folds at it (it cannot hit two grid lifts: that forces a
    rational direction); otherwise the quotient map is injective on it."""
    if model.nu != 2:
        raise ValueError("line images are classified for the order-2 quotient")
    if not line.is_irrational:
        return ClosedCurveImage()
    hit = passes_through_q(line, q_grid(model))
    if hit is not None:
        return FoldedRay(hit)
    return InjectiveGeodesicImage()


# ---------------------------------------------------------------------------
# the argparse front end, as the CLI read argv before its option tables
# ---------------------------------------------------------------------------


def _add_map_args(sp) -> None:
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", default="0")
    sp.add_argument("--omega", required=True)
    sp.add_argument("--out", default=None)


def _add_line_args(sp, required: bool) -> None:
    sp.add_argument("--slope", required=required)
    sp.add_argument("--alpha", default="0")
    sp.add_argument("--beta", default="0")


def _add_segment_args(sp) -> None:
    sp.add_argument("--seg", default=None)
    _add_line_args(sp, required=False)
    sp.add_argument("--t0", default="0")
    sp.add_argument("--t1", default="1/10")


@functools.cache
def argparse_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="flatwander")
    ap.add_argument("--config", default=None)
    sub = ap.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("classify-map")
    _add_map_args(sp)
    sp = sub.add_parser("classify-line")
    _add_map_args(sp)
    _add_line_args(sp, required=True)
    sp = sub.add_parser("certify-segment")
    _add_map_args(sp)
    _add_segment_args(sp)
    sp.add_argument("--check-iterates", type=int, default=12)
    sp.add_argument("--verify-oracle", action="store_true")
    sp = sub.add_parser("find-collision")
    _add_map_args(sp)
    _add_segment_args(sp)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--nu", type=int, default=None)
    sp.add_argument("--z0", default="0,0")
    sp = sub.add_parser("certify-sphere")
    _add_map_args(sp)
    _add_segment_args(sp)
    sp.add_argument("--nu", type=int, default=2)
    sp.add_argument("--z0", default="0,0")
    sp.add_argument("--check-iterates", type=int, default=12)
    sp = sub.add_parser("verify-semiconjugacy")
    _add_map_args(sp)
    sp.add_argument("--z0", default="0,0")
    sp.add_argument("--samples", type=int, default=500)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--dump-csv", default=None)
    sp = sub.add_parser("plot-orbit")
    _add_map_args(sp)
    _add_segment_args(sp)
    sp.add_argument("--iterates", type=int, default=8)
    sp.add_argument("--mark-witness", default=None)
    ap.commands = sub.choices
    return ap


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with ``--config PATH`` (or ``--config=PATH``) replaced by the
    file's options that argv does not give, matched by the action they name."""
    at = next((i for i, arg in enumerate(argv) if arg.split("=", 1)[0] == "--config"), None)
    if at is None:
        return argv
    _, attached, path = argv[at].partition("=")
    try:
        with open(path if attached else argv[at + 1]) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, IndexError) as exc:
        raise ValueError(f"unreadable config: {exc}") from exc
    rest = argv[:at] + argv[at + (1 if attached else 2) :]
    sp = ap.commands.get(rest[0]) if rest else None
    options = sp._option_string_actions if sp else {}

    def named(arg: str):
        name = arg.split("=", 1)[0]
        return _option_named(options, name) or name

    given = {named(arg) for arg in rest}
    extra: list[str] = []
    for key, value in sorted(cfg.items()):
        flag = f"--{key.replace('_', '-')}"
        if named(flag) in given or value is False or value is None:
            continue
        extra.append(flag if value is True else f"{flag}={value}")
    return rest + extra


def _option_named(options: dict, name: str):
    """The action of option ``name``, or of the one long option that ``name``
    abbreviates; an ambiguous prefix is left to argparse."""
    if name in options:
        return options[name]
    hits = [opt for opt in options if opt.startswith(name)] if name[:2] == "--" else []
    return options[hits[0]] if len(hits) == 1 else None


def _attach_values(sp: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``--opt VALUE`` as ``--opt=VALUE`` when VALUE starts with '-' and is no
    option of ``sp``: argparse would otherwise read '-1/2' as an option."""
    options = sp._option_string_actions
    out: list[str] = []
    for arg in argv:
        dash_value = arg[:1] == "-" and arg not in options
        action = _option_named(options, out[-1]) if dash_value and out else None
        if action is not None and action.nargs is None:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def argparse_options(argv: list[str]) -> dict:
    """The option values the argparse front end read from ``argv``.  Its
    errors exit as argparse's do; an unreadable config raises ValueError."""
    ap = argparse_parser()
    argv = _apply_config(ap, list(argv))
    sp = ap.commands.get(argv[0]) if argv else None
    if sp is None:
        return vars(ap.parse_args(argv))
    rest = _attach_values(sp, argv[1:])
    args, extra = sp.parse_known_args(rest)
    if extra:
        ap.parse_args([argv[0], *rest])  # reports the unrecognized arguments
    return vars(args)


def option_matches(names, name: str) -> list[str]:
    """``name`` if it names an option, else the long options it abbreviates,
    in ``names``' order: the rule the CLI applied to each argument, scanning
    every name, before its per-command spelling tables."""
    if name in names:
        return [name]
    return [n for n in names if n.startswith(name)] if name[:2] == "--" and name != "--" else []


# ---------------------------------------------------------------------------
# the Weierstrass layer: its invariants, and the evaluator as it was before
# its arrays were kept per context
# ---------------------------------------------------------------------------


def g_invariants(lat: Lattice) -> tuple[complex, complex]:
    """Eisenstein invariants g2 = 60*sum w^-4, g3 = 140*sum w^-6 over nonzero
    lattice vectors, as held by the lattice's ``WeierstrassContext``.

    (The raw lattice sum is the test oracle; its O(N^-2) tail cannot reach
    double precision in reasonable time.)
    """
    ctx = weierstrass_context(lat)
    return ctx.g2, ctx.g3


def reduce_nearest(ctx: WeierstrassContext, z):
    """z minus its nearest lattice point, picked among the nine around the
    rounded coordinates of z as complex candidates, squared by their real
    and imaginary parts, with ``take_along_axis``."""
    z = np.asarray(z, dtype=complex)
    u = z / ctx.v1
    y = u.imag / ctx.tau.imag
    n, m = np.round(u.real - y * ctx.tau.real), np.round(y)
    cands = (z - (n * ctx.v1 + m * ctx.v2))[..., None] - np.array(ctx.nine)
    best = (cands.real**2 + cands.imag**2).argmin(-1)
    return np.take_along_axis(cands, best[..., None], -1)[..., 0]


def wp_pair(ctx: WeierstrassContext, z):
    """(wp(z), wp'(z)) from the csc^2 rows, built by concatenation with one
    new array per operation; the refusals are the context's."""
    zr = reduce_nearest(ctx, z)
    near = np.abs(zr) < 1e-6 * ctx.r_min
    if near.any():
        raise NearPole(f"z within 1e-6 r_min of a lattice point: {np.asarray(z)[near][0]}")
    u = zr / ctx.v1
    s0 = np.where(u.imag < 0, -1, 1)
    qm = np.array(ctx.q_powers)
    w = np.concatenate(
        [
            np.exp(2j * np.pi * s0 * u)[..., None],
            np.exp(2j * np.pi * (u + ctx.tau))[..., None] * qm,
            np.exp(-2j * np.pi * (u - ctx.tau))[..., None] * qm,
        ],
        axis=-1,
    )
    d = 1 / (1 - w)
    csc2 = w * d * d
    cot = csc2 * (w + 1) * d
    rows = len(qm)
    cot_sum = s0 * cot[..., 0] + cot[..., 1 : rows + 1].sum(-1) - cot[..., rows + 1 :].sum(-1)
    x = (np.pi / ctx.v1) ** 2 * (-4 * csc2.sum(-1) - ctx.e2 / 3)
    y = -2 * (np.pi / ctx.v1) ** 3 * 4j * cot_sum
    ax, ay = np.abs(x), np.abs(y)
    res = np.abs(y * y - (4 * x * x * x - ctx.g2 * x - ctx.g3))
    scale = np.maximum(1.0, np.maximum(ax * ax * ax, ay * ay))
    bad = ~(res <= 1e-6 * scale)
    if bad.any():
        raise ResidualExceedsTol(
            f"differential-equation residual {np.max(res):.3e} at z={np.asarray(z)[bad][0]}"
        )
    if np.ndim(z) == 0:
        return complex(x), complex(y)
    return x, y


def quotient_map(model: LattesModel, wp_probes):
    """The Lattes map R of ``flatwander.lattes.quotient_map``, with the kernel
    terms on the last axis, added by ``sum(-1)``."""
    ctx = weierstrass_context(model.lattice)
    p, e = np.split(wp_probes, [model.map.degree - 1])
    a2 = model.map.a.to_complex() ** 2

    def pair_sum(x, p):
        return ((x + p) * (2 * x * p - ctx.g2 / 2) - ctx.g3) / (x - p) ** 2

    def R(x):
        r = (x + (pair_sum(x[..., None], p) / 2 - p).sum(-1)) / a2
        return pair_sum(r, e[0]) / 2 if len(e) else r

    return R


def squarefree_split_trial(n: int) -> tuple[int, int]:
    """(f, d) with n = f*f*d and d square-free, by dividing out p*p for every
    p with p*p <= d."""
    f, d, p = 1, n, 2
    while p * p <= d:
        while d % (p * p) == 0:
            d //= p * p
            f *= p
        p += 1 if p == 2 else 2
    return f, d


def frame_state(slope, p) -> tuple[QuadraticNumber, QuadraticNumber]:
    """A point's state in the slope's frame, F*p mod 1, from the products of
    its coordinates with the frame's integers."""
    f11, f12, f21, f22 = slope.frame
    x, y = p
    return ((x * f11 + y * f12).mod1(), (x * f21 + y * f22).mod1())


def decimal_value(x) -> decimal.Decimal:
    """A ``QuadraticNumber`` or ``BiQuadratic`` as a ``Decimal`` at the
    context's precision, computed with no cancellation: where the two parts
    of u + v*sqrt(d) (or p + q*sqrt(e)) differ in sign, as its norm over its
    conjugate, whose parts do not."""
    if isinstance(x, BiQuadratic):
        if x.q.is_zero:
            return decimal_value(x.p)
        p, q = decimal_value(x.p), decimal_value(x.q) * decimal.Decimal(x.e).sqrt()
        if (p < 0) == (q < 0):
            return p + q
        return decimal_value(x.p * x.p - x.q * x.q * x.e) / (p - q)
    u, v, w = (decimal.Decimal(n) for n in (x.u, x.v, x.w))
    if (x.u < 0) == (x.v < 0) or not x.u:
        return (u + v * decimal.Decimal(x.d).sqrt()) / w
    norm = decimal.Decimal(x.u * x.u - x.v * x.v * x.d)
    return norm / (w * (u - v * decimal.Decimal(x.d).sqrt()))


def nearest_double(x, digits: int = 200) -> float:
    """The double nearest ``x``, from its ``decimal_value`` at ``digits``
    digits (``float`` of a ``Decimal`` rounds correctly); ``OverflowError``
    past the largest double, as ``to_float`` raises."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        out = float(decimal_value(x))
    if math.isinf(out):
        raise OverflowError("past the largest double")
    return out
