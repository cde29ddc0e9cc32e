"""The numbers of the collision search's lifts, in two forms.

Float lifts filter.  A ``FloatLift`` carries one proven absolute error bound
on every coordinate, and an affine step grows it (``_float_image``).  Each
pair of lifts enumerates only the lattice translates in its exact coordinate
ranges, widened by the bounds, and skips one only when the bounds prove a
miss (``_surviving_translates``) from the ranges of each lift's ``_box``.

Exact lifts decide.  The search's scalars become integer numerators over one
denominator on the basis of their field (``_numerators``, ``_Field``), affine
maps compose on them (``_then``) or step a lift, moved back by the exact
floor of its midpoint (``_normalized``), and ``_meet`` reads each
orientation's sign from integers.  Only a hit's witness, and a plot's floats,
become a QuadraticNumber or BiQuadratic.
"""

from __future__ import annotations

import math
import operator
import sys
from collections.abc import Sequence
from typing import NamedTuple

from . import numbers
from .errors import BudgetExceeded, MixedRadicals
from .line_orbit import TorusLine
from .numbers import BiQuadratic, QuadraticNumber, _sign_parts, floor_parts, tower_floor, tower_sign

Coord = QuadraticNumber | BiQuadratic
Matrix = tuple[int, int, int, int]  # (p, q, r, s): x' = p*x + r*y, y' = q*x + s*y

_TRANSLATE_CAP = 2_000_000
_EPS = sys.float_info.epsilon  # 2**-52, twice the unit roundoff of a double
# a bound's own few float operations round it down by less than this factor
_UP = 1 + 16 * _EPS


# ---------------------------------------------------------------------------
# Float lifts with proven error bounds
#
# A float lift carries one absolute bound on every coordinate's distance from
# the exact lift it stands for.  The bounds are first-order rounding-error
# bounds in the style of Shewchuk (1997), with every constant at least twice
# what the derivation needs, and they include the ``float_jitter`` test hook,
# so a perturbed conversion still leaves each exact value inside its bound.
# ---------------------------------------------------------------------------


class FloatLift(NamedTuple):
    """A lifted segment's endpoints (x0, y0), (x1, y1) as floats, each
    coordinate within ``err`` of the exact one."""

    x0: float
    y0: float
    x1: float
    y1: float
    err: float


def _float_shift(
    shift: tuple[QuadraticNumber, QuadraticNumber],
) -> tuple[float, float, float]:
    """An exact shift as floats (bx, by) by ``_float_of``, and one bound on both."""
    f, den, vs = _numerators(shift)
    (bx, ex), (by, ey) = [_float_of(f, v, den) for v in vs]
    return bx, by, max(ex, ey)


def _float_image(
    f: FloatLift, mat: Matrix, shift: tuple[float, float, float]
) -> tuple[FloatLift, tuple[int, int], tuple]:
    """The image of ``f`` under x -> mat*x + shift moved by the integer
    translate that puts its float midpoint into [0,1)^2, that translate and
    its ``_box``.  Any integer translate is the same torus segment, so the
    exact lift it stands for is the exact image minus the same translate.

    With L the matrix's largest absolute row sum, the bound grows to
    L*err + err_shift + 4*eps*(L*|coords| + |shift| + |image| + |out|),
    which covers the two products, two sums and one translate per
    coordinate."""
    p, q, r, s = mat
    bx, by, berr = shift
    x0, y0, x1, y1, err = f
    X0, Y0 = x0 * p + y0 * r + bx, x0 * q + y0 * s + by
    X1, Y1 = x1 * p + y1 * r + bx, x1 * q + y1 * s + by
    tx, ty = math.floor((X0 + X1) * 0.5), math.floor((Y0 + Y1) * 0.5)
    out = (X0 - tx, Y0 - ty, X1 - tx, Y1 - ty)
    box = _box(*out)
    lip = max(abs(p) + abs(r), abs(q) + abs(s))
    sizes = (
        lip * max(abs(x0), abs(y0), abs(x1), abs(y1))
        + max(abs(bx), abs(by))
        + max(abs(X0), abs(Y0), abs(X1), abs(Y1))
        + box[4]
    )
    return FloatLift(*out, (lip * err + berr + 4 * _EPS * sizes) * _UP), (tx, ty), box


def _orientation_bound(e: float, size: float, t: int) -> float:
    """A bound on the float error of every orientation over a box of
    translates up to t, for coordinates up to ``size`` each within its
    lift's bound (the two sum to ``e``): every difference of coordinates is
    within du (edges) or dw (endpoint to translated endpoint) of the exact
    one; edges have 1-norm <= 4*size, endpoint-to-endpoint vectors
    <= 4*size + 2*t; the float evaluation rounds by at most
    16*eps*size*(size + t)."""
    du = 2 * e + 2 * _EPS * size
    dw = e + 2 * _EPS * size
    return (
        du * (4 * size + 2 * t + 2 * dw) + 4 * size * dw + 16 * _EPS * size * (size + t)
    ) * _UP


def _box(x0: float, y0: float, x1: float, y1: float) -> tuple:
    """A lift's (x_lo, x_hi, y_lo, y_hi, largest absolute coordinate)."""
    xs, ys = (x0, x1) if x0 < x1 else (x1, x0), (y0, y1) if y0 < y1 else (y1, y0)
    return (*xs, *ys, max(abs(x0), abs(y0), abs(x1), abs(y1)))


def _surviving_translates(f1: FloatLift, f2: FloatLift, box1=None, box2=None) -> list:
    """The lattice translates t of segment 2, in enumeration order, that the
    error bounds cannot prove to miss segment 1.

    Only the integers in the exact coordinate ranges, widened by the margin,
    are enumerated: an exact hit's translate i lies in
    [min(px) - max(qx), max(px) - min(qx)], and the floats of those ends are
    within the margin of the exact ones, which covers both bounds and the
    rounding of the subtraction; so does j.  A pair with an empty range
    returns at once.  Each orientation is affine in t: with u = p1 - p0 and
    v = q1 - q0, orient(p0, p1, q0 + t) = cross(u, q0 - p0) + cross(u, t),
    and orient(q0 + t, q1 + t, p0) = cross(v, p0 - q0) - cross(v, t).  The
    constant parts and one bound that holds over the whole enumerated box
    are computed once per pair; a translate is skipped only when the
    endpoints of one segment lie certainly and strictly on one side of the
    other's line, which no exact hit, touching or collinear, can do."""
    xlo, xhi, ylo, yhi, s1 = box1 or _box(*f1[:4])
    qxlo, qxhi, qylo, qyhi, s2 = box2 or _box(*f2[:4])
    e = f1[4] + f2[4]
    size = s1 if s1 > s2 else s2
    margin = 2 * e + 16 * _EPS * size
    n_lo, n_hi = math.ceil(xlo - qxhi - margin), math.floor(xhi - qxlo + margin)
    if n_lo > n_hi:
        return []
    m_lo, m_hi = math.ceil(ylo - qyhi - margin), math.floor(yhi - qylo + margin)
    if m_lo > m_hi:
        return []
    px0, py0, px1, py1, _ = f1
    qx0, qy0, qx1, qy1, _ = f2
    count = (n_hi - n_lo + 1) * (m_hi - m_lo + 1)
    if count > _TRANSLATE_CAP:
        raise BudgetExceeded(f"{count} lattice translates exceed the enumeration cap")
    ux, uy = px1 - px0, py1 - py0
    vx, vy = qx1 - qx0, qy1 - qy0
    a1 = ux * (qy0 - py0) - uy * (qx0 - px0)
    a2 = ux * (qy1 - py0) - uy * (qx1 - px0)
    a3 = vx * (py0 - qy0) - vy * (px0 - qx0)
    a4 = vx * (py1 - qy0) - vy * (px1 - qx0)
    bound = _orientation_bound(e, size, max(-n_lo, n_hi, -m_lo, m_hi))
    lo12, hi12 = min(a1, a2), max(a1, a2)
    lo34, hi34 = min(a3, a4), max(a3, a4)
    kept = []
    for i in range(n_lo, n_hi + 1):
        for j in range(m_lo, m_hi + 1):
            c = ux * j - uy * i
            if lo12 + c > bound or hi12 + c < -bound:
                continue
            c = vx * j - vy * i
            if lo34 - c > bound or hi34 - c < -bound:
                continue
            kept.append((i, j))
    return kept


# ---------------------------------------------------------------------------
# Exact lifts on integer numerators
# ---------------------------------------------------------------------------

Vector = tuple[int, ...]  # a lift search scalar: integer numerators on its field's basis
Lift = tuple[tuple[Vector, Vector], tuple[Vector, Vector]]  # ((x0, y0), (x1, y1))


def _compose(a: Matrix, b: Matrix) -> Matrix:
    """The matrix product a*b, in the (p, q, r, s) layout."""
    p, q, r, s = a
    p1, q1, r1, s1 = b
    return (p * p1 + r * q1, q * p1 + s * q1, p * r1 + r * s1, q * r1 + s * s1)


def _affine(mat: Matrix, shift: tuple, pt: tuple) -> tuple[tuple, tuple]:
    """The point pt under x -> mat*x + shift, coordinate vector by vector."""
    (p, q, r, s), (bx, by), (x, y) = mat, shift, pt
    return (
        tuple([p * u + r * v + c for u, v, c in zip(x, y, bx)]),
        tuple([q * u + s * v + c for u, v, c in zip(x, y, by)]),
    )


def _then(inner: tuple, outer: tuple, t: tuple[int, int], den: int) -> tuple:
    """The map x -> outer(inner(x)) - t, shifts as numerators over ``den``
    (an integer moves only the rational coordinate)."""
    mat, (bx, by) = outer
    shift = ((bx[0] - t[0] * den, *bx[1:]), (by[0] - t[1] * den, *by[1:]))
    return _compose(mat, inner[0]), _affine(mat, shift, inner[1])


class _Field(NamedTuple):
    """Q, Q(sqrt d) or the tower Q(sqrt d, sqrt e) with d < e: an element is
    its integer numerators on the basis {1}, {1, sqrt d} or {1, sqrt d,
    sqrt e, sqrt de}, whose elements i and j multiply to unit[i & j] times
    element i ^ j."""

    unit: tuple[int, int, int, int]  # (1, d, e, d*e)

    def mul(self, a: Vector, b: Vector) -> Vector:
        if len(a) == 1:
            return (a[0] * b[0],)
        out = [0] * len(a)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i ^ j] += self.unit[i & j] * x * y
        return tuple(out)

    def cross(self, u: tuple[Vector, Vector], v: tuple[Vector, Vector]) -> Vector:
        return _vsub(self.mul(u[0], v[1]), self.mul(u[1], v[0]))

    def conjugate(self, a: Vector) -> tuple[Vector, int]:
        """c and n > 0 with a*c = n, for a nonzero a: c is the product of
        a's other conjugates, each flipping the basis elements that hold an
        odd number of its radicands."""
        c = (1,) + (0,) * (len(a) - 1)
        for g in range(1, len(a)):
            c = self.mul(c, tuple(-x if bin(i & g).count("1") % 2 else x for i, x in enumerate(a)))
        n = self.mul(a, c)[0]
        return (c, n) if n > 0 else (tuple(-x for x in c), -n)

    def sign(self, a: Vector) -> int:
        """By ``_sign_parts``, in the tower by ``tower_sign``."""
        d = self.unit[1]
        if len(a) < 4:
            return _sign_parts(a[0], a[1] if len(a) == 2 else 0, d)
        return tower_sign(*a, d, self.unit[2])

    def floor(self, a: Sequence[int], den: int) -> int:
        """floor(a / den) by ``floor_parts``, in the tower by ``tower_floor``."""
        if len(a) == 4:
            return tower_floor(*a, den, *self.unit[1:3])
        return floor_parts(a[0], a[1] if len(a) == 2 else 0, den, self.unit[1])

    def scalar(self, a: Vector, den: int) -> Coord:
        """a / den as a canonical QuadraticNumber, a BiQuadratic in the tower."""
        if len(a) == 4:
            return BiQuadratic(self.scalar(a[:2], den), self.scalar(a[2:], den), self.unit[2])
        return QuadraticNumber._canon(a[0], a[1] if len(a) == 2 else 0, den, self.unit[1])


def _numerators(xs: Sequence[QuadraticNumber]) -> tuple[_Field, int, list[Vector]]:
    """The field of the scalars ``xs``, their least common denominator and
    each as numerators over it; ``MixedRadicals`` past two radicands."""
    rads = sorted({x.d for x in xs} - {0})
    if len(rads) > 2:
        raise MixedRadicals(", ".join(f"sqrt({r})" for r in rads) + " in one search")
    (d, e), den = (*rads, 0, 0)[:2], math.lcm(*[x.w for x in xs])
    out = []
    for x in xs:
        v = [0] * (1 if not d else 2 if not e else 4)
        v[0] = x.u * (den // x.w)
        if x.v:
            v[1 if x.d == d else 2] = x.v * (den // x.w)
        out.append(tuple(v))
    return _Field((1, d, e, d * e)), den, out


def _segment_numerators(
    line: TorusLine, t: tuple[QuadraticNumber, QuadraticNumber], shifts: Sequence[QuadraticNumber]
) -> tuple[_Field, int, list[Vector]]:
    """``_numerators`` of the segment's lift for t = (t_lo, t_hi) on ``line``,
    then of ``shifts``: F^-1 * state + t*direction (F the integer frame,
    direction[0] an integer), moved by the exact floor of the midpoint
    (``_normalized``).  ``MixedRadicals`` past two radicands, and where F^-1
    adds two radicands in one coordinate, as the base point's arithmetic."""
    alpha, beta, (dx, dy) = line.alpha, line.beta, line.direction
    f11, f12, f21, f22 = line.slope.frame
    if alpha.d and beta.d and alpha.d != beta.d and (f12 and f22 or f11 and f21):
        pair = (alpha.d, beta.d) if f12 and f22 else (beta.d, alpha.d)
        raise MixedRadicals("sqrt(%d) and sqrt(%d) in one scalar" % pair)
    f, den, (a, b, slope, *rest) = _numerators([alpha, beta, dy, *t, *shifts])
    # the endpoints over den*w: t*dy is over den^2, and den/w divides dy's numerators
    w, k, big = dy.w, den // dy.w, den * dy.w
    bx = [(p * f22 - q * f12) * w for p, q in zip(a, b)]
    by = [(q * f11 - p * f21) * w for p, q in zip(a, b)]
    ends = [(tuple([p + c * dx.u * w for p, c in zip(bx, s)]),
             tuple([p + c // k for p, c in zip(by, f.mul(s, slope))])) for s in rest[:2]]
    shifts = [tuple([c * w for c in x]) for x in rest[2:]]
    return f, big, [x for end in _normalized(f, big, ends) for x in end] + shifts


def _centred(f: _Field, den: int, p: Vector, q: Vector) -> tuple[Vector, Vector]:
    """p and q over ``den`` moved by the integer that puts their midpoint
    into [0,1), found exactly (p mod 1 when q is p)."""
    n = f.floor(list(map(operator.add, p, q)), 2 * den) * den
    return (p[0] - n, *p[1:]), (q[0] - n, *q[1:])


def _normalized(f: _Field, den: int, lift: Sequence[tuple[Vector, Vector]]) -> Lift:
    """The lift ((x0, y0), (x1, y1)) over ``den`` moved by the integer
    translate that puts its midpoint into [0,1)^2."""
    (x0, y0), (x1, y1) = lift
    (x0, x1), (y0, y1) = _centred(f, den, x0, x1), _centred(f, den, y0, y1)
    return ((x0, y0), (x1, y1))


def _coordinates(
    line: TorusLine, ts: Sequence[QuadraticNumber]
) -> list[tuple[_Field, int, list[Vector]]]:
    """Per coordinate of the points base + t*direction, t in ``ts``, on the
    lift of ``line`` through F^-1 * state: its own field, a denominator and
    the points' numerators over it.  A coordinate holds at most its state's
    radicand and the slope's; where F^-1 adds two fields in one, the base
    point's arithmetic raises ``MixedRadicals``."""
    out = []
    for b, dc in zip(line.slope.from_state(line.transverse()), line.direction):
        f, den, (b, dc, *vs) = _numerators([b, dc, *ts])
        b = [x * den for x in b]
        out.append((f, den * den, [tuple(map(operator.add, b, f.mul(dc, t))) for t in vs]))
    return out


def _float_lift(f: _Field, den: int, lift: Lift) -> FloatLift:
    """An exact lift as floats by ``_float_of``, with one bound on all four."""
    xs, es = zip(*[_float_of(f, v, den) for pt in lift for v in pt])
    return FloatLift(*xs, max(es))


def _float_of(f: _Field, a: Sequence[int], den: int) -> tuple[float, float]:
    """a/den as a float, and a bound on its absolute error, (8*eps +
    2*|jitter|) * mag, with mag the sum of the parts' absolute values: the
    sum cancels when u is near -v*sqrt(d), and the error scales with them."""
    x = mag = 0.0
    for u, c in zip(a, f.unit):
        if u:
            y = u / den if c == 1 else u / den * math.sqrt(c)
            x, mag = x + y, mag + abs(y)
    return numbers._jittered(x), (8 * _EPS + 2 * abs(numbers._FLOAT_JITTER)) * mag * _UP


def _vsub(a: Vector, b: Vector) -> Vector:
    return tuple(map(operator.sub, a, b))


def _psub(a: tuple[Vector, Vector], b: tuple[Vector, Vector]) -> tuple[Vector, Vector]:
    return (_vsub(a[0], b[0]), _vsub(a[1], b[1]))


def _on_collinear(f: _Field, p0: tuple, p1: tuple, r: tuple) -> bool:
    """Does each coordinate of r lie between p0's and p1's?"""
    return all(f.sign(_vsub(r[i], p0[i])) * f.sign(_vsub(r[i], p1[i])) <= 0 for i in (0, 1))


def _meet(f: _Field, den: int, s1: Lift, s2: Lift, i: int, j: int) -> tuple | None:
    """The point where the closed segment 1 meets the translate (i, j) of
    segment 2, both on numerators over ``den``, or None: a proper crossing
    by four orientation signs, else a touching or collinear endpoint.  Only
    a hit's witness becomes exact scalars."""
    p0, p1 = s1
    q0, q1 = (((x[0] + i * den, *x[1:]), (y[0] + j * den, *y[1:])) for x, y in s2)
    dp, dq, pq = _psub(p1, p0), _psub(q1, q0), _psub(p0, q0)
    c3, c4 = f.cross(dq, pq), f.cross(dq, _psub(p1, q0))
    o1 = -f.sign(f.cross(dp, pq))
    o2 = f.sign(f.cross(dp, _psub(q1, p0)))
    o3, o4 = f.sign(c3), f.sign(c4)
    if o1 * o2 < 0 and o3 * o4 < 0:
        # p0 + t*dp with t = c3/(c3 - c4) = c3*c/n, over den*n
        c, n = f.conjugate(_vsub(c3, c4))
        t = f.mul(c3, c)
        w = (tuple(x * n + y for x, y in zip(a, f.mul(t, b))) for a, b in zip(p0, dp))
        return tuple(f.scalar(x, den * n) for x in w)
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        tests = [(s1, q0), (s1, q1), ((q0, q1), p0), ((q0, q1), p1)]
    else:
        tests = [(s1, q0, o1), (s1, q1, o2), ((q0, q1), p0, o3), ((q0, q1), p1, o4)]
        tests = [(seg, c) for seg, c, o in tests if o == 0]
    for seg, c in tests:
        if _on_collinear(f, *seg, c):
            return tuple(f.scalar(x, den) for x in c)
    return None
