"""Coverings A(z) = a*z + b mod the lattice: construction and classification.

The linear part is stored as the integer matrix [[p, r], [q, s]] acting on
lattice coordinates, which makes iteration exact for any supported scalar; the
complex multiplier a is kept for reporting and for its angle.
"""

from __future__ import annotations

import math

from .errors import (
    DegreeTooLow,
    InternalInconsistency,
    MixedRadicals,
    NotACovering,
    WrongLatticeForGroup,
)
from .lattice import CoordPair, Lattice, Record, TorusPoint, reduce_to_fundamental
from .numbers import ComplexPair, QuadraticNumber


def solve_lattice_multiplier(lat: Lattice, a: ComplexPair) -> tuple[int, int, int, int]:
    """Integers (p, q, r, s) with a*1 = p + q*omega and a*omega = r + s*omega,
    or raise NotACovering when multiplication by ``a`` does not preserve the
    lattice.  A real ``a`` preserves a lattice exactly when it is an integer, and
    then the matrix is (a, 0, 0, a), for which the relation check is vacuous."""
    if a.is_real:
        if not a.re.is_integer:
            raise NotACovering(f"a*1 not in the lattice for a = {a.to_expr()}")
        return a.re.u, 0, 0, a.re.u
    w_re, w_im = lat.omega.re, lat.omega.im
    try:
        q_val = a.im / w_im
        if not q_val.is_integer:
            raise NotACovering(f"a*1 not in the lattice for a = {a.to_expr()}")
        q = q_val.as_int()
        p_val = a.re - w_re * q
        if not p_val.is_integer:
            raise NotACovering(f"a*1 not in the lattice for a = {a.to_expr()}")
        p = p_val.as_int()
        aw = a.mul(lat.omega)
        s_val = aw.im / w_im
        if not s_val.is_integer:
            raise NotACovering(f"a*omega not in the lattice for a = {a.to_expr()}")
        s = s_val.as_int()
        r_val = aw.re - w_re * s
        if not r_val.is_integer:
            raise NotACovering(f"a*omega not in the lattice for a = {a.to_expr()}")
        r = r_val.as_int()
    except MixedRadicals as exc:
        raise NotACovering(str(exc)) from exc
    # redundant check of the quadratic relation q*omega^2 + (p-s)*omega - r = 0
    w2 = lat.omega.mul(lat.omega)
    res_re = w2.re * q + w_re * (p - s) - r
    res_im = w2.im * q + w_im * (p - s)
    if not (res_re.is_zero and res_im.is_zero):
        raise InternalInconsistency("lattice relation violated")
    return p, q, r, s


def to_lattice_coords(z: ComplexPair, lat: Lattice) -> CoordPair:
    """Write a complex scalar as x + y*omega."""
    y = z.im / lat.omega.im
    x = z.re - y * lat.omega.re
    return (x, y)


class AffineTorusMap:
    """z -> a*z + b on the torus, with integer matrix m = (p, q, r, s); one
    process caches it, so assigning a field raises."""

    __slots__ = ("a", "b", "m", "degree", "lattice")

    def __init__(self, a: ComplexPair, b: TorusPoint, m: tuple[int, int, int, int],
                 degree: int, lattice: Lattice):
        for name, value in zip(self.__slots__, (a, b, m, degree, lattice)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: an AffineTorusMap is immutable")

    @property
    def has_integer_multiplier(self) -> bool:
        return self.a.is_real

    def multiplier_int(self) -> int:
        if not self.has_integer_multiplier:
            raise ValueError("multiplier is not real")
        return self.m[0]


def torus_map_new(a: ComplexPair, b: ComplexPair, lat: Lattice) -> AffineTorusMap:
    """Validate the covering: solves for the integer matrix, checks the degree,
    and reduces b to a torus point (b is a point of the complex plane)."""
    p, q, r, s = solve_lattice_multiplier(lat, a)
    degree = p * s - q * r
    if degree < 2:
        raise DegreeTooLow(f"degree {degree} < 2")
    # degree equals |a|^2 for a genuine multiplication matrix
    if a.abs2() != degree:
        raise InternalInconsistency(f"degree {degree} is not |a|^2 = {a.abs2().to_expr()}")
    if a.is_real and not (q == 0 and r == 0 and p == s):
        raise InternalInconsistency(f"a real multiplier has the matrix {(p, q, r, s)}")
    b_coords = to_lattice_coords(b, lat)
    return AffineTorusMap(a, reduce_to_fundamental(b_coords), (p, q, r, s), degree, lat)


class IntegerDerivative(Record):
    __slots__ = _fields = ("a",)

    def __init__(self, a: int):
        self.a = a


class NonRealMultiplier:
    __slots__ = ("a", "theta")

    def __init__(self, a: ComplexPair, theta: float):
        self.a, self.theta = a, theta


MultiplierClass = IntegerDerivative | NonRealMultiplier


def classify_multiplier(tm: AffineTorusMap) -> MultiplierClass:
    """IntegerDerivative iff Im(a) is exactly zero; otherwise the angle of a,
    whose sine is then exactly nonzero."""
    if tm.a.is_real:
        return IntegerDerivative(tm.multiplier_int())
    theta = math.atan2(tm.a.im.to_float(), tm.a.re.to_float())
    return NonRealMultiplier(tm.a, theta)


_ROTATION_SCALARS = {
    2: ComplexPair.make(-1, 0),
    3: ComplexPair(QuadraticNumber(-1, 0, 2), QuadraticNumber(0, 1, 2, 3)),
    4: ComplexPair.make(0, 1),
    6: ComplexPair(QuadraticNumber(1, 0, 2), QuadraticNumber(0, 1, 2, 3)),
}


def rotation_matrix(lat: Lattice, nu: int) -> tuple[int, int, int, int]:
    """Integer matrix of multiplication by exp(2*pi*i/nu) in lattice
    coordinates; exists iff the lattice carries an order-``nu`` rotation."""
    if nu not in _ROTATION_SCALARS:
        raise ValueError(f"group order must be one of 2, 3, 4, 6, got {nu}")
    zeta = _ROTATION_SCALARS[nu]
    try:
        m = solve_lattice_multiplier(lat, zeta)
    except NotACovering as exc:
        raise WrongLatticeForGroup(
            f"lattice omega={lat.omega.to_expr()} has no order-{nu} rotation"
        ) from exc
    p, q, r, s = m
    if p * s - q * r != 1:
        raise InternalInconsistency(f"the order-{nu} rotation has determinant {p * s - q * r}")
    return m


def kernel(tm: AffineTorusMap) -> list[tuple[int, int]]:
    """The ``degree`` points (n1/det, n2/det) of the kernel M^{-1} Z^2 / Z^2 of
    the covering, as numerator pairs (n1, n2) in [0, det)^2.  The columns
    (s, -q) and (-r, p) of adj(M) = det * M^{-1} generate it, so it is built
    coset by coset: a generator's multiples are added until one is in it."""
    p, q, r, s = tm.m
    det = tm.degree
    out = {(0, 0): None}  # an ordered set
    for gx, gy in ((s, -q), (-r, p)):
        layer, k = list(out), 1
        while (k * gx % det, k * gy % det) not in out:
            out.update(dict.fromkeys(((x + k * gx) % det, (y + k * gy) % det) for x, y in layer))
            k += 1
    if len(out) != det:
        raise InternalInconsistency(f"the kernel has {len(out)} points, not the degree {det}")
    return list(out)
