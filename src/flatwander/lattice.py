"""Lattice L = {n + m*omega} and lattice coordinates.

All torus arithmetic uses lattice coordinates (x, y), meaning the point
x*1 + y*omega, so reduction mod the lattice is coordinate-wise mod 1 and every
membership decision is exact regardless of omega's numeric value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LowerHalfPlane
from .numbers import ZERO, ComplexPair, QuadraticNumber, qn

CoordPair = tuple[QuadraticNumber, QuadraticNumber]


@dataclass(frozen=True)
class Lattice:
    """Lattice spanned by 1 and omega, with Im(omega) > 0."""

    omega: ComplexPair

    def __post_init__(self):
        if self.omega.im.sign() <= 0:
            raise LowerHalfPlane(f"Im(omega) must be positive, got {self.omega.to_expr()}")

    def omega_complex(self) -> complex:
        return self.omega.to_complex()


@dataclass(frozen=True)
class TorusPoint:
    """A point of the torus in lattice coordinates, both reduced to [0, 1)."""

    x: QuadraticNumber
    y: QuadraticNumber

    def __post_init__(self):
        if self.x.floor() or self.y.floor():
            raise ValueError("TorusPoint coordinates must lie in [0,1)")

    def coords(self) -> CoordPair:
        return (self.x, self.y)

    def to_expr(self) -> str:
        return f"({self.x.to_expr()}, {self.y.to_expr()})"


ORIGIN = TorusPoint(ZERO, ZERO)


def reduce_to_fundamental(p: CoordPair) -> TorusPoint:
    """Coordinate-wise mod 1: the representative in the parallelogram with
    vertices 0, 1, omega, 1+omega."""
    return TorusPoint(p[0].mod1(), p[1].mod1())


def point(x, y) -> TorusPoint:
    return reduce_to_fundamental((qn(x), qn(y)))


def embed(p: TorusPoint, lat: Lattice) -> complex:
    """Floating image x + y*omega of a torus point."""
    return p.x.to_float() + p.y.to_float() * lat.omega_complex()
