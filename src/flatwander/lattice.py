"""Lattice L = {n + m*omega} and lattice coordinates.

All torus arithmetic uses lattice coordinates (x, y), meaning the point
x*1 + y*omega, so reduction mod the lattice is coordinate-wise mod 1 and every
membership decision is exact regardless of omega's numeric value.
"""

from __future__ import annotations

from operator import attrgetter

from .errors import LowerHalfPlane
from .numbers import ZERO, ComplexPair, QuadraticNumber, qn

CoordPair = tuple[QuadraticNumber, QuadraticNumber]


class Record:
    """A value: equal to a record of its own type with equal ``_fields``, its
    constructor's arguments (its ``__slots__`` too, with any value derived from
    them, where no cached property needs a ``__dict__``), and hashed by them."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        return self._key(self) == other._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(repr(getattr(self, f)) for f in self._fields)})"


class Lattice:
    """Lattice spanned by 1 and omega, with Im(omega) > 0."""

    __slots__ = ("omega",)

    def __init__(self, omega: ComplexPair):
        if omega.im.sign() <= 0:
            raise LowerHalfPlane(f"Im(omega) must be positive, got {omega.to_expr()}")
        self.omega = omega

    def omega_complex(self) -> complex:
        return self.omega.to_complex()


class TorusPoint(Record):
    """A point of the torus in lattice coordinates, both reduced to [0, 1)."""

    __slots__ = _fields = ("x", "y")

    def __init__(self, x: QuadraticNumber, y: QuadraticNumber):
        if x.floor() or y.floor():
            raise ValueError("TorusPoint coordinates must lie in [0,1)")
        self.x, self.y = x, y

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
