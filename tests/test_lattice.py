import random
from fractions import Fraction

import pytest

from flatwander.errors import LowerHalfPlane
from flatwander.lattice import (
    Lattice,
    TorusPoint,
    embed,
    point,
    reduce_to_fundamental,
)
from flatwander.lattes import Paired, SelfPaired, Unpaired, lattes_model_new
from flatwander.line_orbit import (
    IrrationalSlope,
    JordanCurve,
    RationalDirection,
    TorusLine,
    WanderingLine,
)
from flatwander.numbers import QuadraticNumber, parse_complex, parse_number, qn
from flatwander.segments import CollisionCertificate, NoCollisionWithinBudget, TorusSegment
from flatwander.torus_map import IntegerDerivative, torus_map_new
from reference import as_fraction, half_lattice_q

Q = QuadraticNumber

SQUARE = Lattice(parse_complex("i"))
HEX = Lattice(parse_complex("1/2+sqrt(3)/2i"))


def nearest_lattice_distance(z: complex, lat: Lattice) -> float:
    """Distance from a complex number to the nearest lattice vector."""
    w = lat.omega_complex()
    y = z.imag / w.imag
    x = z.real - y * w.real
    best = float("inf")
    for n in (-1, 0, 1):
        for m in (-1, 0, 1):
            cand = (round(x) + n) + (round(y) + m) * w
            best = min(best, abs(z - cand))
    return best


def test_lattice_new_examples():
    lat = Lattice(parse_complex("i"))
    assert lat.omega.re.is_zero and lat.omega.im == 1
    lat = Lattice(parse_complex("1/2+sqrt(3)/2i"))
    assert lat.omega.re == Fraction(1, 2)
    assert lat.omega.im == Q(0, 1, 2, 3)
    with pytest.raises(LowerHalfPlane):
        Lattice(parse_complex("-i"))
    with pytest.raises(LowerHalfPlane):
        Lattice(parse_complex("2"))


def test_reduce_examples():
    p = reduce_to_fundamental((qn(Fraction(7, 3)), qn(Fraction(-1, 4))))
    assert p.x == Fraction(1, 3) and p.y == Fraction(3, 4)
    p = reduce_to_fundamental((Q(0, 1, 1, 2), qn(0)))
    assert p.x == Q(-1, 1, 1, 2) and p.y.is_zero
    p = reduce_to_fundamental((qn(0), qn(0)))
    assert p.x.is_zero and p.y.is_zero


def test_reduce_is_retraction():
    rng = random.Random(11)
    for _ in range(10_000):
        d = rng.choice([0, 2, 3])
        x = Q(rng.randint(-60, 60), rng.randint(-12, 12), rng.randint(1, 30), d)
        y = Q(rng.randint(-60, 60), rng.randint(-12, 12), rng.randint(1, 30), d)
        p = reduce_to_fundamental((x, y))
        again = reduce_to_fundamental(p.coords())
        assert again == p


def test_embed_respects_lattice():
    rng = random.Random(13)
    for lat in (SQUARE, HEX):
        w = lat.omega_complex()
        for _ in range(300):
            x = Q(rng.randint(-40, 40), rng.randint(-8, 8), rng.randint(1, 20), 2)
            y = Q(rng.randint(-40, 40), rng.randint(-8, 8), rng.randint(1, 20), 2)
            raw = x.to_float() + y.to_float() * w
            red = embed(reduce_to_fundamental((x, y)), lat)
            assert nearest_lattice_distance(red - raw, lat) < 1e-9


def test_embed_examples():
    z = embed(point(Fraction(1, 2), Fraction(1, 2)), SQUARE)
    assert abs(z - (0.5 + 0.5j)) < 1e-15
    z = embed(point(0, Fraction(1, 3)), SQUARE)
    assert abs(z - (1 / 3) * 1j) < 1e-15
    z = embed(point(Fraction(1, 3), Fraction(1, 3)), HEX)
    assert abs(z - (0.5 + 0.28867513459481287j)) < 1e-12


def test_half_lattice_q_at_origin():
    pts = half_lattice_q(SQUARE)
    got = {(as_fraction(p.x), as_fraction(p.y)) for p in pts}
    assert got == {
        (Fraction(0), Fraction(0)),
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
    }


def test_half_lattice_q_translated():
    pts = half_lattice_q(SQUARE, point(Fraction(1, 4), 0))
    got = {(as_fraction(p.x), as_fraction(p.y)) for p in pts}
    assert got == {
        (Fraction(1, 4), Fraction(0)),
        (Fraction(3, 4), Fraction(0)),
        (Fraction(1, 4), Fraction(1, 2)),
        (Fraction(3, 4), Fraction(1, 2)),
    }


def test_half_lattice_q_symmetry():
    rng = random.Random(17)
    for _ in range(50):
        z0 = point(Fraction(rng.randint(0, 9), 10), Fraction(rng.randint(0, 9), 10))
        pts = set(half_lattice_q(SQUARE, z0))
        shifted = {
            reduce_to_fundamental((p.x + Fraction(1, 2), p.y + Fraction(1, 2))) for p in pts
        }
        assert shifted == pts


def test_q_closed_under_doubling():
    rng = random.Random(19)
    for _ in range(50):
        z0 = point(Fraction(rng.randint(0, 7), 8), Fraction(rng.randint(0, 7), 8))
        pts = half_lattice_q(SQUARE, z0)
        doubled_z0 = reduce_to_fundamental((z0.x * 2, z0.y * 2))
        for q in pts:
            dbl = reduce_to_fundamental((q.x * 2, q.y * 2))
            assert dbl == doubled_z0


def test_torus_point_rejects_unreduced():
    with pytest.raises(ValueError):
        TorusPoint(qn(Fraction(3, 2)), qn(0))
    with pytest.raises(ValueError):
        TorusPoint(qn(Fraction(-1, 2)), qn(0))


# ---------------------------------------------------------------------------
# records: the package's value classes
# ---------------------------------------------------------------------------


def _records():
    """Two equal records, built apart, of each class that is compared."""
    sqrt2 = parse_number("sqrt(2)")
    line = TorusLine(IrrationalSlope(sqrt2), qn(Fraction(1, 3)), qn(0))
    pairs = [
        lambda: point(Fraction(1, 3), Fraction(1, 5)),
        lambda: RationalDirection(2, 1),
        lambda: IrrationalSlope(sqrt2),
        lambda: TorusLine(IrrationalSlope(sqrt2), qn(Fraction(1, 3)), qn(0)),
        lambda: TorusSegment(line, qn(0), qn(Fraction(1, 10))),
        lambda: JordanCurve(RationalDirection(1, 0)),
        lambda: WanderingLine("alpha"),
        lambda: IntegerDerivative(2),
        lambda: CollisionCertificate(0, 2, 1, (0.25, 0.5), True, 3.5, 8),
        lambda: NoCollisionWithinBudget(8, 4),
        lambda: Unpaired(4),
        lambda: SelfPaired(4),
        lambda: Paired(2),
    ]
    return [(make(), make()) for make in pairs]


def test_equal_records_compare_and_hash_equal():
    for a, b in _records():
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) and len({a, b}) == 1


def test_records_of_two_classes_with_equal_fields_are_unequal():
    assert Unpaired(4) != SelfPaired(4) and SelfPaired(4) != Unpaired(4)
    assert IntegerDerivative(4) != Unpaired(4)
    assert WanderingLine("alpha") != "alpha"
    assert point(Fraction(1, 3), 0) != (qn(Fraction(1, 3)), qn(0))
    records = [a for a, _ in _records()]
    for i, a in enumerate(records):
        assert [j for j, b in enumerate(records) if a == b] == [i]


def test_records_with_a_field_apart_are_unequal():
    assert Unpaired(4) != Unpaired(6)
    assert NoCollisionWithinBudget(8, 4) != NoCollisionWithinBudget(8, 1)
    assert point(Fraction(1, 3), 0) != point(0, Fraction(1, 3))


def test_the_cached_records_cannot_be_assigned():
    # one process caches each covering and each Lattes model by its option text
    tm = torus_map_new(parse_complex("2"), parse_complex("0"), SQUARE)
    model = lattes_model_new(SQUARE, tm, 2, point(0, 0))
    with pytest.raises(AttributeError):
        tm.b = point(Fraction(1, 2), 0)
    with pytest.raises(AttributeError):
        model.nu = 4
    assert (tm.b, model.nu) == (point(0, 0), 2)
    assert model.group[:3] == (2, point(0, 0), (-1, 0, 0, -1))  # a cached property still caches
