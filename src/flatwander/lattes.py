"""The orbifold layer: quotient group, grid avoidance, sphere-level wandering
certificates, numerical Weierstrass elliptic functions and semiconjugacy
verification.

wp and wp' have one evaluator: the csc^2 series at the lattice's reduced basis
(v1, tau'), over numpy arrays.  numpy is imported by the first evaluation, not
by importing this module or building a ``WeierstrassContext``; and the CLI
imports this module (with ``cmath`` and ``random``) only in the commands that
use it: ``certify-sphere``, ``verify-semiconjugacy`` and ``find-collision --nu``.

The quotient by the order-2 involution rho(z) = 2*z0 - z identifies a line
with its point reflection; in canonical line parameters rho acts as t -> -t,
so sphere-level disjointness stays a family of exact one-dimensional interval
conditions plus exact transverse comparisons.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import cached_property

from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NearPole,
    NotLattesCompatible,
    ResidualExceedsTol,
    UsageError,
)
from .lattice import ORIGIN, Lattice, Record, TorusPoint, embed, reduce_to_fundamental
from .line_orbit import EventuallyPeriodic, classify_line
from .numbers import HALF, ComplexPair, QuadraticNumber
from .segments import (
    CollisionCertificate,
    NoCollisionWithinBudget,
    NotWanderable,
    TorusSegment,
    WanderingCertificate,
    _rotations,
    certify_classified,
    check_request,
    find_collision,
    segment_new,
    verify_disjoint_iterates,
)
from .torus_map import AffineTorusMap, kernel, rotation_matrix

_SIGNATURES = {2: (2, 2, 2, 2), 3: (3, 3, 3), 4: (2, 4, 4), 6: (2, 3, 6)}


class LattesModel:
    """A covering descending through the order-``nu`` quotient about z0, with
    ``shift`` b' = A(z0) - z0 mod Z^2: in w = z - z0 the covering is
    w -> a*w + b'.  One process caches it, so assigning a field raises."""

    def __init__(self, lattice: Lattice, map: AffineTorusMap, nu: int, z0: TorusPoint,
                 signature: tuple[int, ...], rotation: tuple[int, int, int, int],
                 shift: TorusPoint):
        self.__dict__.update(lattice=lattice, map=map, nu=nu, z0=z0, signature=signature,
                             rotation=rotation, shift=shift)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: a LattesModel is immutable")

    @property
    def flexible(self) -> bool:
        return self.nu == 2 and self.map.has_integer_multiplier

    @cached_property
    def group(self) -> tuple:  # find_collision's, with R's rotations solved once
        return (self.nu, self.z0, self.rotation, _rotations(self.rotation, self.nu, self.z0))

    @cached_property
    def rho_origin(self) -> tuple[QuadraticNumber, QuadraticNumber]:
        """rho(0) = 2*z0 as a transverse pair, (-2*z0_y, 2*z0_x)."""
        return (self.z0.y * -2, self.z0.x * 2)


def lattes_model_new(
    lat: Lattice, tm: AffineTorusMap, nu: int, z0: TorusPoint
) -> LattesModel:
    """Validate that the covering descends through the order-``nu`` quotient.

    The descent condition is (I - R)(A(z0) - z0) = 0 mod Z^2 where R is the
    rotation matrix.  For nu = 2 it also makes the four-point grid
    z0 + (1/2)Z^2 forward invariant, with no check of its own: R = -I, so
    the condition says 2(A(z0) - z0) is in Z^2, that is A(z0) - z0 is in
    (1/2)Z^2; and A(z0 + h) = z0 + (A(z0) - z0) + M h, where M is an
    integer matrix, so M maps (1/2)Z^2 into itself.
    """
    if nu not in _SIGNATURES:
        raise NotLattesCompatible(f"group order must be one of 2, 3, 4, 6, got {nu}")
    if not (z0.x.is_rational and z0.y.is_rational):
        raise NotLattesCompatible("rotation center must be rational")
    rot = rotation_matrix(lat, nu)
    p, q, r, s = tm.m
    rp, rq, rr, rs = rot
    # multiplication operators commute; guards against matrix bookkeeping bugs
    if not (
        p * rp + r * rq == rp * p + rr * q
        and p * rr + r * rs == rp * r + rr * s
        and q * rp + s * rq == rq * p + rs * q
        and q * rr + s * rs == rq * r + rs * s
    ):
        raise InternalInconsistency("the covering does not commute with the rotation")
    bx, by = tm.b.x, tm.b.y
    shift = reduce_to_fundamental((z0.x * (p - 1) + z0.y * r + bx, z0.x * q + z0.y * (s - 1) + by))
    # (I - R)(shift) on numerators over one den; I - R is invertible over Q,
    # so an irrational shift never descends
    den = math.lcm(shift.x.w, shift.y.w)
    sx, sy = (c.u * (den // c.w) for c in shift.coords())
    if not (shift.x.is_rational and shift.y.is_rational
            and ((1 - rp) * sx - rr * sy) % den == 0 == ((1 - rs) * sy - rq * sx) % den):
        raise NotLattesCompatible(
            f"A(z0) - z0 = {shift.to_expr()} is not (I - R)-annihilated mod Z^2"
        )
    return LattesModel(lat, tm, nu, z0, _SIGNATURES[nu], rot, shift)


# ---------------------------------------------------------------------------
# rho on integer states, and the rho-pairing of periodic cycles
# ---------------------------------------------------------------------------


def rho_numerators(model: LattesModel, orbit: EventuallyPeriodic):
    """rho on the integer states over N of an orbit, ``Numerators.reflection``
    of rho(0) = to_state(2*z0): u_i -> r_i - u_i mod N, v_i -> -v_i.  When
    rho(0) is off the 1/N grid, no state reflects into the orbit, and every
    image is None."""
    return orbit.num.reflection(model.rho_origin)


class Unpaired(Record):
    __slots__ = _fields = ("period",)

    def __init__(self, period: int):
        self.period = period


class Paired(Record):
    """rho shifts the cycle by half its period: line j is paired with line
    j + half_period, and the sphere-level period is halved."""

    __slots__ = _fields = ("half_period",)

    def __init__(self, half_period: int):
        self.half_period = half_period


class SelfPaired(Record):
    """rho fixes every line of the cycle individually (the cycle runs through
    the grid); images fold but stay pairwise distinct."""

    __slots__ = _fields = ("period",)

    def __init__(self, period: int):
        self.period = period


RhoPairing = Unpaired | Paired | SelfPaired


def rho_pairing(model: LattesModel, orbit: EventuallyPeriodic) -> RhoPairing:
    """Test whether rho maps an orbit's cycle to itself, at one state.

    rho commutes with the covering: descent puts 2(A(z0) - z0), which is
    A(rho(z)) - rho(A(z)), in Z^2.  On states, rho(s) = r - s and s -> a*s + c, so
    this is (a - 1)*r + 2c = 0 mod 1, checked exactly once per orbit.  Then
    rho(s_n0) = s_(n0+c) gives rho(s_(n0+j)) = s_(n0+c+j) for every j, and
    rho^2 = id gives 2c = 0 mod p: c = p/2 pairs lines two by two and halves
    the sphere-level period; c = 0 means every line is self-symmetric; and
    rho(s_n0) off s_n0 and s_(n0+p/2) leaves the cycle unpaired.
    """
    if model.nu != 2:
        raise ValueError("rho-pairing applies to the order-2 quotient")
    a, den = orbit.a, orbit.num.den
    # rho(0) is rational, u/w per coordinate, and c is over den
    if any(((a - 1) * r.u * den + 2 * c * r.w) % (r.w * den)
           for r, c in zip(model.rho_origin, orbit.conj[2][::2])):
        raise InternalInconsistency("rho does not commute with the covering on the orbit's states")
    n0, p = orbit.preperiod, orbit.period
    start = orbit.state_ints(n0)
    image = rho_numerators(model, orbit)(start)
    if image == start:
        return SelfPaired(p)
    if p % 2 == 0 and image == orbit.state_ints(n0 + p // 2):
        return Paired(p // 2)
    return Unpaired(p)


# ---------------------------------------------------------------------------
# Sphere-level certification
# ---------------------------------------------------------------------------


class NotFlexible:
    __slots__ = ("reason", "witness")

    def __init__(self, reason: str,
                 witness: CollisionCertificate | NoCollisionWithinBudget | None = None):
        self.reason, self.witness = reason, witness


def verify_sphere_disjoint_iterates(
    model: LattesModel, seg: TorusSegment, k: int
) -> tuple[bool, tuple[int, int] | None]:
    """Brute-force oracle at the quotient level: Theta images of iterates
    0..k are pairwise disjoint iff the segments and their rho reflections
    (st -> rho(0) - st on states, t -> -t) are."""
    return verify_disjoint_iterates(model.map, seg, k, model.rho_origin)


def certify_sphere_wandering(
    model: LattesModel, seg: TorusSegment, check_iterates: int = 12
) -> WanderingCertificate | NotWanderable | NotFlexible:
    """Decide whether the quotient image of the segment wanders.

    Non-flexible models refuse with a collision witness (group mode for
    nu > 2, plain mode for a non-real multiplier).  Flexible models run the
    torus certifier with rho and the sphere's return map: -a^{p/2} when rho
    pairs the cycle, a^p with both sides of the fixed point avoided when it
    fixes every line of it, a^p otherwise.  The brute-force oracle then
    replays the certified segment on the quotient, to ``check_iterates``
    iterates, or at most 6 for a whole segment; the certificate's
    ``checked_iterates`` is the count it replayed.
    """
    tm = model.map
    if not model.flexible:
        if model.nu > 2:
            witness = find_collision(tm, seg, model.group)
            reason = f"group-order-{model.nu}-orbifold"
        else:
            witness = find_collision(tm, seg)
            reason = "non-integer-multiplier"
        return NotFlexible(reason, witness)

    verdict = classify_line(tm, seg.line)
    returns = None
    if isinstance(verdict, EventuallyPeriodic):
        # the ratio is |a|^p, or |a|^(p/2) if rho pairs it under a < 0 with p/2 odd, or
        # |a|^(2p) if not under a < 0 with p odd: refused before rho is tested
        a, p = tm.multiplier_int(), verdict.period
        check_request(check_iterates, a, p // 2 if a < 0 and p % 4 == 2 else p, a > 0 or p % 4 == 0)
        shift = {Paired: p // 2, SelfPaired: 0}.get(type(rho_pairing(model, verdict)))
        returns = (p // 2, -1, False, shift) if shift else (p, 1, shift == 0, shift)
    cert = certify_classified(tm, seg, verdict, check_iterates, model.rho_origin, returns)
    if isinstance(cert, NotWanderable):
        return cert
    k = min(check_iterates, 6) if cert.mode == "whole-segment" else check_iterates
    ok, pair = verify_sphere_disjoint_iterates(model, segment_new(seg.line, *cert.interval), k)
    if not ok:
        raise InternalInconsistency(f"sphere iterates {pair} intersect")
    cert.checked_iterates = k
    return cert


# ---------------------------------------------------------------------------
# Weierstrass invariants and the elliptic function
# ---------------------------------------------------------------------------


def _reduced_basis(lat: Lattice) -> tuple[complex, complex, complex]:
    """(v1, v2, tau' = v2/v1) as floats, from the basis (1, omega)
    Gauss-reduced exactly with its orientation kept: |v1| <= |v2| and
    2|Re(v2 conj v1)| <= |v1|^2, so v1 is a shortest vector and tau' lies in
    the fundamental domain.  A reduced basis is kept as it is (the swap is
    strict, so hex, where |omega| = 1 only exactly, keeps omega)."""
    v1, v2 = ComplexPair.make(1), lat.omega
    while True:
        if v2.abs2() < v1.abs2():
            v1, v2 = v2, v1.neg()
        n1 = v1.abs2()
        dot = v2.re * v1.re + v2.im * v1.im
        if abs(dot) * 2 <= n1:
            break
        k = (dot / n1 + HALF).floor()
        v2 = ComplexPair(v2.re - v1.re * k, v2.im - v1.im * k)
    tau = ComplexPair(dot / n1, (v2.im * v1.re - v2.re * v1.im) / n1)
    return v1.to_complex(), v2.to_complex(), tau.to_complex()


def _eisenstein(tau: complex) -> tuple[complex, complex, complex]:
    """E2, E4, E6 at tau from the Lambert series sum n^k q^n / (1 - q^n).
    In the fundamental domain |q| <= exp(-pi sqrt 3) < 0.0044, so the terms
    past n = 12 add less than 1e-25 to each sum (at k = 5 the first is
    13^5 * 0.0044^13 < 1e-25 and each next one is 100 times smaller)."""
    q = cmath.exp(2j * cmath.pi * tau)
    s1 = s3 = s5 = 0j
    qn = 1
    for n in range(1, 13):
        qn *= q
        lam = qn / (1 - qn)
        s1 += n * lam
        s3 += n**3 * lam
        s5 += n**5 * lam
    return 1 - 24 * s1, 1 + 240 * s3, 1 - 504 * s5


class WeierstrassContext:
    """wp and wp' of one lattice from its reduced basis (v1, v2), computed
    once.  The lattice is v1*(Z + tau'*Z), so wp(z) = v1^-2 wp(z/v1; 1, tau')
    and g2 = v1^-4 g2(tau'), g3 = v1^-6 g3(tau') by weight (DLMF §23)."""

    def __init__(self, lat: Lattice):
        self.v1, self.v2, self.tau = _reduced_basis(lat)
        self.r_min = abs(self.v1)
        self.nine = tuple(i * self.v1 + j * self.v2 for i in (-1, 0, 1) for j in (-1, 0, 1))
        self.e2, e4, e6 = _eisenstein(self.tau)
        self.g2 = (2 * math.pi) ** 4 / 12 * e4 * self.v1**-4
        self.g3 = (2 * math.pi) ** 6 / 216 * e6 * self.v1**-6
        # q^0 .. q^(M-1) for the rows |m| <= M of wp_pair, M <= 12: the rows
        # dropped past M sum to at most 9 |q|^M < 1e-20 (see wp_pair)
        q = cmath.exp(2j * cmath.pi * self.tau)
        powers = [1 + 0j]
        while len(powers) < 12 and 9 * abs(q) ** len(powers) >= 1e-20:
            powers.append(powers[-1] * q)
        self.q_powers = tuple(powers)

    @cached_property
    def _arrays(self):
        """``nine`` and ``q_powers`` as arrays, built at the first evaluation."""
        import numpy as np

        return np.array(self.nine), np.array(self.q_powers)

    def _reduce(self, z):
        """z minus its nearest lattice point, for a complex number or an
        array: in a reduced basis that point is among the nine around the
        rounded coordinates of z, so z minus the rounded point is moved by
        the one of ``nine`` (0, v1, v2 and their sums and differences, both
        signs) that leaves it shortest."""
        import numpy as np

        z = np.asarray(z, dtype=complex)
        u = z / self.v1
        y = u.imag / self.tau.imag
        n, m = np.round(u.real - y * self.tau.real), np.round(y)
        cands = (z - (n * self.v1 + m * self.v2))[..., None] - self._arrays[0]
        best = (cands.real**2 + cands.imag**2).argmin(-1)
        return cands.reshape(-1)[best + np.arange(0, cands.size, 9).reshape(best.shape)]

    def wp_pair(self, z):
        """(wp(z), wp'(z)) for a complex number, or two arrays for an array.

        With u = z/v1 reduced to the cell of 0 (DLMF §23.8),
            wp  = (pi/v1)^2 [sum_m csc^2(pi(u + m tau')) - E2(tau')/3],
            wp' = -2 pi^3/v1^3 sum_m csc^2 cot,
        where, for t = u + m tau', csc^2 = -4w d^2 and
        csc^2 cot = 4is w(w+1) d^3 with w = exp(2 pi i s t), d = 1/(1 - w),
        and the sign s taken so that |w| <= 1: nothing overflows however
        thin the lattice.  With q = exp(2 pi i tau') the rows factor as
            m >= 1:   s = 1,  w = exp(2 pi i (u + tau')) q^(m-1),
            m <= -1:  s = -1, w = exp(-2 pi i (u - tau')) q^(|m|-1),
        and row 0 takes s = sign(Im u), so a point costs three exponentials.
        Each factor has modulus <= 1: u in the cell of 0 has
        |Im u| <= Im tau', and |q| <= exp(-pi sqrt 3) < 0.0044 in the
        fundamental domain.  A row past |m| = M has |w| <= |q|^M, so the rows
        dropped past M add at most 9 |q|^M to either sum; the context keeps
        q^0 .. q^(M-1) for the least M <= 12 that puts this below 1e-20."""
        import numpy as np

        zr = self._reduce(z)
        near = np.abs(zr) < 1e-6 * self.r_min
        if near.any():
            raise NearPole(f"z within 1e-6 r_min of a lattice point: {np.asarray(z)[near][0]}")
        u = zr / self.v1
        s0 = np.where(u.imag < 0, -1, 1)
        qm = self._arrays[1]
        rows = len(qm)
        # one row per m along the last axis: 0, then 1 .. M, then -1 .. -M
        w = np.empty((*u.shape, 2 * rows + 1), dtype=complex)
        w[..., 0] = np.exp(2j * np.pi * s0 * u)
        np.multiply(np.exp(2j * np.pi * (u + self.tau))[..., None], qm, out=w[..., 1 : rows + 1])
        np.multiply(np.exp(-2j * np.pi * (u - self.tau))[..., None], qm, out=w[..., rows + 1 :])
        d = 1 - w
        np.divide(1, d, out=d)
        csc2 = w * d
        csc2 *= d
        cot = csc2 * (w + 1)
        cot *= d
        cot_sum = s0 * cot[..., 0] + cot[..., 1 : rows + 1].sum(-1) - cot[..., rows + 1 :].sum(-1)
        x = (np.pi / self.v1) ** 2 * (-4 * csc2.sum(-1) - self.e2 / 3)
        y = -2 * (np.pi / self.v1) ** 3 * 4j * cot_sum
        ax, ay = np.abs(x), np.abs(y)
        res = np.abs(y * y - (4 * x * x * x - self.g2 * x - self.g3))
        scale = np.maximum(1.0, np.maximum(ax * ax * ax, ay * ay))
        bad = ~(res <= 1e-6 * scale)
        if bad.any():
            raise ResidualExceedsTol(
                f"differential-equation residual {np.max(res):.3e} at "
                f"z={np.asarray(z)[bad][0]}"
            )
        if np.ndim(z) == 0:
            return complex(x), complex(y)
        return x, y


_WP_CACHE: dict[ComplexPair, WeierstrassContext] = {}


def weierstrass_context(lat: Lattice) -> WeierstrassContext:
    if lat.omega not in _WP_CACHE:
        _WP_CACHE[lat.omega] = WeierstrassContext(lat)
    return _WP_CACHE[lat.omega]


# ---------------------------------------------------------------------------
# Semiconjugacy verification
# ---------------------------------------------------------------------------


MAX_SAMPLES = 100_000  # so the sampling stream holds about 4 * MAX_SAMPLES floats
MAX_KERNEL_SAMPLES = 5_000_000  # R's kernel sums keep 31 to 37 bytes a point a sample
_STREAM = [random.Random(20240801).random, ()]  # its generator, the prefix drawn


def _stream(stop: int):
    """The first ``stop`` values 0.02 + 0.96 * random() of one fixed
    random.Random stream, from a prefix that grows to the longest asked."""
    import numpy as np

    draw, r = _STREAM
    if len(r) < stop:
        more = np.array([draw() for _ in range(stop - len(r))])
        _STREAM[1] = r = np.concatenate([r, 0.02 + (0.98 - 0.02) * more])
    return r[:stop]


def _sample_points(model: LattesModel, shift: complex, count: int):
    """Deterministic sample points w in the fundamental cell, kept 0.08 r_min
    away from the poles and half-lattice points of both w and its image
    a*w + shift.  Candidates come in one random order and are filtered a batch
    at a time, so the points kept do not depend on the batch size.

    The half-lattice (1/2)L is L and its three cosets by the half-periods, so
    dist(p, (1/2)L) = dist(2p, L)/2: a point is clear when its double lies
    0.16 r_min from L, one nearest-point reduction.  A candidate is
    x + y*omega with x, y the next two values of the constant ``_stream``."""
    import numpy as np

    w, ac = model.lattice.omega_complex(), model.map.a.to_complex()
    ctx = weierstrass_context(model.lattice)

    chunks, found, attempts = [], 0, 0
    while found < count and attempts < 100 * count:
        k = min(2 * (count - found), 100 * count - attempts)
        r = _stream(2 * (attempts + k))[2 * attempts :]
        attempts += k
        z = r[0::2] + r[1::2] * w
        clear = np.abs(ctx._reduce(2 * np.concatenate([z, ac * z + shift]))) >= 0.16 * ctx.r_min
        z = z[clear[:k] & clear[k:]]
        chunks.append(z)
        found += len(z)
    if found < count:
        raise BudgetExceeded("sampling failed to avoid the half-lattice")
    return np.concatenate(chunks)[:count]


def quotient_probes(model: LattesModel) -> list[complex]:
    """The points whose wp values ``quotient_map`` takes: the kernel points
    P != 0 of K = a^-1 L / L, then b' when it is not 0."""
    w, tm = model.lattice.omega_complex(), model.map
    probes = [(n1 + n2 * w) / tm.degree for n1, n2 in kernel(tm)[1:]]
    shift = [embed(model.shift, model.lattice)] if model.shift != ORIGIN else []
    return probes + shift


def quotient_map(model: LattesModel, wp_probes):
    """The Lattes map R with wp(a*w + b') = R(wp(w)), w = z - z0, as a
    function on numpy arrays, in closed form on the kernel K = a^-1 L / L,
    from ``wp_probes``, wp at ``quotient_probes(model)``.

    With S(x, p) = ((x + p)(2xp - g2/2) - g3)/(x - p)^2, which is
    wp(w + P) + wp(w - P) for x = wp(w), p = wp(P) (DLMF §23.10),
        R_a(x) = a^-2 [x + sum_{P in K, P != 0} (S(x, wp(P))/2 - wp(P))],
    each P taken with weight 1/2 so that -P completes its pair, and
    R(x) = S(R_a(x), wp(b'))/2 when b' is not 0: descent makes b' a
    half-period, so wp(u + b') = wp(u - b').  deg R = |K| = |a|^2.
    """
    import numpy as np

    tm, ctx = model.map, weierstrass_context(model.lattice)
    p, e = np.split(wp_probes, [tm.degree - 1])
    a2 = tm.a.to_complex() ** 2

    def pair_sum(x, p):
        return ((x + p) * (2 * x * p - ctx.g2 / 2) - ctx.g3) / (x - p) ** 2

    def R(x):
        r = (x + (pair_sum(x[..., None], p) / 2 - p).sum(-1)) / a2
        return pair_sum(r, e[0]) / 2 if len(e) else r

    return R


def verify_semiconjugacy(model: LattesModel, samples: int = 500, tol: float = 1e-6) -> dict:
    """Numerically verify that the covering descends through wp: the residual
    |R(wp(w)) - wp(a*w + b')| of the closed-form ``quotient_map`` at sample
    points w = z - z0.  Returns a report dict with the max residual, the
    degree of R and the sample rows (z = z0 + w, wp(w), residual).
    """
    import numpy as np

    if model.nu != 2:
        raise ValueError("semiconjugacy verification targets the order-2 quotient")
    if samples < 1:
        raise UsageError(f"samples must be >= 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise UsageError(f"samples must be <= {MAX_SAMPLES}, got {samples}")
    if model.map.degree * samples > MAX_KERNEL_SAMPLES:
        raise BudgetExceeded(f"degree times samples exceeds {MAX_KERNEL_SAMPLES}")
    lat = model.lattice
    ac, bc = model.map.a.to_complex(), embed(model.shift, lat)
    pts = _sample_points(model, bc, samples)
    probes = quotient_probes(model)
    with np.errstate(all="ignore"):
        # one evaluation: the probes of R, then the points and their images
        wp = weierstrass_context(lat).wp_pair(np.concatenate([probes, pts, ac * pts + bc]))[0]
        P, X, Y = np.split(wp, [len(probes), len(probes) + samples])
        resid = np.abs(quotient_map(model, P)(X) - Y)
    bad = ~np.isfinite(resid)
    if bad.any():
        raise ResidualExceedsTol(f"non-finite residual {resid[bad][0]} at w={pts[bad][0]}")
    max_residual = float(np.max(resid))
    if not max_residual < tol:
        raise ResidualExceedsTol(f"max residual {max_residual:.3e} exceeds tol {tol:.1e}")
    z = pts + embed(model.z0, lat)
    return {
        "max_residual": max_residual,
        "fitted_degree": model.map.degree,
        "tolerance": tol,
        "passed": True,
        "coef_rel_error": None,
        "rows": np.column_stack((z.real, z.imag, X.real, X.imag, resid)),
    }
