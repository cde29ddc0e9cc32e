"""Independent verdict checks, run after the timed loop.

Each check rebuilds the case's inputs from its structured parameters through
flatwander's public API, not from the CLI's parsing, and re-derives what the
payload claims.  A check returns None when the payload holds, else a reason.
"""

from __future__ import annotations

from fractions import Fraction

from flatwander.lattes import lattes_model_new, verify_sphere_disjoint_iterates
from flatwander.lattice import Lattice, point
from flatwander.line_orbit import TorusLine, line_from_point, slope_spec
from flatwander.numbers import parse_complex, parse_number, qn
from flatwander.segments import (
    CollisionCertificate,
    default_collision_budget,
    reverify_collision,
    segment_new,
)
from flatwander.torus_map import torus_map_new


def _map(a: str, omega: str):
    lat = Lattice(parse_complex(omega))
    return torus_map_new(parse_complex(a), parse_complex("0"), lat)


def _irrational_line(p: dict) -> TorusLine:
    return TorusLine(
        slope_spec(parse_number(p["slope"])),
        parse_number(p["alpha"]).mod1(),
        parse_number(p["beta"]).mod1(),
    )


def _segment(text: str):
    """The documented 'x,y,h|v|s:<slope>,len' syntax; an irrational-slope
    segment starts at the anchor's canonical parameter."""
    xs, ys, mode, ls = text.split(",")
    x, y, length = parse_number(xs), parse_number(ys), parse_number(ls)
    if mode == "h":
        spec = slope_spec((1, 0))
    elif mode == "v":
        spec = slope_spec((0, 1))
    else:
        spec = slope_spec(parse_number(mode[2:]))
    line = line_from_point(spec, (x, y))
    t0 = x - line.beta if line.is_irrational else qn(0)
    return segment_new(line, t0, t0 + length)


def _certified_interval(payload: dict, p: dict):
    """The certified [lo, hi]: must re-parse to the same text and lie inside
    the requested [t0, t1]."""
    iv = payload["interval"]
    lo, hi = parse_number(iv["lo"]), parse_number(iv["hi"])
    if lo.to_expr() != iv["lo"] or hi.to_expr() != iv["hi"]:
        return None, "interval does not re-parse exactly"
    t0, t1 = parse_number(p["t0"]), parse_number(p["t1"])
    if (lo - t0).sign() < 0 or (hi - lo).sign() <= 0 or (t1 - hi).sign() < 0:
        return None, "interval not inside [t0, t1]"
    return (lo, hi), None


def _check_wandering(payload: dict, p: dict, level: str) -> str | None:
    if payload.get("verdict") != "wandering" or payload.get("level") != level:
        return f"expected a {level} wandering certificate"
    want = "whole-segment" if p["wandering"] else "subsegment"
    if payload["mode"] != want:
        return f"expected mode {want}"
    if want == "subsegment" and (parse_number(payload["slack"]) - 1).sign() <= 0:
        return "slack not above 1"
    return None


def check_certify_segment(payload: dict, p: dict) -> str | None:
    reason = _check_wandering(payload, p, "torus")
    if reason:
        return reason
    if payload.get("oracle_pairwise_disjoint") is not True:
        return "oracle found intersecting iterates"
    return _certified_interval(payload, p)[1]


def check_certify_sphere(payload: dict, p: dict) -> str | None:
    reason = _check_wandering(payload, p, "sphere")
    if reason:
        return reason
    iv, reason = _certified_interval(payload, p)
    if reason:
        return reason
    tm = _map(p["a"], p["omega"])
    model = lattes_model_new(tm.lattice, tm, 2, point(0, 0))
    sub = segment_new(_irrational_line(p), *iv)
    ok, pair = verify_sphere_disjoint_iterates(model, sub, payload["checked_iterates"])
    return None if ok else f"sphere iterates {pair} intersect"


def check_collide(payload: dict, p: dict) -> str | None:
    if payload.get("verdict") != "collision":
        return "expected a collision"
    tm = _map(p["a"], p["omega"])
    seg = _segment(p["seg"])
    nu = p["nu"]
    budget = default_collision_budget(tm, seg, nu=nu)
    n, m, k = payload["n"], payload["m"], payload["k"]
    if not (0 <= n < m <= budget and 0 <= k < (nu or 1)):
        return f"indices (n={n}, m={m}, k={k}) outside the forcing budget {budget}"
    cert = CollisionCertificate(
        n, m, k, tuple(payload["witness"]), payload["exact"],
        payload["bound_used"], payload["budget"],
    )
    group = None if nu is None else (nu, point(0, 0))
    if not reverify_collision(tm, seg, cert, group=group):
        return "collision does not re-verify"
    return None


def check_collide_miss(payload: dict, p: dict) -> str | None:
    # the workload's line invariants are irrational, so no collision exists
    if Fraction(p["invariant_sqrt_coeff"]) == 0:
        return "line invariant is rational; a miss is not guaranteed"
    if payload.get("verdict") != "no-collision-within-budget":
        return "expected no-collision-within-budget"
    if payload["budget"] != p["budget"] or payload["group_order"] != 1:
        return "budget or group order differs from the request"
    return None


def check_semiconj(payload: dict, p: dict) -> str | None:
    if payload.get("passed") is not True:
        return "not passed"
    if not payload["max_residual"] < payload["tolerance"]:
        return "max residual not below tolerance"
    if payload["fitted_degree"] != _map(p["a"], p["omega"]).degree:
        return "fitted degree differs from the covering degree"
    return None


CHECKS = {
    "certify-segment": check_certify_segment,
    "certify-sphere": check_certify_sphere,
    "verify-semiconjugacy": check_semiconj,
}


def check(workload: str, command: str, payload: dict, params: dict) -> str | None:
    if command == "find-collision":
        fn = check_collide_miss if workload == "collide-miss" else check_collide
    else:
        fn = CHECKS[command]
    return fn(payload, params)
