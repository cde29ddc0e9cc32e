"""Command-line front end: JSON verdicts, certificate archival and SVG plots.

Exit codes: 0 definite verdict (including not-wanderable and
no-collision-within-budget), 2 input errors, 3 budget or tolerance failures,
4 internal inconsistency (a certificate's own cross-check failed: a bug).
Identical inputs produce byte-identical JSON and SVG.
"""

from __future__ import annotations

import argparse
import colorsys
import functools
import json
import math
import sys

from .errors import (
    BudgetExceeded,
    FlatwanderError,
    InternalInconsistency,
    IoError,
    ResidualExceedsTol,
    UsageError,
)
from .lattice import Lattice, TorusPoint, reduce_to_fundamental
from .lattes import (
    NotFlexible,
    certify_sphere_wandering,
    lattes_model_new,
    verify_semiconjugacy,
)
from .line_orbit import (
    IrrationalSlope,
    JordanCurve,
    RationalDirection,
    TorusLine,
    WanderingLine,
    classify_line,
    line_from_point,
    slope_spec,
)
from .numbers import parse_complex, parse_number, qn
from .segments import (
    CollisionCertificate,
    LiftSegment,
    NoCollisionWithinBudget,
    NotWanderable,
    TorusSegment,
    WanderingCertificate,
    certify_wandering,
    find_collision,
    iterate_lifts,
    segment_new,
    verify_disjoint_iterates,
)
from .torus_map import (
    AffineTorusMap,
    IntegerDerivative,
    classify_multiplier,
    torus_map_new,
)

_BUDGET_ERRORS = (BudgetExceeded, ResidualExceedsTol)
_MAX_PLOT_SEGMENTS = 10_000


def _emit(payload: dict, out_path: str | None = None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, separators=(",", ": "), allow_nan=False)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise IoError(str(exc)) from exc
    print(text)


def _float_or_none(x) -> float | None:
    """None beyond double range, where the exact string alone carries x."""
    try:
        return x.to_float()
    except OverflowError:
        return None


def _interval_json(iv) -> dict:
    lo, hi = iv
    return {
        "lo": lo.to_expr(),
        "hi": hi.to_expr(),
        "lo_float": lo.to_float(),
        "hi_float": hi.to_float(),
    }


def _line_json(line: TorusLine) -> dict:
    if line.is_irrational:
        return {
            "slope": line.slope.s.to_expr(),
            "alpha": line.alpha.to_expr(),
            "beta": line.beta.to_expr(),
        }
    return {
        "direction": [line.slope.m, line.slope.k],
        "invariant": line.alpha.to_expr(),
    }


def _verdict_json(v) -> dict:
    if isinstance(v, WanderingCertificate):
        return {
            "verdict": "wandering",
            "mode": v.mode,
            "level": v.level,
            "interval": _interval_json(v.interval),
            "preperiod": v.preperiod,
            "period": v.period,
            "return_map": {
                "multiplier": v.multiplier,
                # the canonical parameter puts the return map's fixed point at t = 0
                "offset": "0",
                "fixed_point": "0",
            },
            "checked_iterates": v.checked_iterates,
            "slack": None if v.slack is None else v.slack.to_expr(),
            "slack_float": None if v.slack is None else _float_or_none(v.slack),
            "line": _line_json(v.line),
        }
    if isinstance(v, NotWanderable):
        return {"verdict": "not-wanderable", "reason": v.reason}
    if isinstance(v, NotFlexible):
        out = {"verdict": "not-flexible", "reason": v.reason}
        if v.witness is not None:
            out["witness"] = _verdict_json(v.witness)
        return out
    if isinstance(v, CollisionCertificate):
        return {
            "verdict": "collision",
            "n": v.n,
            "m": v.m,
            "k": v.k,
            "witness": [v.witness[0], v.witness[1]],
            "exact": v.exact,
            # integer multipliers force no bound (inf), which strict JSON lacks
            "bound_used": v.bound_used if math.isfinite(v.bound_used) else None,
            "budget": v.budget,
        }
    if isinstance(v, NoCollisionWithinBudget):
        return {
            "verdict": "no-collision-within-budget",
            "budget": v.budget,
            "group_order": v.group_order,
        }
    raise TypeError(f"unrenderable verdict {v!r}")


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_point(text: str) -> TorusPoint:
    parts = text.split(",")
    if len(parts) == 1:
        z = parse_complex(text)
        if not z.im.is_zero:
            raise UsageError("torus points are given as 'x,y' in lattice coordinates")
        return reduce_to_fundamental((z.re, qn(0)))
    if len(parts) != 2:
        raise UsageError(f"expected 'x,y', got {text!r}")
    return reduce_to_fundamental((parse_number(parts[0]), parse_number(parts[1])))


def _parse_slope(text: str) -> RationalDirection | IrrationalSlope:
    if "," in text:
        try:
            m, k = map(int, text.split(","))
        except ValueError:
            m = k = 0
        if m == k == 0:
            raise UsageError(f"--slope 'm,k' takes two integers, not both 0, got {text!r}")
        return slope_spec((m, k))
    return slope_spec(parse_number(text))


def _parse_segment(text: str) -> TorusSegment:
    """Segment syntax: 'x,y,MODE,len' with MODE one of h | v | s:<slope expr>;
    the segment starts at the anchor and runs for parameter length len."""
    parts = text.split(",")
    if len(parts) != 4:
        raise UsageError("segment syntax is 'x,y,h|v|s:<slope>,len'")
    ax = parse_number(parts[0])
    ay = parse_number(parts[1])
    mode = parts[2].strip()
    length = parse_number(parts[3])
    if mode == "h":
        spec = slope_spec((1, 0))
    elif mode == "v":
        spec = slope_spec((0, 1))
    elif mode.startswith("s:"):
        spec = _parse_slope(mode[2:])
    else:
        raise UsageError(f"unknown direction mode {mode!r}")
    return segment_new(line_from_point(spec, (ax, ay)), qn(0), length)


def _build_map(args) -> AffineTorusMap:
    lat = Lattice(parse_complex(args.omega))
    return torus_map_new(parse_complex(args.a), parse_complex(args.b), lat)


def _build_line(args) -> TorusLine:
    spec = _parse_slope(args.slope)
    if isinstance(spec, RationalDirection):
        anchor = (parse_number(args.alpha), parse_number(args.beta))
        return line_from_point(spec, anchor)
    return TorusLine(spec, parse_number(args.alpha).mod1(), parse_number(args.beta).mod1())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify_map(args) -> int:
    tm = _build_map(args)
    mc = classify_multiplier(tm)
    payload = {
        "p": tm.m[0],
        "q": tm.m[1],
        "r": tm.m[2],
        "s": tm.m[3],
        "degree": tm.degree,
        "b": [tm.b.x.to_expr(), tm.b.y.to_expr()],
        "multiplier_class": (
            {"kind": "integer", "a": mc.a}
            if isinstance(mc, IntegerDerivative)
            else {"kind": "non-real", "a": mc.a.to_expr(), "theta": mc.theta}
        ),
    }
    _emit(payload, args.out)
    return 0


def _cmd_classify_line(args) -> int:
    tm = _build_map(args)
    line = _build_line(args)
    verdict = classify_line(tm, line)
    if isinstance(verdict, JordanCurve):
        payload = {
            "verdict": "jordan-curve",
            "direction": [verdict.direction.m, verdict.direction.k],
        }
    elif isinstance(verdict, WanderingLine):
        payload = {"verdict": "wandering-line", "witness": verdict.witness}
    else:
        cycle = (verdict.state(i) for i in range(verdict.preperiod, len(verdict.states)))
        payload = {
            "verdict": "eventually-periodic",
            "preperiod": verdict.preperiod,
            "period": verdict.period,
            "cycle": [[a.to_expr(), b.to_expr()] for a, b in cycle],
        }
    _emit(payload, args.out)
    return 0


def _cmd_certify_segment(args) -> int:
    tm = _build_map(args)
    seg = _segment_from_args(args)
    got = certify_wandering(tm, seg, check_iterates=args.check_iterates)
    payload = _verdict_json(got)
    if args.verify_oracle and isinstance(got, WanderingCertificate):
        sub = segment_new(seg.line, got.interval[0], got.interval[1])
        ok, pair = verify_disjoint_iterates(tm, sub, args.check_iterates)
        payload["oracle_pairwise_disjoint"] = ok
        if not ok:
            payload["oracle_failure_pair"] = list(pair)
    _emit(payload, args.out)
    return 0


def _segment_from_args(args) -> TorusSegment:
    if args.seg is not None:
        return _parse_segment(args.seg)
    if args.slope is None:
        raise UsageError("provide --seg or --slope/--alpha/--beta/--t0/--t1")
    line = _build_line(args)
    return segment_new(line, parse_number(args.t0), parse_number(args.t1))


def _cmd_find_collision(args) -> int:
    tm = _build_map(args)
    seg = _segment_from_args(args)
    group = None
    if args.nu is not None:
        # the group obstruction is about the quotient, so the covering must descend
        model = lattes_model_new(tm.lattice, tm, args.nu, _parse_point(args.z0))
        group = (model.nu, model.z0, model.rotation)
    got = find_collision(tm, seg, group=group, budget=args.budget)
    _emit(_verdict_json(got), args.out)
    return 0


def _cmd_certify_sphere(args) -> int:
    tm = _build_map(args)
    model = lattes_model_new(tm.lattice, tm, args.nu, _parse_point(args.z0))
    seg = _segment_from_args(args)
    got = certify_sphere_wandering(model, seg, check_iterates=args.check_iterates)
    _emit(_verdict_json(got), args.out)
    return 0


def _cmd_verify_semiconjugacy(args) -> int:
    if not 0.0 < args.tol < 1.0:
        raise UsageError("--tol must lie in (0, 1)")
    tm = _build_map(args)
    model = lattes_model_new(tm.lattice, tm, 2, _parse_point(args.z0))
    report = verify_semiconjugacy(model, samples=args.samples, tol=args.tol)
    rows = report.pop("rows")
    if args.dump_csv:
        try:
            with open(args.dump_csv, "w") as fh:
                fh.write("z_re,z_im,wp_re,wp_im,residual\n")
                for r in rows:
                    fh.write(",".join(f"{v:.17g}" for v in r) + "\n")
        except OSError as exc:
            raise IoError(str(exc)) from exc
    _emit(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------


Span = tuple[float, float, float, float]  # a lift's endpoints (x0, y0, x1, y1)


def _color(i: int, total: int) -> str:
    h = (i / max(1, total)) * 0.85
    r, g, b = colorsys.hls_to_rgb(h, 0.45, 0.9)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _float_span(lift: LiftSegment) -> Span:
    """The lift's endpoints as floats; OverflowError when the segment does
    not fit in doubles."""
    (bx, by), (ex, ey) = lift.p0, lift.p1
    x0, y0, x1, y1 = bx.to_float(), by.to_float(), ex.to_float(), ey.to_float()
    if not (math.isfinite(x1 - x0) and math.isfinite(y1 - y0)):
        raise OverflowError("segment beyond double range")
    return x0, y0, x1, y1


def _segment_pieces(span: Span, samples: int = 257):
    """Split the projected segment at cell wrap-arounds; float polyline data."""
    x0, y0, x1, y1 = span
    pieces = []
    cur = []
    prev_cell = None
    for i in range(samples):
        t = i / (samples - 1)
        x = x0 + t * (x1 - x0)
        y = y0 + t * (y1 - y0)
        cell = (int(x // 1), int(y // 1))
        pt = (x % 1.0, y % 1.0)
        if prev_cell is not None and cell != prev_cell:
            if len(cur) > 1:
                pieces.append(cur)
            cur = []
        cur.append(pt)
        prev_cell = cell
    if len(cur) > 1:
        pieces.append(cur)
    return pieces


def emit_orbit_svg(
    lat: Lattice,
    spans: list[Span],
    path: str,
    witness: tuple[float, float] | None = None,
) -> str:
    """One SVG: fundamental parallelogram, each iterate's segment as polylines
    split at wrap-around (``_segment_pieces``), color-indexed, with a legend;
    deterministic bytes."""
    w = lat.omega_complex()
    scale = 420.0
    pad = 40.0
    corners = [0 + 0j, 1 + 0j, 1 + w, w]
    xs = [c.real for c in corners]
    ys = [c.imag for c in corners]
    width = (max(xs) - min(xs)) * scale + 2 * pad + 160
    height = (max(ys) - min(ys)) * scale + 2 * pad

    def to_px(x: float, y: float) -> tuple[float, float]:
        z = x + y * w
        return (
            pad + (z.real - min(xs)) * scale,
            height - pad - (z.imag - min(ys)) * scale,
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    cell = " ".join(
        f"{to_px(cx, cy)[0]:.3f},{to_px(cx, cy)[1]:.3f}"
        for cx, cy in [(0, 0), (1, 0), (1, 1), (0, 1)]
    )
    parts.append(
        f'<polygon points="{cell}" fill="none" stroke="#333333" stroke-width="1.5"/>'
    )
    total = len(spans)
    for i, span in enumerate(spans):
        color = _color(i, total)
        for piece in _segment_pieces(span):
            pts = " ".join(
                f"{to_px(x, y)[0]:.3f},{to_px(x, y)[1]:.3f}" for x, y in piece
            )
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="2.0"/>'
            )
        lx = width - 150
        ly = 30 + 18 * i
        parts.append(
            f'<rect x="{lx:.0f}" y="{ly - 9:.0f}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 18:.0f}" y="{ly + 2:.0f}" font-size="12" '
            f'font-family="monospace">iterate {i}</text>'
        )
    if witness is not None:
        px, py = to_px(witness[0], witness[1])
        parts.append(
            f'<g stroke="#cc0000" stroke-width="2.0">'
            f'<line x1="{px - 7:.3f}" y1="{py - 7:.3f}" x2="{px + 7:.3f}" y2="{py + 7:.3f}"/>'
            f'<line x1="{px - 7:.3f}" y1="{py + 7:.3f}" x2="{px + 7:.3f}" y2="{py - 7:.3f}"/>'
            f"</g>"
        )
    parts.append("</svg>")
    doc = "\n".join(parts) + "\n"
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(doc)
        except OSError as exc:
            raise IoError(str(exc)) from exc
    return doc


def _cmd_plot_orbit(args) -> int:
    tm = _build_map(args)
    seg = _segment_from_args(args)
    if args.iterates >= _MAX_PLOT_SEGMENTS:
        raise UsageError("too many segments to plot")
    # raw-lift iteration plots any covering, integer multiplier or not; each
    # lift is put in floats as it is built, so the first iterate beyond
    # double range ends the chain (and is refused after the witness is read)
    spans, refused = [], None
    for i, lift in enumerate(iterate_lifts(tm, seg, args.iterates)):
        try:
            spans.append(_float_span(lift))
        except OverflowError:
            refused = i
            break
    witness = None
    if args.mark_witness:
        try:
            wx, wy = args.mark_witness.split(",")
        except ValueError:
            raise UsageError(f"--mark-witness takes 'x,y', got {args.mark_witness!r}") from None
        witness = (float(parse_number(wx).to_float()), float(parse_number(wy).to_float()))
    if refused is not None:
        raise BudgetExceeded(f"iterate {refused} lies beyond double range; plot fewer")
    emit_orbit_svg(tm.lattice, spans, args.out or "orbit.svg", witness)
    _emit({"written": args.out or "orbit.svg", "segments": len(spans)})
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def _add_map_args(sp) -> None:
    sp.add_argument("--a", required=True, help="multiplier (complex expression)")
    sp.add_argument("--b", default="0", help="translation (complex expression)")
    sp.add_argument("--omega", required=True, help="lattice generator, Im > 0")
    sp.add_argument("--out", default=None, help="also write the JSON to this path")


def _add_line_args(sp, required: bool) -> None:
    sp.add_argument("--slope", required=required, help="slope expression or 'm,k'")
    sp.add_argument("--alpha", default="0", help="transverse alpha (or anchor x)")
    sp.add_argument("--beta", default="0", help="transverse beta (or anchor y)")


def _add_segment_args(sp) -> None:
    sp.add_argument("--seg", default=None, help="segment as 'x,y,h|v|s:<slope>,len'")
    _add_line_args(sp, required=False)
    sp.add_argument("--t0", default="0", help="parameter interval start")
    sp.add_argument("--t1", default="1/10", help="parameter interval end")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later
    ``main`` call in the process."""
    ap = argparse.ArgumentParser(
        prog="flatwander",
        description="Exact certificates for wandering flat geodesic segments",
    )
    ap.add_argument("--config", default=None, help="JSON file of argument defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify-map", help="covering matrix, degree, multiplier class")
    _add_map_args(sp)
    sp.set_defaults(fn=_cmd_classify_map)

    sp = sub.add_parser("classify-line", help="orbit class of a flat line")
    _add_map_args(sp)
    _add_line_args(sp, required=True)
    sp.set_defaults(fn=_cmd_classify_line)

    sp = sub.add_parser("certify-segment", help="wandering certificate for a segment")
    _add_map_args(sp)
    _add_segment_args(sp)
    sp.add_argument("--check-iterates", type=int, default=12)
    sp.add_argument("--verify-oracle", action="store_true")
    sp.set_defaults(fn=_cmd_certify_segment)

    sp = sub.add_parser("find-collision", help="collision certificate search")
    _add_map_args(sp)
    _add_segment_args(sp)
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--nu", type=int, default=None, help="group order for group mode")
    sp.add_argument("--z0", default="0,0", help="rotation center (lattice coords)")
    sp.set_defaults(fn=_cmd_find_collision)

    sp = sub.add_parser("certify-sphere", help="sphere-level wandering certificate")
    _add_map_args(sp)
    _add_segment_args(sp)
    sp.add_argument("--nu", type=int, default=2)
    sp.add_argument("--z0", default="0,0")
    sp.add_argument("--check-iterates", type=int, default=12)
    sp.set_defaults(fn=_cmd_certify_sphere)

    sp = sub.add_parser("verify-semiconjugacy", help="commuting-diagram residuals")
    _add_map_args(sp)
    sp.add_argument("--z0", default="0,0")
    sp.add_argument("--samples", type=int, default=500)
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--dump-csv", default=None, help="write sample rows as CSV")
    sp.set_defaults(fn=_cmd_verify_semiconjugacy)

    sp = sub.add_parser("plot-orbit", help="SVG of iterated segments")
    _add_map_args(sp)
    _add_segment_args(sp)
    sp.add_argument("--iterates", type=int, default=8)
    sp.add_argument("--mark-witness", default=None, help="'x,y' glyph position")
    sp.set_defaults(fn=_cmd_plot_orbit)
    ap.commands = sub.choices  # name -> subcommand parser, for _parse_argv
    return ap


def _apply_config(ap: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with ``--config PATH`` (or ``--config=PATH``) replaced by the
    file's options that argv does not give.  A given option is matched by
    the action it names in the subcommand's parser, so an abbreviation wins
    over the file as the full name does."""
    at = next((i for i, arg in enumerate(argv) if arg.split("=", 1)[0] == "--config"), None)
    if at is None:
        return argv
    _, attached, path = argv[at].partition("=")
    try:
        with open(path if attached else argv[at + 1]) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, IndexError) as exc:
        raise UsageError(f"unreadable config: {exc}") from exc
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
        if named(flag) in given or value is False:
            continue
        # true switches a flag on; any other value is the option's argument
        extra.append(flag if value is True else f"{flag}={value}")
    return rest + extra


def _option_named(options: dict[str, argparse.Action], name: str) -> argparse.Action | None:
    """The action of option ``name``, or of the one long option that ``name``
    abbreviates; an ambiguous prefix is left to argparse."""
    if name in options:
        return options[name]
    hits = [opt for opt in options if opt.startswith(name)] if name[:2] == "--" else []
    return options[hits[0]] if len(hits) == 1 else None


def _attach_values(sp: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """``--opt VALUE`` as ``--opt=VALUE`` when VALUE starts with '-' and is no
    option of ``sp``: argparse would otherwise read '-1/2' or '-i' as one.
    ``--opt`` may be an unambiguous abbreviation, as argparse allows."""
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


def _parse_argv(argv: list[str]) -> argparse.Namespace:
    """Parse with the subcommand's own parser when argv starts with one;
    anything else (help, an unknown command, no command) goes to the top
    parser, which reports it."""
    ap = build_parser()
    argv = _apply_config(ap, argv)
    sp = ap.commands.get(argv[0]) if argv else None
    if sp is None:
        return ap.parse_args(argv)
    rest = _attach_values(sp, argv[1:])
    args, extra = sp.parse_known_args(rest)
    if extra:
        ap.parse_args([argv[0], *rest])  # reports the unrecognized arguments
    return args


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_argv(argv)
        return args.fn(args)
    except _BUDGET_ERRORS as exc:
        _emit({"error": exc.code, "message": str(exc)})
        return 3
    except InternalInconsistency as exc:
        _emit({"error": exc.code, "message": str(exc)})
        return 4
    except FlatwanderError as exc:
        _emit({"error": exc.code, "message": str(exc)})
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        _emit({"error": "invalid-input", "message": str(exc)})
        return 2


if __name__ == "__main__":
    sys.exit(main())
