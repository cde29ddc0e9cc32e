"""Command-line front end: JSON verdicts, certificate archival and SVG plots.

Exit codes: 0 definite verdict (including not-wanderable and
no-collision-within-budget), 2 input errors, 3 budget or tolerance failures,
4 internal inconsistency (a certificate's own cross-check failed: a bug).
Identical inputs produce byte-identical JSON and SVG.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Callable
from functools import lru_cache
from itertools import islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from .errors import (
    BudgetExceeded,
    FlatwanderError,
    InternalInconsistency,
    IoError,
    ResidualExceedsTol,
    UsageError,
)
from .lattice import Lattice, TorusPoint, reduce_to_fundamental
from .lift_arith import Lift, _Field
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
from .numbers import ZERO, parse_complex, parse_number
from .segments import (
    CollisionCertificate,
    NoCollisionWithinBudget,
    NotWanderable,
    TorusSegment,
    WanderingCertificate,
    certify_wandering,
    find_collision,
    lift_orbit,
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
_MAPS = 64  # validated coverings, and Lattès models, one process keeps


def _json(value, indent: str = "") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, separators=(",", ": "),
    allow_nan=False)``, without json's pure-Python indenting encoder."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
        return float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        rows = [f"{encode_basestring_ascii(k)}: {_json(value[k], inner)}" for k in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        rows, brackets = [_json(item, inner) for item in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not rows:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(rows) + f"\n{indent}{brackets[1]}"


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(str(exc)) from exc


def _emit(payload: dict, out_path: str | None = None) -> None:
    text = _json(payload)
    if out_path:
        _write(out_path, text + "\n")
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
    from .lattes import NotFlexible  # built only by certify-sphere, which imported it
    if isinstance(v, NotFlexible):
        out = {"verdict": "not-flexible", "reason": v.reason}
        if v.witness is not None:
            out["witness"] = _verdict_json(v.witness)
        return out
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
        return reduce_to_fundamental((z.re, ZERO))
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
    ax, ay = parse_number(parts[0]), parse_number(parts[1])
    mode = parts[2].strip()
    length = parse_number(parts[3])
    if mode in ("h", "v"):
        spec = slope_spec((1, 0) if mode == "h" else (0, 1))
    elif mode.startswith("s:"):
        spec = _parse_slope(mode[2:])
    else:
        raise UsageError(f"unknown direction mode {mode!r}")
    return segment_new(line_from_point(spec, (ax, ay)), ZERO, length)


# the covering and its quotient are exact and immutable, so one process
# validates each once, keyed by its option text; a failure is not cached
@lru_cache(maxsize=_MAPS)
def _covering(a: str, b: str, omega: str) -> AffineTorusMap:
    lat = Lattice(parse_complex(omega))
    return torus_map_new(parse_complex(a), parse_complex(b), lat)


@lru_cache(maxsize=_MAPS)
def _model(a: str, b: str, omega: str, nu: int, z0: str):  # a lattes.LattesModel
    from .lattes import lattes_model_new  # only the commands that build a model load lattes
    tm = _covering(a, b, omega)
    return lattes_model_new(tm.lattice, tm, nu, _parse_point(z0))


def _build_line(args) -> TorusLine:
    spec = _parse_slope(args.slope)
    if isinstance(spec, RationalDirection):
        anchor = (parse_number(args.alpha), parse_number(args.beta))
        return line_from_point(spec, anchor)
    return TorusLine(spec, parse_number(args.alpha).mod1(), parse_number(args.beta).mod1())


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_classify_map(args) -> None:
    tm = _covering(args.a, args.b, args.omega)
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


def _cmd_classify_line(args) -> None:
    tm = _covering(args.a, args.b, args.omega)
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
        cycle = map(verdict.num.value, islice(verdict.states, verdict.preperiod, None))
        payload = {
            "verdict": "eventually-periodic",
            "preperiod": verdict.preperiod,
            "period": verdict.period,
            "cycle": [[a.to_expr(), b.to_expr()] for a, b in cycle],
        }
    _emit(payload, args.out)


def _cmd_certify_segment(args) -> None:
    tm = _covering(args.a, args.b, args.omega)
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


def _segment_from_args(args) -> TorusSegment:
    if args.seg is not None:
        return _parse_segment(args.seg)
    if args.slope is None:
        raise UsageError("provide --seg or --slope/--alpha/--beta/--t0/--t1")
    line = _build_line(args)
    return segment_new(line, parse_number(args.t0), parse_number(args.t1))


def _cmd_find_collision(args) -> None:
    tm = _covering(args.a, args.b, args.omega)
    seg = _segment_from_args(args)
    group = None
    if args.nu is not None:
        # the group obstruction is about the quotient, so the covering must descend
        group = _model(args.a, args.b, args.omega, args.nu, args.z0).group
    got = find_collision(tm, seg, group=group, budget=args.budget)
    _emit(_verdict_json(got), args.out)


def _cmd_certify_sphere(args) -> None:
    from .lattes import certify_sphere_wandering
    model = _model(args.a, args.b, args.omega, args.nu, args.z0)
    seg = _segment_from_args(args)
    got = certify_sphere_wandering(model, seg, check_iterates=args.check_iterates)
    _emit(_verdict_json(got), args.out)


def _cmd_verify_semiconjugacy(args) -> None:
    if not 0.0 < args.tol < 1.0:
        raise UsageError("--tol must lie in (0, 1)")
    from .lattes import verify_semiconjugacy
    model = _model(args.a, args.b, args.omega, 2, args.z0)
    report = verify_semiconjugacy(model, samples=args.samples, tol=args.tol)
    rows = report.pop("rows")
    if args.dump_csv:
        rows = [",".join(f"{v:.17g}" for v in r) for r in rows]
        _write(args.dump_csv, "\n".join(["z_re,z_im,wp_re,wp_im,residual", *rows]) + "\n")
    _emit(report, args.out)


# ---------------------------------------------------------------------------
# SVG emission
# ---------------------------------------------------------------------------


Span = tuple[float, float, float, float]  # a lift's endpoints (x0, y0, x1, y1)


def _color(i: int, total: int) -> str:
    import colorsys  # plot-orbit alone draws
    h = (i / max(1, total)) * 0.85
    r, g, b = colorsys.hls_to_rgb(h, 0.45, 0.9)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def _float_span(f: _Field, den: int, lift: Lift) -> Span:
    """The exact lift's endpoints as floats; OverflowError when the segment
    does not fit in doubles."""
    x0, y0, x1, y1 = [f.scalar(v, den).to_float() for pt in lift for v in pt]
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
        _write(path, doc)
    return doc


def _cmd_plot_orbit(args) -> None:
    tm = _covering(args.a, args.b, args.omega)
    seg = _segment_from_args(args)
    if args.iterates >= _MAX_PLOT_SEGMENTS:
        raise UsageError("too many segments to plot")
    if args.iterates < 0:
        raise UsageError(f"iterate count must be >= 0, got {args.iterates}")
    # raw-lift iteration plots any covering, integer multiplier or not; each
    # lift is put in floats as it is built, so the first iterate beyond
    # double range ends the chain (and is refused after the witness is read)
    spans, refused = [], None
    f, den, lifts, _ = lift_orbit(tm, seg)
    for i, lift in enumerate(islice(lifts, args.iterates + 1)):
        try:
            spans.append(_float_span(f, den, lift))
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


# ---------------------------------------------------------------------------
# option tables
# ---------------------------------------------------------------------------


class _Opt(NamedTuple):
    """A command-line option, read with ``kind`` (str, int or float); a
    ``bool`` option is a flag, switched on by its name alone."""

    name: str
    kind: type = str
    default: object = None
    required: bool = False
    help: str = ""


_HELP = _Opt("-h/--help", bool, help="show this help message and exit")
_MAP = (_Opt("--a", required=True, help="multiplier (complex expression)"),
        _Opt("--b", default="0", help="translation (complex expression)"),
        _Opt("--omega", required=True, help="lattice generator, Im > 0"),
        _Opt("--out", help="also write the JSON to this path"))
_SLOPE = _Opt("--slope", help="slope expression or 'm,k'")
_LINE = (_Opt("--alpha", default="0", help="transverse alpha (or anchor x)"),
         _Opt("--beta", default="0", help="transverse beta (or anchor y)"))
_SEGMENT = (_Opt("--seg", help="segment as 'x,y,h|v|s:<slope>,len'"), _SLOPE, *_LINE,
            _Opt("--t0", default="0", help="parameter interval start"),
            _Opt("--t1", default="1/10", help="parameter interval end"))
_Z0 = _Opt("--z0", default="0,0", help="rotation center (lattice coords)")
_CHECKS = _Opt("--check-iterates", int, 12, help="iterates the certificate covers")

# command -> (function, help, options in the order that --help and errors list)
COMMANDS = {
    "classify-map": (_cmd_classify_map, "covering matrix, degree, multiplier class", _MAP),
    "classify-line": (_cmd_classify_line, "orbit class of a flat line",
                      (*_MAP, _SLOPE._replace(required=True), *_LINE)),
    "certify-segment": (_cmd_certify_segment, "wandering certificate for a segment",
                        (*_MAP, *_SEGMENT, _CHECKS,
                         _Opt("--verify-oracle", bool, False,
                              help="replay the certificate through the pairwise oracle"))),
    "find-collision": (_cmd_find_collision, "collision certificate search",
                       (*_MAP, *_SEGMENT, _Opt("--budget", int, help="iterates to search"),
                        _Opt("--nu", int, help="group order for group mode"), _Z0)),
    "certify-sphere": (_cmd_certify_sphere, "sphere-level wandering certificate",
                       (*_MAP, *_SEGMENT, _Opt("--nu", int, 2, help="group order"), _Z0,
                        _CHECKS)),
    "verify-semiconjugacy": (_cmd_verify_semiconjugacy, "commuting-diagram residuals",
                             (*_MAP, _Z0,
                              _Opt("--samples", int, 500, help="sample points, 1 to 100000"),
                              _Opt("--tol", float, 1e-6, help="residual bound, in (0, 1)"),
                              _Opt("--dump-csv", help="write sample rows as CSV"))),
    "plot-orbit": (_cmd_plot_orbit, "SVG of iterated segments",
                   (*_MAP, *_SEGMENT, _Opt("--iterates", int, 8, help="iterates to draw"),
                    _Opt("--mark-witness", help="'x,y' glyph position"))),
}


def _spellings(names: dict[str, _Opt]) -> dict[str, tuple[str, ...]]:
    """Each spelling argv may use, a name or a "--" prefix, with its names in order."""
    table: dict[str, tuple[str, ...]] = {}
    for name in names:
        for end in range(3, len(name) if name[:2] == "--" else 0):
            table[name[:end]] = (*table.get(name[:end], ()), name)
    return {**table, **{name: (name,) for name in names}}


# options by name (help first, as argparse listed them) and by spelling, per
# command and for flatwander (None); each option's attribute and default
_TOP = {"-h": _HELP, "--help": _HELP}
_NAMES = {command: {**_TOP, **{opt.name: opt for opt in options}}
          for command, (_, _, options) in COMMANDS.items()}
_SPELLINGS = {command: _spellings(names) for command, names in {None: _TOP, **_NAMES}.items()}
_DESTS = {opt.name: opt.name[2:].replace("-", "_")
          for _, _, options in COMMANDS.values() for opt in options}
_DEFAULTS = {command: {_DESTS[opt.name]: opt.default for opt in options}
             for command, (_, _, options) in COMMANDS.items()}


def _spec(opt: _Opt) -> str:
    return opt.name if opt.kind is bool else f"{opt.name} {_DESTS[opt.name].upper()}"


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: flatwander [-h] [--config CONFIG] {%s} ..." % ",".join(COMMANDS)
    specs = (_spec(opt) if opt.required else f"[{_spec(opt)}]" for opt in COMMANDS[command][2])
    return " ".join(["usage: flatwander", command, "[-h]", *specs])


def _help(command: str | None) -> NoReturn:
    """Print ``--help`` for ``command``, or for flatwander when None, and exit 0."""
    if command is None:
        about = "Exact certificates for wandering flat geodesic segments"
        rows = [("--config CONFIG", "JSON file of option values")]
        rows += [(name, text) for name, (_, text, _) in COMMANDS.items()]
    else:
        _, about, options = COMMANDS[command]
        rows = [(_spec(opt), opt.help) for opt in options]
    rows.insert(0, ("-h, --help", _HELP.help))
    width = max(len(spec) for spec, _ in rows) + 2
    print(_usage(command), "", about, "", "options:", sep="\n")
    print("\n".join(f"  {spec:<{width}}{text}" for spec, text in rows))
    raise SystemExit(0)


def _fail(command: str | None, message: str) -> NoReturn:
    """argparse's error contract: the usage line and ``<prog>: error:
    <message>`` on stderr, nothing on stdout, exit 2."""
    prog = f"flatwander {command}" if command else "flatwander"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _split_config(argv: list[str]) -> tuple[list[str], dict]:
    """argv without ``--config PATH`` (or ``--config=PATH``), and the file's
    options ({} without one)."""
    at = next((i for i, arg in enumerate(argv) if arg.partition("=")[0] == "--config"), None)
    if at is None:
        return argv, {}
    _, attached, path = argv[at].partition("=")
    try:
        with open(path if attached else argv[at + 1]) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, IndexError) as exc:
        raise UsageError(f"unreadable config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError("unreadable config: not a JSON object")
    return argv[:at] + argv[at + (1 if attached else 2) :], cfg


def _parse(argv: list[str]) -> tuple[Callable, SimpleNamespace]:
    """The command's function and its option values.  An exact name or a
    unique ``--`` prefix selects an option, whose value is attached
    (``--opt=v``) or the next argument, taken whole unless it is an option's
    name.  The last occurrence wins, and the config file's options follow
    argv's, less those argv gives.  Errors come in argparse's order: an
    ambiguous option, the first bad or missing value (or --help), missing
    required options, unrecognized arguments."""
    # no argument starts with --config unless their join holds it: one scan, in C
    argv, cfg = _split_config(argv) if "--config" in "".join(argv) else (argv, {})
    command = argv[0] if argv else None
    if command not in COMMANDS:
        if command is None:
            _fail(None, "the following arguments are required: command")
        if command in _SPELLINGS[None]:
            _help(None)
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    run, _, options = COMMANDS[command]
    names, spellings, given, extras, event = _NAMES[command], _SPELLINGS[command], {}, [], None
    i = 1
    while i < len(argv) or cfg:
        if i == len(argv):
            # true switches a flag on, and false or null leaves an option
            # unset; any other value is the option's value
            for key, value in sorted(cfg.items()):
                flag = f"--{key.replace('_', '-')}"
                hits = spellings.get(flag, ())
                on_argv = len(hits) == 1 and _DESTS.get(hits[0]) in given
                if value is not False and value is not None and not on_argv:
                    argv.append(flag if value is True else f"{flag}={value}")
            cfg = {}
            continue
        arg, i, problem = argv[i], i + 1, None
        name, eq, value = arg.partition("=")
        hits = spellings.get(name, ())
        if len(hits) > 1:
            _fail(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
        opt = names[hits[0]] if hits else None
        if opt is None:
            extras.append(arg)
        elif opt.kind is bool and eq:
            problem = f"ignored explicit argument {value!r}"
        elif opt is _HELP:
            event = event or _HELP
        elif opt.kind is bool:
            given[_DESTS[opt.name]] = True
        elif not eq and (i == len(argv) or argv[i] in names):
            problem = "expected one argument"
        else:
            if not eq:
                value, i = argv[i], i + 1
            try:
                given[_DESTS[opt.name]] = opt.kind(value)
            except ValueError:
                problem = f"invalid {opt.kind.__name__} value: {value!r}"
        event = event or problem and f"argument {opt.name}: {problem}"
    if event is _HELP:
        _help(command)
    if event:
        _fail(command, event)
    missing = [opt.name for opt in options if opt.required and _DESTS[opt.name] not in given]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return run, SimpleNamespace(**{**_DEFAULTS[command], **given})


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        run, args = _parse(argv)
        run(args)  # a command that does not raise has a verdict: exit 0
        return 0
    except (FlatwanderError, ValueError, ZeroDivisionError) as exc:
        error = exc.code if isinstance(exc, FlatwanderError) else "invalid-input"
        _emit({"error": error, "message": str(exc)})
        if isinstance(exc, InternalInconsistency):
            return 4
        return 3 if isinstance(exc, _BUDGET_ERRORS) else 2


if __name__ == "__main__":
    sys.exit(main())
