"""Spans and counts around the public functions of each flatwander module.

The tracer wraps every public function of the layer modules in every
``flatwander.*`` namespace that bound it (``find_collision`` lives in both
``segments`` and ``lattes``, for instance), plus ``WeierstrassContext.wp_pair``
on its class.  A span records its name, start, end and parent; spans and
counts stay in memory in flat arrays and are written out at the end.  Nothing
under ``src/`` changes: the tracer swaps the bindings in for a ``with`` block
and puts the originals back when it ends.
"""

from __future__ import annotations

import functools
from array import array
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("cli", "numbers", "lattice", "torus_map", "line_orbit", "segments", "lattes")
WP_PAIR = "lattes.WeierstrassContext.wp_pair"
CASE = "cli.main"
# the call a CLI subcommand exists to make; the rest of a case is CLI overhead
CORE_CALLS = (
    "segments.certify_wandering",
    "segments.verify_disjoint_iterates",
    "segments.find_collision",
    "lattes.certify_sphere_wandering",
    "lattes.verify_semiconjugacy",
)

# per-layer metric -> (statistic, span name); counts and times are per case
SPAN_METRICS = {
    "cli.build_parser_ms": ("ms", "cli.build_parser"),
    "numbers.squarefree_split_calls": ("calls", "numbers.squarefree_split"),
    "numbers.squarefree_split_ms": ("ms", "numbers.squarefree_split"),
    "lattice.reduce_to_fundamental_calls": ("calls", "lattice.reduce_to_fundamental"),
    "torus_map.torus_map_new_ms": ("ms", "torus_map.torus_map_new"),
    "torus_map.apply_map_calls": ("calls", "torus_map.apply_map"),
    "line_orbit.classify_line_calls": ("calls", "line_orbit.classify_line"),
    "line_orbit.classify_line_ms": ("ms", "line_orbit.classify_line"),
    "line_orbit.line_image_calls": ("calls", "line_orbit.line_image"),
    "segments.certify_wandering_ms": ("ms", "segments.certify_wandering"),
    "segments.verify_disjoint_iterates_ms": ("ms", "segments.verify_disjoint_iterates"),
    "segments.certify_interval_calls": ("calls", "segments.certify_interval"),
    "segments.find_collision_ms": ("ms", "segments.find_collision"),
    "segments.lift_intersect_calls": ("calls", "segments.lift_segments_intersect_torus"),
    "segments.lift_intersect_ms": ("ms", "segments.lift_segments_intersect_torus"),
    "segments.prefilter_calls": ("calls", "segments.segments_meet_float"),
    "segments.prefilter_ms": ("ms", "segments.segments_meet_float"),
    "segments.exact_calls": ("calls", "segments.segments_meet_exact"),
    "segments.exact_ms": ("ms", "segments.segments_meet_exact"),
    "lattes.certify_sphere_ms": ("ms", "lattes.certify_sphere_wandering"),
    "lattes.sphere_oracle_ms": ("ms", "lattes.verify_sphere_disjoint_iterates"),
    "lattes.rho_pairing_ms": ("ms", "lattes.rho_pairing"),
    "lattes.verify_semiconjugacy_ms": ("ms", "lattes.verify_semiconjugacy"),
    "lattes.verify_semiconjugacy_self_ms": ("self_ms", "lattes.verify_semiconjugacy"),
    "lattes.wp_pair_calls": ("calls", WP_PAIR),
    "lattes.wp_pair_ms": ("ms", WP_PAIR),
}
STATES_VISITED = "line_orbit.states_visited"


def _public_functions(mod) -> dict:
    return {
        name: fn
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")  # per span: name id
        self.parent = array("i")  # per span: parent span index, -1 at top level
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._bindings = self._plan()

    def _wrap(self, fn, span_name: str, on_return=None):
        if span_name not in self._ids:
            self._ids[span_name] = len(self.names)
            self.names.append(span_name)
        nid = self._ids[span_name]
        name, parent, start, end, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _count_states(self, verdict) -> None:
        states = getattr(verdict, "states", None)
        if states is not None:
            self.counts[STATES_VISITED] += len(states)

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(namespace, attribute, original, wrapper) for every binding."""
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "flatwander" or key.startswith("flatwander.")
        ]
        hooks = {"line_orbit.classify_line": self._count_states}
        plan = []
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"flatwander.{short}")
            for fname, fn in _public_functions(mod).items():
                span_name = f"{short}.{fname}"
                wrapper = self._wrap(fn, span_name, hooks.get(span_name))
                for ns in namespaces:
                    plan.extend((ns, attr, fn, wrapper) for attr, value in vars(ns).items() if value is fn)
        ctx = importlib.import_module("flatwander.lattes").WeierstrassContext
        plan.append((ctx, "wp_pair", ctx.wp_pair, self._wrap(ctx.wp_pair, WP_PAIR)))
        return plan

    def __enter__(self) -> Tracer:
        for ns, attr, _, wrapper in self._bindings:
            setattr(ns, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original, _ in self._bindings:
            setattr(ns, attr, original)

    def __len__(self) -> int:
        return len(self.name)

    # -- analysis ----------------------------------------------------------

    def totals(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """Calls, total seconds and self seconds per span name over spans
        [first, last).  Self time is a span's duration minus its children's."""
        child = defaultdict(float)
        for i in range(first, last):
            p = self.parent[i]
            if p >= first:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(first, last):
            row = out.setdefault(self.names[self.name[i]], {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def cli_self_s(self, first: int, last: int) -> float:
        """Summed case time minus each case's core call: parsing, map
        construction, JSON rendering and any other CLI overhead."""
        case_id, core = self._ids[CASE], {self._ids[n] for n in CORE_CALLS if n in self._ids}
        total = 0.0
        for i in range(first, last):
            if self.parent[i] == -1 and self.name[i] == case_id:
                total += self.end[i] - self.start[i]
            elif self.name[i] in core and self.parent[i] >= first and self.name[self.parent[i]] == case_id:
                total -= self.end[i] - self.start[i]
        return total

    def layer_metrics(self, first: int, last: int, cases: int) -> dict[str, float]:
        tot = self.totals(first, last)
        zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
        out = {}
        for metric, (stat, span) in SPAN_METRICS.items():
            row = tot.get(span, zero)
            value = {"calls": row["calls"], "ms": row["s"] * 1e3, "self_ms": row["self_s"] * 1e3}[stat]
            out[metric] = value / cases
        out["cli.self_ms"] = self.cli_self_s(first, last) * 1e3 / cases
        out[STATES_VISITED] = self.counts[STATES_VISITED] / cases
        prefilter = tot.get("segments.segments_meet_float", zero)["calls"]
        exact = tot.get("segments.segments_meet_exact", zero)["calls"]
        out["segments.exact_per_prefilter"] = exact / prefilter if prefilter else 0.0
        return out

    def dump(self, path, meta: dict) -> None:
        doc = dict(meta, names=self.names, counts=dict(self.counts))
        for field in ("name", "parent", "start", "end"):
            doc[field] = getattr(self, field).tolist()
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)
