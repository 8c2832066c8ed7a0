"""Spans around the package's public layer functions, installed from outside.

``install`` replaces every binding of each traced function (the defining
module, modules that imported it by name, the package namespace, and class
attributes such as ``AnalyticFn.__call__``) with a wrapper, and ``uninstall``
puts the originals back.  Nothing under ``src/`` is edited.

A span records name, start, end, parent span and op.  Hot leaves (tree
``eval``/``eval_anywhere``, ``blaschke_eval``, ``blaschke_derivative``) are
not spans: each call adds its count and self time to the nearest enclosing
span, which keeps the cost per call small.  Self time is a duration minus
the time its child spans and leaves cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time

from semiflow_lab import analytic, blaschke, cli, cocycles, flows, gap
import semiflow_lab

_MODULES = (semiflow_lab, analytic, blaschke, flows, cocycles, gap, cli)

ADVANCE_SPANS = ("flows.advance", "flows.advance_with_derivative")
COCYCLE_SPAN = "cocycles.cocycle_eval"
ODE_KIND = "ode"


class Span:
    __slots__ = ("sid", "parent", "op", "name", "kind", "points", "start", "end", "child", "leaves")
    FIELDS = ("id", "parent", "op", "name", "kind", "points", "start", "end", "self_s", "leaves")

    def __init__(self, sid, parent, op, name, kind, points):
        self.sid = sid
        self.parent = parent
        self.op = op
        self.name = name
        self.kind = kind
        self.points = points
        self.start = self.end = self.child = 0.0
        self.leaves = None  # leaf name -> [calls, self seconds]

    def row(self):
        return [self.sid, self.parent, self.op, self.name, self.kind, self.points,
                self.start, self.end, self.end - self.start - self.child, self.leaves]


class Tracer:
    """Span store for one pass.  Frames on the stack are [child seconds, owning span]."""

    def __init__(self):
        self.stack = []
        self.reset()

    def reset(self):
        """Start a new pass.  The stack list itself is kept: the wrappers hold it."""
        self.spans = []
        self.op = None
        self._next = 1
        self.stack[:] = [[0.0, Span(0, None, None, "pass", None, None)]]

    def new_span(self, name, kind, points):
        span = Span(self._next, self.stack[-1][1].sid, self.op, name, kind, points)
        self._next += 1
        return span


def _span(tracer, name, fn, describe=None):
    """``describe(fn, args, kwargs)`` gives the span's (kind, points), when the layer has them."""
    stack = tracer.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = stack[-1]
        kind, points = describe(fn, args, kwargs) if describe else (None, None)
        span = tracer.new_span(name, kind, points)
        frame = [0.0, span]
        stack.append(frame)
        span.start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = clock()
            stack.pop()
            span.child = frame[0]
            parent[0] += span.end - span.start
            tracer.spans.append(span)

    return traced


def _leaf(tracer, name, fn):
    stack = tracer.stack
    clock = time.perf_counter

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = stack[-1]
        frame = [0.0, parent[1]]
        stack.append(frame)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - start
            stack.pop()
            parent[0] += duration
            owner = frame[1]
            if owner.leaves is None:
                owner.leaves = {}
            agg = owner.leaves.get(name)
            if agg is None:
                agg = owner.leaves[name] = [0, 0.0]
            agg[0] += 1
            agg[1] += duration - frame[0]

    return traced


def _flow_kind(fn, args, kwargs):
    """'ode' when the flow integrates its vector field (an OdeFlow, possibly rotated)."""
    flow = args[0]
    while isinstance(flow, flows.RotatedFlow):
        flow = flow.inner
    return (ODE_KIND if isinstance(flow, flows.OdeFlow) else type(flow).__name__), None


def _taylor_points(fn, args, kwargs):
    # taylor samples M = max(4N, 128) points on the circle (its documented rule).
    N = inspect.signature(fn).bind(*args, **kwargs).arguments["N"]
    return None, max(4 * N, 128)


def _grid_points(fn, args, kwargs):
    # GridSpec.iter_points: each circle gives its angular count (radius 0 gives
    # the origin once), then the explicit points.
    grid = inspect.signature(fn).bind(*args, **kwargs).arguments["grid"]
    circles = sum(1 if r == 0.0 else m for r, m in zip(grid.radii, grid.angular))
    return None, circles + len(grid.points)


_DESCRIBE = {
    "flows.advance": _flow_kind,
    "flows.advance_with_derivative": _flow_kind,
    "analytic.taylor": _taylor_points,
    "analytic.bloch_norm_grid": _grid_points,
}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def targets():
    """(layer name, original function, "leaf" or "span") for every traced function."""
    found = [
        ("analytic.eval", analytic.AnalyticFn.eval, "leaf"),
        ("analytic.eval_anywhere", analytic.AnalyticFn.eval_anywhere, "leaf"),
        ("blaschke.eval", blaschke.blaschke_eval, "leaf"),
        ("blaschke.derivative", blaschke.blaschke_derivative, "leaf"),
        ("analytic.taylor", analytic.taylor, "span"),
        ("analytic.bloch_norm_grid", analytic.bloch_norm_grid, "span"),
        ("blaschke.interpolation_delta", blaschke.interpolation_delta, "span"),
        ("blaschke.gpv_bound_check", blaschke.gpv_bound_check, "span"),
        ("flows.advance", flows.FlowModel.advance, "span"),
        ("flows.advance_with_derivative", flows.FlowModel.advance_with_derivative, "span"),
        ("flows.inverse_at", flows.ConformalMap.inverse_at, "span"),
        ("flows.boundary_orbit", flows.boundary_orbit, "span"),
        ("cocycles.cocycle_eval", cocycles.cocycle_eval, "span"),
        ("cocycles.weighted_z_derivative", cocycles.weighted_z_derivative, "span"),
        ("cocycles.generator_consistency", cocycles.generator_consistency, "span"),
        ("gap.construct_case1", gap.construct_case1, "span"),
        ("gap.construct_case2", gap.construct_case2, "span"),
        ("gap.build_test_function", gap.build_test_function, "span"),
        ("gap.bloch_gap", gap.bloch_gap, "span"),
        ("gap.separability_witness", gap.separability_witness, "span"),
        ("cli.main", cli.main, "span"),
    ]
    # Each node type builds its own derivative tree, recursing into children.
    for cls in _subclasses(analytic.AnalyticFn):
        if "derivative" in vars(cls):
            found.append(("analytic.derivative", vars(cls)["derivative"], "span"))
    return found


TRACED = tuple(dict.fromkeys(name for name, _, _ in targets()))
# Reported layers: eval and eval_anywhere are one layer, top-level tree evaluation.
LAYERS = tuple(name for name in TRACED if name != "analytic.eval_anywhere")


def _owners():
    yield from _MODULES
    for mod in _MODULES[1:]:
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == mod.__name__:
                yield value


def install(tracer: Tracer):
    """Wrap every binding of every traced function; returns the undo list for ``uninstall``."""
    wanted = targets()
    replacements = {}  # id of the original -> wrapper; the originals stay alive in wanted
    for name, fn, kind in wanted:
        if kind == "leaf":
            replacements[id(fn)] = _leaf(tracer, name, fn)
        else:
            replacements[id(fn)] = _span(tracer, name, fn, _DESCRIBE.get(name))
    undo = []
    for owner in _owners():
        for attr, value in list(vars(owner).items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                setattr(owner, attr, wrapper)
                undo.append((owner, attr, value))
    return undo


def uninstall(undo):
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


def summarize(spans) -> dict:
    """Per-layer counts and self times of one pass, plus the derived work ratios."""
    stats = {name: [0, 0.0] for name in TRACED}
    points = {"analytic.taylor": 0, "analytic.bloch_norm_grid": 0}
    by_id = {span.sid: span for span in spans}
    rhs_evals = 0
    advances_in_cocycle = 0
    for span in spans:
        st = stats[span.name]
        st[0] += 1
        st[1] += span.end - span.start - span.child
        if span.points is not None:
            points[span.name] += span.points
        for leaf, (calls, secs) in (span.leaves or {}).items():
            stats[leaf][0] += calls
            stats[leaf][1] += secs
        if span.name in ADVANCE_SPANS:
            if span.kind == ODE_KIND and span.leaves:
                rhs_evals += span.leaves.get("analytic.eval_anywhere", (0,))[0]
            parent = by_id.get(span.parent)
            while parent is not None and parent.name != COCYCLE_SPAN:
                parent = by_id.get(parent.parent)
            advances_in_cocycle += parent is not None
    ev, anywhere = stats.pop("analytic.eval"), stats.pop("analytic.eval_anywhere")
    stats["analytic.eval"] = [ev[0] + anywhere[0], ev[1] + anywhere[1]]
    cocycles_n = stats[COCYCLE_SPAN][0]
    return {
        "stats": stats,
        "points": points,
        "flows.rhs_evals": rhs_evals,
        "cocycles.advances_per_cocycle": advances_in_cocycle / cocycles_n if cocycles_n else 0.0,
    }


def write_spans(path: str, spans):
    """Gzipped JSON lines: a header naming the fields, then one array per span in start order."""
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write(json.dumps({"fields": Span.FIELDS}) + "\n")
        for span in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps(span.row(), separators=(",", ":")) + "\n")
