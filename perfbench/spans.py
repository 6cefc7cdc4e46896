"""Span tracing for the traced benchmark run.

The tracer wraps the calls into each triprofile layer from the benchmark's
own code; nothing inside the package changes.  A wrapper must replace every
reference the package holds, because the package looks functions up in
several ways: ``cli`` imports ``census_fast`` and its siblings by name,
``Graph.from_edges`` is a classmethod, and ``boundary`` passes
``min_triangle_density`` to ``_bisect`` from its module globals.

A span records name, start, end, parent span and op id.  Spans stay in
memory and are written out when the run ends.  Nothing in the library waits
on a queue or a lock, so no wait time is recorded.
"""
from __future__ import annotations

import functools
import json
import logging
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

REGIONS = ("s03", "s12", "s13", "s23")

# (module, function, span name); membership spans are named per region below
SPANNED = (
    ("census", "read_edge_list", "census.read_edge_list"),
    ("census", "census_fast", "census.census_fast"),
    ("census", "graphon_densities", "census.graphon_densities"),
    ("constructions", "realize", "constructions.realize"),
    ("constructions", "limit_graphon", "constructions.limit_graphon"),
    ("boundary", "membership", "boundary.membership"),
    ("boundary", "sample_boundary", "boundary.sample_boundary"),
    ("optimizer", "maximize_grid", "optimizer.maximize_grid"),
    ("optimizer", "analytic_candidates", "optimizer.analytic_candidates"),
    ("optimizer", "stationarity_residual", "optimizer.stationarity_residual"),
    ("cli", "cmd_census", "cli.census"),
    ("cli", "cmd_sweep", "cli.sweep"),
)
FROM_EDGES = "census.Graph.from_edges"
# called tens of times per query; counted without a span
COUNTED = (
    ("boundary", "min_triangle_density", "boundary.min_triangle_density.calls"),
    ("boundary", "s13_upper_bound", "boundary.s13_upper_bound.calls"),
)
DROPPED = "optimizer.candidates_dropped"
ENUMERATED = "optimizer.candidates_enumerated"
PEAK_ALLOC = "census.census_fast.peak_alloc_mb"


def span_names() -> list:
    names = []
    for _, _, name in SPANNED:
        if name == "boundary.membership":
            names += [f"{name}.{r}" for r in REGIONS]
        else:
            names.append(name)
    return names + [FROM_EDGES]


def layer_metrics() -> list:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for name in span_names():
        out += [(f"{name}.self_s", "s/pass"), (f"{name}.calls", "count/pass"),
                (f"{name}.errors", "count/pass")]
    counted = ["census.read_edge_list.edges", f"{FROM_EDGES}.edges",
               "census.census_fast.triangles", "boundary.sample_boundary.points"]
    counted += [name for _, _, name in COUNTED] + [DROPPED, ENUMERATED]
    out += [(name, "count/pass") for name in counted]
    out += [(PEAK_ALLOC, "MB"), ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
            ("trace.overhead_s", "s")]
    return out


class _DropCounter(logging.Handler):
    """Counts the optimizer's log records for dropped radical branches."""

    def __init__(self, counts: Counter):
        super().__init__(logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        if record.msg.startswith("dropping"):
            self.counts[DROPPED] += 1


class Tracer:
    """Installs span wrappers into a loaded triprofile package."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index, op id, raised)
        self.counts = Counter()
        self.peak_alloc = 0
        self.op_id = -1     # advanced by the runner before each op
        self._stack = []
        self._undo = []
        self._region_names = {}

    def _record(self, name, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, raised)

    def _span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._record(name, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _membership(self, fn, parse_region):
        @functools.wraps(fn)
        def wrapper(region, *args, **kwargs):
            name = self._region_names.get(region)
            if name is None:
                name = f"boundary.membership.{parse_region(region)[0].value}"
                self._region_names[region] = name
            return self._record(name, fn, region, *args, **kwargs)
        return wrapper

    def _census_fast(self, fn):
        @functools.wraps(fn)
        def wrapper(g):
            tracemalloc.start()
            try:
                result = self._record("census.census_fast", fn, g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.peak_alloc = max(self.peak_alloc, peak)
            self.counts["census.census_fast.triangles"] += result.c3
            return result
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _replace(self, orig, new):
        """Point every reference the package holds to orig at new."""
        for modname, mod in list(sys.modules.items()):
            if modname != "triprofile" and not modname.startswith("triprofile."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, new)
                    self._undo.append((mod, attr, orig))

    def install(self):
        mods = {name: sys.modules[f"triprofile.{name}"]
                for name in ("census", "constructions", "boundary", "optimizer", "cli")}
        counts = self.counts
        after = {
            "census.read_edge_list":
                lambda g: counts.update({"census.read_edge_list.edges": g.m}),
            "boundary.sample_boundary":
                lambda rows: counts.update({"boundary.sample_boundary.points": len(rows)}),
            "optimizer.analytic_candidates":
                lambda cands: counts.update({ENUMERATED: len(cands)}),
        }
        for modname, fname, name in SPANNED:
            orig = getattr(mods[modname], fname)
            if name == "boundary.membership":
                new = self._membership(orig, mods["boundary"].parse_region)
            elif name == "census.census_fast":
                new = self._census_fast(orig)
            else:
                new = self._span(name, orig, after.get(name))
            self._replace(orig, new)
        for modname, fname, name in COUNTED:
            orig = getattr(mods[modname], fname)
            self._replace(orig, self._counted(name, orig))

        graph = mods["census"].Graph
        orig_cm = graph.__dict__["from_edges"]
        build = self._span(FROM_EDGES, orig_cm.__func__,
                           lambda g: counts.update({f"{FROM_EDGES}.edges": g.m}))
        graph.from_edges = classmethod(build)
        self._undo.append((graph, "from_edges", orig_cm))

        logger = logging.getLogger("triprofile.optimizer")
        handler = _DropCounter(counts)
        previous = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        self._undo.append((logger, None, (handler, previous)))

    def uninstall(self):
        while self._undo:
            target, attr, orig = self._undo.pop()
            if attr is None:
                handler, previous = orig
                target.removeHandler(handler)
                target.setLevel(previous)
            else:
                setattr(target, attr, orig)

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics per traced pass: self time, calls, errors, counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        errors = Counter()
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            errors[name] += raised
        counts = Counter(self.counts)
        counts[ENUMERATED] += counts[DROPPED]
        per_span = {"self_s": self_s, "calls": calls, "errors": errors}
        spanned = set(span_names())
        out = {}
        for name, unit in layer_metrics():
            base, _, field = name.rpartition(".")
            if name == PEAK_ALLOC:
                out[name] = (self.peak_alloc / 2 ** 20, unit)
            elif base in spanned and field in per_span:
                out[name] = (per_span[field][base] / passes, unit)
            elif not name.startswith("trace."):
                out[name] = (counts[name] / passes, unit)
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "raised"],
                       "spans": self.spans}, f)
