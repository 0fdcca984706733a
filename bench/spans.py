"""Span recorder for the traced benchmark run.

Spans are taken from outside the program: `install` rebinds the names
through which one wgsteklov module calls another's public functions, so
each call into a layer runs inside a span.  Nothing inside the program is
instrumented; `polyquad` has no public boundary on the study path, so its
cost lands in the `wgcore`, `source` and `glb` spans that call it.
"""

import importlib
import resource
import time
from collections import defaultdict

# (calling module, name it calls through, span).  The caller's global is
# rebound because the callee is looked up there at call time.
TARGETS = (
    ("harness", "build_structured_mesh", "mesh.build"),
    ("glb", "build_structured_mesh", "mesh.build"),
    ("assembly", "LocalKernels", "wgcore.kernels"),
    ("harness", "assemble", "assembly.assemble"),
    ("source", "assemble", "assembly.assemble"),
    ("glb", "assemble", "assembly.assemble"),
    ("source", "interpolate", "assembly.interpolate"),
    ("harness", "condense", "eigen.condense"),
    ("harness", "solve_condensed", "eigen.solve"),
    ("glb", "solve_pair", "eigen.solve_pair"),
    ("harness", "solve_source", "source.solve"),
    ("source", "boundary_load", "source.boundary_load"),
    ("harness", "v_norm_error", "source.v_norm"),
    ("source", "discrete_v_norm", "source.discrete_v_norm"),
    ("harness", "x_norm_error", "source.x_norm"),
    ("harness", "projection_errors", "source.projection"),
    ("glb", "estimate_delta", "glb.estimate_delta"),
    ("harness", "ConvergenceReport.render", "harness.report"),
    ("harness", "SourceReport.render", "harness.report"),
    ("harness", "_emit", "harness.report"),
)

# The span around the whole CLI call; its self time is the study time
# that no layer span covers.
ROOT = "study"

# Spans whose result is an EigenResult, whose residuals are normwise
# backward errors.
EIGEN_SPANS = ("eigen.solve", "eigen.solve_pair")

# Per-layer metric -> (span, field of `summarize`, unit); a tuple of spans
# takes the largest value among them.
LAYER_METRICS = {
    "mesh.build_s": ("mesh.build", "self_s", "s"),
    "wgcore.kernels_s": ("wgcore.kernels", "self_s", "s"),
    "assembly.assemble_s": ("assembly.assemble", "self_s", "s"),
    "assembly.assemble_rss_rise_mb": ("assembly.assemble", "rss_rise_mb", "MiB"),
    "assembly.interpolate_s": ("assembly.interpolate", "self_s", "s"),
    "assembly.interpolate_calls": ("assembly.interpolate", "calls", "count"),
    "eigen.condense_s": ("eigen.condense", "self_s", "s"),
    "eigen.condense_rss_rise_mb": ("eigen.condense", "rss_rise_mb", "MiB"),
    "eigen.solve_s": ("eigen.solve", "self_s", "s"),
    "eigen.solve_pair_s": ("eigen.solve_pair", "self_s", "s"),
    "eigen.max_backward_error": (EIGEN_SPANS, "backward_error", "ratio"),
    "source.solve_s": ("source.solve", "self_s", "s"),
    "source.solve_rss_rise_mb": ("source.solve", "rss_rise_mb", "MiB"),
    "source.boundary_load_s": ("source.boundary_load", "self_s", "s"),
    "source.v_norm_s": ("source.v_norm", "self_s", "s"),
    "source.discrete_v_norm_s": ("source.discrete_v_norm", "self_s", "s"),
    "source.x_norm_s": ("source.x_norm", "self_s", "s"),
    "source.projection_s": ("source.projection", "self_s", "s"),
    "glb.estimate_delta_s": ("glb.estimate_delta", "self_s", "s"),
    "glb.estimate_delta_rss_rise_mb": ("glb.estimate_delta", "rss_rise_mb", "MiB"),
    "harness.report_s": ("harness.report", "self_s", "s"),
    "harness.other_s": (ROOT, "self_s", "s"),
}


def peak_rss_mb():
    """Peak resident set of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """In-memory list of spans: name, start, end, parent, peak-RSS rise."""

    def __init__(self):
        self.spans = []
        self._open = []

    def call(self, name, fn, args=(), kwargs=None):
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
        }
        self.spans.append(span)
        self._open.append(span)
        rss = peak_rss_mb()
        span["start"] = time.monotonic()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            span["end"] = time.monotonic()
            span["rss_rise_mb"] = peak_rss_mb() - rss
            self._open.pop()
        if name in EIGEN_SPANS:
            span["backward_error"] = float(max(result.residuals))
        return result

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return traced


def install(tracer, package="wgsteklov"):
    """Route every call in TARGETS through `tracer`.

    All targets are resolved before any is rebound, so a renamed function
    raises AttributeError here and leaves the program untouched.
    """
    resolved = []
    for module_name, attr, span in TARGETS:
        owner = importlib.import_module(f"{package}.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        resolved.append((owner, leaf, getattr(owner, leaf), span))
    for owner, leaf, fn, span in resolved:
        setattr(owner, leaf, tracer.wrap(span, fn))


def summarize(spans):
    """Per span name: summed self time, calls, summed peak-RSS rise and the
    largest backward error.  Self time is a span's duration minus that of
    its direct children, so the self times add up to the root span."""
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals = {}
    for span in spans:
        total = totals.setdefault(
            span["name"], {"self_s": 0.0, "calls": 0, "rss_rise_mb": 0.0, "backward_error": 0.0}
        )
        total["self_s"] += span["end"] - span["start"] - covered[span["id"]]
        total["calls"] += 1
        total["rss_rise_mb"] += span["rss_rise_mb"]
        total["backward_error"] = max(total["backward_error"], span.get("backward_error", 0.0))
    return totals


def layer_metrics(totals):
    """Every per-layer metric from `summarize` output; a layer the study
    never called reads 0."""
    values = {}
    for metric, (spans, field, _unit) in LAYER_METRICS.items():
        if isinstance(spans, str):
            spans = (spans,)
        values[metric] = max(totals.get(span, {}).get(field, 0) for span in spans)
    return values
