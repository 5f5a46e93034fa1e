"""Spans around calls into the public functions of torsion_minkowski.

The benchmark records its per-layer numbers without touching the program:
for the traced pass it replaces each traced function, at every module
attribute that holds it, with a wrapper that opens a span, calls the
original and closes the span.  Callers resolve the wrapper through the
name they already use (``minkowski_solver.triangulate``,
``torsion_fem.assemble``, ``cli.solve_minkowski``, ...).  Leaving the
``installed`` context puts every original back.

A span's self time is its duration minus the durations of its direct
children; spans of one thread nest strictly, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from torsion_minkowski.mesh import check_mesh

PACKAGE = "torsion_minkowski"

# Traced functions, by defining module.  facet_measure and torsion_measure
# share the span name "boundary_measure.measure".
TRACED = {
    "support_geometry": ("build_polytope", "metrics", "minkowski_sum"),
    "mesh": ("triangulate", "refine"),
    "torsion_fem": ("solve_torsion", "assemble"),
    "boundary_measure": ("facet_measure", "torsion_measure", "hadamard_fd_check"),
    "minkowski_solver": ("solve_minkowski", "objective"),
    "cli": ("main",),
}
SPAN_ALIASES = {
    "boundary_measure.facet_measure": "boundary_measure.measure",
    "boundary_measure.torsion_measure": "boundary_measure.measure",
}
PROBE = "trace.probe"  # mesh-quality checks the benchmark runs between spans
WRAPPER_MARK = "__perfbench_span__"


@dataclass
class Span:
    name: str
    start: float
    end: float = float("nan")
    parent: int = -1
    values: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list with a stack of the spans now open."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int) -> None:
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")
        self._open.pop()
        self.spans[index].end = self.clock()


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.seconds
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def _observe(rec: Recorder, index: int, name: str, result) -> None:
    """Attach the counts a span's result carries; probe meshes for quality."""
    values = rec.spans[index].values
    if name in ("mesh.triangulate", "mesh.refine"):
        values["nodes"] = result.n_nodes
        probe = rec.open(PROBE)
        try:
            rec.spans[probe].values["min_angle_deg"] = check_mesh(result).min_angle_deg
        finally:
            rec.close(probe)
    elif name == "torsion_fem.solve_torsion":
        values["dofs"] = int(result.mesh.n_nodes - len(result.mesh.boundary_node_ids))
        values["estimator_gap"] = result.estimator_gap
    elif name == "boundary_measure.measure":
        values["closure_defect"] = result.closure_defect
    elif name == "minkowski_solver.solve_minkowski":
        values["iterations"] = result.iterations


def _wrap(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(index)
        _observe(rec, index, name, result)
        return result

    setattr(traced, WRAPPER_MARK, name)
    return traced


def _package_modules():
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


@contextmanager
def installed(rec: Recorder):
    """Trace every TRACED function at every package attribute holding it."""
    modules = _package_modules()
    patches = []
    try:
        for module_name, functions in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{module_name}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                span = f"{module_name}.{fn_name}"
                wrapper = _wrap(rec, SPAN_ALIASES.get(span, span), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patches.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)


def installed_wrappers() -> list[str]:
    """``module.attribute`` of every package attribute that is a span wrapper."""
    return sorted(f"{m.__name__}.{attr}" for m in _package_modules()
                  for attr, value in vars(m).items() if hasattr(value, WRAPPER_MARK))


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass, from the spans of all traced passes."""
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    for s, own_s in zip(spans, selfs):
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.seconds
        own[s.name] = own.get(s.name, 0.0) + own_s

    def summed(name, key):
        return sum(s.values.get(key, 0) for s in spans if s.name == name)

    def worst(name, key, pick=max):
        vals = [s.values[key] for s in spans if s.name == name and key in s.values]
        return pick(vals) if vals else 0.0

    def ratio(num, den, factor=1.0):
        return factor * num / den if den else 0.0

    def n(name):
        return calls.get(name, 0) / passes

    def t(name):
        return total.get(name, 0.0) / passes

    def st(name):
        return own.get(name, 0.0) / passes

    tri, ref = "mesh.triangulate", "mesh.refine"
    solve, obj = "torsion_fem.solve_torsion", "minkowski_solver.objective"
    nodes = summed(tri, "nodes") / passes
    dofs = summed(solve, "dofs") / passes
    iterations = summed("minkowski_solver.solve_minkowski", "iterations") / passes
    remeshes = sum(1 for i, s in enumerate(spans)
                   if s.name == tri and has_ancestor(spans, i, obj)) / passes
    return {
        "support_geometry.build_polytope.calls": (n("support_geometry.build_polytope"), "count"),
        "support_geometry.build_polytope.s": (t("support_geometry.build_polytope"), "s"),
        "support_geometry.metrics.calls": (n("support_geometry.metrics"), "count"),
        "support_geometry.metrics.s": (t("support_geometry.metrics"), "s"),
        "support_geometry.minkowski_sum.s": (t("support_geometry.minkowski_sum"), "s"),
        "mesh.triangulate.calls": (n(tri), "count"),
        "mesh.triangulate.s": (t(tri), "s"),
        "mesh.triangulate.nodes": (nodes, "count"),
        "mesh.triangulate.us_per_node": (ratio(t(tri), nodes, 1e6), "us"),
        "mesh.refine.calls": (n(ref), "count"),
        "mesh.refine.s": (t(ref), "s"),
        "mesh.refine.us_per_node": (ratio(t(ref), summed(ref, "nodes") / passes, 1e6), "us"),
        "mesh.min_angle_deg": (worst(PROBE, "min_angle_deg", min), "deg"),
        "torsion_fem.solve_torsion.calls": (n(solve), "count"),
        "torsion_fem.solve_torsion.s": (t(solve), "s"),
        "torsion_fem.solve_torsion.dofs": (dofs, "count"),
        "torsion_fem.assemble.s": (t("torsion_fem.assemble"), "s"),
        "torsion_fem.linear_s": (st(solve), "s"),
        "torsion_fem.us_per_dof": (ratio(t(solve), dofs, 1e6), "us"),
        "torsion_fem.estimator_gap_max": (worst(solve, "estimator_gap"), "ratio"),
        "boundary_measure.measure.calls": (n("boundary_measure.measure"), "count"),
        "boundary_measure.measure.s": (t("boundary_measure.measure"), "s"),
        "boundary_measure.hadamard_fd_check.self_s":
            (st("boundary_measure.hadamard_fd_check"), "s"),
        "boundary_measure.closure_defect_max":
            (worst("boundary_measure.measure", "closure_defect"), "ratio"),
        "minkowski_solver.solve_minkowski.calls":
            (n("minkowski_solver.solve_minkowski"), "count"),
        "minkowski_solver.solve_minkowski.s": (t("minkowski_solver.solve_minkowski"), "s"),
        "minkowski_solver.solve_minkowski.self_s":
            (st("minkowski_solver.solve_minkowski"), "s"),
        "minkowski_solver.objective.calls": (n(obj), "count"),
        "minkowski_solver.objective.s": (t(obj), "s"),
        "minkowski_solver.objective.self_s": (st(obj), "s"),
        "minkowski_solver.iterations": (iterations, "count"),
        "minkowski_solver.evals_per_iter": (ratio(n(obj), iterations), "ratio"),
        "minkowski_solver.remesh_ratio": (ratio(remeshes, n(obj)), "ratio"),
        "cli.main.s": (t("cli.main"), "s"),
        "cli.main.self_s": (st("cli.main"), "s"),
        "trace.probe_s": (t(PROBE), "s"),
    }
