"""Spans around contactlab's functions, recorded from outside the package.

``install`` wraps the functions of each contactlab module (``model``,
``criticality``, ``hierarchy``, ``walkers``, ``simulator``, ``cli``) and
rebinds every module attribute that refers to one of them, so calls made
through ``from .x import f`` imports are traced too.  Each call records a
span: name, start, end, parent and a few counts read from its arguments or
result.  ``layer_metrics`` turns the spans into per-layer self times and
counts; self time is a span's duration minus that of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

LAYERS = ("model", "criticality", "hierarchy", "walkers", "simulator", "cli")
# private or foreign names that are traced besides a module's public functions
EXTRA = {
    "cli": ("_write_csv", "_digest"),
    "hierarchy": ("_integrate_semigroup", "expm"),
}
RUN_METHODS = ("write_json", "write_csv", "finish")     # of cli.Run
IO_SPANS = ("cli._write_csv", "cli._digest", "cli.Run.write_json",
            "cli.Run.write_csv", "cli.Run.finish")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory; single-threaded, like contactlab itself."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.end = self.clock()
                span.error = type(exc).__name__
                _count(span, counter, args, kwargs, None, exc)
                raise
            finally:
                self._stack.pop()
            span.end = self.clock()
            _count(span, counter, args, kwargs, result, None)
            return result
        return traced


def _count(span, counter, args, kwargs, result, exc):
    """Record the counts of a call.  A counter that cannot read them raises
    into the traced command, so a changed internal fails the run's exit-code
    check instead of reading as a count of 0."""
    if counter is not None:
        span.counts.update(counter(args, kwargs, result, exc))


# ---------------------------------------------------------------------------
# counters: fn(args, kwargs, result, exc) -> dict of numbers
# ---------------------------------------------------------------------------

def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _counters(modules: dict) -> dict:
    import numpy as np

    walkers = modules["walkers"]

    def kernel_nnz(args, kwargs, result, exc):
        return {"nnz": int(np.count_nonzero(result))} if exc is None else {}

    def power_iterations(args, kwargs, result, exc):
        return {"iterations": int(result[2])} if exc is None else {}

    def pair_jumps(args, kwargs, result, exc):
        a = _bound(walkers.pair_integral_curves, args, kwargs)
        if len(a["walk"].v) != 1:
            return {}
        return {"jumps": pair_jumps_computed(a["replicas"], float(a["walk"].v[0]),
                                             a["T"])}

    def replicas(args, kwargs, result, exc):
        if exc is not None:
            return {}
        return {"replicas": len(result),
                "truncated": sum(bool(log.truncated) for log in result)}

    def integrator_steps(args, kwargs, result, exc):
        if exc is None:
            return {"steps": int(result[1]["steps"])}
        return {"steps": len(getattr(exc, "diagnostics", {}).get("increments", ()))}

    return {"model.kernel_matrix": kernel_nnz,
            "criticality.power_iteration": power_iterations,
            "walkers.pair_integral_curves": pair_jumps,
            "simulator.run_replicas": replicas,
            "hierarchy._integrate_semigroup": integrator_steps}


def pair_jumps_computed(replicas: int, rate: float, T: float) -> float:
    """Expected jumps of ``replicas`` walker pairs on [0, T], each walker at ``rate``."""
    return replicas * 2.0 * rate * T


def install(tracer: Tracer):
    """Wrap the traced functions of every layer; returns a function that undoes it."""
    modules = {layer: importlib.import_module(f"contactlab.{layer}") for layer in LAYERS}
    counters = _counters(modules)
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            own = inspect.isfunction(obj) and obj.__module__ == mod.__name__
            if not ((own and not name.startswith("_")) or name in EXTRA.get(layer, ())):
                continue
            if not callable(obj) or inspect.isgeneratorfunction(obj) or obj in wrappers:
                continue
            span = f"{layer}.{name}"
            wrappers[obj] = tracer.wrap(span, obj, counters.get(span))
    undo = []
    for mod in modules.values():
        for name, obj in list(vars(mod).items()):
            if callable(obj) and not isinstance(obj, type) and obj in wrappers:
                undo.append((mod, name, obj))
                setattr(mod, name, wrappers[obj])
    run = getattr(modules["cli"], "Run", None)
    for name in RUN_METHODS:
        fn = getattr(run, name, None)
        if fn is not None:
            undo.append((run, name, fn))
            setattr(run, name, tracer.wrap(f"cli.Run.{name}", fn))

    def restore():
        for owner, name, obj in reversed(undo):
            setattr(owner, name, obj)
    return restore


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _hierarchy_bucket(spans: list[Span], i: int) -> str:
    """stationary / evolve / divergence, by the outermost enclosing hierarchy call."""
    j = i
    while spans[j].parent >= 0 and spans[spans[j].parent].name.startswith("hierarchy."):
        j = spans[j].parent
    top = spans[j]
    if top.error == "DivergenceError":
        return "divergence"
    if top.name in ("hierarchy.stationary_k", "hierarchy.stationary_pair_mc"):
        return "stationary"
    if top.name in ("hierarchy.evolve", "hierarchy.evolve_hierarchy"):
        return "evolve"
    return "other"


GROUPS = {
    "walkers.estimate_H_s": ("walkers.estimate_H",),
    "walkers.pair_integral_s": ("walkers.pair_integral_curves",),
    "walkers.heat_bound_s": ("walkers.heat_bound_check",),
    "walkers.convolution_s": ("walkers.convolution_bound_check",
                              "walkers.iterated_convolution"),
    "walkers.poisson_domination_s": ("walkers.poisson_domination_check",
                                     "walkers.mark_chain_jump_counts"),
    "simulator.run_replicas_s": ("simulator.run_replicas", "simulator.simulate_contact",
                                 "simulator.sample_poisson_initial"),
    "simulator.moments_s": ("simulator.empirical_correlations",),
    "model.kernel_matrix_s": ("model.kernel_matrix",),
    "hierarchy.expm_s": ("hierarchy.expm",),
    "cli.io_s": IO_SPANS,
}
GROUP_OF = {span: metric for metric, names in GROUPS.items() for span in names}


def layer_metrics(spans: list[Span], wall_s: float) -> dict:
    """Per-layer self times and counts of one traced pass.

    Every span's self time lands in exactly one ``*_s`` metric: a named
    group, a hierarchy bucket, ``criticality.calibrate_s`` (all of that
    module) or ``<layer>.other_s``.  ``trace.accounted_frac`` is their sum
    over the traced wall time ``wall_s``.
    """
    m = {name: 0.0 for name in GROUPS}
    for layer in LAYERS:
        if layer != "criticality":          # all of criticality is calibrate_s
            m[f"{layer}.other_s"] = 0.0
    m.update({"hierarchy.stationary_s": 0.0, "hierarchy.evolve_s": 0.0,
              "hierarchy.divergence_s": 0.0, "criticality.calibrate_s": 0.0})
    counts = {"walkers.jumps": 0.0, "walkers.unmarked_pair_s": 0.0,
              "simulator.replicas": 0, "simulator.truncated": 0,
              "hierarchy.expm_calls": 0, "hierarchy.integrator_steps": 0,
              "model.kernel_matrix_calls": 0, "model.kernel_nnz": 0,
              "criticality.calibrate_calls": 0, "criticality.power_iterations": 0,
              "cli.commands": 0}
    own = self_times(spans)
    for i, s in enumerate(spans):
        layer = s.name.split(".", 1)[0]
        if s.name in GROUP_OF:
            m[GROUP_OF[s.name]] += own[i]
        elif layer == "criticality":
            m["criticality.calibrate_s"] += own[i]
        elif layer == "hierarchy":
            m[f"hierarchy.{_hierarchy_bucket(spans, i)}_s"] += own[i]
        else:
            m[f"{layer}.other_s"] += own[i]
        c = s.counts
        if s.name == "walkers.pair_integral_curves" and "jumps" in c:
            counts["walkers.jumps"] += c["jumps"]
            counts["walkers.unmarked_pair_s"] += own[i]
        elif s.name == "simulator.run_replicas":
            counts["simulator.replicas"] += c.get("replicas", 0)
            counts["simulator.truncated"] += c.get("truncated", 0)
        elif s.name == "hierarchy.expm":
            counts["hierarchy.expm_calls"] += 1
        elif s.name == "hierarchy._integrate_semigroup":
            counts["hierarchy.integrator_steps"] += c.get("steps", 0)
        elif s.name == "model.kernel_matrix":
            counts["model.kernel_matrix_calls"] += 1
            counts["model.kernel_nnz"] += c.get("nnz", 0)
        elif s.name == "criticality.calibrate":
            counts["criticality.calibrate_calls"] += 1
        elif s.name == "criticality.power_iteration":
            counts["criticality.power_iterations"] += c.get("iterations", 0)
        elif s.name == "cli.main":
            counts["cli.commands"] += 1
    accounted = sum(v for k, v in m.items() if k.endswith("_s"))
    m["walkers.pair_jumps_per_s"] = _ratio(counts.pop("walkers.jumps"),
                                           counts.pop("walkers.unmarked_pair_s"))
    m["simulator.replicas_per_s"] = _ratio(counts["simulator.replicas"],
                                           m["simulator.run_replicas_s"])
    m["simulator.truncated_frac"] = _ratio(counts.pop("simulator.truncated"),
                                           counts.pop("simulator.replicas"))
    m.update(counts)
    m["trace.wall_s"] = wall_s
    m["trace.accounted_frac"] = _ratio(accounted, wall_s)
    return m


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den > 0 else 0.0
