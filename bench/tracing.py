"""Per-layer spans recorded from outside the package.

Wrappers replace package functions at the module attribute their caller
looks up at call time: `heuristics` imported the model-building functions
and `testbed` imported `solve_sdp`, `bs_policy` and `mp_policy` by name,
so those are patched in the importing module. Solver spans come through the
heuristics' public `backend=` parameter. A name that a later refactor
removed is reported as missing; the run itself goes on without it.

A span's self time is its duration minus the durations of its direct
children, so the self times of all spans plus the benchmark's own loop
time add up to the traced wall time.
"""
from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict


class Tracer:
    """Spans and counters, recorded only while `enabled` is set."""

    def __init__(self):
        self.enabled = False
        self.request = None          # instance name shared by its spans
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = defaultdict(float)
        self.spans = []              # (name, parent index, start, end, request)
        self.missing = []
        self._stack = []             # [span index, seconds in child spans]
        self._patches = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [index, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            stat = self.stats[name]
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration - frame[1]
            self.spans[index] = (name, parent, start, end, self.request)

    def wrap(self, name, fn, after=None):
        """`fn` inside a span; `after(result, args, kwargs)` counts work."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None and self.enabled:
                after(result, args, kwargs)
            return result
        return wrapper

    def patch(self, module, attr, make_wrapper):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        setattr(module, attr, make_wrapper(original))
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, parent, start, end, _ in self.spans
                   if parent == -1)

    def layer_self_seconds(self) -> dict:
        out = defaultdict(float)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return dict(sorted(out.items()))


class TracingBackend:
    """Solver backend that records spans around the backend it wraps."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def solve(self, model):
        result = self.tracer.call("solver.solve_exact", self.inner.solve, model)
        self.tracer.counts["solver.nodes"] += getattr(result, "node_count", 0)
        return result

    def evaluator(self, model):
        return _TracingEvaluator(self.inner.evaluator(model), model.horizon,
                                 self.tracer)


class _TracingEvaluator:
    """Enumerations of a no-first-order model, counted per call."""

    def __init__(self, inner, horizon: int, tracer: Tracer):
        self.inner = inner
        self.patterns = 2 ** (horizon - 1)
        self.tracer = tracer

    def free_minimum(self):
        return self._enumerate("solver.free_minimum", self.inner.free_minimum)

    def cost_at(self, x):
        return self._enumerate("solver.cost_at", self.inner.cost_at, x)

    def _enumerate(self, name, fn, *args):
        before = getattr(self.inner, "nodes", 0)
        try:
            return self.tracer.call(name, fn, *args)
        finally:
            nodes = getattr(self.inner, "nodes", 0) - before
            counts = self.tracer.counts
            counts["solver.nodes"] += nodes
            counts["solver.bs_nodes"] += nodes
            counts["solver.bs_enumerations"] += 1
            counts["solver.bs_patterns"] += self.patterns

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _policy_wrapper(tracer, capture, solver, method, fn):
    """Times and captures a heuristic; injects the tracing backend."""
    name = f"heuristics.{method}_policy"
    signature = inspect.signature(fn)
    backend_cls = getattr(solver, "ExactBackend", None)
    if "backend" not in signature.parameters or backend_cls is None:
        tracer.missing.append(f"solver spans under {name} (no backend=)")
        backend_cls = None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled and backend_cls is not None:
            bound = signature.bind(*args, **kwargs)
            if bound.arguments.get("backend") is None:
                bound.arguments["backend"] = TracingBackend(backend_cls(), tracer)
                args, kwargs = bound.args, bound.kwargs
        start = time.perf_counter()
        policy = tracer.call(name, fn, *args, **kwargs)
        capture.policy_s[method] = time.perf_counter() - start
        capture.policies[method] = policy
        if tracer.enabled and method == "bs":
            counts = tracer.counts
            counts["heuristics.bs.periods"] += policy.horizon
            counts["heuristics.bs.flagged"] += len(
                getattr(policy, "flagged_periods", ()))
        return policy
    return wrapper


def _oracle_wrapper(tracer, capture, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        capture.oracle = tracer.call("sdp.solve_sdp", fn, *args, **kwargs)
        return capture.oracle
    return wrapper


def install(tracer: Tracer, capture, layers: bool) -> None:
    """Capture wrappers on testbed's calls; layer wrappers when `layers`."""
    from sspolicy import heuristics, model, sdp, simulate, solver, testbed

    tracer.patch(testbed, "solve_sdp",
                 lambda fn: _oracle_wrapper(tracer, capture, fn))
    for method in ("bs", "mp"):
        tracer.patch(testbed, f"{method}_policy",
                     lambda fn, m=method: _policy_wrapper(
                         tracer, capture, solver, m, fn))
    if not layers:
        return

    counts = tracer.counts

    def count_rows(model_, args, kwargs):
        counts["model.rows_total"] += sum(
            len(getattr(model_, part, ()))
            for part in ("rows", "indicators", "piecewise", "cuts"))

    def count_simulation(result, args, kwargs):
        instance = args[0] if args else kwargs["instance"]
        reps = result.replications * instance.horizon
        counts["simulate.period_reps"] += reps
        counts["simulate.truncated"] += result.truncation_frequency * reps

    def span(name, after=None):
        return lambda fn: tracer.wrap(name, fn, after)

    tracer.patch(testbed, "run_instance", span("testbed.run_instance"))
    tracer.patch(sdp, "solve_sdp", span("sdp.solve_sdp"))
    tracer.patch(simulate, "simulate_policy",
                 span("simulate.simulate_policy", count_simulation))
    tracer.patch(heuristics, "build_segments", span("model.build_segments"))
    tracer.patch(heuristics, "build_minlp_s",
                 span("model.build_minlp_s", count_rows))
    tracer.patch(heuristics, "build_joint",
                 span("model.build_joint", count_rows))
    tracer.patch(model, "piecewise_loss", span("loss.piecewise_loss"))


# spans whose calls and self time are reported per instance
SPAN_METRICS = (
    "solver.free_minimum", "solver.cost_at", "solver.solve_exact",
    "heuristics.bs_policy", "heuristics.mp_policy",
    "model.build_segments", "model.build_minlp_s", "model.build_joint",
    "loss.piecewise_loss", "sdp.solve_sdp", "simulate.simulate_policy",
    "testbed.run_instance",
)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, instances: int, loop_s: float,
                  setup_parts: dict, overhead_pct: float) -> dict:
    """Per-layer metrics: {name: (value, unit)}; work is per instance."""
    c = tracer.counts
    stats = tracer.stats
    out = {}
    for name in SPAN_METRICS:
        calls, _, self_s = stats[name] if name in stats else (0, 0.0, 0.0)
        out[f"{name}.calls"] = (_ratio(calls, instances), "calls/inst")
        out[f"{name}.self_s"] = (_ratio(self_s, instances), "s/inst")
    cost_at_calls = stats["solver.cost_at"][0] if "solver.cost_at" in stats else 0
    sdp_self = stats["sdp.solve_sdp"][2] if "sdp.solve_sdp" in stats else 0.0
    sim_self = (stats["simulate.simulate_policy"][2]
                if "simulate.simulate_policy" in stats else 0.0)
    out.update({
        "solver.nodes": (_ratio(c["solver.nodes"], instances), "nodes/inst"),
        "solver.bs_nodes_per_enumeration": (
            _ratio(c["solver.bs_nodes"], c["solver.bs_enumerations"]),
            "nodes/enum"),
        "solver.bs_pattern_share": (
            _ratio(c["solver.bs_nodes"], c["solver.bs_patterns"]), "ratio"),
        "heuristics.bs.bisection_steps_per_suffix": (
            _ratio(cost_at_calls, c["heuristics.bs.periods"]), "steps/suffix"),
        "heuristics.bs.flagged_frac": (
            _ratio(c["heuristics.bs.flagged"], c["heuristics.bs.periods"]),
            "ratio"),
        "model.rows_total": (_ratio(c["model.rows_total"], instances),
                             "rows/inst"),
        "loss.cached_partition_s": (setup_parts["partition_s"], "s"),
        "testbed.build_instances_s": (setup_parts["build_instances_s"], "s"),
        "sdp.grid_levels": (_ratio(c["sdp.grid_levels"], c["sdp.solutions"]),
                            "levels/solve"),
        "sdp.level_atom_cells": (
            _ratio(c["sdp.level_atom_cells"], c["sdp.solutions"]),
            "cells/solve"),
        "sdp.cells_per_s": (_ratio(c["sdp.level_atom_cells"], sdp_self),
                            "cells/s"),
        "simulate.period_reps": (
            _ratio(c["simulate.period_reps"], instances), "reps/inst"),
        "simulate.s_per_M_period_reps": (
            _ratio(sim_self, c["simulate.period_reps"] / 1e6), "s/Mreps"),
        "simulate.truncation_frequency": (
            _ratio(c["simulate.truncated"], c["simulate.period_reps"]),
            "ratio"),
        "bench.loop_s": (_ratio(loop_s, instances), "s/inst"),
        "trace.overhead_pct": (overhead_pct, "%"),
    })
    return out
