"""Per-layer tracing of equiflow from outside the program.

`installed(tracer)` replaces the public functions and methods named below with
wrappers that record one span per call, then puts every original back.  A
function can be bound under its name in several modules (`ggn_matrix` sits in
`equiflow.flows`, `equiflow.harness` and the package itself), so the installer
patches every binding in every loaded `equiflow` module.  Methods are patched
on their class.

Spans are aggregated in memory as they close: per span name, the call count
and the self time, which is the span's duration minus the time its child spans
cover.  No clock is read inside the program.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from contextlib import contextmanager

from equiflow import ALGORITHMS, SingularMatrixError

# Module-level functions, by defining module.  Span name: "<layer>.<function>".
FUNCTIONS = {
    "diffcalc": ("gradient", "hessian", "jacobian", "second_derivatives"),
    "flows": ("ggn_matrix",),
    "geometry": ("pushforward_tangent", "pushforward_state", "sample_diffeomorphism"),
    "integrate": ("integrate",),
    "harness": ("classify_equivariance",),
}

# Spans whose calls and self time are reported, beside one "flows.call.<algorithm>"
# span per algorithm.
SPANS = (
    "diffcalc.gradient",
    "diffcalc.hessian",
    "diffcalc.jacobian",
    "diffcalc.second_derivatives",
    "flows.ggn_matrix",
    "geometry.pushforward_tangent",
    "geometry.pushforward_state",
    "geometry.christoffel_at",
    "geometry.sample_diffeomorphism",
    "integrate.integrate",
    "harness.classify_equivariance",
    "harness.build",
    "harness.precheck",
)


class Tracer:
    """Call counts, self times and counters of the spans recorded in one pass.

    `algorithm` names the algorithm whose unit the benchmark is running; flow
    evaluations are attributed to it.
    """

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.algorithm = "unknown"
        self.flows = []  # every FlowField built, kept alive so ids stay unique
        self._open = []  # child time of each open span, innermost last
        self._base_flow_ids = set()
        self._integrating = 0
        self._precheck_active = False

    def timed(self, name, fn, *args, **kwargs):
        self._open.append(0)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter_ns() - start
            child = self._open.pop()
            if self._open:
                self._open[-1] += elapsed
            self.calls[name] += 1
            self.self_ns[name] += elapsed - child

    def metrics(self) -> dict:
        """Per-layer metrics of this pass: `<span>.calls`, `<span>.self_ms` and counters."""
        spans = list(SPANS) + [f"flows.call.{alg}" for alg in ALGORITHMS]
        out = {}
        for name in spans:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_ms"] = self.self_ns[name] / 1e6
        out["flows.pinv_cutoff_hits"] = sum(
            flow.metadata.get("pinv_cutoff_points", 0) for flow in self.flows
        )
        out["flows.singular_refusals"] = self.counts["singular_refusals"]
        out["integrate.steps"] = self.counts["steps"]
        out["integrate.rhs_evals"] = self.counts["rhs_evals"]
        base_calls = self.counts["precheck_base_calls"]
        out["harness.precheck.accept_ratio"] = (
            self.counts["precheck_accepted"] / base_calls if base_calls else 0.0
        )
        return out


def _span(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.timed(name, fn, *args, **kwargs)

    return wrapper


def _flow_call(tracer, original):
    # Counts rhs evaluations made inside integrate spans, singular refusals,
    # and base-chart evaluations after an active pre-check: classify_equivariance
    # evaluates its base flow once per accepted state.
    @functools.wraps(original)
    def __call__(flow, state):
        if tracer._integrating:
            tracer.counts["rhs_evals"] += 1
        if tracer._precheck_active and id(flow) in tracer._base_flow_ids:
            tracer.counts["precheck_accepted"] += 1
        try:
            return tracer.timed(f"flows.call.{tracer.algorithm}", original, flow, state)
        except SingularMatrixError:
            tracer.counts["singular_refusals"] += 1
            raise

    return __call__


def _build(tracer, original):
    @functools.wraps(original)
    def build(builder, reparam=None):
        flow = tracer.timed("harness.build", original, builder, reparam)
        tracer.flows.append(flow)
        if reparam is None:
            tracer._base_flow_ids.add(id(flow))
        return flow

    return build


def _inverted_matrix_fn(tracer, original):
    @functools.wraps(original)
    def inverted_matrix_fn(builder, reparam):
        fn = original(builder, reparam)
        if fn is None:
            return None
        base = reparam is None
        if base:
            tracer._precheck_active = True

        def precheck(theta):
            if base:
                tracer.counts["precheck_base_calls"] += 1
            return tracer.timed("harness.precheck", fn, theta)

        return precheck

    return inverted_matrix_fn


def _classify(tracer, original):
    @functools.wraps(original)
    def classify_equivariance(*args, **kwargs):
        tracer._precheck_active = False
        try:
            return tracer.timed("harness.classify_equivariance", original, *args, **kwargs)
        finally:
            tracer._precheck_active = False

    return classify_equivariance


def _integrate(tracer, original):
    @functools.wraps(original)
    def integrate(*args, **kwargs):
        tracer._integrating += 1
        try:
            trajectory = tracer.timed("integrate.integrate", original, *args, **kwargs)
        finally:
            tracer._integrating -= 1
        tracer.counts["steps"] += len(trajectory.states) - 1
        return trajectory

    return integrate


_SPECIAL_FUNCTIONS = {
    "harness.classify_equivariance": _classify,
    "integrate.integrate": _integrate,
}

# (module, class, method) -> wrapper factory
_METHODS = {
    ("flows", "FlowField", "__call__"): _flow_call,
    ("geometry", "Connection", "christoffel_at"): (
        lambda tracer, fn: _span(tracer, "geometry.christoffel_at", fn)
    ),
    ("harness", "FlowBuilder", "build"): _build,
    ("harness", "FlowBuilder", "inverted_matrix_fn"): _inverted_matrix_fn,
}


def equiflow_modules() -> list:
    """The loaded modules of the equiflow package, the package first."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "equiflow" or name.startswith("equiflow.")
    ]


@contextmanager
def installed(tracer: Tracer):
    """Route every traced function and method of equiflow through `tracer`."""
    modules = equiflow_modules()
    patches = []  # (owner, attribute, original)
    try:
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"equiflow.{layer}")
            for name in names:
                original = getattr(home, name)
                span = f"{layer}.{name}"
                factory = _SPECIAL_FUNCTIONS.get(span)
                wrapper = factory(tracer, original) if factory else _span(tracer, span, original)
                for module in modules:
                    for attribute, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attribute, original))
                            setattr(module, attribute, wrapper)
        for (layer, cls_name, method), factory in _METHODS.items():
            cls = getattr(importlib.import_module(f"equiflow.{layer}"), cls_name)
            original = cls.__dict__[method]
            patches.append((cls, method, original))
            setattr(cls, method, factory(tracer, original))
        yield tracer
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)
