"""Layer spans recorded from the benchmark's side of the library boundary.

`Tracer.install` replaces every public function of each layer module (and
the public methods of its public classes) with a wrapper that records a
span, in every ``abharmonic`` namespace that holds the function, so
``harmonic.unnormalized_kernel`` and ``audit.poisson_integral`` are timed
as kernel and harmonic calls.  Private helpers are not wrapped: their
time counts as self time of the public function that called them.

Self time of a span is its duration minus the durations of the spans
nested directly inside it, so the self times of all spans add up to the
duration of the outermost ones.  Spans are aggregated as they close (per
function: calls, total time, self time) instead of being kept one by one.

A few wrappers also count work (points, grids, cases) at the same
boundary, so ratios come from where the work happens.  Spans are only
recorded while `active` is true, so output checks that call into the
library afterwards add nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = {
    "specfun": "abharmonic.specfun",
    "kernel": "abharmonic.kernel",
    "boundary": "abharmonic.boundary",
    "harmonic": "abharmonic.harmonic",
    "quad": "abharmonic._quad",
    "bounds": "abharmonic.bounds",
    "audit": "abharmonic.audit",
    "cli": "abharmonic.cli",
}

STENCILS = ("wirtinger_derivatives", "radial_angular_derivatives", "operator_residual")
AUDIT_CHECK_METRICS = {
    "check_growth": "audit.growth_s",
    "check_integral_means": "audit.means_s",
    "check_distortion": "audit.distortion_s",
    "check_partials": "audit.partials_s",
    "check_means_partials": "audit.means_partials_s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # label -> calls, total_s, self_s
        self.layer_of = {}  # label -> layer
        self.counts = defaultdict(int)
        self._grids = {}  # id(BoundaryFunction), n -> the function (kept alive so ids stay unique)
        self._stack = []  # child time accumulated by each open span

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and methods, everywhere."""
        replaced = {}
        for layer, modname in LAYERS.items():
            module = importlib.import_module(modname)
            for name, obj in vars(module).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    # a generator's body runs after the call returns, outside any span
                    replaced[obj] = self._wrap(obj, layer)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, layer)
        for modname, module in list(sys.modules.items()):
            if modname == "abharmonic" or modname.startswith("abharmonic."):
                for name, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        setattr(module, name, replaced[obj])

    def _wrap_methods(self, cls, layer: str) -> None:
        for name, obj in list(vars(cls).items()):
            if inspect.isfunction(obj) and (name == "__call__" or not name.startswith("_")):
                setattr(cls, name, self._wrap(obj, layer))

    def _wrap(self, fn, layer: str):
        label = f"{layer}.{fn.__qualname__}"
        self.layer_of[label] = layer
        stats = self.stats[label]
        stack = self._stack
        count = self._counter(fn.__qualname__, layer)
        counts_cases = layer == "audit" and fn.__name__ in AUDIT_CHECK_METRICS
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if count is not None:
                args = count(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
            if counts_cases:
                self.counts["audit.cases"] += result.cases_total
            return result

        return span

    def _counter(self, qualname: str, layer: str):
        """Work counter for the functions whose work has a natural count;
        it returns the (possibly rewrapped) positional arguments."""
        counts = self.counts
        if qualname == "BoundaryFunction.evaluate":
            def count(args, kwargs):
                counts["boundary.eval_points"] += np.size(_arg(args, kwargs, 1, "t"))
                return args
        elif qualname == "BoundaryFunction.values_on_grid":
            def count(args, kwargs):
                f, n = args[0], _arg(args, kwargs, 1, "n")
                counts["boundary.grid_calls"] += 1
                self._grids[(id(f), n)] = f
                return args
        elif qualname == "unnormalized_kernel":
            def count(args, kwargs):
                counts["kernel.points"] += np.size(_arg(args, kwargs, 1, "w"))
                return args
        elif qualname == "poisson_integral":
            def count(args, kwargs):
                counts["harmonic.dense_points"] += np.size(_arg(args, kwargs, 2, "z"))
                return args
        elif qualname == "PoissonExtension.circle_values":
            def count(args, kwargs):
                counts["harmonic.ring_calls"] += 1
                return args
        elif qualname in STENCILS:
            def count(args, kwargs):
                counts["harmonic.stencil_calls"] += 1
                return args
        elif layer == "quad" and qualname in ("integrate", "circle_mean"):
            # the integrand is evaluated exactly here; count its points
            def count(args, kwargs):
                fn = args[0] if args else kwargs.pop("fn")

                def integrand(x):
                    counts["quad.integrand_points"] += np.size(x)
                    return fn(x)

                return (integrand,) + tuple(args[1:])
        else:
            return None
        return count

    # -- reporting ----------------------------------------------------------

    def _by_layer(self, index: int) -> dict:
        """Sum of one stats column (0 calls, 2 self time) per layer."""
        out = dict.fromkeys(LAYERS, 0)
        for label, vals in self.stats.items():
            out[self.layer_of[label]] += vals[index]
        return out

    def layer_self(self) -> dict:
        return self._by_layer(2)

    def metrics(self) -> dict:
        """Per-layer metrics (see README.md); a ratio whose base is 0 reads 0."""
        self_s = self.layer_self()
        calls = self._by_layer(0)
        c = self.counts
        kernel_points = c["kernel.points"]
        grid_calls = c["boundary.grid_calls"]
        m = {
            "boundary.grid_calls": grid_calls,
            "boundary.grid_unique_ratio": len(self._grids) / grid_calls if grid_calls else 0.0,
            "boundary.eval_points": c["boundary.eval_points"],
            "boundary.self_s": self_s["boundary"],
            "kernel.calls": calls["kernel"],
            "kernel.points": kernel_points,
            "kernel.self_s": self_s["kernel"],
            "kernel.ns_per_point": (
                self.stats["kernel.unnormalized_kernel"][2] / kernel_points * 1e9 if kernel_points else 0.0
            ),
            "harmonic.dense_points": c["harmonic.dense_points"],
            "harmonic.ring_calls": c["harmonic.ring_calls"],
            "harmonic.stencil_calls": c["harmonic.stencil_calls"],
            "harmonic.self_s": self_s["harmonic"],
            "quad.calls": calls["quad"],
            "quad.integrand_points": c["quad.integrand_points"],
            "quad.self_s": self_s["quad"],
            "bounds.calls": calls["bounds"],
            "bounds.sup_grid_s": self.stats["bounds.growth_sup_grid"][1],
            "bounds.self_s": self_s["bounds"],
            "specfun.calls": calls["specfun"],
            "specfun.self_s": self_s["specfun"],
            "audit.cases": c["audit.cases"],
        }
        for fn_name, metric in AUDIT_CHECK_METRICS.items():
            m[metric] = self.stats[f"audit.{fn_name}"][1]
        m["audit.self_s"] = self_s["audit"]
        m["cli.calls"] = calls["cli"]
        m["cli.self_s"] = self_s["cli"]
        return m

    def top_functions(self, n: int = 12) -> list:
        """(label, calls, total_s, self_s) of the n functions with most self time."""
        rows = [(label, *vals) for label, vals in self.stats.items() if vals[0]]
        rows.sort(key=lambda row: row[3], reverse=True)
        return rows[:n]
