"""Per-layer tracing of devport, installed from outside the package.

Each traced function is replaced by a wrapper on the module that defines
it. That is the only place every caller sees: the modules call each other
through module attributes (``lp.solve``, ``geometry.extreme_filter``) or
module globals, while ``devport/__init__`` and the ``from .x import y``
lines hold the original functions. The benchmark itself therefore calls
the library through the defining modules too.

Spans nest on a stack. A span's self time is its duration minus the time
covered by the traced spans it called.
"""
from __future__ import annotations

import time
from collections import defaultdict

import numpy as np


def _lp_counters(args, result):
    problem = args[0]
    rows = problem.b_ub.size + problem.b_eq.size
    return {
        "cells": rows * problem.n_vars,
        "not_optimal": float(result.status != "Optimal"),
    }


def _filter_counters(args, result):
    points = np.asarray(args[0])
    points_in = 1 if points.ndim == 1 else points.shape[0]
    return {"points_in": points_in, "points_kept": result.n_vertices}


def _steiner_counters(args, result):
    _point, err = result
    return {"mc_calls": float(np.any(err != 0.0))}


def _envelope_counters(args, result):
    return {"generators": result.n_generators}


def _generator_counters(args, result):
    return {"raw_rows": args[1].n_generators, "kept_rows": result.count}


# (module, function, span name, extra counters). The envelope builders share
# one span name so that envelope.build covers every way an envelope is made.
TRACED = [
    ("lp", "solve", "lp.solve", _lp_counters),
    ("geometry", "extreme_filter", "geometry.extreme_filter", _filter_counters),
    ("geometry", "steiner_point", "geometry.steiner_point", _steiner_counters),
    ("geometry", "enumerate_face_vertices", "geometry.enumerate_face_vertices", None),
    ("geometry", "intersect", "geometry.intersect", None),
    ("geometry", "minkowski_sum", "geometry.minkowski_sum", None),
    ("envelope", "build_mad", "envelope.build", _envelope_counters),
    ("envelope", "build_cvar", "envelope.build", _envelope_counters),
    ("envelope", "build_mixed_cvar", "envelope.build", _envelope_counters),
    ("envelope", "build_custom", "envelope.build", _envelope_counters),
    ("envelope", "mix", "envelope.build", _envelope_counters),
    ("envelope", "max_combine", "envelope.build", _envelope_counters),
    ("envelope", "scale", "envelope.build", _envelope_counters),
    ("forward", "portfolio_risk_generators", "forward.portfolio_risk_generators",
     _generator_counters),
    ("forward", "solve_forward", "forward.solve_forward", None),
    ("inverse", "inverse_solution_set", "inverse.inverse_solution_set", None),
    ("inverse", "robust_mu", "inverse.robust_mu", None),
    ("inverse", "robust_selector", "inverse.robust_selector", None),
    ("inverse", "law_invariant_selector", "inverse.law_invariant_selector", None),
    ("allocation", "capital_allocation", "allocation.capital_allocation", None),
    ("allocation", "cooperative_envelope", "allocation.cooperative_envelope", None),
    ("allocation", "solve_cooperative", "allocation.solve_cooperative", None),
    ("blacklitterman", "bl_pipeline", "blacklitterman.bl_pipeline", None),
    ("blacklitterman", "posterior_space", "blacklitterman.posterior_space", None),
]

# Reported counters beyond calls and self_s, with their units per problem.
EXTRA = {
    "lp.solve": ("cells", "not_optimal", "errors"),
    "geometry.extreme_filter": ("points_in", "points_kept"),
    "geometry.steiner_point": ("mc_calls",),
    "envelope.build": ("generators",),
    "forward.portfolio_risk_generators": ("raw_rows", "kept_rows"),
}


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for span in dict.fromkeys(name for _m, _f, name, _c in TRACED):
        specs.append((f"{span}.calls", "count/problem"))
        specs.append((f"{span}.self_s", "s/problem"))
        for counter in EXTRA.get(span, ()):
            specs.append((f"{span}.{counter}", "count/problem"))
    specs.append(("geometry.extreme_filter.keep_ratio", "ratio"))
    return specs


class Tracer:
    """Wraps the traced functions of one devport import and sums spans."""

    def __init__(self, modules):
        self._modules = modules
        self._originals = []
        self._stack: list[list[float]] = []
        self.totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def _wrap(self, fn, span, counters):
        totals = self.totals
        stack = self._stack

        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                # The deadline is a BaseException: it is not the layer's error.
                totals[span]["errors"] += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                row = totals[span]
                row["calls"] += 1
                row["self_s"] += elapsed - children[0]
            if counters is not None:
                for key, value in counters(args, result).items():
                    totals[span][key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, span, counters in TRACED:
            module = getattr(self._modules, module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, counters))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def metrics(self, problems: int, time_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each summed over the run and divided by problems.

        Self times are multiplied by time_scale, to put them in the same
        units as the end-to-end times.
        """
        out = {}
        for name, unit in metric_specs():
            span, _, counter = name.rpartition(".")
            row = self.totals[span]
            if counter == "keep_ratio":
                kept, seen = row["points_kept"], row["points_in"]
                out[name] = (kept / seen if seen else 0.0, unit)
            else:
                scale = time_scale if counter == "self_s" else 1.0
                out[name] = (row[counter] * scale / max(problems, 1), unit)
        return out
