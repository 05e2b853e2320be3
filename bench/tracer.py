"""Spans at confield's layer boundaries, recorded from outside the program.

Every confield module imports the functions it calls by name, so a call
into a boundary goes through the name bound in the calling module.  The
tracer replaces that binding, in every module that holds it (the defining
module included, for calls inside a layer), by a wrapper that records one
span per call: boundary, calling module, start, end and the enclosing span.
Spans are kept in flat arrays in memory and written out when the run ends;
per-boundary calls, total time and self time (the span minus the time its
child spans cover) are computed from them afterwards.  A few counts are
taken from the arguments and results at the same boundaries.
"""
from __future__ import annotations

import importlib
import time
from array import array

import numpy as np

# (layer, function) pairs that are wrapped, in report order.
BOUNDARIES = (
    ("expr", "eval_jets"),
    ("expr", "eval_values_many"),
    ("expr", "eval_jet"),
    ("geometry", "metric_jets"),
    ("geometry", "christoffel_matrix"),
    ("geometry", "connection_data"),
    ("geometry", "field_jets"),
    ("geometry", "spd_inverse"),
    ("conformal", "is_conformal"),
    ("conformal", "conformal_residual"),
    ("conformal", "conformal_factor_gradient"),
    ("geodesic", "integrate_geodesic"),
    ("geodesic", "exp_map"),
    ("geodesic", "taylor_scalar_check"),
    ("geodesic", "taylor_vector_check"),
    ("geodesic", "dxi_identity_residual"),
    ("essential", "find_zeros"),
    ("essential", "classify_zero"),
    ("essential", "limit_point_audit"),
    ("zeroset", "trace_component"),
    ("zeroset", "second_fundamental_form"),
    ("zeroset", "umbilicity_report"),
    ("cli", "run_manifest"),
    ("cli", "render_report"),
)

# Modules whose namespaces may bind a boundary function.
CALLERS = ("confield", "expr", "geometry", "conformal", "geodesic",
           "essential", "zeroset", "models", "cli")

COUNTS = (
    "expr.jets.order0",
    "expr.jets.order1",
    "expr.jets.order2",
    "expr.eval_values_many.points",
    "geometry.metric_jets.order0.calls",
    "geometry.metric_jets.order1.calls",
    "geometry.metric_jets.order2.calls",
    "conformal.is_conformal.points",
    "geodesic.rk4_steps",
    "essential.find_zeros.zeros",
    "zeroset.trace_component.built",
    "zeroset.trace_component.failures",
    "cli.report_bytes",
)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _count_jets(counts, args, kwargs, result):
    order = _arg(args, kwargs, 2, "order", 0)
    counts[f"expr.jets.order{order}"] += len(result)


def _count_jet(counts, args, kwargs, result):
    counts[f"expr.jets.order{_arg(args, kwargs, 2, 'order', 0)}"] += 1


def _count_values(counts, args, kwargs, result):
    counts["expr.eval_values_many.points"] += int(np.shape(result)[1])


def _count_metric(counts, args, kwargs, result):
    counts[f"geometry.metric_jets.order{_arg(args, kwargs, 2, 'order')}.calls"] += 1


def _count_conformal(counts, args, kwargs, result):
    counts["conformal.is_conformal.points"] += len(result.points)


def _count_rk4(counts, args, kwargs, result):
    counts["geodesic.rk4_steps"] += len(result) - 1


def _count_zeros(counts, args, kwargs, result):
    counts["essential.find_zeros.zeros"] += len(result)


def _count_built(counts, args, kwargs, result):
    counts["zeroset.trace_component.built"] += 1


def _count_bytes(counts, args, kwargs, result):
    counts["cli.report_bytes"] += len(result.encode("utf-8"))


_HOOKS = {
    "eval_jets": _count_jets,
    "eval_jet": _count_jet,
    "eval_values_many": _count_values,
    "metric_jets": _count_metric,
    "is_conformal": _count_conformal,
    "integrate_geodesic": _count_rk4,
    "find_zeros": _count_zeros,
    "trace_component": _count_built,
    "render_report": _count_bytes,
}


class Tracer:
    """Context manager that wraps every boundary while it is active."""

    def __init__(self):
        self.boundary_names = [f"{layer}.{fn}" for layer, fn in BOUNDARIES]
        self.starts = array("q")
        self.ends = array("q")
        self.names = array("i")
        self.callers = array("i")
        self.parents = array("i")
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = [-1]
        self._patched = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name_id: int, caller_id: int, hook):
        starts, ends, names = self.starts, self.ends, self.names
        callers, parents, stack = self.callers, self.parents, self._stack
        counts = self.counts
        failures_key = ("zeroset.trace_component.failures"
                        if fn.__name__ == "trace_component" else None)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            callers.append(caller_id)
            parents.append(stack[-1])
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if failures_key:
                    counts[failures_key] += 1
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        modules = {m: importlib.import_module("confield" if m == "confield"
                                              else f"confield.{m}")
                   for m in CALLERS}
        for name_id, (layer, fn_name) in enumerate(BOUNDARIES):
            original = getattr(modules[layer], fn_name)
            for caller_id, caller in enumerate(CALLERS):
                module = modules[caller]
                for attr, value in list(vars(module).items()):
                    if value is original:
                        wrapped = self._wrap(original, name_id, caller_id,
                                             _HOOKS.get(fn_name))
                        setattr(module, attr, wrapped)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "start_ns": np.frombuffer(self.starts, dtype=np.int64),
            "end_ns": np.frombuffer(self.ends, dtype=np.int64),
            "boundary": np.frombuffer(self.names, dtype=np.int32),
            "caller": np.frombuffer(self.callers, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
        }

    def layer_table(self) -> dict:
        """Calls, total and self seconds per boundary and per caller."""
        a = self.arrays()
        nb = len(BOUNDARIES)
        dur = (a["end_ns"] - a["start_ns"]).astype(float) * 1e-9
        has_parent = a["parent"] >= 0
        covered = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                              minlength=len(dur))
        own = dur - covered
        calls = np.bincount(a["boundary"], minlength=nb)
        total = np.bincount(a["boundary"], weights=dur, minlength=nb)
        self_s = np.bincount(a["boundary"], weights=own, minlength=nb)
        pair = a["boundary"] * len(CALLERS) + a["caller"]
        pair_calls = np.bincount(pair, minlength=nb * len(CALLERS))
        pair_total = np.bincount(pair, weights=dur, minlength=nb * len(CALLERS))
        table = {}
        for b, name in enumerate(self.boundary_names):
            by_caller = {
                CALLERS[c]: {"calls": int(pair_calls[b * len(CALLERS) + c]),
                             "total_s": float(pair_total[b * len(CALLERS) + c])}
                for c in range(len(CALLERS)) if pair_calls[b * len(CALLERS) + c]
            }
            table[name] = {"calls": int(calls[b]), "total_s": float(total[b]),
                           "self_s": float(self_s[b]), "by_caller": by_caller}
        return table

    def save(self, path) -> None:
        np.savez_compressed(path, boundaries=np.array(self.boundary_names),
                            callers=np.array(CALLERS), **self.arrays())
