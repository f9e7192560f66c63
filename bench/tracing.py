"""Per-layer tracing from outside the package.

The tracer wraps every public function of each layer module (found by
introspection, so functions added later are traced without a change here)
and rebinds every name in the ``trapmotion`` modules that refers to one, so
cross-module calls such as ``transport -> excitation_amplitude`` and
intra-module calls such as ``transition_row -> transition_probability`` both
pass through a wrapper. Trajectories handed to or returned by a traced call
are swapped for copies whose b, b' and b'' evaluators count samples and
record their own spans, attributed to the module that defined them.

Spans (name, parent, start, end, failed, inclusive samples) are kept in
flat arrays in memory and written out by :meth:`Tracer.dump`. A layer's self
time is its spans' durations minus the durations of their direct children;
the run is single-threaded, so children never overlap and no layer waits.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import math
import sys
import time
from array import array

import numpy as np

from trapmotion.model import Axis, Trajectory

LAYERS = ("cli", "model", "quadrature", "excitation", "transitions", "oracle", "transport")

#: Window buckets for excitation_amplitude, in trap periods: a call counts
#: towards w10 below 10^1.5 periods, w100 below 10^2.5, w1000 below 10^3.5.
WINDOW_BUCKETS = (("w10", 10 ** 1.5), ("w100", 10 ** 2.5), ("w1000", 10 ** 3.5))

TABLE_SIZES = (50, 200)


def _layer_of(fn) -> str:
    module = getattr(fn, "__module__", "") or ""
    name = module.rpartition(".")[2]
    return name if module.startswith("trapmotion.") and name in LAYERS else "model"


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.layer_of_name: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_failed = array("b")
        self.span_samples = array("q")
        self._stack: list[int] = []
        self.samples = 0
        self.records: dict[str, list] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._counted: dict[int, tuple[object, object]] = {}
        self._counted_ids: set[int] = set()
        self._carriers = self._trajectory_carriers()

    # --- spans -------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of_name.append(layer)
        return idx

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_failed.append(0)
        self.span_samples.append(self.samples)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, failed: bool) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self.span_samples[idx] = self.samples - self.span_samples[idx]
        if failed:
            self.span_failed[idx] = 1

    def parent_layer(self, idx: int) -> str | None:
        parent = self.span_parent[idx]
        return None if parent < 0 else self.layer_of_name[self.span_name[parent]]

    # --- sample counting ------------------------------------------------------

    @staticmethod
    def _trajectory_carriers() -> dict[type, tuple[str, ...]]:
        """Result dataclasses of the layers that hold a Trajectory field."""
        carriers = {}
        for layer in LAYERS:
            for obj in vars(importlib.import_module(f"trapmotion.{layer}")).values():
                if inspect.isclass(obj) and dataclasses.is_dataclass(obj):
                    fields = tuple(f.name for f in dataclasses.fields(obj)
                                   if f.type in (Trajectory, "Trajectory"))
                    if fields:
                        carriers[obj] = fields
        return carriers

    def _counting_evaluator(self, fn, label: str):
        name_id = self._name_id(f"{_layer_of(fn)}.{label}", _layer_of(fn))

        def counted(t):
            self.samples += np.size(t)
            idx = self._open(name_id)
            failed = True
            try:
                out = fn(t)
                failed = False
                return out
            finally:
                self._close(idx, failed)

        return counted

    def counted(self, obj):
        """``obj`` with every reachable trajectory evaluator counting samples."""
        kind = type(obj)
        if kind is Trajectory or kind is Axis:
            key = id(obj)
            if key in self._counted_ids:
                return obj
            hit = self._counted.get(key)
            if hit is None:
                if kind is Axis:
                    new = dataclasses.replace(
                        obj, b=self._counting_evaluator(obj.b, "b"),
                        bdot=self._counting_evaluator(obj.bdot, "bdot"),
                        bddot=self._counting_evaluator(obj.bddot, "bddot"))
                else:
                    new = dataclasses.replace(obj, axes=tuple(self.counted(a) for a in obj.axes))
                hit = self._counted[key] = (obj, new)
                self._counted_ids.add(id(new))
            return hit[1]
        fields = self._carriers.get(kind)
        if fields:
            return dataclasses.replace(obj, **{f: self.counted(getattr(obj, f)) for f in fields})
        return obj

    # --- wrapping --------------------------------------------------------------

    def _wrap(self, fn, layer: str):
        qualname = f"{layer}.{fn.__name__}"
        name_id = self._name_id(qualname, layer)
        hook, wants_arguments = _HOOKS.get(qualname, (None, False))
        signature = inspect.signature(fn)
        counted = self.counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            args = tuple(map(counted, args))
            if kwargs:
                kwargs = {k: counted(v) for k, v in kwargs.items()}
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if hook:
                arguments = None
                if wants_arguments:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    arguments = bound.arguments
                hook(self, idx, arguments, result)
            return counted(result)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind their names."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"trapmotion.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, layer))
        for module_name, module in list(sys.modules.items()):
            if module_name != "trapmotion" and not module_name.startswith("trapmotion."):
                continue
            for name, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)
        self.end_pass()

    def end_pass(self) -> None:
        """Drop the counted-trajectory cache between passes to bound memory."""
        self._counted.clear()
        self._counted_ids.clear()

    # --- results ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int32),
            "start": np.frombuffer(self.span_start, dtype=np.float64),
            "end": np.frombuffer(self.span_end, dtype=np.float64),
            "failed": np.frombuffer(self.span_failed, dtype=np.int8),
            "samples": np.frombuffer(self.span_samples, dtype=np.int64),
        }

    def self_times(self, spans: dict[str, np.ndarray]) -> np.ndarray:
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        child = np.bincount(spans["parent"][has_parent], weights=duration[has_parent],
                            minlength=len(duration))
        return duration - child

    def dump(self, path) -> None:
        """Write every span, its name table and layer table to ``path`` (.npz)."""
        np.savez_compressed(path, names=np.array(self.names), layers=np.array(self.layer_of_name),
                            **self.arrays())

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass: ``{name: (value, unit)}``."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        self_time = self.self_times(spans)
        layer_ids = np.array([LAYERS.index(layer) for layer in self.layer_of_name], dtype=np.int64)
        span_layer = layer_ids[spans["name"]] if len(spans["name"]) else np.zeros(0, np.int64)
        out: dict[str, tuple[float, str]] = {}
        for i, layer in enumerate(LAYERS):
            mine = span_layer == i
            out[f"{layer}.calls"] = (int(np.sum(mine)) / passes, "count")
            out[f"{layer}.self_s"] = (float(np.sum(self_time[mine])) / passes, "s")
            out[f"{layer}.failed"] = ((int(np.sum(spans["failed"][mine]))
                                       + len(self.records.get(f"{layer}.failed", ()))) / passes,
                                      "count")
        out["model.samples"] = (self.samples / passes, "count")

        def mean(values, scale=1.0):
            return float(np.mean(values)) * scale if len(values) else 0.0

        def named(qualname):
            name_id = self._name_ids.get(qualname, -1)
            return np.flatnonzero(spans["name"] == name_id)

        calls = self.records.get("excitation", [])
        for bucket, _ in WINDOW_BUCKETS:
            idx = [i for i, b in calls if b == bucket]
            out[f"excitation.ms_per_call.{bucket}"] = (mean(duration[idx], 1e3), "ms")
            out[f"excitation.samples_per_call.{bucket}"] = (mean(spans["samples"][idx]), "count")

        outer = self.records.get("transitions.outer", [])
        probs = sum(n for _, n, _ in outer)
        out["transitions.probs"] = (probs / passes, "count")
        outer_time = float(np.sum(duration[[i for i, _, _ in outer]])) if outer else 0.0
        out["transitions.ns_per_prob"] = (outer_time / probs * 1e9 if probs else 0.0, "ns")
        tables = self.records.get("transitions.table", [])
        for size in TABLE_SIZES:
            idx = [i for i, L in tables if L == size]
            out[f"transitions.ms_per_table.L{size}"] = (mean(duration[idx], 1e3), "ms")
        out["transitions.ms_per_row"] = (mean(duration[named("transitions.transition_row")], 1e3),
                                         "ms")
        out["transitions.nonfinite"] = (sum(bad for _, _, bad in outer) / passes, "count")

        props = self.records.get("oracle.propagate", [])
        steps = sum(s for _, s, _ in props)
        step_points = sum(s * p for _, s, p in props)
        out["oracle.steps"] = (steps / passes, "count")
        prop_time = float(np.sum(duration[[i for i, _, _ in props]])) if props else 0.0
        out["oracle.us_per_step_point"] = (prop_time / step_points * 1e6 if step_points else 0.0,
                                           "us")

        solves = self.records.get("transport.optimize", [])
        evals = named("transport.objective")
        out["transport.solves"] = (len(solves) / passes, "count")
        out["transport.evaluations"] = (len(evals) / passes, "count")
        out["transport.evals_per_solve"] = (len(evals) / len(solves) if solves else 0.0, "count")
        out["transport.ms_per_solve"] = (mean(duration[[i for i, _ in solves]], 1e3), "ms")
        out["transport.ms_per_eval"] = (mean(duration[evals], 1e3), "ms")
        out["transport.converged_ratio"] = (
            sum(ok for _, ok in solves) / len(solves) if solves else 0.0, "ratio")
        return out


# --- hooks: per-call data that the span alone does not carry ------------------------

def _record(tracer: Tracer, key: str, item) -> None:
    tracer.records.setdefault(key, []).append(item)


def _on_excitation(tracer, idx, arguments, result):
    periods = arguments["t"] / arguments["params"].period
    bucket = next((name for name, limit in WINDOW_BUCKETS if periods < limit), None)
    if bucket:
        _record(tracer, "excitation", (idx, bucket))


def _on_transitions(tracer, idx, arguments, result):
    """Count probabilities delivered to callers outside the layer."""
    if tracer.parent_layer(idx) == "transitions":
        return
    values = np.asarray(getattr(result, "probs", result))
    if values.dtype.kind not in "fc":
        return
    _record(tracer, "transitions.outer", (idx, values.size, int(np.sum(~np.isfinite(values)))))


def _on_table(tracer, idx, arguments, result):
    _on_transitions(tracer, idx, arguments, result)
    _record(tracer, "transitions.table", (idx, arguments["max_level"]))


def _on_propagate(tracer, idx, arguments, result):
    # steps computed from the inputs exactly as propagate sizes its loop
    state, params = arguments["state"], arguments["params"]
    span = arguments["t_final"] - state.t
    step = params.period / arguments["steps_per_period"]
    steps = 0 if span == 0 else max(1, int(math.ceil(span / step)))
    _record(tracer, "oracle.propagate", (idx, steps, state.grid.points))


def _on_cli_main(tracer, idx, arguments, result):
    if result != 0:
        _record(tracer, "cli.failed", idx)


def _on_optimize(tracer, idx, arguments, result):
    _record(tracer, "transport.optimize", (idx, bool(result.converged)))


#: qualified name -> (hook, whether it reads the call's arguments)
_HOOKS = {
    "excitation.excitation_amplitude": (_on_excitation, True),
    "transitions.transition_table": (_on_table, True),
    "transitions.transition_row": (_on_transitions, False),
    "transitions.transition_probability": (_on_transitions, False),
    "transitions.transition_amplitude": (_on_transitions, False),
    "transitions.multi_axis_probability": (_on_transitions, False),
    "transitions.degenerate_probability": (_on_transitions, False),
    "transitions.coherent_amplitude": (_on_transitions, False),
    "oracle.propagate": (_on_propagate, True),
    "transport.optimize": (_on_optimize, False),
    "cli.main": (_on_cli_main, False),
}
