"""Spans around the calls into quadkick's modules, installed from outside.

``install`` rebinds each listed function in every module namespace that
calls it, so the program's own files are untouched.  Spans live in memory
and are written out once at the end.  A span that opened no child span is
a leaf; leaves are folded per (parent, name) into a count and a summed
duration, which is all self time needs and keeps the readout's tens of
thousands of x²(t) calls per operation from filling memory.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

# module namespace -> functions it calls through a module-level name
WRAP = {
    "quadkick.cli": ("integrate_langevin", "analyze_trace", "free_x2_expectation", "sweep",
                     "apply_schedule", "parse_schedule", "load_config"),
    "quadkick.planner": ("propagate", "kick_matrix", "free_matrix", "dissipate",
                         "min_pulses", "two_pulse_variance", "decoherence_term"),
    "quadkick.kicks": ("propagate", "kick_matrix", "free_matrix", "dissipate"),
}

# function -> the module (layer) that defines it
LAYER = {
    "integrate_langevin": "readout", "analyze_trace": "readout",
    "free_x2_expectation": "state", "propagate": "state",
    "apply_schedule": "kicks", "kick_matrix": "kicks", "free_matrix": "kicks",
    "two_pulse_variance": "kicks",
    "dissipate": "dissipation", "decoherence_term": "dissipation",
    "sweep": "planner", "min_pulses": "planner",
    "load_config": "config", "parse_schedule": "cli",
}


def _sized(name):
    """Counter derived from a call's result, or None."""
    if name == "integrate_langevin":
        return lambda r: {"readout.rk4_steps": len(r.times) - 1}
    if name == "apply_schedule":
        return lambda r: {"kicks.apply_schedule.segments": len(r) - 1}
    if name == "sweep":
        return lambda r: {"planner.sweep.cells": len(r),
                          "planner.sweep.error_cells": sum(c.error is not None for c in r)}
    return None


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id)
        self.leaves = {}       # (parent id, name) -> [count, total seconds]
        self.counters = {}
        self.stack = []        # open spans: [id, name, start, has_child]
        self.next_id = 0
        self.absent = []
        self._undo = []

    def call(self, name, fn, args, kwargs):
        sid = self.next_id
        self.next_id += 1
        if self.stack:
            self.stack[-1][3] = True
        frame = [sid, name, 0.0, False]
        self.stack.append(frame)
        frame[2] = start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            parent = self.stack[-1][0] if self.stack else None
            if frame[3]:
                self.spans.append((sid, name, start, end, parent))
            else:
                agg = self.leaves.setdefault((parent, name), [0, 0.0])
                agg[0] += 1
                agg[1] += end - start

    def count(self, values: dict):
        for k, v in values.items():
            self.counters[k] = self.counters.get(k, 0) + v

    def wrap(self, name, fn):
        sized = _sized(fn.__name__)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if sized is not None:
                try:
                    tracer.count(sized(result))
                except (AttributeError, TypeError):
                    pass
            return result

        return traced

    def install(self):
        """Wrap every listed function; names a module lacks are recorded as absent."""
        self.absent = []
        for mod_name, names in WRAP.items():
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.absent += [f"{mod_name}.{n}" for n in names]
                continue
            for fn_name in names:
                fn = getattr(mod, fn_name, None)
                if not callable(fn):
                    self.absent.append(f"{mod_name}.{fn_name}")
                    continue
                self._undo.append((mod, fn_name, fn))
                setattr(mod, fn_name, self.wrap(f"{LAYER[fn_name]}.{fn_name}", fn))

    def uninstall(self):
        for mod, fn_name, fn in reversed(self._undo):
            setattr(mod, fn_name, fn)
        self._undo.clear()

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent}) + "\n")
            for (parent, name), (n, total) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "parent": parent, "count": n,
                                     "total": total}) + "\n")


def layer_totals(spans, leaves) -> dict:
    """Per span name: calls, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children (full spans and folded leaves); children of one caller never
    overlap in this single-threaded program.
    """
    child_time = {}
    for sid, name, start, end, parent in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    for (parent, name), (n, total) in leaves.items():
        child_time[parent] = child_time.get(parent, 0.0) + total
    out = {}
    for sid, name, start, end, parent in spans:
        t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["total_s"] += end - start
        t["self_s"] += (end - start) - child_time.get(sid, 0.0)
    for (parent, name), (n, total) in leaves.items():
        t = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        t["calls"] += n
        t["total_s"] += total
        t["self_s"] += total
    return out


def per_layer_metrics(tracer: Tracer, bytes_out: int, overhead_frac: float) -> dict:
    """The per-layer metrics BENCHMARK.json declares, as name -> (value, unit)."""
    t = layer_totals(tracer.spans, tracer.leaves)
    c = tracer.counters

    def get(name, key):
        return t.get(name, {}).get(key, 0)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {}
    for name, keys in (
        ("readout.integrate_langevin", ("calls", "self_s")),
        ("readout.analyze_trace", ("self_s",)),
        ("state.free_x2_expectation", ("calls", "self_s")),
        ("state.propagate", ("calls", "self_s")),
        ("kicks.apply_schedule", ("calls", "self_s")),
        ("kicks.kick_matrix", ("calls",)),
        ("kicks.free_matrix", ("calls",)),
        ("kicks.two_pulse_variance", ("calls", "self_s")),
        ("dissipation.dissipate", ("calls", "self_s")),
        ("dissipation.decoherence_term", ("calls",)),
        ("planner.sweep", ("self_s",)),
        ("planner.min_pulses", ("calls", "self_s")),
        ("config.load_config", ("calls", "self_s")),
        ("cli.main", ("self_s",)),
        ("cli.parse_schedule", ("self_s",)),
    ):
        for key in keys:
            m[f"{name}.{key}"] = (get(name, key), "count" if key == "calls" else "s")
    steps = c.get("readout.rk4_steps", 0)
    cells = c.get("planner.sweep.cells", 0)
    m["readout.rk4_steps"] = (steps, "count")
    m["readout.rk4_steps_per_s"] = (rate(steps, get("readout.integrate_langevin", "total_s")), "1/s")
    m["kicks.apply_schedule.segments"] = (c.get("kicks.apply_schedule.segments", 0), "count")
    m["planner.sweep.cells"] = (cells, "count")
    m["planner.sweep.error_cells"] = (c.get("planner.sweep.error_cells", 0), "count")
    m["planner.sweep.cells_per_s"] = (rate(cells, get("planner.sweep", "total_s")), "1/s")
    m["cli.bytes_out"] = (bytes_out, "B")
    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    return m
