"""Layer spans for xpmsim, recorded from outside the package.

install() replaces each layer's public function with a wrapper in every
xpmsim module that binds it: sweeps, copropagating and headon import their
callees by name, so patching only the defining module would miss calls.
Methods are replaced on their class. Each outermost call of a layer
becomes one span carrying its thread, its parent span and a few work
counts. A call nested directly inside a span of the same layer (the
commutator kernel calls the sinc kernel) belongs to the outer span.

Spans are kept in memory; summary() turns them into the per-layer
metrics: busy time summed over threads, self time (busy time minus the
time of nested spans of other layers) and counts.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time

import numpy as np


def _size(args, kwargs, result):
    return {"elems": int(np.size(args[0]))}


def _grids(args, kwargs, result):
    grid1, grid2 = result
    return {"z1_nodes": grid1.n, "amp_bytes": 16 * grid1.n * grid2.n}


def _points(args, kwargs, result):
    return {"points": int(np.size(args[3]))}


def _entries(at):
    def count(args, kwargs, result):
        return {"entries": int(args[at].psi.size)}
    return count


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[2])}


# layer -> (module, function or Class.method) it wraps, extra work counts
LAYERS = {
    "kernel": [("xpmsim.numerics", "sinc_kernel", _size),
               ("xpmsim.numerics", "commutator_kernel", _size)],
    "coeff.c1": [("xpmsim.copropagating", "compute_C1", None)],
    "coeff.c2": [("xpmsim.copropagating", "compute_C2", None)],
    "coeff.transition": [("xpmsim.copropagating", "transition_k0", None)],
    "grids": [("xpmsim.copropagating", "interaction_grids", _grids)],
    "entropy.sweep": [("xpmsim.copropagating", "entropy_phase_sweep", _points)],
    "route.grid": [("xpmsim.copropagating", "grid_metrics_copropagating", None)],
    "amp.copro": [("xpmsim.copropagating", "two_particle_copropagating", None)],
    "state.normalize": [("xpmsim.state", "normalize", _entries(0))],
    "state.overlap": [("xpmsim.state", "overlap", _entries(1))],
    "state.reduced_kernel": [("xpmsim.state", "reduced_kernel", _entries(0))],
    "tables.ensure": [("xpmsim.headon", "InteractionTables.ensure", None)],
    "tables.at": [("xpmsim.headon", "InteractionTables.at", None)],
    "tables.line_moments": [("xpmsim.headon", "InteractionTables.line_moments", None)],
    "amp.closed": [("xpmsim.headon", "two_particle_headon_closed", None)],
    "amp.series": [("xpmsim.headon", "two_particle_headon_series", None)],
    "evolution": [("xpmsim.headon", "fidelity_evolution", None)],
    "collision_entropy": [("xpmsim.headon", "collision_entropy", None)],
    "task": [("xpmsim.cli.sweeps", "run_task", None)],
    "render": [("xpmsim.cli.output", "emit", _bytes)],
}

# metric name -> (layer, field); fields are calls, busy_s, self_s or a count
COUNTS = {
    "kernel.calls": ("kernel", "calls"),
    "kernel.elems": ("kernel", "elems"),
    "coeff.c1.calls": ("coeff.c1", "calls"),
    "coeff.c2.calls": ("coeff.c2", "calls"),
    "coeff.transition.c1_calls": ("coeff.transition", "c1_calls"),
    "grids.z1_nodes": ("grids", "z1_nodes"),
    "entropy.sweep.points": ("entropy.sweep", "points"),
    "route.grid.calls": ("route.grid", "calls"),
    "state.normalize.calls": ("state.normalize", "calls"),
    "state.overlap.calls": ("state.overlap", "calls"),
    "state.entries": ("state.*", "entries"),
    "tables.at.calls": ("tables.at", "calls"),
    "tables.line_moments.calls": ("tables.line_moments", "calls"),
    "amp.closed.calls": ("amp.closed", "calls"),
    "amp.series.calls": ("amp.series", "calls"),
    "render.bytes": ("render", "bytes"),
}


class Recorder:
    """Spans of one process, appended from any thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer: str, fn, extra):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1]["layer"] == layer:
                return fn(*args, **kwargs)
            frame = {"layer": layer, "id": next(self._ids),
                     "parent": stack[-1]["id"] if stack else None, "child_s": 0.0}
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(stack, frame, fn, start)
                raise
            span = self._close(stack, frame, fn, start)
            if extra is not None:
                span.update(extra(args, kwargs, result))
            return result
        return traced

    def _close(self, stack: list, frame: dict, fn, start: float) -> dict:
        end = time.perf_counter()
        stack.pop()
        if stack:
            stack[-1]["child_s"] += end - start
        span = {"id": frame["id"], "parent": frame["parent"], "layer": frame["layer"],
                "func": fn.__name__, "thread": threading.get_ident(),
                "start": start, "end": end, "self_s": end - start - frame["child_s"]}
        self.spans.append(span)
        return span

    def export(self) -> list[dict]:
        """Spans in start order; thread 0 is the main thread, pool threads follow."""
        threads = {threading.main_thread().ident: 0}
        return [dict(s, thread=threads.setdefault(s["thread"], len(threads)))
                for s in sorted(self.spans, key=lambda s: s["start"])]

    def summary(self) -> dict:
        """Per-layer metrics of every span recorded so far."""
        by_id = {s["id"]: s for s in self.spans}
        out = {}
        for layer in LAYERS:
            mine = [s for s in self.spans if s["layer"] == layer]
            out[f"{layer}.busy_s"] = sum(s["end"] - s["start"] for s in mine)
            out[f"{layer}.self_s"] = sum(s["self_s"] for s in mine)
        for name, (layer, field) in COUNTS.items():
            if layer == "state.*":
                mine = [s for s in self.spans if s["layer"].startswith("state.")]
            else:
                mine = [s for s in self.spans if s["layer"] == layer]
            if field == "calls":
                out[name] = len(mine)
            elif field == "c1_calls":
                out[name] = sum(1 for s in self.spans if s["layer"] == "coeff.c1"
                                and _has_ancestor(s, layer, by_id))
            else:
                out[name] = sum(s.get(field, 0) for s in mine)
        amp = [s["amp_bytes"] for s in self.spans if "amp_bytes" in s]
        out["grids.amp_mb"] = max(amp, default=0) / 2 ** 20
        return out


def metric_names() -> list[str]:
    """Every metric summary() reports."""
    timed = [f"{layer}.{field}" for layer in LAYERS for field in ("busy_s", "self_s")]
    return timed + list(COUNTS) + ["grids.amp_mb"]


def _has_ancestor(span: dict, layer: str, by_id: dict) -> bool:
    parent = span["parent"]
    while parent is not None:
        node = by_id[parent]
        if node["layer"] == layer:
            return True
        parent = node["parent"]
    return False


def install() -> Recorder:
    """Wrap every layer function in all loaded xpmsim modules."""
    rec = Recorder()
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "xpmsim" or name.startswith("xpmsim."))]
    for layer, targets in LAYERS.items():
        for module_name, qualname, extra in targets:
            owner = sys.modules[module_name]
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, rec.wrap(layer, getattr(cls, meth), extra))
                continue
            original = getattr(owner, qualname)
            traced = rec.wrap(layer, original, extra)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)
    return rec
