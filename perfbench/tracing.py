"""Spans recorded from outside the package, and the numbers derived from them.

A span is a dict ``{id, name, start, end, parent, op, counts}`` with times
from ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans written by
a child process share the parent's time line).  Span names are
``<layer>.<function>``; the layer is the part before the first dot.
Spans are kept in memory and written as JSON lines when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from types import FunctionType

LAYERS = ("cli", "experiments", "infophase", "manifold", "control", "planner", "spins", "workspace")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as span ``name``; ``observe(result)`` may add counts to it."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if observe is not None:
                    rec["counts"].update(observe(result))
                return result

        traced.__wrapped__ = fn
        return traced

    def adopt(self, records: list[dict]) -> None:
        """Append spans recorded by a child process, under the current op."""
        offset = len(self.spans)
        for rec in records:
            rec = dict(rec)
            rec["id"] += offset
            if rec["parent"] is not None:
                rec["parent"] += offset
            rec["op"] = self.op
            self.spans.append(rec)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


class TracedModule:
    """Stands in for a module; its public functions are timed as spans."""

    def __init__(self, module, tracer: Tracer, layer: str, observers=None):
        self._module = module
        self._tracer = tracer
        self._layer = layer
        self._observers = observers or {}

    def __getattr__(self, name):
        attr = getattr(self._module, name)
        if isinstance(attr, FunctionType) and not name.startswith("_"):
            attr = self._tracer.wrap(f"{self._layer}.{name}", attr, self._observers.get(name))
        setattr(self, name, attr)
        return attr


class Api:
    """The package's layers as the workloads call them: plain modules, or traced stand-ins."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        for layer in LAYERS:
            module = importlib.import_module(f"maniflow.{layer}")
            setattr(self, layer, module if tracer is None else TracedModule(module, tracer, layer))

    def span(self, name: str):
        return nullcontext() if self.tracer is None else self.tracer.span(name)


def aggregate(spans: list[dict]) -> dict:
    """Busy time, self time and calls per span name and per layer, plus top-level time.

    A layer's busy time sums its outermost spans, so nested calls within one
    layer are not counted twice.  Self time is a span's duration minus the
    durations of its direct children.
    """
    by_id = {rec["id"]: rec for rec in spans}
    child_time: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] += rec["end"] - rec["start"]
    names: dict[str, dict] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0, "calls": 0})
    layers: dict[str, dict] = defaultdict(lambda: {"busy_s": 0.0, "self_s": 0.0})
    counts: dict[str, float] = defaultdict(float)
    top_level_s = 0.0
    for rec in spans:
        dur = rec["end"] - rec["start"]
        own = dur - child_time[rec["id"]]
        layer = rec["name"].split(".", 1)[0]
        entry = names[rec["name"]]
        entry["busy_s"] += dur
        entry["self_s"] += own
        entry["calls"] += 1
        layers[layer]["self_s"] += own
        parent = by_id.get(rec["parent"])
        if parent is None or parent["name"].split(".", 1)[0] != layer:
            layers[layer]["busy_s"] += dur
        if parent is None:
            top_level_s += dur
        for key, value in rec.get("counts", {}).items():
            counts[key] += value
    return {"names": dict(names), "layers": dict(layers), "counts": dict(counts), "top_level_s": top_level_s}
