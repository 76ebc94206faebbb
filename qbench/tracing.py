"""Span tracing around the public functions of qutritsim, from outside.

A Tracer replaces each function named in layer_map.json at every site that
refers to it: module globals (``choi`` imports ``collect`` by name,
``tomography`` imports ``simulate_density`` by name, ``cli`` goes through
module attributes) and module-level dicts such as ``cli._ANALYTIC``.  Each
call while the tracer is active appends one span ``[layer, start_ns, end_ns,
parent, item]`` to an in-memory list; nothing is written until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
import time

LAYER_MAP_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layer_map.json")


def load_layer_map() -> dict:
    with open(LAYER_MAP_PATH) as f:
        return json.load(f)


def _qutritsim_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qutritsim" or name.startswith("qutritsim."))]


class Tracer:
    """Wraps the layer functions; ``active`` is on only while an item runs,
    so the benchmark's own checks never show up as spans."""

    def __init__(self):
        self.layer_map = load_layer_map()
        self.spans = []
        self.active = False
        self.item = -1
        self.counts = {"routed_gates": 0, "route_input_gates": 0,
                       "gates_simulated": 0, "settings_sampled": 0,
                       "postselect_keep": 0.0, "postselect_calls": 0}
        self._stack = []
        self._patched = []  # (container, key, original)

    def _count(self, fname, args, out):
        """Counters read from a layer call's arguments and return value."""
        c = self.counts
        if fname == "route_circuit":
            c["route_input_gates"] += len(args[0].gates)
            c["routed_gates"] += len(out.gates)
        elif fname == "simulate_density":
            c["gates_simulated"] += len(args[0].gates)
        elif fname == "collect":
            c["settings_sampled"] += len(out.settings)
        elif fname in ("project_qutrit", "project_two_qutrits"):
            c["postselect_keep"] += 1.0 - out[1]
            c["postselect_calls"] += 1

    def _wrap(self, layer, fname, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [layer, clock(), 0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            self._count(fname, args, out)
            return out

        return traced

    def install(self):
        """Patch every reference to a layer function in the loaded
        qutritsim modules."""
        modules = _qutritsim_modules()
        by_name = {m.__name__: m for m in modules}
        replace = {}
        for layer, spec in self.layer_map["layers"].items():
            for target in spec["wraps"]:
                mod, fname = target.split(".")
                orig = getattr(by_name["qutritsim." + mod], fname)
                replace[id(orig)] = (orig, self._wrap(layer, fname, orig))

        def wrapper_for(val):
            hit = replace.get(id(val))
            return hit[1] if hit is not None and hit[0] is val else None

        for m in modules:
            for key, val in list(vars(m).items()):
                if key.startswith("__"):
                    continue
                if wrapper_for(val) is not None:
                    setattr(m, key, wrapper_for(val))
                    self._patched.append((m, key, val))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if wrapper_for(v) is not None:
                            val[k] = wrapper_for(v)
                            self._patched.append((val, k, v))

    def uninstall(self):
        for container, key, orig in reversed(self._patched):
            if isinstance(container, dict):
                container[key] = orig
            else:
                setattr(container, key, orig)
        self._patched.clear()

    def layer_metrics(self, items: int, scales: dict) -> dict:
        """Per-item calls and self time of every layer, plus the counters,
        as {name: (value, unit)}.  ``scales`` maps an item id to the factor
        that calibrates its times (see calibrate.py)."""
        items = max(items, 1)
        child_ns = [0] * len(self.spans)
        for _layer, t0, t1, parent, _item in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls = dict.fromkeys(self.layer_map["layers"], 0)
        self_ns = dict.fromkeys(self.layer_map["layers"], 0)
        for i, (layer, t0, t1, _parent, item) in enumerate(self.spans):
            calls[layer] += 1
            self_ns[layer] += (t1 - t0 - child_ns[i]) * scales[item]
        out = {}
        for layer in self.layer_map["layers"]:
            out[f"{layer}.calls"] = (calls[layer] / items, "1/item")
            out[f"{layer}.self_ms"] = (self_ns[layer] / 1e6 / items, "ms/item")
        c = self.counts
        counters = {
            "coupling.gate_overhead_ratio":
                c["routed_gates"] / c["route_input_gates"] if c["route_input_gates"] else 1.0,
            "circuits.gates_simulated": c["gates_simulated"] / items,
            "encoding.postselect_keep_frac":
                c["postselect_keep"] / c["postselect_calls"] if c["postselect_calls"] else 1.0,
            "tomography.settings_sampled": c["settings_sampled"] / items,
        }
        for name, value in counters.items():
            out[name] = (value, self.unit(name))
        return out

    def unit(self, counter: str) -> str:
        return self.layer_map["counters"][counter]["unit"]

    def write_spans(self, path):
        """One span per line: layer start_ns end_ns parent_index item."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            for layer, t0, t1, parent, item in self.spans:
                f.write(f"{layer} {t0} {t1} {parent} {item}\n")
