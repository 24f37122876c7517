"""Spans around armctl's public functions, installed from outside the library.

A Tracer replaces each measured function at every name an armctl module
binds it under (``armctl.simulator.forward_dynamics``,
``armctl.linearization.forward_dynamics``, ``armctl.gain_table.lqr_gain``,
the package namespace, ...), so calls made inside the library get spans
with the calling span as their parent.  A span's self time is its duration
minus the durations of its direct children, so the self times of all layers
plus the time spent outside any span add up to the traced wall time.

Spans are folded into per-function aggregates as they close; nothing is
written until the run ends.  Calls made inside ``precompute`` worker
processes are not collected.
"""

from __future__ import annotations

import itertools
import sys
import time
from array import array
from collections import Counter

import numpy as np

# The measured layers: module of src/armctl -> its public functions.
# kinematics, cli and errors are left out: none is on a control or build path.
LAYERS = {
    "simulator": ("simulate", "step_rk4"),
    "dynamics": ("forward_dynamics", "total_energy", "equilibrium_torque", "joint_inertias"),
    "numdiff": ("jacobian",),
    "linearization": ("linearize", "equilibrium_point"),
    "riccati": ("lqr_gain", "solve_care"),
    "gain_table": ("lookup", "precompute", "refine", "save", "load"),
    "config": ("parse_config",),
}
SPAN_STATS = {
    "calls": ("count", "higher"),
    "busy_s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "us_p50": ("us", "lower"),
    "failed": ("count", "lower"),
}
# Counts taken at span boundaries and the trace's own accounting.
EXTRA_METRICS = {
    "gain_table.lookup.flat.us_p50": ("us", "lower"),
    "gain_table.lookup.refined.us_p50": ("us", "lower"),
    "gain_table.precompute.nodes": ("count", "higher"),
    "gain_table.refine.solves": ("count", "lower"),
    "gain_table.refine.leaves": ("count", "lower"),
    "gain_table.refine.flagged": ("count", "lower"),
    "gain_table.refine.corner_dup_ratio": ("ratio", "lower"),
    "gain_table.save.bytes": ("bytes", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.layer_self_s": ("s", "lower"),
    "trace.bench_self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def span_names() -> list[str]:
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every metric a traced run emits: name -> (unit, better)."""
    out = {
        f"{span}.{stat}": unit_better
        for span in span_names()
        for stat, unit_better in SPAN_STATS.items()
    }
    out.update(EXTRA_METRICS)
    return out


class _Span:
    __slots__ = ("calls", "busy_ns", "self_ns", "failed", "durations")

    def __init__(self):
        self.calls = 0
        self.busy_ns = 0
        self.self_ns = 0
        self.failed = 0
        self.durations = array("q")


def _median_us(durations) -> float:
    if not durations:
        return 0.0
    return float(np.median(np.frombuffer(durations, dtype=np.int64))) / 1e3


def _corner_dup_ratio(table) -> float:
    """Stored corner gains over distinct corner coordinates."""
    leaves = table.leaves()
    unique = {
        corner
        for leaf in leaves
        for corner in itertools.product(*zip(leaf.lo, leaf.hi))
    }
    return 16 * len(leaves) / len(unique)


class Tracer:
    """Installs spans with ``with tracer:`` and removes them on exit.

    Only time spent inside ``with`` blocks counts towards ``wall_s``.
    """

    def __init__(self):
        import armctl  # noqa: F401  (loads every module that binds a layer)

        self.spans = {name: _Span() for name in span_names()}
        self.lookup_ns = {"flat": array("q"), "refined": array("q")}
        self.precompute_nodes = 0
        self.save_bytes = 0
        self.edges = Counter()  # (parent span, child span) -> calls
        self.wall_ns = 0
        self.overhead = None  # (untraced s, traced s) of the same work
        self.largest_refine = (0, 0, 0, 0.0)  # leaves, flagged, solves, dup ratio
        self._refine_solves_seen = 0
        self._stack = []
        self._patches = []
        self._originals = {
            getattr(sys.modules[f"armctl.{module}"], fn): f"{module}.{fn}"
            for module, fns in LAYERS.items()
            for fn in fns
        }
        self._refined_type = sys.modules["armctl.gain_table"].RefinedTable

    def __enter__(self):
        wrappers = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "armctl" or name.startswith("armctl.")):
                continue
            for attr, value in list(vars(module).items()):
                span = self._originals.get(value) if callable(value) else None
                if span is None:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(span, value)
                setattr(module, attr, wrappers[value])
                self._patches.append((module, attr, value))
        self._entered = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.wall_ns += time.perf_counter_ns() - self._entered
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        span = self.spans[name]
        stack = self._stack
        edges = self.edges
        after = getattr(self, "_after_" + name.split(".")[1], None)

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed += 1
                raise
            finally:
                duration = time.perf_counter_ns() - start
                stack.pop()
                span.calls += 1
                span.busy_ns += duration
                span.self_ns += duration - frame[1]
                span.durations.append(duration)
                if parent is not None:
                    parent[1] += duration
                    edges[parent[0], name] += 1
            if after is not None:
                after(args, result, duration)
            return result

        traced.__wrapped__ = fn
        return traced

    # per-function counts, taken when a span closes without error

    def _after_lookup(self, args, result, duration):
        kind = "refined" if isinstance(args[0], self._refined_type) else "flat"
        self.lookup_ns[kind].append(duration)

    def _after_precompute(self, args, result, duration):
        self.precompute_nodes += result.grid.n_nodes

    def _after_refine(self, args, result, duration):
        # each corner or center solve starts with one equilibrium_point call
        total = self.edges["gain_table.refine", "linearization.equilibrium_point"]
        solves, self._refine_solves_seen = total - self._refine_solves_seen, total
        leaves = result.leaves()
        built = (len(leaves), len(result.flagged_leaves()), solves, _corner_dup_ratio(result))
        self.largest_refine = max(self.largest_refine, built)

    def _after_save(self, args, result, duration):
        self.save_bytes += len(result)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; see per_layer_metrics() for units."""
        out = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = span.calls
            out[f"{name}.busy_s"] = span.busy_ns / 1e9
            out[f"{name}.self_s"] = span.self_ns / 1e9
            out[f"{name}.us_p50"] = _median_us(span.durations)
            out[f"{name}.failed"] = span.failed
        out["gain_table.lookup.flat.us_p50"] = _median_us(self.lookup_ns["flat"])
        out["gain_table.lookup.refined.us_p50"] = _median_us(self.lookup_ns["refined"])
        out["gain_table.precompute.nodes"] = self.precompute_nodes
        out["gain_table.save.bytes"] = self.save_bytes
        (
            out["gain_table.refine.leaves"],
            out["gain_table.refine.flagged"],
            out["gain_table.refine.solves"],
            out["gain_table.refine.corner_dup_ratio"],
        ) = self.largest_refine
        layer_self = sum(span.self_ns for span in self.spans.values()) / 1e9
        out["trace.wall_s"] = self.wall_ns / 1e9
        out["trace.layer_self_s"] = layer_self
        out["trace.bench_self_s"] = self.wall_ns / 1e9 - layer_self
        untraced, traced = self.overhead
        out["trace.overhead_s"] = traced - untraced
        out["trace.overhead_frac"] = (traced - untraced) / untraced
        return out
