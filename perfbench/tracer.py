"""Spans around calls into the program's public functions.

The program is not edited: `patched` swaps chosen module attributes for
timing wrappers while a traced replay runs, so every call that looks the
name up in that module, from the CLI or from inside the package, records a
span.  Spans are kept in memory and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

# Layer boundaries: (module whose attribute is swapped, attribute, span name).
# A function is swapped where its callers look it up, so calls made inside
# the layer itself stay in its self time: `default_empirical_config` fits a
# density through `partialid.density`, which is not swapped, so that fit is
# part of the tuning step and not of `density.estimate_density_diff`.
BOUNDARIES = [
    ("cli", "load_sample_csv", "datamodel.load_sample_csv"),
    ("cli", "default_empirical_config", "datamodel.default_empirical_config"),
    ("cli", "load_intervals_csv", "datamodel.load_intervals_csv"),
    ("cli", "estimate_density_diff", "density.estimate_density_diff"),
    ("simulate", "estimate_density_diff", "density.estimate_density_diff"),
    ("cli", "estimate_trimmed_sets", "latepoint.estimate_trimmed_sets"),
    ("latepoint", "estimate_trimmed_sets", "latepoint.estimate_trimmed_sets"),
    ("cli", "known_tail_estimate", "latepoint.known_tail_estimate"),
    ("latepoint", "known_tail_estimate", "latepoint.known_tail_estimate"),
    ("simulate", "known_tail_estimate", "latepoint.known_tail_estimate"),
    ("cli", "conservative_union_ci", "latepoint.conservative_union_ci"),
    ("simulate", "conservative_union_ci", "latepoint.conservative_union_ci"),
    ("cli", "estimate_delta", "latebounds.estimate_delta"),
    ("cli", "estimate_bounds", "latebounds.estimate_bounds"),
    ("simulate", "draw_sample", "simulate.draw_sample"),
    ("cli", "estimated_identified_set", "dilation.estimated_identified_set"),
    ("cli", "confidence_region", "dilation.confidence_region"),
    ("dilation", "bootstrap_critical_value", "dilation.bootstrap_critical_value"),
    ("cli", "potential_outcome_bounds", "roy.potential_outcome_bounds"),
    ("roy", "solve_lp", "simplex.solve_lp"),
    ("cli", "nonrefutable_sets", "structures.analyze"),
    ("cli", "confirmable_sets", "structures.analyze"),
    ("cli", "binary_decidability", "structures.analyze"),
]

# Every layer the replays can report, in report order.  `cli.run` is the
# CLI's own glue (argument parsing, the calls no boundary covers, output).
LAYERS = [
    "cli.run",
    "datamodel.load_sample_csv",
    "datamodel.default_empirical_config",
    "datamodel.load_intervals_csv",
    "density.estimate_density_diff",
    "latepoint.estimate_trimmed_sets",
    "latepoint.known_tail_estimate",
    "latepoint.conservative_union_ci",
    "latebounds.estimate_delta",
    "latebounds.estimate_bounds",
    "simulate.design_setup",
    "simulate.draw_sample",
    "simulate.run_coverage",
    "dilation.bootstrap_critical_value",
    "dilation.estimated_identified_set",
    "dilation.confidence_region",
    "roy.closed_form",
    "roy.potential_outcome_bounds",
    "simplex.solve_lp",
    "structures.analyze",
]


def _counts(name, args, result, exc):
    """Work counts taken at a boundary, from its arguments and result."""
    if name == "datamodel.load_sample_csv" and exc is None:
        return {"rows": result.n}
    if name == "datamodel.default_empirical_config":
        return {"failed": int(exc is not None)}
    if name == "density.estimate_density_diff" and exc is None:
        sample, grid = args[1], args[4]
        return {"obs_x_grid": sample.n * len(grid)}
    if name == "latepoint.conservative_union_ci" and exc is None:
        return {"feasible": result["feasible"], "specs": 16}
    if name == "latebounds.estimate_bounds":
        return {"bound_regime": int(args[3].regime != "point")}
    if name == "dilation.confidence_region" and exc is None:
        return {"kept": len(result[0]), "scanned": len(args[0].theta_grid)}
    if name == "roy.potential_outcome_bounds":
        return {"failed": int(exc is not None)}
    if name == "simulate.run_coverage" and exc is None:
        return {"errors": result.n_errors, "reps": result.m}
    return {}


class Tracer:
    """Collects spans: (id, name, start, end, parent id, op id)."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self.op = None
        # parent for spans opened on worker threads, whose stacks are empty
        self.thread_parent = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name, spawns_threads=False):
        stack = self._stack()
        parent = stack[-1] if stack else self.thread_parent
        sid = next(self._ids)
        stack.append(sid)
        outer = self.thread_parent
        if spawns_threads:
            self.thread_parent = sid
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self.thread_parent = outer
            stack.pop()
            self.spans.append((sid, name, start, end, parent, self.op))

    def call(self, name, fn, *args, spawns_threads=False, **kwargs):
        """Run fn inside a span and record its work counts."""
        with self.span(name, spawns_threads=spawns_threads):
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._count(name, args, None, exc)
                raise
            self._count(name, args, result, None)
            return result

    def _count(self, name, args, result, exc):
        for key, value in _counts(name, args, result, exc).items():
            self.counts[name][key] += value

    @contextlib.contextmanager
    def patched(self):
        """Swap every boundary for a traced wrapper; restore on exit."""
        saved = []
        for module_name, attr, name in BOUNDARIES:
            module = importlib.import_module(f"partialid.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))

            def wrapper(*args, _fn=original, _name=name, **kwargs):
                return self.call(_name, _fn, *args, **kwargs)

            setattr(module, attr, functools.update_wrapper(wrapper, original))
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_times(self):
        """Per span name: (self seconds, calls).

        Self time is a span's duration minus the part of it that its
        children cover; children on worker threads overlap, so their
        intervals are merged before subtracting.
        """
        children = defaultdict(list)
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        busy = defaultdict(float)
        calls = defaultdict(int)
        for sid, name, start, end, _, _ in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            busy[name] += (end - start) - covered
            calls[name] += 1
        return busy, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
