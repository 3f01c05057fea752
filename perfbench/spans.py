"""Span recording around calls into stripflow's public functions.

A Tracer replaces each target function at every import site (every
attribute of a loaded ``stripflow`` module bound to the same object), so a
call made inside the package, such as ``solver.step`` calling
``to_physical``, is recorded as well as a call made by the benchmark.
Spans are kept in memory as (name, start, end, parent, trace) rows; the
trace id groups the spans of one batch of work.  Self time is computed
afterwards from the span tree.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

#: module -> public functions wrapped in a traced run
TARGETS = {
    "solver": ("step", "nonlinear_term", "admissible_dt", "make_initial_data"),
    "transforms": ("to_physical", "to_spectral", "physical_max"),
    "operators": ("velocity_from_vorticity", "derivative_x", "derivative_y"),
    "propagators": ("pair_step_matrix", "pair_values", "propagate_linear_pair",
                    "sigma_lambda"),
    "diagnostics": ("energy_report", "theorem_suite", "fit_rate"),
    "analysis": ("continuum_linear_decay", "kernel_decay_integral",
                 "kernel_decay_integral_polar", "verify_symbol_bounds",
                 "nu_star_grid_search"),
    "oracles": ("pair_reference",),
    "snapshots": ("save_state", "load_state"),
    "config": ("parse_config",),
    "experiments": ("run",),
    "cli": ("main",),
}

#: lru_cache-fronted functions whose cache_info() gives a hit ratio
CACHED = (("solver", "dealias_mask"), ("propagators", "pair_step_matrix"))


def _transform_bytes(args, out):
    """Input plus output array bytes of one to_physical/to_spectral call."""
    src = args[0]
    data_in = src.coeff if hasattr(src, "coeff") else src.values
    data_out = out.coeff if hasattr(out, "coeff") else out.values
    return data_in.nbytes + data_out.nbytes


def _snapshot_bytes(args, out):
    """Bytes of the files one save_state call wrote."""
    return sum(p.stat().st_size for p in out)


#: traced function -> (counter, bytes of one call)
BYTE_COUNTERS = {
    "transforms.to_physical": ("transforms.bytes_computed", _transform_bytes),
    "transforms.to_spectral": ("transforms.bytes_computed", _transform_bytes),
    "snapshots.save_state": ("snapshots.bytes_written", _snapshot_bytes),
}


def _cache_counts():
    out = {}
    for mod, name in CACHED:
        info = getattr(importlib.import_module(f"stripflow.{mod}"), name).cache_info()
        out[f"{mod}.{name}"] = (info.hits, info.misses)
    return out


class Tracer:
    """Records spans and byte counters while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self.trace = 0
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = BYTE_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.trace]
            spans.append(row)
            stack.append(idx)
            row[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](args, out)
            return out

        return traced

    def install(self):
        """Replace every target at each of its import sites."""
        modules = [m for key, m in list(sys.modules.items())
                   if key == "stripflow" or key.startswith("stripflow.")]
        for mod_name, names in TARGETS.items():
            mod = importlib.import_module(f"stripflow.{mod_name}")
            for name in names:
                orig = getattr(mod, name)
                wrapper = self._wrap(f"{mod_name}.{name}", orig)
                for m in modules:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def run(self, fn, *args):
        """Call fn(*args) under a root span with a new trace id.

        Returns (fn's result, stats) where stats["trace"] is the trace id,
        stats["cache"] maps each cached
        function to its (hits, calls) during the call, read from
        cache_info() before and after, and stats["counters"] holds the byte
        counters the call added.
        """
        self.trace += 1
        before = _cache_counts()
        counters_before = dict(self.counters)
        self.install()
        try:
            out = self._wrap("batch", fn)(*args)
        finally:
            self.uninstall()
        after = _cache_counts()
        cache = {}
        for key, (hits, misses) in after.items():
            h0, m0 = before[key]
            cache[key] = (hits - h0, hits - h0 + misses - m0)
        counters = {k: v - counters_before.get(k, 0) for k, v in self.counters.items()}
        return out, {"trace": self.trace, "cache": cache, "counters": counters}

    def dump(self, path):
        """Write every span, once, as JSON."""
        doc = {"columns": ["name", "start", "end", "parent", "trace"],
               "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(spans):
    """Per span: its duration minus the part its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so a covered instant is subtracted once.
    """
    children = defaultdict(list)
    for i, row in enumerate(spans):
        if row[3] >= 0:
            children[row[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cur_a = cur_b = None
        for a, b in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[i]):
            if b <= a:
                continue
            if cur_b is None or a > cur_b:
                if cur_b is not None:
                    covered += cur_b - cur_a
                cur_a, cur_b = a, b
            else:
                cur_b = max(cur_b, b)
        if cur_b is not None:
            covered += cur_b - cur_a
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """trace -> name -> {calls, self_s, total_s} over that trace's spans.

    total_s sums span durations, so it is the inclusive time of functions
    that do not call themselves.
    """
    out = defaultdict(lambda: defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}))
    for row, s in zip(spans, self_times(spans)):
        rec = out[row[4]][row[0]]
        rec["calls"] += 1
        rec["self_s"] += s
        rec["total_s"] += row[2] - row[1]
    return {trace: dict(names) for trace, names in out.items()}
