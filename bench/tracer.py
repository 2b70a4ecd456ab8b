"""Span tracing of relkin's public functions, from outside the package.

Each traced function is replaced, in every module namespace that binds it
(relkin's own and the benchmark's), by a wrapper that records a span: name,
start, end, parent span and op id.  Self time is a span's duration minus
the time its direct child spans cover.  Peak allocation comes from
tracemalloc, to which numpy reports its buffers.  Spans stay in memory and
are written out when the run ends.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
import tracemalloc

# The layers are relkin's modules; these are the functions traced in each.
TRACED = {
    "twr": ("simulate_exchanges", "TimestampExchangeSet.from_csv"),
    "ranging": ("build_design", "wls_solve", "crb_theta"),
    "kinematics": ("range_matrices", "RangeMatrices.from_pair_vectors"),
    "embedding": ("classical_mds", "procrustes_align", "spectral_embed",
                  "grams_from_ranges", "solve_relative", "estimate_rotation"),
    "bounds": ("fim_position", "fim_velocity", "crb_trace"),
    "experiments": ("run_experiment", "check_report", "emit_outputs"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
ROOT = "op"  # the span around one whole op, opened by the benchmark itself


class Tracer:
    def __init__(self):
        # (span, parent, op, name, start_ns, end_ns, self_ns, peak_alloc_bytes or None)
        self.spans = []
        self._stack = []  # [span, name, start_ns, child_ns, base_bytes, peak_bytes]
        self._found = None
        self._next_id = 0
        self._op = None
        self._memory = False

    # -- patching ---------------------------------------------------------
    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()
        return traced

    def _bindings(self):
        """(namespace, attribute, original, wrapper) for every binding of a traced function.

        Found once, on the first traced op, across all loaded modules, so calls
        made through any import of a traced function are recorded.
        """
        if self._found is None:
            self._found = []
            for name in FUNCTIONS:
                mod_name, _, attr = name.partition(".")
                owner = sys.modules[f"relkin.{mod_name}"]
                if "." in attr:  # a classmethod, patched on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    self._found.append((cls, meth, raw, classmethod(self._wrap(name, raw.__func__))))
                    continue
                orig = getattr(owner, attr)
                wrapper = self._wrap(name, orig)
                for mod in list(sys.modules.values()):
                    for key, val in list(getattr(mod, "__dict__", {}).items()):
                        if val is orig:
                            self._found.append((mod, key, orig, wrapper))
        return self._found

    def _install(self):
        for owner, key, _, wrapper in self._bindings():
            setattr(owner, key, wrapper)

    def _uninstall(self):
        for owner, key, orig, _ in self._bindings():
            setattr(owner, key, orig)

    # -- spans ------------------------------------------------------------
    def _enter(self, name):
        cur = 0
        if self._memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent[5] = max(parent[5], peak)
            tracemalloc.reset_peak()
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0, cur, cur])

    def _exit(self):
        end = time.perf_counter_ns()
        span, name, start, child_ns, base, span_peak = self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        dur = end - start
        if parent is not None:
            parent[3] += dur
        alloc = None
        if self._memory:
            span_peak = max(span_peak, tracemalloc.get_traced_memory()[1])
            alloc = span_peak - base
            if parent is not None:
                parent[5] = max(parent[5], span_peak)
        self.spans.append((span, parent[0] if parent else 0, self._op, name,
                           start, end, dur - child_ns, alloc))

    def start(self, op_id, memory=False):
        """Begin tracing one op: patch relkin and open its root span.

        Timing and allocation tracing go on separate ops, because tracemalloc
        slows allocation-heavy Python code several-fold and would distort the
        self times.
        """
        self._op, self._memory = op_id, memory
        if memory:
            tracemalloc.start()
        self._install()
        self._enter(ROOT)

    def stop(self):
        self._exit()
        self._uninstall()
        if self._memory:
            tracemalloc.stop()
        self._op = None

    # -- results ----------------------------------------------------------
    def summary(self, n_timed_ops):
        """calls/total_s/self_s per timed op, peak_alloc_mb over memory-traced ops,
        and each module's self_s per timed op."""
        stats = {name: [0, 0, 0, 0] for name in FUNCTIONS}
        for _, _, _, name, start, end, self_ns, alloc in self.spans:
            if name == ROOT:
                continue
            s = stats[name]
            if alloc is None:
                s[0] += 1
                s[1] += end - start
                s[2] += self_ns
            else:
                s[3] = max(s[3], alloc)
        out = {}
        for name, (calls, total, self_ns, peak) in stats.items():
            out[f"{name}.calls"] = (calls / n_timed_ops, "count")
            out[f"{name}.total_s"] = (total / n_timed_ops * 1e-9, "s")
            out[f"{name}.self_s"] = (self_ns / n_timed_ops * 1e-9, "s")
            out[f"{name}.peak_alloc_mb"] = (peak / 2**20, "MB")
        for mod, fns in TRACED.items():
            self_ns = sum(stats[f"{mod}.{fn}"][2] for fn in fns)
            out[f"{mod}.self_s"] = (self_ns / n_timed_ops * 1e-9, "s")
        return out

    def write(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("span", "parent", "op", "name", "start_ns", "end_ns",
                             "self_ns", "peak_alloc_bytes"))
            writer.writerows(self.spans)
