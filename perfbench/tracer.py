"""Outside-in tracer for the qhjlab layer modules.

Wraps every public function of the layer modules in a span recorder and
rebinds the wrapper in every loaded ``qhjlab`` module that holds the
original, because ``from .fields import derivative`` copies the binding and
patching ``qhjlab.fields`` alone would miss those callers.  Nothing under
``src/`` changes.  Spans are (name, start, end, parent index) and stay in
memory until :meth:`Tracer.dump`.  Spans nest on one stack, which holds
because the benchmark runs the serial path (``QHJLAB_THREADS`` unset).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

LAYERS = ("fields", "schrodinger", "microstates", "uncertainty", "duality", "hierarchy", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.functions = []         # names of the wrapped functions
        self._stack = []
        self.solves = []            # [method, distinct key, rk4 steps] per pair construction
        self.counters = {"cli.write_csv.rows": 0, "cli.bytes_written": 0,
                         "uncertainty.scan_items": 0}
        self._observers = {
            "schrodinger.solve_pair": self._on_solve_pair,
            "schrodinger.analytic_pair": self._on_analytic_pair,
            "cli.write_csv": self._on_write_csv,
            "cli.atomic_write": self._on_atomic_write,
            "uncertainty.hbar_scaling_scan": self._on_scan,
        }

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers.get(name)
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observe:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(bound.arguments)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _record_solve(self, method, a, ics, steps):
        c = a["constants"]
        key = repr((method, a["potential"], float(a["E"]), c.hbar, c.mass, a["grid"], ics))
        self.solves.append([method, key, steps])

    def _on_solve_pair(self, a):
        ics = tuple(float(v) for v in a["ics"])
        self._record_solve("numeric", a, ics, a["grid"].n - 1)

    def _on_analytic_pair(self, a):
        self._record_solve("analytic", a, None, 0)

    def _on_write_csv(self, a):
        self.counters["cli.write_csv.rows"] += len(a["columns"][0][1])

    def _on_atomic_write(self, a):
        self.counters["cli.bytes_written"] += len(a["text"].encode("utf-8"))

    def _on_scan(self, a):
        self.counters["uncertainty.scan_items"] += len(a["hbar_list"])

    def install(self):
        """Wrap the layer modules' public functions; call after importing qhjlab.cli."""
        import qhjlab.catalog  # noqa: F401  (bind its imported names now, not lazily)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qhjlab.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    self.functions.append(f"{layer}.{attr}")
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "qhjlab" and not name.startswith("qhjlab."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"functions": self.functions, "spans": self.spans, "solves": self.solves,
                       "counters": self.counters}, fh)


def aggregate(trace: dict) -> dict:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which on one stack cover disjoint parts of it.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    for (name, start, end, _), inner in zip(spans, child_time):
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - inner
    return stats
