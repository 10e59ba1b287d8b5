"""Spans around the package's public functions, for the traced run.

Each wrap point is a module attribute the package looks a function up
through, such as ``quiverknot.cli.coloring_quiver`` or
``quiverknot.quiver.enumerate_colorings``; replacing the attribute
traces every call made through it and changes nothing else.  Per-edge
functions such as ``apply_endo`` are not wrapped.

A span is (name, start, end, parent span index, job id), on the
``perf_counter`` clock, kept in memory until the run writes them out.
A metric ``<layer>.<name>_s`` is the summed self time of its spans: each
span's duration minus the durations of its direct children.  An
exception is counted once, against the layer of the innermost span it
left.  Nothing in the package waits on a thread or process, so there is
no wait time to record.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict


def _length(result) -> int:
    return len(result)


def _edges(result) -> int:
    return result.n_edges


def _one(result) -> int:
    return 1


# (module, attribute, span name, counter name, counter function)
WRAP_POINTS = [
    ("quiverknot.cli", "main", "cli.self", None, None),
    ("quiverknot.cli", "cmd_colorings", "cli.self", None, None),
    ("quiverknot.cli", "cmd_quiver", "cli.self", None, None),
    ("quiverknot.cli", "cmd_shadow", "cli.self", None, None),
    ("quiverknot.cli", "cmd_compare", "cli.self", None, None),
    ("quiverknot.cli", "load_catalog", "catalog.load", None, None),
    ("quiverknot.cli", "parse_pd", "diagram.build", None, None),
    ("quiverknot.cli", "build_diagram", "diagram.build", None, None),
    ("quiverknot.catalog", "parse_pd", "diagram.build", None, None),
    ("quiverknot.catalog", "build_diagram", "diagram.build", None, None),
    ("quiverknot.cli", "make_dihedral", "quandle.make", None, None),
    ("quiverknot.cli", "make_alexander", "quandle.make", None, None),
    ("quiverknot.cli", "enumerate_homs", "quandle.homs", "quandle.homs", _length),
    ("quiverknot.cli", "enumerate_autos", "quandle.homs", None, None),
    ("quiverknot.quandle", "enumerate_homs", "quandle.homs", "quandle.homs", _length),
    ("quiverknot.cli", "count_colorings_dihedral", "snf.count", None, None),
    ("quiverknot.cli", "enumerate_colorings", "coloring.enumerate",
     "coloring.colorings", _length),
    ("quiverknot.quiver", "enumerate_colorings", "coloring.enumerate",
     "coloring.colorings", _length),
    ("quiverknot.cocycle", "enumerate_colorings", "coloring.enumerate",
     "coloring.colorings", _length),
    ("quiverknot.quiver", "extend_shadow", "coloring.shadow", "coloring.shadow_calls", _one),
    ("quiverknot.cocycle", "extend_shadow", "coloring.shadow", "coloring.shadow_calls", _one),
    ("quiverknot.cli", "coloring_quiver", "quiver.build", "quiver.edges", _edges),
    ("quiverknot.quiver", "coloring_quiver", "quiver.build", "quiver.edges", _edges),
    ("quiverknot.cli", "shadow_cocycle_quiver", "quiver.build", None, None),
    ("quiverknot.quiver", "weight_sum", "cocycle.weight", None, None),
    ("quiverknot.cocycle", "weight_sum", "cocycle.weight", None, None),
    ("quiverknot.cli", "invariant_multiset", "cocycle.multiset", None, None),
    ("quiverknot.cli", "mochizuki", "cocycle.table", None, None),
    ("quiverknot.cli", "quiver_isomorphic", "quiver.iso", "quiver.iso_calls", _one),
    ("quiverknot.cli", "cocycle_polynomial", "quiver.poly", None, None),
    ("quiverknot.cli", "quiver_to_json", "quiver.json", None, None),
    ("quiverknot.cli", "to_dot", "quiver.dot", None, None),
]


class Tracer:
    def __init__(self):
        self.enabled = False
        self.job = ""
        self.spans: list = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._raised: set[int] = set()
        self._saved: list = []
        self._taken = 0

    def install(self) -> None:
        for module_name, attr, name, counter, count in WRAP_POINTS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, counter, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def start_job(self, job_id: str) -> None:
        self.job = job_id
        self._raised.clear()
        self.enabled = True

    def stop_job(self) -> None:
        self.enabled = False

    def _wrap(self, fn, name: str, counter, count):
        layer = name.split(".")[0]
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name, start, time.perf_counter(), parent, self.job)
                stack.pop()
                if id(exc) not in self._raised:
                    self._raised.add(id(exc))
                    counts[f"{layer}.exceptions"] += 1
                raise
            spans[index] = (name, start, time.perf_counter(), parent, self.job)
            stack.pop()
            if counter is not None:
                counts[counter] += count(result)
            return result

        return traced

    def take(self) -> tuple[dict, Counter]:
        """Self time per span name and the counters since the last take;
        the spans stay recorded."""
        first, self._taken = self._taken, len(self.spans)
        spans = self.spans[first:]
        child_time: defaultdict = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(spans, first):
            self_time[name] += end - start - child_time[i]
        counts = Counter(self.counts)
        self.counts.clear()
        return dict(self_time), counts
