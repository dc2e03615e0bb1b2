"""In-memory spans around the package's layer entry points.

Spans are recorded from the benchmark's side only: :func:`install` replaces
a layer function with a timing wrapper under the name its caller looks it
up by (for example ``weilgroup.classify.enumerate_cokernels``), and
:func:`uninstall` puts the originals back.  The package itself is never
edited, and with the wrappers removed the untraced code path is exactly
the library's own.

Each span is ``[name, start, end, parent, request]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``request`` the id of
the request being served (``"setup"`` during warm-up).  Counts that the
per-layer ratios need are taken in the same wrappers.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module the caller looks the name up in, attribute, span name)
TARGETS = (
    ("weilgroup.classify", "factor_weil", "weil.factor_weil"),
    ("weilgroup.classify", "root_valuations", "weil.root_valuations"),
    ("weilgroup.classify", "transform_one_minus_t", "polygon.transform_one_minus_t"),
    ("weilgroup.classify", "enumerate_cokernels", "smith.enumerate_cokernels"),
    ("weilgroup.smith", "inequality_system", "smith.inequality_system"),
    ("weilgroup.horn", "enumerate_T", "horn.enumerate_T"),
    ("weilgroup.reduce", "enumerate_T", "horn.enumerate_T"),
    ("weilgroup.reduce", "is_implied", "linprog.is_implied"),
    ("weilgroup.linprog", "linprog", "linprog.highs"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = "setup"
        self.counts: Counter = Counter()
        self.cokernel_pairs: set = set()

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = perf_counter()

    def record(self, name: str, args: tuple, result) -> None:
        """Counts taken at a layer boundary, from its arguments and result."""
        if name == "smith.enumerate_cokernels":
            self.counts["smith.cokernels"] += len(result)
            pair = (tuple(args[0]), tuple(args[1]))
            self.counts["smith.repeat_calls"] += pair in self.cokernel_pairs
            self.cokernel_pairs.add(pair)
        elif name == "horn.enumerate_T":
            self.counts["horn.triples"] += len(result)
        elif name == "linprog.is_implied":
            self.counts["linprog.implied"] += bool(result)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.record(name, args, result)
            return result

        return traced

    def count_yields(self, counter: str, fn):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[counter] += 1
                yield item

        return counted

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += end - start - child_time[idx]
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns what :func:`uninstall` needs to undo it."""
    saved = []
    for module_name, attr, span_name in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, tracer.wrap(span_name, original))
    smith = importlib.import_module("weilgroup.smith")
    saved.append((smith, "partitions_of", smith.partitions_of))
    smith.partitions_of = tracer.count_yields("smith.candidates", smith.partitions_of)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
