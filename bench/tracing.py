"""Spans recorded from the benchmark's side of each layer boundary.

A span is (name, start, end, parent, op). Spans stay in memory and are
written out when the run ends. A layer's self time is its span's duration
minus the durations of its child spans; calls are sequential in one thread,
so children never overlap.

The package is not edited to be traced. `Tracer.instrument` swaps the
module and class attributes that the layers call one another through for
wrappers that open a span, and puts the originals back afterwards. An
attribute that does not exist is skipped, so the tracer keeps working
across refactors; the layer then reads zero.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

from triphoton import cli, scan
from triphoton.report import EntanglementReport

# (owner, attribute, span name). `scan._draw` is the states-layer draw that
# sample_positions/sample_momenta wrap; it is traced where scan calls it so
# that draw time is split out of simulate_adaptive_scan.
_PATCHES = (
    (scan, "simulate_adaptive_scan", "scan.simulate_adaptive_scan"),
    (scan, "_draw", "states.sample"),
    (scan, "tree_to_linear_histograms", "scan.tree_to_linear_histograms"),
    (scan.PartitionTree, "leaf_table", "scan.leaf_table"),
    (scan.PartitionTree, "record_lines", "scan.record_lines"),
    (scan, "differential_entropy_from_histogram", "entropy.differential_entropy_from_histogram"),
    (scan, "exact_e3f", "states.exact_e3f"),
    (EntanglementReport, "to_json", "report.to_json"),
    (cli, "scan_pair", "scan.scan_pair"),
)


class NullTracer:
    """Tracer of an untraced operation: every span is a no-op."""

    def span(self, name: str):
        return contextlib.nullcontext()


NULL = NullTracer()


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.op_id = "setup"  # spans before the first op belong to set-up
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = [name, time.perf_counter(), None, parent, self.op_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict:
        """{op id: {span name: (self seconds, calls)}}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            acc = out[op][name]
            acc[0] += (end - start) - child[i]
            acc[1] += 1
        return {op: {k: tuple(v) for k, v in d.items()} for op, d in out.items()}

    @contextlib.contextmanager
    def instrument(self):
        """Route the layers' calls to one another through spans."""
        saved = []
        try:
            for owner, attr, name in _PATCHES:
                if attr in vars(owner):
                    orig = vars(owner)[attr]
                    saved.append((owner, attr, orig))
                    setattr(owner, attr, self._traced(name, orig))
            yield
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def _traced(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": op}
            for n, s, e, p, op in self.spans
        ]
