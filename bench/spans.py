"""Span recorder for the traced run.

The recorder wraps public functions at the module global where their
caller looks them up, so the package itself is not edited. Each call
records a span: name, start, end, parent span and the id of the operation
(one solve or one CLI request) it belongs to. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP = range(5)


def _rows_scanned(rec, args, result):
    # find_violated(sys, x, tol) returns (index, row) or None.
    rec.count("solver.rows_scanned", len(args[0].constraints) if result is None else result[0] + 1)


def _cholesky_flops(rec, args, result):
    n = len(args[0])
    rec.count("linalg.cholesky.flops", n ** 3 / 3.0)


# (module, attribute, span name, observer). The attribute is the global the
# caller reads, e.g. the solver loop calls `ellipsoid.solver.find_violated`.
WRAPPED = (
    ("ellipsoid.solver", "find_violated", "solver.find_violated", _rows_scanned),
    ("ellipsoid.solver", "central_cut_update", "engine.central_cut_update", None),
    ("ellipsoid.solver", "quadratic_form", "linalg.quadratic_form", None),
    ("ellipsoid.engine", "cholesky", "linalg.cholesky", _cholesky_flops),
    ("ellipsoid.engine", "mat_vec", "linalg.mat_vec", None),
    ("ellipsoid.engine", "rank1_downdate", "linalg.rank1_downdate", None),
    ("ellipsoid.cli", "solve", "solver.solve", None),
    ("ellipsoid.cli", "certify", "solver.certify", None),
    ("ellipsoid.cli", "vertex_enumeration_check", "oracle.vertex_enumeration_check", None),
    ("ellipsoid.cli", "parse_problem", "problems.parse_problem", None),
    ("ellipsoid.cli", "to_linear_system", "problems.to_linear_system", None),
    ("ellipsoid.cli", "emit_svg_trace", "svgplot.emit_svg_trace", None),
    ("ellipsoid.cli", "replay_shapes", "cli.replay_shapes", None),
    ("ellipsoid.oracle", "grid_feasibility_scan", "oracle.grid_feasibility_scan", None),
)


class SpanRecorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.op = None
        self.present: set[str] = set()
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def _wrap(self, fn, name, observe):
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED that still exists; restore on exit.

        A name that a refactor removed is skipped, so its metrics read as
        absent instead of failing the run.
        """
        saved = []
        try:
            for module_name, attr, name, observe in WRAPPED:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self.present.add(name)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, observe))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def aggregate(spans: list[list], ops=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    ``ops`` restricts the sum to spans of those operation ids.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span, self_s in zip(spans, selfs):
        if ops is not None and span[OP] not in ops:
            continue
        entry = out.setdefault(span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span[END] - span[START]
        entry["self_s"] += self_s
    return out
