"""Span recorder for the traced run.

The tracer replaces, for the length of a traced pass, the names that each
calling module binds at a layer boundary (for example `mlop.heuristic`'s
`lop_exact`) with a wrapper that records a span: its name, start, end,
parent span and op id.  Spans stay in memory in flat arrays and are written
out when the run ends.  Span names follow the layer, not the patched symbol,
so when the program renames a function only the table below changes.

A span's self time is its duration minus the time its child spans cover;
code without a span of its own (`mlop.core`) lands in its caller's self time.
"""

from __future__ import annotations

import csv
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from math import comb, factorial
from time import perf_counter

import numpy as np

# (calling module, bound name, span name, hook name)
BOUNDARIES = (
    ("mlop.cli", "solve_heuristic", "heuristic", "iterations"),
    ("mlop.heuristic", "step_rankings", "heuristic.step_rankings", None),
    ("mlop.heuristic", "step_weights", "heuristic.step_weights", None),
    ("mlop.heuristic", "lop_exact", "lop", "lop"),
    ("mlop.exact", "lop_exact", "lop", "lop"),
    ("mlop.heuristic", "_fit_simplex_l1", "simplex_fit.lp", None),
    ("mlop.exact", "_fit_simplex_l1", "simplex_fit.lp", None),
    ("mlop.geometry", "_fit_simplex_l1", "simplex_fit.lp", None),
    ("mlop.exact", "_breakpoint_g2", "simplex_fit.g2", None),
    ("mlop.cli", "solve_exact", "exact", "multisets"),
    ("mlop.cli", "generate_instance", "instances.generate", None),
    ("mlop.instances", "sample_within_ball", "instances.ball", None),
    ("mlop.cli", "ingest_rankings", "instances.ingest", None),
    ("mlop.cli", "l1_projection_full", "geometry", "projection"),
    ("mlop.cli", "cycle_residuals", "geometry", None),
    ("mlop.cli", "caratheodory_saturation", "geometry", None),
)

# the span the benchmark opens around each `mlop` command it runs
OP_SPAN = "cli"

SPAN_NAMES = (OP_SPAN,) + tuple(dict.fromkeys(b[2] for b in BOUNDARIES))


class Tracer:
    def __init__(self):
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def op_span(self, op_id: int):
        """Span of one `mlop` command; every span it causes carries op_id."""
        self.op_id = op_id
        idx = self._open(self.ids[OP_SPAN])
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, span: str, hook: str | None):
        name_id = self.ids[span]
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                _HOOKS[hook](tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span, hook in BOUNDARIES:
            module = sys.modules[module_name]
            fn = getattr(module, attr)  # AttributeError: the table needs updating
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, hook))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # -- analysis ------------------------------------------------------------

    def mark(self) -> tuple[int, Counter]:
        """Position to slice this tracer's spans and counters from."""
        return len(self.name), Counter(self.counts)

    def layer_metrics(self, lo_mark, hi_mark) -> dict[str, float]:
        """Per-layer metrics over the spans and counts between two marks."""
        (lo, counts0), (hi, counts) = lo_mark, hi_mark
        name = np.frombuffer(self.name, dtype=np.int32)[lo:hi]
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        dur = np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi]
        counts = counts - counts0

        child = parent >= lo
        covered = np.bincount(parent[child] - lo, weights=dur[child], minlength=len(dur))
        self_s = dur - covered

        def spans(span):
            return name == self.ids[span]

        def n(span):
            return int(spans(span).sum())

        def self_time(span):
            return float(self_s[spans(span)].sum())

        def pct(span, q):
            d = dur[spans(span)]
            return float(np.percentile(d, q)) if d.size else 0.0

        lop_calls = n("lop")
        return {
            "cli.ops": n(OP_SPAN),
            "cli.self_s": self_time(OP_SPAN),
            "heuristic.iterations": counts["iterations"],
            "heuristic.self_s": self_time("heuristic"),
            "heuristic.step_rankings.calls": n("heuristic.step_rankings"),
            "heuristic.step_rankings.self_s": self_time("heuristic.step_rankings"),
            "heuristic.step_weights.calls": n("heuristic.step_weights"),
            "lop.calls": lop_calls,
            "lop.self_s": self_time("lop"),
            "lop.call_s_p50": pct("lop", 50),
            "lop.call_s_p95": pct("lop", 95),
            "lop.unproven_share": counts["lop_unproven"] / lop_calls if lop_calls else 0.0,
            "lop.improved_share": counts["lop_improved"] / lop_calls if lop_calls else 0.0,
            "simplex_fit.lp_calls": n("simplex_fit.lp"),
            "simplex_fit.lp_self_s": self_time("simplex_fit.lp"),
            "simplex_fit.lp_call_s_p50": pct("simplex_fit.lp", 50),
            "simplex_fit.g2_calls": n("simplex_fit.g2"),
            "simplex_fit.g2_self_s": self_time("simplex_fit.g2"),
            "exact.multisets": counts["multisets"],
            "exact.self_s": self_time("exact"),
            "instances.ball_draws": n("instances.ball"),
            "instances.ball_self_s": self_time("instances.ball"),
            "instances.generate_self_s": self_time("instances.generate"),
            "instances.ingest_s": float(dur[spans("instances.ingest")].sum()),
            "geometry.projection_calls": counts["projection"],
            "geometry.self_s": self_time("geometry"),
        }

    def write_csv(self, path, phases) -> None:
        """All spans, one row each, labelled with the phase that holds them."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["phase", "index", "name", "parent", "op", "start", "end"])
            for (lo, _), (hi, _), label in phases:
                for i in range(lo, hi):
                    w.writerow([label, i, SPAN_NAMES[self.name[i]], self.parent[i],
                                self.op[i], repr(self.start[i]), repr(self.end[i])])


def _count_iterations(counts, args, kwargs, result):
    counts["iterations"] += result[2].total_iterations


def _count_lop(counts, args, kwargs, result):
    order, _, proven = result
    if not proven:
        counts["lop_unproven"] += 1
    warm = kwargs.get("warm_start", args[2] if len(args) > 2 else None)
    if warm is not None and order.perm != warm.perm:
        counts["lop_improved"] += 1


def _count_multisets(counts, args, kwargs, result):
    C, cfg = args[0], args[1]
    if cfg.g > 1:  # g = 1 is a single LOP, not an enumeration
        counts["multisets"] += comb(factorial(C.n) + cfg.g - 1, cfg.g)


def _count_projection(counts, args, kwargs, result):
    counts["projection"] += 1


_HOOKS = {
    "iterations": _count_iterations,
    "lop": _count_lop,
    "multisets": _count_multisets,
    "projection": _count_projection,
}
