"""In-memory spans and counters around the package's public functions.

Each probe replaces a function at the module attribute where its caller looks
it up, so the package itself is unchanged.  Spans record (name, start, end,
parent); per-event functions only bump counters.  A probe whose target no
longer exists is skipped, and its metric then reads zero.

Every traced unit of work (one set-up repetition, one timed operation) runs
under a root span; layer figures are aggregated per root.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
from collections import Counter


def _events_of(result, *_):
    return {"event_log.events_parsed": result.event_count}


def _rows_of(result, *_):
    return {"event_log.k_context_rows": len(result.rows)}


def _accepted_of(result, *_):
    return {"fd.accepted": len(result)}


def _cpt_sizes(result, *_):
    return {
        "structure.cpt_rows": sum(len(c.rows) for c in result.values()),
        "structure.cpt_cells": sum(len(r) for c in result.values() for r in c.rows.values()),
    }


def _edges_of(result, *_):
    return {"structure.dag_edges": len(result.dag.edges)}


def _bytes_written(result, args, kwargs):
    return {"model.bytes": os.path.getsize(args[1])}


def _factors_of(result, *_):
    return {"model.factors": len(result.factors)}


def _one_explain(result, *_):
    return {"detect.explain_calls": 1}


# (module, attribute, span name or None for count-only, count name, result counts)
PROBES = (
    ("edbn.synth", "generate", "synth.generate", None, None),
    ("edbn.synth", "inject_anomalies", "synth.inject", None, None),
    ("edbn.event_log", "parse_log", "event_log.parse", None, _events_of),
    ("edbn.model", "build_k_context", "event_log.k_context", None, _rows_of),
    ("edbn.model", "active_domain", "event_log.active_domain", None, None),
    ("edbn.model", "discover_fds", "fd.discover", None, _accepted_of),
    ("edbn.fd", "uncertainty_coefficient", None, "stats.uncertainty_calls", None),
    ("edbn.model", "build_mapping", "fd.mapping", None, None),
    ("edbn.model", "learn_structure", "structure.search", None, None),
    ("edbn.model", "fit_cpts", "structure.fit_cpts", None, _cpt_sizes),
    ("edbn.cli", "learn_edbn", "model.learn", None, _edges_of),
    ("edbn.cli", "write_model", "model.save", None, _bytes_written),
    ("edbn.cli", "read_model", "model.load", None, None),
    ("edbn", "read_model", "model.load", None, None),
    ("edbn.model", "event_probability", None, "model.event_probability_calls", _factors_of),
    ("edbn.cli", "rank_traces", "detect.rank", None, None),
    ("edbn.cli", "explain", "detect.explain", None, _one_explain),
    ("edbn", "explain", "detect.explain", None, _one_explain),
    ("edbn", "score_prefix", None, "detect.prefix_calls", None),
)

# Per-layer metrics of one root: total time of a span name, self time of a span
# name, or a count.
SPAN_TOTALS = {
    "event_log.parse_s": "event_log.parse",
    "event_log.k_context_s": "event_log.k_context",
    "event_log.active_domain_s": "event_log.active_domain",
    "fd.discover_s": "fd.discover",
    "fd.mapping_s": "fd.mapping",
    "structure.search_s": "structure.search",
    "structure.fit_cpts_s": "structure.fit_cpts",
    "model.save_s": "model.save",
    "model.load_s": "model.load",
    "detect.rank_s": "detect.rank",
    "detect.explain_s": "detect.explain",
    "synth.generate_s": "synth.generate",
    "synth.inject_s": "synth.inject",
}
SELF_TIMES = {
    "model.learn_s": "model.learn",
    "cli.train_self_s": "cli.train",
    "cli.score_self_s": "cli.score",
}
COUNTS = (
    "event_log.events_parsed",
    "event_log.k_context_rows",
    "stats.uncertainty_calls",
    "fd.accepted",
    "structure.dag_edges",
    "structure.cpt_rows",
    "structure.cpt_cells",
    "model.bytes",
    "model.event_probability_calls",
    "model.factors",
    "detect.explain_calls",
    "detect.prefix_calls",
)
TIMERS = ("detect.score_prefix_s",)  # accumulated by the caller's own clock, no spans


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # (root index, name) -> count
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    def add(self, name: str, amount) -> None:
        self.counts[(self.stack[0] if self.stack else -1, name)] += amount

    def _span_probe(self, fn, name, derive):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if derive:
                for key, amount in derive(result, args, kwargs).items():
                    self.add(key, amount)
            return result
        return probe

    def _count_probe(self, fn, name, derive):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(name, 1)
            if derive:
                for key, amount in derive(result, args, kwargs).items():
                    self.add(key, amount)
            return result
        return probe

    def install(self) -> None:
        for module_name, attr, span, count, derive in PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            if span:
                probe = self._span_probe(original, span, derive)
            else:
                probe = self._count_probe(original, count, derive)
            setattr(module, attr, probe)
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    # -- reading -------------------------------------------------------------

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] == -1 and s[0] == name]

    def root_figures(self, root: int) -> dict[str, float]:
        """Layer metrics of one root span: span totals, self times and counts."""
        root_of = {}
        child_time = Counter()
        totals = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            root_of[i] = root_of[parent] if parent >= 0 else i
            if root_of[i] != root or end is None:
                continue
            totals[name] += end - start
            if parent >= 0:
                child_time[parent] += end - start
        self_time = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            if root_of[i] == root and end is not None:
                self_time[name] += (end - start) - child_time[i]
        figures = {m: totals[s] for m, s in SPAN_TOTALS.items()}
        figures.update({m: self_time[s] for m, s in SELF_TIMES.items()})
        figures.update({c: self.counts[(root, c)] for c in COUNTS + TIMERS})
        return figures

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": [[root, name, value] for (root, name), value in sorted(self.counts.items())],
        }

    @classmethod
    def load(cls, data: dict) -> "Tracer":
        tracer = cls()
        tracer.spans = [list(s) for s in data["spans"]]
        tracer.counts = Counter({(root, name): value for root, name, value in data["counts"]})
        return tracer


def median_figures(tracer: Tracer, root_name: str) -> dict[str, float]:
    """Median of each layer figure over the root spans of one kind (zeros if none)."""
    per_root = [tracer.root_figures(r) for r in tracer.roots(root_name)]
    names = list(SPAN_TOTALS) + list(SELF_TIMES) + list(COUNTS) + list(TIMERS)
    if not per_root:
        return {n: 0.0 for n in names}
    return {n: statistics.median(f[n] for f in per_root) for n in names}
