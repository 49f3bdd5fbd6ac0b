"""Trace scoring, ranking, prefix scoring and root-cause decomposition.

A trace's score is the geometric mean of its event probabilities (the n-th root of the joint
probability), so length does not penalize a trace.  Low scores mean anomalous; ranking is
ascending.  Scoring is read-only on the model and safe to run concurrently.  Every scorer reads
the factor blocks of the model's runs of key-sharing attributes and adds an event's blocks' logs
as exact fixed-point ints, in pure Python (numpy would add about 11 MB): score_log reads the log's
code columns a chunk of whole traces at a time and computes each block once per distinct key;
score_trace and score_prefix compute each event's blocks from its own k-context.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence, Union

from .event_log import Event, EventLog, Trace, Variable
from .model import EDBNModel, EventScore, decompose


@dataclass(frozen=True)
class TraceScore:
    """A trace's score with its factor values, event after event in the model's layout.

    ``factor_labels`` gives each event's (attribute, kind, FD source or None)
    layout; the per-event ``decomposition`` is built when first read.
    """

    trace_id: str
    score: float
    event_count: int
    log_score: float
    event_ids: tuple[str, ...]
    factor_values: tuple[float, ...]
    factor_labels: tuple[tuple[str, str, Variable | None], ...]

    @cached_property
    def decomposition(self) -> tuple[EventScore, ...]:
        return tuple(decompose(self.factor_labels, self.event_ids, self.factor_values))

    @property
    def zero_factor_count(self) -> int:
        return self.factor_values.count(0.0) if self.log_score == -math.inf else 0  # a finite score has none


@dataclass(frozen=True)
class Ranking:
    entries: tuple[TraceScore, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def trace_ids(self) -> list[str]:
        return [e.trace_id for e in self.entries]


def _trace_score(model: EDBNModel, trace_id: str, event_ids: tuple[str, ...], values, logs) -> TraceScore:
    log_mean = math.fsum(logs) / len(event_ids)
    score = math.exp(log_mean) if log_mean > -math.inf else 0.0
    return TraceScore(trace_id, score, len(event_ids), log_mean, event_ids, tuple(values),
                      model.scoring_tables.labels)


def _score_events(model: EDBNModel, trace_id: str, events: Sequence[Event]) -> TraceScore:
    if not events:
        raise ValueError("cannot score an empty trace")
    return _trace_score(model, trace_id, tuple(e.id for e in events), *model.scoring_tables.score(events))


def score_trace(model: EDBNModel, trace: Trace) -> TraceScore:
    """Geometric-mean score of a complete trace, with per-factor decomposition."""
    return _score_events(model, trace.trace_id, trace.events)


def score_prefix(
    model: EDBNModel, events: Union[Trace, Sequence[Event]], trace_id: str = ""
) -> TraceScore:
    """Score an ongoing trace from the events seen so far (n = prefix length)."""
    if isinstance(events, Trace):
        return _score_events(model, events.trace_id, events.events)
    return _score_events(model, trace_id, tuple(events))


def rank_traces(model: EDBNModel, log: EventLog) -> Ranking:
    """All traces sorted ascending by score; the head is the most anomalous.

    Zero scores sort below positives; among them, more zero-valued factors
    rank first, then trace_id; positive ties also break by trace_id.
    """
    scored = score_log(model, log)
    scored.sort(key=lambda s: (s.score, -s.zero_factor_count, s.trace_id))
    return Ranking(tuple(scored))


def score_log(model: EDBNModel, log: EventLog) -> list[TraceScore]:
    """score_trace of every trace of the log, in log order, read from the log's codes (by score_traces)."""
    if log.schema.names != model.schema.names:
        raise ValueError("log attributes do not match the model schema")
    lengths = log.trace_lengths
    ids = map(log.event_ids.__getitem__, map(slice, accumulate(lengths, initial=0), accumulate(lengths)))
    scored = zip(log.trace_ids, ids, model.scoring_tables.score_traces(log.codes, log.vocabularies, lengths))
    return [_trace_score(model, trace_id, event_ids, *s) for trace_id, event_ids, s in scored]


def explain(score: TraceScore, top_n: int) -> list[tuple[str, str, str, str | None, float]]:
    """The top_n smallest factors of a trace, ascending.

    Entries are (event id, attribute, factor kind, FD source column or None,
    contribution); ties keep decomposition order (event, then attribute).
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    values, labels = score.factor_values, score.factor_labels
    n = len(labels)
    entries = []
    # the top_n smallest values, ascending, each at its first position not yet taken: the
    # positions of sorted(range(len(values)), key=values.__getitem__)[:top_n]
    i, last = -1, None
    for value in heapq.nsmallest(top_n, values):
        i, last = values.index(value, i + 1 if value == last else 0), value
        attr, kind, source = labels[i % n]
        entries.append((score.event_ids[i // n], attr, kind, source.column_name if source else None, values[i]))
    return entries
