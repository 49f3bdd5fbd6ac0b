"""Trace scoring, ranking, prefix scoring and root-cause decomposition.

A trace's score is the geometric mean of its event probabilities (the n-th root of the joint
probability), so length does not penalize a trace.  Low scores mean anomalous; ranking is
ascending.  Scoring is read-only on the model and safe to run concurrently.  Every scorer codes
values against the model once (score_log per vocabulary entry of the log, score_trace and
score_prefix per value) and reads the factor blocks of the model's runs of key-sharing attributes,
one block per distinct key in a call, adding an event's blocks' logs as exact fixed-point ints in
pure Python (numpy would add about 11 MB).  A TraceScore holds each event's blocks by reference;
its factor values and decomposition are decoded when first read, and explain reads only the
blocks whose smallest factor can be among the top n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import attrgetter, itemgetter
from typing import Sequence, Union

from .event_log import Event, EventLog, Trace, Variable
from .model import Block, EDBNModel, EventScore, ScoringTables, decompose


@dataclass(frozen=True)
class TraceScore:
    """A trace's score with its factor blocks, event after event in the model's layout.

    ``blocks`` holds every event's runs' blocks (model.Block), one per run in run order, event
    after event, in one tuple: one gc-tracked tuple per trace, where a tuple per event would
    make the collector run about three times as often.  An event's factors are its blocks'
    factors in order, laid out as ``factor_labels``: per factor, its (attribute, kind, FD source
    or None); run r's factors start at label ``run_offsets[r]``.  Both are the model's, made
    once.  ``factor_values``, flat event after event, and the per-event ``decomposition`` are
    built when first read.  _trace_score fills a TraceScore's ``__dict__`` in one update, as
    EventLog._from_codes does, not with a frozen setattr per field.
    """

    trace_id: str
    score: float
    event_count: int
    log_score: float
    event_ids: tuple[str, ...]
    blocks: tuple[Block, ...]
    factor_labels: tuple[tuple[str, str, Variable | None], ...]
    run_offsets: tuple[int, ...]

    @cached_property
    def factor_values(self) -> tuple[float, ...]:
        return tuple(chain.from_iterable(map(itemgetter(0), self.blocks)))

    @cached_property
    def decomposition(self) -> tuple[EventScore, ...]:
        return tuple(decompose(self.factor_labels, self.event_ids, self.factor_values))

    @property
    def zero_factor_count(self) -> int:
        if self.log_score > -math.inf:
            return 0  # a finite score has none
        return sum(b[0].count(0.0) for b in self.blocks)


@dataclass(frozen=True)
class Ranking:
    entries: tuple[TraceScore, ...]

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def trace_ids(self) -> list[str]:
        return [e.trace_id for e in self.entries]


def _trace_score(tables: ScoringTables, trace_id: str, event_ids: tuple[str, ...], blocks, logs) -> TraceScore:
    log_mean = math.fsum(logs) / len(event_ids)
    score = TraceScore.__new__(TraceScore)
    score.__dict__.update(trace_id=trace_id, score=math.exp(log_mean), event_count=len(event_ids), log_score=log_mean,
                          event_ids=event_ids, blocks=blocks, factor_labels=tables.labels, run_offsets=tables.offsets)
    return score


def score_trace(model: EDBNModel, trace: Trace) -> TraceScore:
    """Geometric-mean score of a complete trace, with per-factor decomposition."""
    return score_prefix(model, trace)


def score_prefix(
    model: EDBNModel, events: Union[Trace, Sequence[Event]], trace_id: str = ""
) -> TraceScore:
    """Score an ongoing trace from the events seen so far (n = prefix length)."""
    if isinstance(events, Trace):
        events, trace_id = events.events, events.trace_id
    if not (events := tuple(events)):
        raise ValueError("cannot score an empty trace")
    tables = model.scoring_tables
    return _trace_score(tables, trace_id, tuple(map(attrgetter("id"), events)), *tables.score_events(events))


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
    lengths, tables = log.trace_lengths, model.scoring_tables
    ids = map(log.event_ids.__getitem__, map(slice, accumulate(lengths, initial=0), accumulate(lengths)))
    scored = zip(log.trace_ids, ids, tables.score_traces(log.codes, log.vocabularies, lengths))
    return [_trace_score(tables, trace_id, event_ids, *s) for trace_id, event_ids, s in scored]


def explain(score: TraceScore, top_n: int) -> list[tuple[str, str, str, str | None, float]]:
    """The top_n smallest factors of a trace, ascending.

    Entries are (event id, attribute, factor kind, FD source column or None,
    contribution); ties keep decomposition order (event, then attribute).  A block's
    factors start at its event's index times the layout's width plus its run's offset,
    read from ``run_offsets``.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    blocks, labels, n = score.blocks, score.factor_labels, len(score.factor_labels)
    offsets, runs = score.run_offsets, len(score.run_offsets)  # every event's blocks are the model's runs
    lows = list(map(itemgetter(2), blocks))  # each block's smallest factor
    # each block holds a factor equal to its smallest, so the top_n smallest factors are all at or under
    # the top_n-th smallest block minimum, the bound, and only blocks whose minimum is at or under it hold any
    bound = sorted(lows)[top_n - 1] if top_n <= len(lows) else math.inf
    taken = []  # (value, flat position) of each factor at or under the bound, in position order
    for j in compress(range(len(lows)), map(bound.__ge__, lows)):
        event, run = divmod(j, runs)
        start = event * n + offsets[run]
        taken += [(v, start + i) for i, v in enumerate(blocks[j][0]) if v <= bound]
    taken.sort(key=itemgetter(0))  # stable: ties keep position order
    entries = []
    for value, i in taken[:top_n]:
        attr, kind, source = labels[i % n]
        entries.append((score.event_ids[i // n], attr, kind, source.column_name if source else None, value))
    return entries
