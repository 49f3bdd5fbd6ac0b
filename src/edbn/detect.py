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
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress
from operator import attrgetter, itemgetter
from typing import Sequence, Union

from .event_log import Event, EventLog, Trace, Variable
from .model import Block, EDBNModel, EventScore, decompose


@dataclass(frozen=True)
class TraceScore:
    """A trace's score with its factor blocks, event after event in the model's layout.

    ``blocks`` holds every event's runs' blocks (model.Block), one per run in run order, event
    after event, in one tuple: one gc-tracked tuple per trace, where a tuple per event would
    make the collector run about three times as often.  An event's factors are its blocks'
    factors in order, laid out as ``factor_labels``: per factor, its (attribute, kind, FD source
    or None).  ``factor_values``, flat event after event, and the per-event ``decomposition`` are
    built when first read.
    """

    trace_id: str
    score: float
    event_count: int
    log_score: float
    event_ids: tuple[str, ...]
    blocks: tuple[Block, ...]
    factor_labels: tuple[tuple[str, str, Variable | None], ...]

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


def _trace_score(model: EDBNModel, trace_id: str, event_ids: tuple[str, ...], blocks, logs) -> TraceScore:
    log_mean = math.fsum(logs) / len(event_ids)
    score = math.exp(log_mean) if log_mean > -math.inf else 0.0
    return TraceScore(trace_id, score, len(event_ids), log_mean, event_ids, tuple(blocks),
                      model.scoring_tables.labels)


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
    return _trace_score(model, trace_id, tuple(map(attrgetter("id"), events)), *model.scoring_tables.score_events(events))


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
    blocks, labels, n = score.blocks, score.factor_labels, len(score.factor_labels)
    runs = len(blocks) // score.event_count  # every event's blocks are the model's runs, in the same layout
    offsets = list(accumulate((len(b[0]) for b in blocks[:runs]), initial=0))  # each run's first label
    lows = list(map(itemgetter(2), blocks))  # each block's smallest factor
    # each block holds a factor equal to its smallest, so the top_n smallest factors are all at or under
    # the top_n-th smallest block minimum, the bound, and only blocks whose minimum is at or under it hold any
    ordered = sorted(lows)
    bound = ordered[top_n - 1] if top_n <= len(lows) else math.inf
    below = bisect_left(ordered, bound)  # blocks whose smallest factor is under the bound
    taken = []  # (value, flat position) of each factor at or under the bound, in position order
    for j in compress(range(len(lows)), map(bound.__ge__, lows)):
        event, run = divmod(j, runs)
        factors, _, low = blocks[j]
        start = event * n + offsets[run]
        if low < bound:
            below -= 1
            taken += [(v, start + i) for i, v in enumerate(factors) if v <= bound]
        else:  # its factors at or under the bound are those equal to it
            i = -1
            for _ in range(factors.count(low)):
                i = factors.index(low, i + 1)
                taken.append((factors[i], start + i))
        if not below and len(taken) >= top_n:
            break  # any factor still unread equals the bound and sorts after every one taken
    taken.sort(key=itemgetter(0))  # stable: ties keep position order
    entries = []
    for value, i in taken[:top_n]:
        attr, kind, source = labels[i % n]
        entries.append((score.event_ids[i // n], attr, kind, source.column_name if source else None, value))
    return entries
