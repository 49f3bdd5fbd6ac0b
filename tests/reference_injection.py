"""The ``inject_anomalies`` that decoded and re-coded every event, kept as a test oracle.

It decodes every event of the log into a row tuple (its id, then its
values), edits the chosen traces' rows and codes all rows again through
``EventLog._from_columns``.  ``test_injection_equivalence`` requires
``inject_anomalies`` to return the same labels, details, ids, vocabularies
(in their order) and code bytes.
"""
from __future__ import annotations

import math
import random
from itertools import chain, islice

from edbn.event_log import EventLog
from edbn.synth import ANOMALOUS, NORMAL, LabeledLog, Mutation, _applicable_kinds


def reference_inject_anomalies(log: EventLog, fraction: float, seed: int) -> LabeledLog:
    """Mutate a uniformly chosen ceil(fraction * n) subset of traces.

    Each chosen trace receives 1-3 mutations drawn from: swap two adjacent
    events, delete an event, duplicate an event at a random position, replace
    an attribute value with another active-domain value, or replace one with
    a fresh unseen value.  Unchosen traces are returned untouched.  Only the
    chosen traces' rows (an event's id, then its values) are edited, and the
    rows are coded as generate codes its columns, building no Event or Trace;
    where no trace is chosen, the log given is returned as it is.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    if fraction > 0 and not log.trace_ids:
        raise ValueError("cannot inject anomalies into an empty log")
    n_mutate = math.ceil(fraction * len(log.trace_ids))
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(log.trace_ids)), n_mutate))
    labels = dict.fromkeys(log.trace_ids, NORMAL)
    if not chosen:
        return LabeledLog(log, labels, {})

    domains = {a: sorted(vocab) for a, vocab in zip(log.schema.names, log.vocabularies)}
    multi_valued = [a for a in log.schema.names if len(domains[a]) >= 2]
    event_ids = log.event_ids if log.event_rows is None else tuple(map(str, log.event_rows))  # not cached on log
    used_ids = set(event_ids)
    fresh_counter = 0

    rows = zip(event_ids, *(map(vocab.__getitem__, codes) for vocab, codes in zip(log.vocabularies, log.codes)))
    traces = [list(islice(rows, n)) for n in log.trace_lengths]
    details: dict[str, tuple[Mutation, ...]] = {}

    for index in chosen:
        events = traces[index]
        mutations: list[Mutation] = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(_applicable_kinds(len(events), multi_valued))
            if kind == "swap_adjacent":
                pos = rng.randrange(len(events) - 1)
                events[pos], events[pos + 1] = events[pos + 1], events[pos]
                mutations.append(Mutation(kind, pos))
            elif kind == "delete_event":
                pos = rng.randrange(len(events))
                del events[pos]
                mutations.append(Mutation(kind, pos))
            elif kind == "duplicate_event":
                pos = rng.randrange(len(events))
                insert_at = rng.randrange(len(events) + 1)
                copy_id = f"{events[pos][0]}+dup"
                while copy_id in used_ids:
                    copy_id += "+"
                used_ids.add(copy_id)
                events.insert(insert_at, (copy_id, *events[pos][1:]))
                mutations.append(Mutation(kind, pos, insert_at=insert_at))
            else:
                attr = rng.choice(multi_valued if kind == "replace_value" else log.schema.names)
                pos = rng.randrange(len(events))
                i = log.schema.index_of(attr) + 1  # the value's place in the row
                if kind == "replace_value":
                    value = rng.choice([v for v in domains[attr] if v != events[pos][i]])
                else:  # fresh_value
                    while True:
                        fresh_counter += 1
                        value = f"unseen-{attr}-{fresh_counter}"
                        if value not in domains[attr]:
                            break
                events[pos] = (*events[pos][:i], value, *events[pos][i + 1:])
                mutations.append(Mutation(kind, pos, attribute=attr, new_value=value))
        labels[log.trace_ids[index]] = ANOMALOUS
        details[log.trace_ids[index]] = tuple(mutations)

    event_ids, *columns = tuple(zip(*chain.from_iterable(traces))) or ((),) * (len(log.schema.names) + 1)
    return LabeledLog(EventLog._from_columns(log.schema, event_ids, log.trace_ids, tuple(map(len, traces)), columns),
                      labels, details)
