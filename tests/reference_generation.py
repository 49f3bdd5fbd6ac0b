"""The per-event generator that the column-at-a-time ``generate`` replaced, kept as a test oracle.

Per trace it draws the trace-scope pools, walks the graph with ``rng.choices``
over each activity's weights, and then runs every rule at every event, in fill
order, comparing the rule kind as a string.  ``test_generation_equivalence``
requires ``generate`` to write the same log text, byte for byte.
"""
from __future__ import annotations

import random

from edbn.event_log import EventLog
from edbn.synth import _WALK_LIMIT, ProcessModel, ProcessModelError, _possible_values


def _walk(model: ProcessModel, rng: random.Random) -> list[str]:
    path = [model.start_activity]
    while path[-1] not in model.end_activities:
        targets = model.transitions[path[-1]]
        step = rng.choices(list(targets), weights=list(targets.values()))[0]
        path.append(step)
        if len(path) > _WALK_LIMIT:
            raise ProcessModelError("random walk failed to reach an end activity")
    return path


def reference_generate(model: ProcessModel, n_traces: int, seed: int) -> EventLog:
    if n_traces < 1:
        raise ValueError("n_traces must be >= 1")
    activity_attr, *order = _possible_values(model)
    columns = {attr: [] for attr in model.attributes}
    fills = [(attr, model.rules[attr], columns[attr]) for attr in order]
    lengths = []
    for i in range(n_traces):
        rng = random.Random(seed * 2**32 + i)
        trace_values = {attr: rng.choice(rule.values) for attr, rule, _ in fills
                        if rule.kind == "pool" and rule.scope == "trace"}
        path = _walk(model, rng)
        lengths.append(len(path))
        for activity in path:
            columns[activity_attr].append(activity)
            for attr, rule, column in fills:
                if rule.kind == "constant":
                    column.append(rule.value)
                elif rule.kind == "pool":
                    column.append(trace_values[attr] if rule.scope == "trace" else rng.choice(rule.values))
                elif rule.kind == "derived":
                    column.append(rule.mapping[columns[rule.source][-1]])
                else:  # activity_choice
                    column.append(rng.choice(rule.pools[activity]))
    width = max(4, len(str(n_traces)))
    return EventLog._from_columns(model.schema(), range(sum(lengths)),
                                  tuple(f"t{i:0{width}d}" for i in range(n_traces)), tuple(lengths),
                                  tuple(tuple(columns[attr]) for attr in model.attributes))
