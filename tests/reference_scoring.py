"""The per-factor scorer that the compiled scoring tables replaced, kept as their reference.

Every factor is computed from the model's exact rationals when it is needed
and becomes one Factor object; a trace's score, zero-factor count, ranking
key and explanation are read from those objects.
"""
import math

from edbn.event_log import PADDING, Variable
from edbn.model import FD_CHECK, RELATION, VALUE, EventScore, Factor


def reference_context(model, events, index):
    """The k-context values of events[index]: the k events before it, padded at the head, then its own."""
    pad = (PADDING,) * len(model.schema.names)
    parts = []
    for lag in range(model.k, 0, -1):
        parts.extend(events[index - lag].values if index - lag >= 0 else pad)
    return (*parts, *events[index].values)


def reference_event_probability(model, event_id, values):
    pos = {v: i for i, v in enumerate(model.variables)}
    factors = []
    for attr in model.schema.names:
        x = values[pos[Variable(attr, 0)]]
        rate = model.new_value[attr]
        seen = x in model.active_domains[attr]
        factors.append(Factor(attr, VALUE, None, float(1 - rate) if seen else float(rate)))
        cpt = model.cpts[attr]
        if cpt.parents:
            cfg = tuple(values[pos[p]] for p in cpt.parents)
            rate = model.new_relation[attr]
            if cfg not in cpt.rows:
                value = float(rate)
            else:
                value = float(1 - rate) * (cpt.rows[cfg].get(x, 0) / cpt.row_totals[cfg])
            factors.append(Factor(attr, RELATION, None, value))
        for mapping in model.fd_mappings:
            if mapping.edge.target.attr != attr:
                continue
            expected = mapping.map.get(values[pos[mapping.edge.source]])
            if expected is None or expected == x:
                value = float(1 - mapping.violation_rate)
            else:
                value = float(mapping.violation_rate)
            factors.append(Factor(attr, FD_CHECK, mapping.edge.source, value))
    return EventScore(event_id, tuple(factors))


class ReferenceScore:
    def __init__(self, model, trace):
        self.trace_id = trace.trace_id
        self.decomposition = tuple(
            reference_event_probability(model, event.id, reference_context(model, trace.events, i))
            for i, event in enumerate(trace.events)
        )
        self.log_score = math.fsum(s.log_probability for s in self.decomposition) / len(trace.events)
        self.score = math.exp(self.log_score) if self.log_score > -math.inf else 0.0
        self.zero_factor_count = sum(
            1 for ev in self.decomposition for f in ev.factors if f.value == 0.0
        )

    def explain(self, top_n):
        flat = [
            (ev.event_id, f.attribute, f.kind, f.source.column_name if f.source else None, f.value)
            for ev in self.decomposition
            for f in ev.factors
        ]
        flat.sort(key=lambda entry: entry[4])
        return flat[:top_n]


def reference_ranking(scores):
    ordered = sorted(scores, key=lambda s: (s.score, -s.zero_factor_count, s.trace_id))
    return [s.trace_id for s in ordered]
