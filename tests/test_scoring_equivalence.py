"""Scoring through the compiled tables equals the per-factor reference exactly.

Scores, zero-factor counts, rankings, explanations and decompositions are
compared with ``==``, never a tolerance: the tables hold the floats that the
per-factor path computed, and the sums are taken the same way.
"""
import random

import pytest

from edbn import (
    PADDING,
    AttributeSchema,
    Event,
    EventLog,
    Trace,
    Variable,
    default_shipping_model,
    explain,
    generate,
    inject_anomalies,
    learn_edbn,
    rank_traces,
)
from edbn.event_log import context_row_for

from reference_scoring import ReferenceScore, reference_ranking

CASES = [("shipping", 1), ("shipping", 2), ("cycle", 1), ("cycle", 2)]


def _shipping(k):
    process = default_shipping_model()
    train = generate(process, 600, 21)
    test = inject_anomalies(generate(process, 150, 22), 0.5, 23).log
    return learn_edbn(train, k, 0.99), test


def _cycle_trace(tid, activities, rng):
    return Trace(tid, tuple(Event(f"{tid}-{i}", (a, rng.choice("uv"))) for i, a in enumerate(activities)))


def _cycle(k):
    # A cycles a -> b -> c from "a", so A at lag 1 determines A: an FD whose
    # source is padding at every trace's first event
    rng = random.Random(3)
    schema = AttributeSchema(("A", "B"), "tid")
    train = [_cycle_trace(f"n{t}", ["abc"[i % 3] for i in range(rng.randint(3, 7))], rng) for t in range(40)]
    odd = ["abca", "acb", "abz", "ab", "bca", "aabc", "abcabca"]
    test = [_cycle_trace(f"t{t}", list(acts), rng) for t, acts in enumerate(odd)]
    test.append(Trace("w", (Event("w-0", ("a", "w")), Event("w-1", ("b", "u")))))
    return learn_edbn(EventLog(schema, tuple(train)), k, 0.99), EventLog(schema, tuple(test))


@pytest.fixture(scope="module")
def cases():
    build = {"shipping": _shipping, "cycle": _cycle}
    return {(name, k): build[name](k) for name, k in CASES}


@pytest.mark.parametrize("case", CASES, ids=[f"{n}-k{k}" for n, k in CASES])
def test_compiled_scoring_equals_per_factor_reference(cases, case):
    model, log = cases[case]
    references = {t.trace_id: ReferenceScore(model, t) for t in log.traces}
    ranking = rank_traces(model, log)
    assert ranking.trace_ids() == reference_ranking(references.values())
    for entry in ranking:
        ref = references[entry.trace_id]
        assert entry.log_score == ref.log_score
        assert entry.score == ref.score
        assert entry.zero_factor_count == ref.zero_factor_count
        assert entry.decomposition == ref.decomposition
        every = len(entry.factor_values)
        for top_n in (1, 3, every):
            assert explain(entry, top_n) == ref.explain(top_n)


def test_cases_reach_every_factor_branch(cases):
    # each fallback of the tables is compared above on at least one factor
    reached = set()
    for model, log in cases.values():
        pos = {v: i for i, v in enumerate(model.variables)}
        for trace in log.traces:
            for i in range(len(trace.events)):
                row = context_row_for(model.schema, trace.events, i, model.k).values
                for attr in model.schema.names:
                    x = row[pos[Variable(attr, 0)]]
                    if x not in model.active_domains[attr]:
                        reached.add("unseen value")
                    cpt = model.cpts[attr]
                    if cpt.parents:
                        cfg = tuple(row[pos[p]] for p in cpt.parents)
                        if cfg not in cpt.rows:
                            reached.add("unseen parents")
                        elif x not in cpt.rows[cfg]:
                            reached.add("unseen value in a seen row")
                    for m in model.mappings_into(attr):
                        source = row[pos[m.edge.source]]
                        if source == PADDING:
                            reached.add("padded FD source")
                        elif m.map.get(source, x) != x:
                            reached.add("FD violation")
    assert reached == {
        "unseen value",
        "unseen parents",
        "unseen value in a seen row",
        "padded FD source",
        "FD violation",
    }
