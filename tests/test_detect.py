import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbn import (
    NORMAL,
    AttributeSchema,
    Event,
    EventLog,
    LabeledLog,
    Trace,
    default_shipping_model,
    explain,
    generate,
    inject_anomalies,
    learn_edbn,
    rank_traces,
    run_experiment,
    score_prefix,
    score_trace,
)
from edbn.detect import TraceScore, score_log

from test_model import oracle_event_probability


@pytest.fixture(scope="module")
def permission_model(permission_log):
    return learn_edbn(permission_log, 1, 0.99)


def test_score_is_geometric_mean(permission_model, permission_log):
    trace = permission_log.trace_by_id("1")
    result = score_trace(permission_model, trace)
    logs = [
        math.log(oracle_event_probability(permission_model, trace.events, i))
        for i in range(len(trace.events))
    ]
    assert abs(result.log_score - sum(logs) / len(logs)) < 1e-12
    assert result.score == pytest.approx(math.exp(sum(logs) / len(logs)), rel=1e-12)
    assert result.event_count == 5


def test_constant_probability_trace_scores_p():
    # every event carries probability p, so the score is p at any length
    schema = AttributeSchema(("A", "B"), "tid")
    rows = {
        "1": [("a", "u"), ("b", "v"), ("a", "u")],
        "2": [("b", "v"), ("a", "u"), ("b", "v")],
        "3": [("a", "u"), ("a", "u")],
    }
    counter = 0
    traces = []
    for tid, values in rows.items():
        events = tuple(Event(str(counter + i), v) for i, v in enumerate(values))
        counter += len(values)
        traces.append(Trace(tid, events))
    model = learn_edbn(EventLog(schema, tuple(traces)), 1, 0.99, structure=[])
    event = Event("x", ("a", "u"))
    p = score_prefix(model, (event,)).score
    for m in (1, 2, 5):
        events = tuple(Event(f"x{i}", event.values) for i in range(m))
        assert score_prefix(model, events).score == p


def test_anomalous_trace_scores_zero(permission_model, permission_full_log):
    result = score_trace(permission_model, permission_full_log.trace_by_id("4"))
    assert result.score == 0.0
    assert result.log_score == -math.inf


def test_ranking_puts_trace4_first(permission_model, permission_full_log):
    ranking = rank_traces(permission_model, permission_full_log)
    assert ranking.trace_ids()[0] == "4"
    assert ranking.entries[0].score == 0.0
    assert all(e.score > 0 for e in ranking.entries[1:])
    assert sorted(ranking.trace_ids()) == ["1", "2", "3", "4"]


def test_ranking_is_a_permutation_and_ascending(permission_model, permission_full_log):
    ranking = rank_traces(permission_model, permission_full_log)
    scores = [e.score for e in ranking.entries]
    assert scores == sorted(scores)
    assert sorted(ranking.trace_ids()) == sorted(t.trace_id for t in permission_full_log.traces)


def test_identical_traces_tie_break_by_trace_id(permission_model, permission_log):
    base = permission_log.trace_by_id("1")
    clones = []
    for i, tid in enumerate(["b", "a", "c"]):
        events = tuple(Event(f"{tid}{j}", e.values) for j, e in enumerate(base.events))
        clones.append(Trace(tid, events))
    log = EventLog(permission_log.schema, tuple(clones))
    ranking = rank_traces(permission_model, log)
    assert ranking.trace_ids() == ["a", "b", "c"]


def test_single_trace_log_ranking(permission_model, permission_log):
    log = EventLog(permission_log.schema, (permission_log.traces[0],))
    assert len(rank_traces(permission_model, log)) == 1


def test_zero_scores_tie_break_on_zero_factor_count(permission_model, permission_full_log):
    # a full anomalous trace carries more zero factors than its one-event stub,
    # so it ranks first even though its trace id sorts later
    trace4 = permission_full_log.trace_by_id("4")
    stub = Trace("aa", (Event("stub0", trace4.events[0].values),))
    full = Trace("zz", tuple(Event(f"z{i}", e.values) for i, e in enumerate(trace4.events)))
    log = EventLog(permission_full_log.schema, (stub, full))
    ranking = rank_traces(permission_model, log)
    assert [e.score for e in ranking.entries] == [0.0, 0.0]
    assert ranking.trace_ids() == ["zz", "aa"]


def test_prefix_of_full_trace_matches_score_trace(permission_model, permission_log):
    trace = permission_log.trace_by_id("2")
    assert score_prefix(permission_model, trace) == score_trace(permission_model, trace)


def test_prefix_length_one(permission_model, permission_log):
    trace = permission_log.trace_by_id("2")
    result = score_prefix(permission_model, trace.events[:1], trace_id="2")
    expected = oracle_event_probability(permission_model, trace.events[:1], 0)
    assert result.score == pytest.approx(expected, rel=1e-12)


def test_prefixes_match_oracle(permission_model, permission_log):
    trace = permission_log.trace_by_id("2")
    for n in range(1, 6):
        events = trace.events[:n]
        result = score_prefix(permission_model, events)
        logs = [
            math.log(oracle_event_probability(permission_model, events, i)) for i in range(n)
        ]
        assert abs(result.log_score - sum(logs) / n) < 1e-12


def test_empty_prefix_is_an_error(permission_model):
    with pytest.raises(ValueError):
        score_prefix(permission_model, [])


# --- explanations ---------------------------------------------------------------


def test_explain_trace4_names_the_role_fd(permission_model, permission_full_log):
    result = score_trace(permission_model, permission_full_log.trace_by_id("4"))
    first_event_id = permission_full_log.trace_by_id("4").events[0].id
    top = explain(result, 1)
    assert top == [(first_event_id, "UserRole", "fd", "UserID_0", 0.0)]


def test_explain_minimum_matches_decomposition(permission_model, permission_log):
    result = score_trace(permission_model, permission_log.trace_by_id("3"))
    smallest = explain(result, 1)[0][4]
    assert smallest == min(f.value for ev in result.decomposition for f in ev.factors)


def test_explain_all_ones_keeps_decomposition_order():
    schema = AttributeSchema(("A", "B"), "tid")
    log = EventLog(
        schema, (Trace("1", (Event("0", ("x", "u")), Event("1", ("x", "u")))),)
    )
    model = learn_edbn(log, 1, 1.0, structure=[])
    result = score_trace(model, log.traces[0])
    entries = explain(result, 100)
    assert [e[0] for e in entries] == ["0", "0", "1", "1"]
    assert [e[1] for e in entries] == ["A", "B", "A", "B"]


def test_explain_top_n_larger_than_factor_count(permission_model, permission_log):
    result = score_trace(permission_model, permission_log.trace_by_id("1"))
    total = sum(len(ev.factors) for ev in result.decomposition)
    assert len(explain(result, total + 50)) == total


def test_explain_requires_positive_top_n(permission_model, permission_log):
    result = score_trace(permission_model, permission_log.traces[0])
    with pytest.raises(ValueError):
        explain(result, 0)


FACTOR_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 0.5, 5e-324]), st.floats(0.0, 1.0))


def _block(factors):
    """A block record as ScoringTables builds it, with a stand-in for its log that is -inf exactly when a factor is zero."""
    return factors, -math.inf if 0.0 in factors else 0, min(factors)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.data())
def test_explain_takes_the_positions_of_a_stable_sort(n_labels, data):
    # each event's factors come in blocks, one per run, as a model's runs of attributes: random run
    # widths, and each event's block of a run drawn from a pool that the events share, as a batch
    # score shares one block per distinct key.  A few distinct values per example make many ties;
    # ties, exact zeros, -0.0 next to 0.0 and 5e-324 keep position order; each factor's position
    # has its own (event id, attribute), so a wrong position shows
    n_events = data.draw(st.integers(1, 12))
    palette = data.draw(st.lists(FACTOR_VALUES, min_size=1, max_size=8))
    cuts = sorted(data.draw(st.sets(st.integers(1, n_labels - 1)))) if n_labels > 1 else []
    pools = [[] for _ in range(len(cuts) + 1)]  # per run, the blocks that events have drawn
    blocks = []  # every event's blocks, event after event
    for _ in range(n_events):
        for pool, lo, hi in zip(pools, [0, *cuts], [*cuts, n_labels]):
            if not pool or data.draw(st.booleans()):
                pool.append(_block(tuple(data.draw(st.lists(st.sampled_from(palette), min_size=hi - lo, max_size=hi - lo)))))
            blocks.append(data.draw(st.sampled_from(pool)))
    flat = [v for factors, _, _ in blocks for v in factors]
    labels = tuple((f"a{j}", "value", None) for j in range(n_labels))
    log_score = -math.inf if 0.0 in flat else -1.0
    score = TraceScore("t", 0.5, n_events, log_score, tuple(f"e{i}" for i in range(n_events)), tuple(blocks), labels)
    assert [repr(v) for v in score.factor_values] == [repr(v) for v in flat]
    assert score.zero_factor_count == flat.count(0.0)
    order = sorted(range(len(flat)), key=flat.__getitem__)
    for top_n in range(1, len(flat) + 3):
        expected = [(f"e{i // n_labels}", f"a{i % n_labels}", "value", None, flat[i]) for i in order[:top_n]]
        entries = explain(score, top_n)
        assert entries == expected
        assert [repr(e[4]) for e in entries] == [repr(e[4]) for e in expected]  # -0.0 is not 0.0


# --- concurrency and invariance --------------------------------------------------


def test_concurrent_scoring_is_consistent(permission_model, permission_full_log):
    traces = list(permission_full_log.traces) * 8
    expected = [score_trace(permission_model, t).score for t in traces]
    with ThreadPoolExecutor(max_workers=8) as pool:
        observed = list(pool.map(lambda t: score_trace(permission_model, t).score, traces))
    assert observed == expected


def test_concurrent_ranking_is_consistent_and_leaves_no_state_on_the_model():
    process = default_shipping_model()
    model = learn_edbn(generate(process, 300, 31), 1, 0.99)
    log = inject_anomalies(generate(process, 150, 32), 0.2, 33).log
    tables = model.scoring_tables
    before = repr(vars(tables)), set(vars(model))
    start = threading.Barrier(4, timeout=60)

    def rank(_):
        start.wait()
        return rank_traces(model, log)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # the threads interleave often inside rank_traces
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            rankings = list(pool.map(rank, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == rankings[0] for r in rankings)
    assert (repr(vars(tables)), set(vars(model))) == before  # the reuse state lived in each call only
    assert rankings[0] == rank_traces(model, log)


def test_self_concatenation_invariance_without_history_structure():
    # no history edges and no history FDs: doubling a trace cannot change its score
    schema = AttributeSchema(("A", "B"), "tid")
    rows = {
        "1": [("a", "u"), ("b", "v"), ("a", "u")],
        "2": [("b", "v"), ("a", "u"), ("b", "v")],
        "3": [("a", "u"), ("a", "u")],  # breaks the alternating history pattern
    }
    counter = 0
    traces = []
    for tid, values in rows.items():
        events = []
        for v in values:
            events.append(Event(str(counter), v))
            counter += 1
        traces.append(Trace(tid, tuple(events)))
    log = EventLog(schema, tuple(traces))
    model = learn_edbn(log, 1, 0.99, structure=[])
    assert all(m.edge.source.lag == 0 for m in model.fd_mappings)
    assert model.fd_mappings  # the slice-0 FD A<->B is present
    trace = log.trace_by_id("1")
    doubled = Trace(
        "d", trace.events + tuple(Event(f"{e.id}+", e.values) for e in trace.events)
    )
    assert score_trace(model, doubled).score == score_trace(model, trace).score


def test_ranking_rejects_mismatched_schema(permission_log):
    # a log with another attribute, and a shipping log with its 13 attribute names rotated by one,
    # so that each name heads another attribute's values
    process = default_shipping_model()
    names, test = process.attributes, inject_anomalies(generate(process, 20, 2), 0.2, 3)
    other = EventLog(
        AttributeSchema(("Other",), "tid"),
        (Trace("1", (Event("0", ("x",)),)),),
    )
    rotated = EventLog(AttributeSchema(names[1:] + names[:1], process.trace_id_column), test.log.traces)
    for train, labeled in ((permission_log, LabeledLog(other, {"1": NORMAL}, {})),
                           (generate(process, 300, 1), LabeledLog(rotated, test.labels, test.anomaly_details))):
        model = learn_edbn(train, 1)
        for score in (rank_traces, score_log):
            with pytest.raises(ValueError, match="model schema"):
                score(model, labeled.log)
        with pytest.raises(ValueError, match="model schema"):
            run_experiment(train, labeled, 1, 0.99)
