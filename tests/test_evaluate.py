import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbn import (
    ANOMALOUS,
    NORMAL,
    LabeledLog,
    LabeledScore,
    auc,
    generate,
    parse_process_model,
    precision_recall,
    run_experiment,
)


def oracle_auc(scores):
    """O(n^2) pair counting: P(anomalous scores below normal), ties half."""
    anomalous = [s.score for s in scores if s.label == ANOMALOUS]
    normal = [s.score for s in scores if s.label == NORMAL]
    wins = 0.0
    for a in anomalous:
        for n in normal:
            if a < n:
                wins += 1.0
            elif a == n:
                wins += 0.5
    return wins / (len(anomalous) * len(normal))


def oracle_precision_recall(scores):
    """(recall, precision) with every score at or below each distinct threshold flagged, counted one by one."""
    n_a = sum(1 for s in scores if s.label == ANOMALOUS)
    curve = []
    for threshold in sorted({s.score for s in scores}):
        flagged = [s for s in scores if s.score <= threshold]
        tp = sum(1 for s in flagged if s.label == ANOMALOUS)
        curve.append((tp / n_a, tp / len(flagged)))
    return curve


def _scores(pairs):
    return [LabeledScore(str(i), s, label) for i, (s, label) in enumerate(pairs)]


def test_perfect_separation_gives_one():
    scores = _scores([(0.1, ANOMALOUS), (0.2, ANOMALOUS), (0.5, NORMAL), (0.9, NORMAL)])
    assert auc(scores) == 1.0


def test_even_interleaving_gives_half():
    scores = _scores(
        [(1.0, ANOMALOUS), (2.0, NORMAL), (3.0, NORMAL), (4.0, ANOMALOUS),
         (5.0, ANOMALOUS), (6.0, NORMAL), (7.0, NORMAL), (8.0, ANOMALOUS)]
    )
    assert auc(scores) == 0.5
    assert auc(scores) == oracle_auc(scores)


def test_four_score_example_matches_pair_counting():
    scores = _scores([(0.1, ANOMALOUS), (0.2, NORMAL), (0.15, ANOMALOUS), (0.9, NORMAL)])
    assert oracle_auc(scores) == 1.0
    assert auc(scores) == 1.0


def test_single_class_input_is_an_error():
    with pytest.raises(ValueError):
        auc(_scores([(0.1, NORMAL), (0.5, NORMAL)]))
    with pytest.raises(ValueError):
        precision_recall(_scores([(0.1, ANOMALOUS)]))


def test_a_nan_score_is_an_error_naming_its_trace():
    scores = [LabeledScore("a", math.nan, ANOMALOUS), LabeledScore("b", 0.5, NORMAL), LabeledScore("c", 0.2, ANOMALOUS)]
    for evaluate in (auc, precision_recall):
        with pytest.raises(ValueError, match="^trace 'a' has a NaN score$"):
            evaluate(scores)


def test_unknown_label_is_an_error():
    with pytest.raises(ValueError):
        auc([LabeledScore("x", 0.5, "odd"), LabeledScore("y", 0.1, NORMAL)])


labeled_scores_st = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=16),
        st.sampled_from([NORMAL, ANOMALOUS]),
    ),
    min_size=2,
    max_size=200,
).filter(lambda ps: {l for _, l in ps} == {NORMAL, ANOMALOUS})


@settings(max_examples=100)
@given(labeled_scores_st)
def test_auc_matches_pair_counting_oracle(pairs):
    scores = _scores(pairs)
    assert abs(auc(scores) - oracle_auc(scores)) < 1e-12


@settings(max_examples=60)
@given(labeled_scores_st)
def test_reversed_scores_flip_auc(pairs):
    scores = _scores(pairs)
    flipped = [LabeledScore(s.trace_id, -s.score, s.label) for s in scores]
    assert abs(auc(flipped) - (1.0 - auc(scores))) < 1e-12


# --- precision/recall ---------------------------------------------------------


def test_perfect_separation_reaches_full_recall_and_precision():
    scores = _scores(
        [(0.1, ANOMALOUS), (0.2, ANOMALOUS), (0.3, ANOMALOUS),
         (0.7, NORMAL), (0.8, NORMAL), (0.9, NORMAL)]
    )
    curve = precision_recall(scores)
    assert (1.0, 1.0) in curve
    assert curve[-1] == (1.0, 0.5)  # loosest threshold flags everything


def test_four_score_example_curve_points():
    scores = _scores([(0.1, ANOMALOUS), (0.2, NORMAL), (0.15, ANOMALOUS), (0.9, NORMAL)])
    assert precision_recall(scores) == [
        (0.5, 1.0),
        (1.0, 1.0),
        (1.0, 2 / 3),
        (1.0, 0.5),
    ]


@settings(max_examples=60)
@given(labeled_scores_st)
def test_curve_recall_is_nondecreasing_and_ends_at_one(pairs):
    curve = precision_recall(_scores(pairs))
    recalls = [r for r, _ in curve]
    assert recalls == sorted(recalls)
    assert recalls[-1] == 1.0
    assert all(0 <= p <= 1 for _, p in curve)
    n_a = sum(1 for _, label in pairs if label == ANOMALOUS)
    assert curve[-1][1] == n_a / len(pairs)  # loosest threshold: base rate


tied_scores_st = st.lists(
    st.tuples(
        st.one_of(st.sampled_from([0.0, -0.0, 0.5, math.inf, -math.inf]), st.floats(allow_nan=False, width=16)),
        st.sampled_from([NORMAL, ANOMALOUS]),
    ),
    min_size=2,
    max_size=60,
).filter(lambda ps: {l for _, l in ps} == {NORMAL, ANOMALOUS})


@settings(max_examples=200)
@given(tied_scores_st)
def test_precision_recall_and_auc_match_their_oracles_with_ties_signed_zeros_and_infinities(pairs):
    scores = _scores(pairs)
    assert precision_recall(scores) == oracle_precision_recall(scores)
    assert abs(auc(scores) - oracle_auc(scores)) < 1e-12


# --- experiment runner ----------------------------------------------------------


def test_run_experiment_separable_by_construction():
    doc = {
        "name": "toy",
        "trace_id_column": "case",
        "attributes": ["activity", "user", "role"],
        "activity_attribute": "activity",
        "start_activity": "begin",
        "end_activities": ["end"],
        "transitions": {"begin": {"work": 1.0}, "work": {"end": 1.0}},
        "rules": {
            "user": {"kind": "activity_choice", "pools": {
                "begin": ["u1", "u2"], "work": ["u3", "u4"], "end": ["u1", "u2"],
            }},
            "role": {"kind": "derived", "source": "user", "mapping": {
                "u1": "clerk", "u2": "boss", "u3": "clerk", "u4": "clerk",
            }},
        },
    }
    model = parse_process_model(json.dumps(doc))
    train = generate(model, 300, seed=1)
    clean_test = generate(model, 100, seed=2)

    # anomalies violate the user->role dependency outright: guaranteed score 0
    from edbn import Event, EventLog, Trace

    role_i = clean_test.schema.index_of("role")
    traces, labels = [], {}
    for n, trace in enumerate(clean_test.traces):
        if n % 2 == 0:
            values = list(trace.events[1].values)
            values[role_i] = "boss" if values[role_i] == "clerk" else "clerk"
            events = (
                trace.events[0],
                Event(trace.events[1].id, tuple(values)),
                *trace.events[2:],
            )
            traces.append(Trace(trace.trace_id, events))
            labels[trace.trace_id] = ANOMALOUS
        else:
            traces.append(trace)
            labels[trace.trace_id] = NORMAL
    test = LabeledLog(EventLog(clean_test.schema, tuple(traces)), labels, {})

    report = run_experiment(train, test, k=1, fd_threshold=0.99)
    assert report.n_anomalous == 50 and report.n_normal == 50
    assert report.auc == 1.0
    assert report.pr_curve[-1][0] == 1.0
    assert len(report.score_list) == 100
    scores = [s.score for s in report.score_list]
    assert scores == sorted(scores)


def test_run_experiment_requires_nonempty_inputs(permission_log):
    from edbn import EventLog

    empty = EventLog(permission_log.schema, ())
    labeled = LabeledLog(empty, {}, {})
    with pytest.raises(ValueError):
        run_experiment(permission_log, labeled, 1, 0.99)
