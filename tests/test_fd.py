import math
from dataclasses import replace
from fractions import Fraction

import pytest

from edbn import (
    PADDING,
    AttributeSchema,
    Event,
    EventLog,
    FDEdge,
    FDMapping,
    Trace,
    Variable,
    build_k_context,
    build_mapping,
    discover_fds,
    learn_edbn,
)
from edbn.model import event_scores

from test_stats import oracle_entropy, oracle_mi


def oracle_fd_edges(ctx, threshold):
    """Exhaustive pairwise U computation with plain counting, per grouping oracle."""
    edges = set()
    for target in ctx.variables:
        if target.lag != 0:
            continue
        x = ctx.column(target)
        for source in ctx.variables:
            if source == target:
                continue
            y = ctx.column(source)
            single_valued = True
            grouped = {}
            for xv, yv in zip(x, y):
                if grouped.setdefault(yv, xv) != xv:
                    single_valued = False
            h = oracle_entropy(x)
            u = 1.0 if (h == 0 or single_valued) else oracle_mi(x, y) / h
            if u > threshold:
                edges.add((source, target))
    return edges


def test_discovery_includes_worked_example_fds(permission_ctx):
    edges = {(e.source, e.target) for e in discover_fds(permission_ctx, 0.99)}
    assert (Variable("UserID", 0), Variable("UserRole", 0)) in edges
    assert (Variable("UserName", 0), Variable("UserRole", 0)) in edges
    assert (Variable("UserID", 0), Variable("UserName", 0)) in edges
    assert (Variable("UserName", 0), Variable("UserID", 0)) in edges


def test_discovery_matches_exhaustive_oracle(permission_ctx):
    edges = {(e.source, e.target) for e in discover_fds(permission_ctx, 0.99)}
    assert edges == oracle_fd_edges(permission_ctx, 0.99)


def test_discovery_never_targets_history(permission_ctx):
    assert all(e.target.lag == 0 for e in discover_fds(permission_ctx, 0.5))


def test_threshold_is_strict(permission_ctx):
    # U = 1.0 for exact FDs; with threshold 1.0 nothing qualifies
    assert discover_fds(permission_ctx, 1.0) == []


def test_independent_columns_yield_no_fds():
    import random

    rng = random.Random(4)
    events = tuple(
        Event(str(i), (rng.choice("abcd"), rng.choice("uvwx"))) for i in range(100)
    )
    log = EventLog(AttributeSchema(("A", "B"), "tid"), (Trace("1", events),))
    ctx = build_k_context(log, 1)
    edges = [
        e
        for e in discover_fds(ctx, 0.9)
        if {e.source.attr, e.target.attr} == {"A", "B"} and e.source.lag == e.target.lag == 0
    ]
    assert edges == []


def test_threshold_domain(permission_ctx):
    with pytest.raises(ValueError):
        discover_fds(permission_ctx, 0.0)
    with pytest.raises(ValueError):
        discover_fds(permission_ctx, 1.1)


def test_worked_example_mapping(permission_ctx):
    edge = FDEdge(Variable("UserID", 0), Variable("UserRole", 0), 1.0)
    mapping = build_mapping(permission_ctx, edge)
    assert mapping.map == {
        "001": "employee",
        "002": "manager",
        "003": "employee",
        "004": "sales-manager",
    }
    assert mapping.violation_rate == 0


def _one_attribute_log(pairs):
    events = tuple(Event(str(i), pair) for i, pair in enumerate(pairs))
    return EventLog(AttributeSchema(("X", "Y"), "tid"), (Trace("1", events),))


def test_single_broken_row_violation_rate():
    pairs = [("k1", "v1")] * 60 + [("k2", "v2")] * 39 + [("k1", "other")]
    ctx = build_k_context(_one_attribute_log(pairs), 1)
    mapping = build_mapping(ctx, FDEdge(Variable("X", 0), Variable("Y", 0), 0.9))
    assert mapping.map["k1"] == "v1"  # majority target kept
    assert mapping.violation_rate == Fraction(1, 100)


def test_majority_tie_breaks_lexicographically():
    pairs = [("k", "b"), ("k", "a")]
    ctx = build_k_context(_one_attribute_log(pairs), 1)
    mapping = build_mapping(ctx, FDEdge(Variable("X", 0), Variable("Y", 0), 0.5))
    assert mapping.map["k"] == "a"


def test_padding_sources_are_not_violations():
    pairs = [("a", "u"), ("b", "v"), ("a", "u"), ("b", "v")]
    ctx = build_k_context(_one_attribute_log(pairs), 1)
    # X one step back determines nothing at trace heads; padding rows must not count
    mapping = build_mapping(ctx, FDEdge(Variable("X", 1), Variable("Y", 0), 0.5))
    assert PADDING not in mapping.map
    assert mapping.violation_rate == Fraction(0)


def _model_with(log, mappings):
    """A k = 1 model of ``log`` whose only FD mappings are ``mappings``, with no CPT parents."""
    model = learn_edbn(log, 1, 1.0, structure=())  # no U exceeds 1: no FD is discovered
    return replace(model, fd_mappings=tuple(mappings))


def _fd_factors(model, values):
    """Each FD check's value at the first event of a trace whose first event holds ``values``, by its source."""
    return {f.source: f.value for f in event_scores(model, [Event("e", values)])[0].factors if f.kind == "fd"}


def test_fd_factor_branches(permission_log, permission_ctx):
    mapping = build_mapping(permission_ctx, FDEdge(Variable("UserID", 0), Variable("UserRole", 0), 1.0))
    # the same map, read from the previous event: at a trace's first event its source is PADDING
    lagged = FDMapping(FDEdge(Variable("UserID", 1), Variable("UserRole", 0), 1.0), mapping.map, mapping.violation_rate)
    model = _model_with(permission_log, [mapping, lagged])

    def factors(user_id, role):
        return _fd_factors(model, ("User-Actions", "Log in", user_id, "User1", role))

    assert factors("001", "employee") == {Variable("UserID", 0): 1.0, Variable("UserID", 1): 1.0}
    assert factors("001", "manager")[Variable("UserID", 0)] == 0.0
    assert factors("999", "anything")[Variable("UserID", 0)] == 1.0
    assert factors("001", "anything")[Variable("UserID", 1)] == 1.0


def test_fd_factors_complement_for_seen_sources():
    pairs = [("k1", "v1")] * 9 + [("k1", "v2")]
    log = _one_attribute_log(pairs)
    mapping = build_mapping(build_k_context(log, 1), FDEdge(Variable("X", 0), Variable("Y", 0), 0.5))
    model = _model_with(log, [mapping])
    (agree,) = _fd_factors(model, ("k1", mapping.map["k1"])).values()
    (disagree,) = _fd_factors(model, ("k1", "v2")).values()
    assert agree + disagree == pytest.approx(1.0, abs=1e-15)
    assert math.isclose(disagree, 0.1)


def test_fd_edge_targets_slice_zero_only():
    with pytest.raises(ValueError):
        FDEdge(Variable("A", 0), Variable("B", 1), 1.0)


def test_discovery_rejects_empty_context(permission_ctx):
    from edbn import KContextLog

    empty = KContextLog(permission_ctx.variables, ())
    with pytest.raises(ValueError, match="empty"):
        discover_fds(empty, 0.9)


def test_mapping_rejects_empty_context():
    schema = AttributeSchema(("A", "B"), "tid")
    ctx = build_k_context(EventLog(schema, []), 1)
    with pytest.raises(ValueError, match="context log is empty"):
        build_mapping(ctx, FDEdge(Variable("A", 0), Variable("B", 0), 1.0))


def test_mapping_violation_rate_must_be_a_probability():
    from fractions import Fraction

    edge = FDEdge(Variable("X", 0), Variable("Y", 0), 1.0)
    with pytest.raises(ValueError, match="violation_rate"):
        FDMapping(edge, {}, Fraction(3, 2))
