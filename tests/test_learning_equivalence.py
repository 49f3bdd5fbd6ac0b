"""Learning from the integer-coded k-context equals the string-based reference learner.

Model files are compared byte for byte: every FD strength, CPT count, mapping,
rate and domain that the coded pipeline learns is the one that the row-by-row
pipeline in reference_learning.py learns.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbn import (
    AttributeSchema,
    Event,
    EventLog,
    FDEdge,
    Trace,
    Variable,
    build_k_context,
    build_mapping,
    default_shipping_model,
    generate,
    learn_edbn,
    save_model,
)

from reference_learning import ReferenceContext, reference_build_mapping, reference_learn


def _assert_same_model(log, k, fd_threshold=0.99, structure=None):
    learned = learn_edbn(log, k, fd_threshold, structure=structure)
    assert save_model(learned) == save_model(reference_learn(log, k, fd_threshold, structure))


def _cycle_log():
    # A cycles a -> b -> c from "a", so A at lag 1 determines A: an FD whose
    # source is padding at every trace's first event
    rng = random.Random(3)
    traces = []
    for t in range(40):
        activities = ["abc"[i % 3] for i in range(rng.randint(3, 7))]
        traces.append(Trace(f"n{t}", tuple(Event(f"n{t}-{i}", (a, rng.choice("uv"))) for i, a in enumerate(activities))))
    return EventLog(AttributeSchema(("A", "B"), "tid"), tuple(traces))


@pytest.mark.parametrize("k", [1, 2])
def test_permission_log(permission_log, k):
    _assert_same_model(permission_log, k)


@pytest.mark.parametrize("k", [1, 2])
def test_shipping_log(k):
    _assert_same_model(generate(default_shipping_model(), 600, 21), k)


@pytest.mark.parametrize("k", [1, 2])
def test_cyclic_log_with_a_padded_fd_source(k):
    log = _cycle_log()
    model = learn_edbn(log, k, 0.99)
    assert any(m.edge.source == Variable("A", 1) for m in model.fd_mappings)
    _assert_same_model(log, k)


# values that sort on both sides of the padding token "__NONE__"
VALUES = ("A", "Z", "_", "_a", "__", "a", "b", "~")


@st.composite
def small_logs(draw):
    n_attrs = draw(st.integers(1, 4))
    # the first attribute is constant
    alphabets = [["k"]] + [
        draw(st.lists(st.sampled_from(VALUES), min_size=1, max_size=3, unique=True)) for _ in range(n_attrs - 1)
    ]
    traces = []
    for t in range(draw(st.integers(1, 5))):
        events = tuple(
            Event(f"{t}-{i}", tuple(draw(st.sampled_from(a)) for a in alphabets))
            for i in range(draw(st.integers(1, 6)))
        )
        traces.append(Trace(str(t), events))
    return EventLog(AttributeSchema(tuple(f"a{i}" for i in range(n_attrs)), "tid"), tuple(traces))


@settings(max_examples=150, deadline=None)
@given(small_logs(), st.integers(1, 3), st.booleans(), st.data())
def test_coded_learner_equals_reference_on_small_logs(log, k, impose, data):
    # every pair, not just the discovered FDs, so that majority ties occur
    ctx, reference_ctx = build_k_context(log, k), ReferenceContext(log, k)
    for target in ctx.current_variables():
        for source in ctx.variables:
            if source != target:
                edge = FDEdge(source, target, 1.0)
                assert build_mapping(ctx, edge) == reference_build_mapping(reference_ctx, edge)
    structure = None
    if impose:
        variables = ReferenceContext(log, k).variables
        legal = [(s, t) for s in variables for t in variables if t.lag == 0 and s != t]
        structure = data.draw(st.sets(st.sampled_from(legal)))
    _assert_same_model(log, k, 0.99, structure)


def test_cpt_counts_do_not_overflow_with_many_high_cardinality_parents():
    # Every variable takes 16 values: v0..v14 start a trace and v15 ends it,
    # and the lag-1 slices hold v0..v14 plus padding.  With the 17 others as
    # parents of A_0, a plain mixed-radix key needs 72 bits, and wrapped to
    # 64 it loses A_1 and B_1: the end events of the last two traces, which
    # differ in those only, would share a CPT row.
    names = tuple("ABCDEFGHI")
    starts = [(f"v{j}",) * len(names) for j in range(15)]
    starts += [("v1", "v2") + ("v0",) * 7, ("v3", "v4") + ("v0",) * 7]
    end = ("v15",) * len(names)
    traces = [Trace(str(t), (Event(f"{t}-0", start), Event(f"{t}-1", end))) for t, start in enumerate(starts)]
    log = EventLog(AttributeSchema(names, "tid"), tuple(traces))
    ctx = build_k_context(log, 1)
    child = Variable("A", 0)
    parents = {v for v in ctx.variables if v != child}
    assert all(len(vocab) == 16 for vocab in ctx.vocabularies)
    # a threshold of 1 accepts no FD, so every imposed edge is a CPT parent
    model = learn_edbn(log, 1, 1.0, structure={(p, child) for p in parents})
    assert len(model.cpts["A"].rows) == 2 * len(starts)  # every event has its own parent values
    _assert_same_model(log, 1, 1.0, {(p, child) for p in parents})
