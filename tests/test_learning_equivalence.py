"""Learning from the integer-coded k-context equals the string-based reference learner.

Model files are compared byte for byte: every FD strength, CPT count, mapping,
rate and domain that the coded pipeline learns is the one that the row-by-row
pipeline in reference_learning.py learns.  Every family score that the structure
search memoizes equals the reference's float for that family exactly.
"""
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbn import (
    AttributeSchema,
    DAG,
    Event,
    EventLog,
    FDEdge,
    Trace,
    Variable,
    build_k_context,
    build_mapping,
    default_shipping_model,
    discover_fds,
    fit_cpts,
    generate,
    learn_edbn,
    learn_structure,
    make_constraints,
    save_model,
)
from edbn import structure
from edbn.stats import coded_column, dense_size, tuple_keys

from reference_learning import (
    ReferenceContext,
    _FamilyScores,
    reference_build_mapping,
    reference_discover_fds,
    reference_fit_cpts,
    reference_learn,
)


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


def _item_unique_per_event(log):
    # item reads item-<event id>, so every FD from item has a key space above one bincount pass
    col = log.schema.names.index("item")
    return EventLog(log.schema, tuple(
        Trace(t.trace_id, tuple(Event(e.id, e.values[:col] + (f"item-{e.id}",) + e.values[col + 1:]) for e in t.events))
        for t in log.traces
    ))


@pytest.mark.parametrize("log, k, unique_families", [
    (lambda: generate(default_shipping_model(), 600, 21), 1, 0),
    (lambda: generate(default_shipping_model(), 600, 21), 2, 0),
    (lambda: _item_unique_per_event(generate(default_shipping_model(), 200, 42)), 1, 2),
], ids=["1", "2", "1-item-unique-per-event"])
def test_shipping_log(log, k, unique_families):
    # unique_families: how many of the search's families count their keys with np.unique
    sparse, key_counts = [], structure.key_counts

    def recording_key_counts(keys, size):
        sparse.append(size > dense_size(len(keys)))
        return key_counts(keys, size)

    with mock.patch.object(structure, "key_counts", recording_key_counts):
        _assert_same_model(log(), k)
    assert sum(sparse) == unique_families


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


# --- FD discovery ------------------------------------------------------------------

FD_THRESHOLDS = [1e-6, 0.5, 0.99, 1.0]


@settings(max_examples=150, deadline=None)
@given(small_logs(), st.integers(1, 3), st.sampled_from(FD_THRESHOLDS))
def test_fd_discovery_equals_reference_on_small_logs(log, k, threshold):
    # discover_fds skips the pairs that the entropy bound U(X|Y) <= H(Y)/H(X) rules out
    found = discover_fds(build_k_context(log, k), threshold)
    assert found == reference_discover_fds(ReferenceContext(log, k), threshold)  # strengths included


@pytest.mark.parametrize("threshold", [*FD_THRESHOLDS, math.nextafter(1.0, 0.0)])
def test_fd_discovery_keeps_a_bijective_pair_whose_entropies_round_apart(threshold):
    # B relabels A in reverse order, so their code counts come in opposite orders and
    # their entropies differ in the last bits, though each determines the other: H(B)
    # is even below the largest threshold under 1 times H(A)
    counts = {"a": 9, "b": 5, "c": 2, "d": 9, "e": 6}
    relabel = dict(zip("abcde", "zyxwv"))
    values = [v for v, count in counts.items() for _ in range(count)]
    random.Random(1).shuffle(values)
    events = tuple(Event(str(i), (v, relabel[v])) for i, v in enumerate(values))
    log = EventLog(AttributeSchema(("A", "B"), "tid"), (Trace("t", events),))
    ctx = build_k_context(log, 1)
    entropies = {v: coded_column(c, len(vocab)).entropy for v, c, vocab in zip(ctx.variables, ctx.codes, ctx.vocabularies)}
    assert entropies[Variable("B", 0)] < math.nextafter(1.0, 0.0) * entropies[Variable("A", 0)]
    found = discover_fds(ctx, threshold)
    assert found == reference_discover_fds(ReferenceContext(log, 1), threshold)
    pair = {(e.source, e.target): e.strength for e in found if e.source.lag == 0}
    assert pair == ({} if threshold == 1.0 else {(Variable("B", 0), Variable("A", 0)): 1.0,
                                                 (Variable("A", 0), Variable("B", 0)): 1.0})


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


# --- CPTs ----------------------------------------------------------------------------


def _ordered_cpts(cpts):
    # rows, counts and totals in dict order: fit_cpts's own contract keeps rows and counts in the order the log
    # first shows them (save_model sorts them, so the model file does not keep this order)
    return [(attr, cpt.parents, [(cfg, list(cell.items())) for cfg, cell in cpt.rows.items()],
             list(cpt.row_totals.items())) for attr, cpt in cpts.items()]


def _assert_same_cpts(log, k, edges):
    ctx = build_k_context(log, k)
    fds = discover_fds(ctx, 0.99)
    dag = DAG(ctx.variables, frozenset(edges) | {(fd.source, fd.target) for fd in fds})
    assert _ordered_cpts(fit_cpts(ctx, dag, fds)) == _ordered_cpts(reference_fit_cpts(ReferenceContext(log, k), dag, fds))
    return ctx


@settings(max_examples=150, deadline=None)
@given(small_logs(), st.integers(1, 3), st.data())
def test_cpts_equal_reference_on_small_logs(log, k, data):
    variables = ReferenceContext(log, k).variables
    legal = [(s, t) for s in variables for t in variables if t.lag == 0 and s != t]
    _assert_same_cpts(log, k, data.draw(st.sets(st.sampled_from(legal))))


def _log_of_a_unique_attribute(seed):
    # 300 traces of 10 events; A is unique per event, B takes 6 values and C 2
    rng = random.Random(seed)
    traces = [
        Trace(str(t), tuple(Event(f"{t}-{i}", (f"a{t}-{i}", rng.choice("uvwxyz"), rng.choice("pq"))) for i in range(10)))
        for t in range(300)
    ]
    return EventLog(AttributeSchema(("A", "B", "C"), "tid"), tuple(traces))


def test_cpts_equal_reference_for_a_child_of_very_many_values():
    # A is unique per event, so A_0 given B_1 and C_0 has a key space of 7 * 2 * 3000,
    # above the 4n+4096 that one bincount pass counts; B_0 given B_1 counts densely
    log = _log_of_a_unique_attribute(7)
    a0, b0, b1, c0 = Variable("A", 0), Variable("B", 0), Variable("B", 1), Variable("C", 0)
    ctx = _assert_same_cpts(log, 1, {(b1, a0), (c0, a0), (b1, b0)})
    sizes = {child: tuple_keys([(ctx.codes[ctx.index_of(v)], len(ctx.vocabulary(v))) for v in family], len(ctx))[1]
             for child, family in ((a0, (b1, c0, a0)), (b0, (b1, b0)))}
    assert sizes[a0] > dense_size(len(ctx)) >= sizes[b0]


def test_mappings_equal_reference_for_a_source_of_very_many_values():
    # every source -> target pair, FD or not, of a log whose A is unique per event
    log = _log_of_a_unique_attribute(7)
    ctx, reference_ctx = build_k_context(log, 1), ReferenceContext(log, 1)
    pairs = [(s, t) for s in ctx.variables for t in ctx.current_variables() if s != t]
    for source, target in pairs:
        edge = FDEdge(source, target, 1.0)
        assert build_mapping(ctx, edge) == reference_build_mapping(reference_ctx, edge)
    sizes = [len(ctx.vocabulary(s)) * len(ctx.vocabulary(t)) for s, t in pairs]
    assert len(pairs) == 15 and max(sizes) > dense_size(len(ctx))


# --- the structure search's family scores ------------------------------------------


def _search(log, k):
    """The _CodedContext of one structure search on the log, with everything it memoized."""
    contexts = []

    class Recording(structure._CodedContext):
        def __init__(self, ctx):
            super().__init__(ctx)
            contexts.append(self)

    ctx = build_k_context(log, k)
    with mock.patch.object(structure, "_CodedContext", Recording):
        learn_structure(ctx, make_constraints(ctx.variables, discover_fds(ctx, 0.99)))
    (coded,) = contexts
    return coded


def _assert_search_scores_equal_reference(log, k):
    # float equality: every count is summed in the reference's order
    coded = _search(log, k)
    reference = _FamilyScores(ReferenceContext(log, k))
    scored = [(child, parents, score) for child, scores in coded.scores.items() for parents, score in scores.items()]
    for child, parents, score in scored:
        assert score == reference(child, parents), (child, sorted(parents))
    return coded, scored


@pytest.mark.parametrize("k", [1, 2])
def test_search_scores_equal_reference_on_shipping_log(k):
    _, scored = _assert_search_scores_equal_reference(generate(default_shipping_model(), 600, 21), k)
    assert len(scored) > 300


@pytest.mark.parametrize("k", [1, 2])
def test_search_scores_equal_reference_on_cyclic_log(k):
    _, scored = _assert_search_scores_equal_reference(_cycle_log(), k)
    assert scored


@settings(max_examples=150, deadline=None)
@given(small_logs(), st.integers(1, 3))
def test_search_scores_equal_reference_on_small_logs(log, k):
    _assert_search_scores_equal_reference(log, k)



@settings(max_examples=150, deadline=None)
@given(small_logs(), st.integers(1, 3), st.data())
def test_gain_is_the_score_difference_wherever_that_could_exceed_the_threshold(log, k, data):
    ctx = build_k_context(log, k)
    coded = structure._CodedContext(ctx)
    child = data.draw(st.sampled_from(ctx.current_variables()))
    others = [v for v in ctx.variables if v != child]
    current, trial = (frozenset(data.draw(st.sets(st.sampled_from(others)))) for _ in range(2))
    difference = coded.family_score(child, trial) - coded.family_score(child, current)
    gain = coded.gain(child, current, trial)
    assert gain == difference if difference > structure.SCORE_EPS else gain <= structure.SCORE_EPS


def test_gain_equal_to_its_bound_is_kept():
    # A_0 is a then b, which A_1 (padding, then a) determines: the trial's log-likelihood
    # is exactly 0, so its score, -2, is the bound, and the gain is 2 ln 2 - 1
    log = EventLog(AttributeSchema(("A",), "tid"), (Trace("t", (Event("0", ("a",)), Event("1", ("b",)))),))
    coded = structure._CodedContext(build_k_context(log, 1))
    gain = coded.gain(Variable("A", 0), frozenset(), frozenset({Variable("A", 1)}))
    assert gain == pytest.approx(2 * math.log(2) - 1, abs=1e-12)

def test_search_scores_equal_reference_for_a_child_of_very_many_values():
    # A is unique per event, so A_0 given B_1 (7 codes with padding) has a joint key
    # space of 7 * 3000, above the 4n+4096 that one bincount pass counts; A_0 is the
    # first target, so that family is the first to count the parent set {B_1}
    coded, _ = _assert_search_scores_equal_reference(_log_of_a_unique_attribute(5), 1)
    child, parent = Variable("A", 0), Variable("B", 1)
    assert frozenset({parent}) in coded.scores[child]
    family = [(coded.codes[v], coded.cards[v]) for v in (parent, child)]
    assert tuple_keys(family, coded.n)[1] > dense_size(coded.n)


def test_search_counts_each_parent_term_once():
    log = generate(default_shipping_model(), 2000, 7)
    evaluated, sums = [], []
    log_likelihood, sum_n_log_n = structure._CodedContext._log_likelihood, structure._sum_n_log_n

    def recording_log_likelihood(self, child, parents):
        evaluated.append(parents)
        return log_likelihood(self, child, parents)

    def recording_sum_n_log_n(counts):
        sums.append(len(counts))
        return sum_n_log_n(counts)

    with mock.patch.object(structure._CodedContext, "_log_likelihood", recording_log_likelihood), \
            mock.patch.object(structure, "_sum_n_log_n", recording_sum_n_log_n):
        coded = _search(log, 1)
    # one sum for each evaluated family's joint counts, one more per new parent set
    assert len(evaluated) == 510
    assert len(set(evaluated)) == len(coded._parent_terms) == 332
    assert len(sums) == len(evaluated) + len(set(evaluated))
