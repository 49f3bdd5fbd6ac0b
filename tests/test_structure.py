import graphlib
import math
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
    default_shipping_model,
    discover_fds,
    fit_cpts,
    generate,
    learn_structure,
    make_constraints,
)
from edbn.structure import DAG, StructureConstraints

from reference_learning import _FamilyScores
from test_learning_equivalence import _cycle_log, small_logs


def _single_trace_log(attr_rows, names=("A",)):
    events = tuple(Event(str(i), row) for i, row in enumerate(attr_rows))
    return EventLog(AttributeSchema(tuple(names), "tid"), (Trace("1", events),))


def oracle_family_score(ctx, child, parents):
    """Direct-count AIC family score: multinomial log-likelihood minus parameters."""
    child_i = ctx.index_of(child)
    parent_i = [ctx.index_of(p) for p in parents]
    joint, cfg = {}, {}
    for row in ctx.rows:
        key = tuple(row.values[i] for i in parent_i)
        joint[key + (row.values[child_i],)] = joint.get(key + (row.values[child_i],), 0) + 1
        cfg[key] = cfg.get(key, 0) + 1
    ll = sum(c * math.log(c / cfg[k[:-1]]) for k, c in joint.items())
    params = len({r.values[child_i] for r in ctx.rows}) - 1
    for i in parent_i:
        params *= len({r.values[i] for r in ctx.rows})
    return ll - params


def test_blacklist_counts_for_five_attributes(permission_ctx):
    constraints = make_constraints(permission_ctx.variables, [])
    # 10 variables, 5 history targets, self-pairs excluded: 45 pairs
    assert len(constraints.blacklist) == 45
    assert all(tgt.lag > 0 for _, tgt in constraints.blacklist)
    assert constraints.whitelist == frozenset()


def test_whitelist_passes_fd_edges_through(permission_ctx):
    fds = discover_fds(permission_ctx, 0.99)
    constraints = make_constraints(permission_ctx.variables, fds)
    assert constraints.whitelist == {(f.source, f.target) for f in fds}


def test_constraints_reject_overlap():
    edge = (Variable("A", 1), Variable("B", 1))
    with pytest.raises(ValueError):
        StructureConstraints(frozenset([edge]), frozenset([edge]))


def test_alternating_sequence_learns_history_edge():
    log = _single_trace_log([("a",) if i % 2 == 0 else ("b",) for i in range(100)])
    ctx = build_k_context(log, 1)
    constraints = make_constraints(ctx.variables, [])
    dag = learn_structure(ctx, constraints)
    assert (Variable("A", 1), Variable("A", 0)) in dag.edges
    # oracle check: the edge must beat the empty family on AIC
    assert oracle_family_score(ctx, Variable("A", 0), [Variable("A", 1)]) > oracle_family_score(
        ctx, Variable("A", 0), []
    )


def test_noise_column_stays_parentless():
    rng = random.Random(7)
    rows = [(("a", "b")[i % 2], rng.choice("uvwx")) for i in range(1000)]
    log = _single_trace_log(rows, names=("A", "B"))
    ctx = build_k_context(log, 1)
    dag = learn_structure(ctx, make_constraints(ctx.variables, []))
    assert not [e for e in dag.edges if e[1] == Variable("B", 0)]


def test_whitelist_edge_without_signal_is_kept():
    rng = random.Random(9)
    rows = [(rng.choice("ab"), rng.choice("uvwx")) for i in range(200)]
    log = _single_trace_log(rows, names=("A", "B"))
    ctx = build_k_context(log, 1)
    fd = FDEdge(Variable("A", 0), Variable("B", 0), 1.0)
    constraints = make_constraints(ctx.variables, [fd])
    dag = learn_structure(ctx, constraints)
    assert (fd.source, fd.target) in dag.edges


def test_constraints_respected_and_score_improves(permission_ctx):
    fds = discover_fds(permission_ctx, 0.99)
    constraints = make_constraints(permission_ctx.variables, fds)
    dag = learn_structure(permission_ctx, constraints)
    assert constraints.whitelist <= dag.edges
    assert not (dag.edges & constraints.blacklist)
    initial = DAG(dag.vertices, constraints.whitelist)
    family_score = _FamilyScores(permission_ctx)  # the reference's AIC family score

    def aic(graph):  # parents exclude the whitelisted FD edges
        return sum(family_score(child, frozenset(graph.parents_of(child, exclude=constraints.whitelist)))
                   for child in permission_ctx.current_variables())

    assert aic(dag) >= aic(initial)


def test_conditional_part_is_acyclic_and_deterministic(permission_ctx):
    fds = discover_fds(permission_ctx, 0.99)
    constraints = make_constraints(permission_ctx.variables, fds)
    first = learn_structure(permission_ctx, constraints)
    second = learn_structure(permission_ctx, constraints)
    assert first == second
    conditional = first.edges - constraints.whitelist
    # Kahn-style check: repeatedly strip sources
    nodes = {v for e in conditional for v in e}
    edges = set(conditional)
    while nodes:
        sinksless = {n for n in nodes if not any(t == n for _, t in edges)}
        assert sinksless, "cycle in conditional edges"
        nodes -= sinksless
        edges = {(s, t) for s, t in edges if s not in sinksless}


def test_reverse_of_fd_edge_is_never_added(permission_ctx):
    fds = discover_fds(permission_ctx, 0.99)
    constraints = make_constraints(permission_ctx.variables, fds)
    dag = learn_structure(permission_ctx, constraints)
    conditional = dag.edges - constraints.whitelist
    assert (Variable("UserRole", 0), Variable("UserID", 0)) not in conditional
    assert (Variable("UserRole", 0), Variable("UserName", 0)) not in conditional



def _assert_acyclic(edges):
    predecessors = {}
    for src, tgt in edges:
        predecessors.setdefault(tgt, []).append(src)
    graphlib.TopologicalSorter(predecessors).prepare()  # raises graphlib.CycleError on a cycle


def _learned_conditional_edges(log, k):
    ctx = build_k_context(log, k)
    constraints = make_constraints(ctx.variables, discover_fds(ctx, 0.99))
    return learn_structure(ctx, constraints).edges - constraints.whitelist


def test_the_acyclicity_check_sees_a_cycle():
    a, b, c = Variable("A", 0), Variable("B", 0), Variable("C", 0)
    with pytest.raises(graphlib.CycleError):
        _assert_acyclic({(a, b), (b, a)})
    with pytest.raises(graphlib.CycleError):
        _assert_acyclic({(Variable("A", 1), a), (a, b), (b, c), (c, a)})


@pytest.mark.parametrize("k", [1, 2])
def test_learned_conditional_edges_are_acyclic(k):
    # the search checks no cycle after a move: its candidate check must rule every one out
    for log in (generate(default_shipping_model(), 600, 21), _cycle_log()):
        conditional = _learned_conditional_edges(log, k)
        assert conditional
        _assert_acyclic(conditional)


@settings(max_examples=100, deadline=None)
@given(small_logs(), st.integers(1, 2))
def test_learned_conditional_edges_are_acyclic_on_small_logs(log, k):
    _assert_acyclic(_learned_conditional_edges(log, k))


# --- CPTs ---------------------------------------------------------------------


def test_marginal_cpt_for_user_role(permission_ctx):
    dag = DAG(permission_ctx.variables, frozenset())
    cpts = fit_cpts(permission_ctx, dag, [])
    cpt = cpts["UserRole"]
    assert cpt.parents == ()
    # hand recount of the fixture log: employee 12, manager 2, sales-manager 1
    assert cpt.rows[()] == {"employee": 12, "manager": 2, "sales-manager": 1}
    assert cpt.row_distribution(()) == {
        "employee": 12 / 15,
        "manager": 2 / 15,
        "sales-manager": 1 / 15,
    }


def test_imposed_activity_history_edge(permission_ctx):
    edge = (Variable("Activity", 1), Variable("Activity", 0))
    dag = DAG(permission_ctx.variables, frozenset([edge]))
    cpt = fit_cpts(permission_ctx, dag, [])["Activity"]
    assert cpt.parents == (Variable("Activity", 1),)
    assert cpt.probability("Logged in", ("Log in",)) == 1.0


def test_deterministic_pair_has_zero_one_rows():
    log = _single_trace_log([("x", "u"), ("y", "v")] * 10, names=("A", "B"))
    ctx = build_k_context(log, 1)
    dag = DAG(ctx.variables, frozenset([(Variable("A", 0), Variable("B", 0))]))
    cpt = fit_cpts(ctx, dag, [])["B"]
    probs = [p for cfg in cpt.rows for p in cpt.row_distribution(cfg).values()]
    assert set(probs) == {1.0}


def test_fd_edges_do_not_become_cpt_parents(permission_ctx):
    fds = discover_fds(permission_ctx, 0.99)
    dag = DAG(permission_ctx.variables, frozenset((f.source, f.target) for f in fds))
    cpts = fit_cpts(permission_ctx, dag, fds)
    assert cpts["UserRole"].parents == ()


def test_cpt_rows_sum_to_one(permission_ctx):
    fds = discover_fds(permission_ctx, 0.99)
    constraints = make_constraints(permission_ctx.variables, fds)
    dag = learn_structure(permission_ctx, constraints)
    for cpt in fit_cpts(permission_ctx, dag, fds).values():
        for cfg in cpt.rows:
            assert sum(cpt.row_distribution(cfg).values()) == pytest.approx(1.0, abs=1e-9)
            for value, count in cpt.rows[cfg].items():
                assert 0 < count <= cpt.row_totals[cfg]


def test_dag_validation_errors():
    a0, a1, b0 = Variable("A", 0), Variable("A", 1), Variable("B", 0)
    with pytest.raises(ValueError, match="history"):
        DAG((a0, a1), frozenset([(a0, a1)]))
    with pytest.raises(ValueError, match="unknown"):
        DAG((a0, a1), frozenset([(b0, a0)]))


def test_learn_structure_rejects_empty_context(permission_ctx):
    from edbn.event_log import KContextLog

    empty = KContextLog(1, permission_ctx.variables, ())
    with pytest.raises(ValueError, match="empty"):
        learn_structure(empty, make_constraints(permission_ctx.variables, []))


def test_cpt_validates_row_totals():
    from edbn.structure import CPT

    with pytest.raises(ValueError, match="sum"):
        CPT(Variable("A", 0), (), {(): {"x": 2}}, {(): 3})
