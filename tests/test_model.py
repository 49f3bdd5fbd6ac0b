import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edbn import (
    PADDING,
    AttributeSchema,
    Event,
    EventLog,
    ModelFormatError,
    Trace,
    Variable,
    build_k_context,
    learn_edbn,
    load_model,
    relation_probability,
    save_model,
    score_prefix,
    score_trace,
    trace_log_probability,
    trace_probability,
    value_probability,
)
from edbn.model import EDBNModel, event_scores
from edbn.structure import DAG, fit_cpts


# --- the independent factor-product oracle -----------------------------------


def oracle_event_probability(model, events, index):
    """Recompute one event's probability straight from the model tables."""
    names = model.schema.names

    def val(attr, lag):
        j = index - lag
        return events[j].values[names.index(attr)] if j >= 0 else PADDING

    p = 1.0
    for attr in names:
        x = val(attr, 0)
        nv = float(model.new_value[attr])
        p *= (1.0 - nv) if x in model.active_domains[attr] else nv
        cpt = model.cpts[attr]
        if cpt.parents:
            cfg = tuple(val(q.attr, q.lag) for q in cpt.parents)
            nr = float(model.new_relation[attr])
            if cfg in cpt.rows:
                p *= (1.0 - nr) * (cpt.rows[cfg].get(x, 0) / cpt.row_totals[cfg])
            else:
                p *= nr
        for m in model.fd_mappings:
            if m.edge.target.attr != attr:
                continue
            source = val(m.edge.source.attr, m.edge.source.lag)
            viol = float(m.violation_rate)
            if source in m.map and m.map[source] != x:
                p *= viol
            else:
                p *= 1.0 - viol
    return p


def oracle_trace_probability(model, trace):
    p = 1.0
    for i in range(len(trace.events)):
        p *= oracle_event_probability(model, trace.events, i)
    return p


def assert_log_close(lhs, rhs, tol=1e-12):
    if lhs == 0.0 or rhs == 0.0:
        assert lhs == rhs == 0.0
    else:
        assert abs(math.log(lhs) - math.log(rhs)) < tol


# --- rates --------------------------------------------------------------------


def test_new_value_rates_from_worked_example(permission_log):
    model = learn_edbn(permission_log, 1, 0.99)
    assert model.new_value["UserRole"] == Fraction(3, 15)
    assert float(model.new_value["UserRole"]) == 0.2
    assert model.new_value["Activity"] == Fraction(6, 15)
    assert float(model.new_value["Activity"]) == 0.4
    assert model.training_event_count == 15


def test_unique_values_give_rate_one():
    events = tuple(Event(str(i), (f"v{i}",)) for i in range(8))
    log = EventLog(AttributeSchema(("A",), "tid"), (Trace("1", events),))
    model = learn_edbn(log, 1, 0.99)
    assert model.new_value["A"] == 1


def test_value_probability_branches(permission_log):
    model = learn_edbn(permission_log, 1, 0.99)
    assert value_probability(model, "UserRole", "employee") == 0.8
    assert value_probability(model, "UserRole", "auditor") == 0.2


def test_value_probability_boundary_rate_one():
    events = tuple(Event(str(i), (f"v{i}",)) for i in range(5))
    log = EventLog(AttributeSchema(("A",), "tid"), (Trace("1", events),))
    model = learn_edbn(log, 1, 0.99)
    assert value_probability(model, "A", "v0") == 0.0  # 1 - 1


# --- relation factor -----------------------------------------------------------


@pytest.fixture(scope="module")
def imposed_structure_model(permission_log):
    # the worked-example structure: current Activity is UserRole's only parent
    return learn_edbn(
        permission_log, 1, 0.99, structure=[(Variable("Activity", 0), Variable("UserRole", 0))]
    )


def test_relation_probability_worked_example(imposed_structure_model):
    p = relation_probability(imposed_structure_model, "UserRole", "employee", ("Create Request",))
    assert p == pytest.approx(0.6, abs=1e-12)


def test_relation_probability_unseen_parents(imposed_structure_model):
    p = relation_probability(imposed_structure_model, "UserRole", "employee", ("Escalate",))
    assert p == float(imposed_structure_model.new_relation["UserRole"]) == 0.4


def test_relation_probability_zero_cpt(imposed_structure_model):
    # Approved rows never co-occur with employee
    p = relation_probability(imposed_structure_model, "UserRole", "employee", ("Log in",))
    assert p == pytest.approx((1 - 0.4) * 1.0, abs=1e-12)
    assert relation_probability(imposed_structure_model, "UserRole", "purchaser", ("Log in",)) == 0.0


def test_relation_probability_parentless_is_one(imposed_structure_model):
    assert relation_probability(imposed_structure_model, "UserID", "001", ()) == 1.0
    assert imposed_structure_model.new_relation["UserID"] == 0


# --- event probability ----------------------------------------------------------


def test_user_role_factor_group_of_event_two(imposed_structure_model, permission_log):
    scores = event_scores(imposed_structure_model, permission_log.traces[0].events)
    group = [f for f in scores[2].factors if f.attribute == "UserRole"]
    product = math.prod(f.value for f in group)
    assert product == pytest.approx(0.48, abs=1e-9)
    kinds = [(f.kind, f.source) for f in group]
    assert kinds == [
        ("value", None),
        ("relation", None),
        ("fd", Variable("UserID", 0)),
        ("fd", Variable("UserName", 0)),
    ]


def test_empty_structure_identity():
    schema = AttributeSchema(("A", "B"), "tid")
    log = EventLog(
        schema, (Trace("1", (Event("0", ("x", "u")), Event("1", ("y", "v")))),)
    )
    ctx = build_k_context(log, 1)
    cpts = fit_cpts(ctx, DAG(ctx.variables, frozenset()), [])
    model = EDBNModel(
        k=1,
        schema=schema,
        dag=DAG(ctx.variables, frozenset()),
        fd_mappings=(),
        cpts=cpts,
        new_value={"A": Fraction(0), "B": Fraction(0)},
        new_relation={"A": Fraction(0), "B": Fraction(0)},
        active_domains={"A": frozenset({"x", "y"}), "B": frozenset({"u", "v"})},
        training_event_count=2,
    )
    score = event_scores(model, log.traces[0].events)[0]
    assert score.probability == 1.0


def test_anomalous_event_hits_zero_fd_factor(permission_log, permission_full_log):
    model = learn_edbn(permission_log, 1, 0.99)
    trace4 = permission_full_log.trace_by_id("4")
    score = event_scores(model, trace4.events)[0]
    fd_factor = next(
        f
        for f in score.factors
        if f.attribute == "UserRole" and f.kind == "fd" and f.source == Variable("UserID", 0)
    )
    assert fd_factor.value == 0.0
    assert score.probability == 0.0
    assert score.log_probability == -math.inf


def test_breakdown_product_equals_probability(permission_log):
    model = learn_edbn(permission_log, 1, 0.99)
    for trace in permission_log.traces:
        for score in event_scores(model, trace.events):
            assert_log_close(score.probability, math.prod(f.value for f in score.factors))


# --- trace probability -----------------------------------------------------------


def test_single_event_trace(permission_log):
    model = learn_edbn(permission_log, 1, 0.99)
    trace = Trace("x", (permission_log.traces[0].events[0],))
    expected = event_scores(model, trace.events)[0].probability
    assert trace_probability(model, trace) == pytest.approx(expected, rel=1e-12)


def test_constant_factor_product():
    # two identical independent events under an empty-structure model: p^2
    schema = AttributeSchema(("A",), "tid")
    log = EventLog(
        schema,
        (
            Trace("1", (Event("0", ("x",)), Event("1", ("x",)), Event("2", ("y",)))),
        ),
    )
    model = learn_edbn(log, 1, 1.0, structure=[])
    trace = Trace("t", (Event("a", ("x",)), Event("b", ("x",))))
    p_event = event_scores(model, trace.events[:1])[0].probability
    assert trace_probability(model, trace) == pytest.approx(p_event**2, rel=1e-12)


def test_trace_two_matches_factor_oracle(permission_log):
    model = learn_edbn(permission_log, 1, 0.99)
    trace = permission_log.trace_by_id("2")
    assert_log_close(trace_probability(model, trace), oracle_trace_probability(model, trace))


def test_empty_trace_is_an_error(permission_log):
    model = learn_edbn(permission_log, 1, 0.99)
    with pytest.raises(ValueError):
        trace_probability(model, [])


def test_event_sequences_that_are_empty_or_misshapen(permission_log):
    # no events decompose to none, but have no probability; an event with too few or too many
    # values fails before any is coded, whichever scorer reads it
    model = learn_edbn(permission_log, 1, 0.99)
    assert event_scores(model, []) == []
    for scorer in (score_prefix, trace_probability, trace_log_probability):
        with pytest.raises(ValueError):
            scorer(model, [])
    events = permission_log.traces[0].events
    for values in (events[0].values[:-1], events[0].values + ("extra",)):
        misshapen = [*events, Event("odd", values)]
        for scorer in (event_scores, score_prefix, trace_probability, lambda m, e: score_trace(m, Trace("t", tuple(e)))):
            with pytest.raises(ValueError, match="event values do not match the model's schema"):
                scorer(model, misshapen)


def test_unseen_fd_source_never_lowers_fd_factor(permission_log):
    # swapping a seen FD source for an unseen one yields the maximal FDM value
    model = learn_edbn(permission_log, 1, 0.99)
    base = Event("e", ("User-Actions", "Log in", "001", "User1", "employee"))
    swapped = Event("e", ("User-Actions", "Log in", "999", "User1", "employee"))
    for event, expected in ((base, 1.0), (swapped, 1.0)):
        score = event_scores(model, [event])[0]
        fd = [f for f in score.factors if f.kind == "fd" and f.source == Variable("UserID", 0)]
        assert all(f.value == expected for f in fd)


# --- randomized oracle equivalence (exercised further in acceptance) ------------


def _random_log(rng, n_traces=30, n_attrs=3, alphabet=4):
    schema = AttributeSchema(tuple(f"a{i}" for i in range(n_attrs)), "tid")
    counter = 0
    traces = []
    for t in range(n_traces):
        events = []
        for _ in range(rng.randint(2, 6)):
            values = tuple(f"v{rng.randrange(alphabet)}" for _ in range(n_attrs))
            events.append(Event(str(counter), values))
            counter += 1
        traces.append(Trace(f"t{t}", tuple(events)))
    return EventLog(schema, tuple(traces))


def test_random_models_match_oracle():
    rng = random.Random(20)
    for round_no in range(10):
        log = _random_log(rng)
        k = rng.choice([1, 2])
        variables = [Variable(a, lag) for lag in range(k, -1, -1) for a in log.schema.names]
        candidates = [
            (s, t)
            for s in variables
            for t in variables
            if t.lag == 0 and s != t
        ]
        imposed = rng.sample(candidates, rng.randint(0, 4))
        threshold = rng.choice([0.6, 0.9, 0.99])
        model = learn_edbn(log, k, threshold, structure=imposed)
        for _ in range(5):
            events = tuple(
                Event(
                    f"q{i}",
                    tuple(
                        f"v{rng.randrange(5)}"  # value 4 is unseen-ish
                        for _ in log.schema.names
                    ),
                )
                for i in range(rng.randint(1, 5))
            )
            trace = Trace("probe", events)
            assert_log_close(trace_probability(model, trace), oracle_trace_probability(model, trace))


# --- serialization ----------------------------------------------------------------


def test_save_load_round_trip_scores(permission_log, permission_full_log):
    model = learn_edbn(permission_log, 1, 0.99)
    restored = load_model(save_model(model))
    for trace in permission_full_log.traces:
        original = trace_log_probability(model, trace)
        again = trace_log_probability(restored, trace)
        if original == -math.inf:
            assert again == -math.inf
        else:
            assert abs(original - again) < 1e-12
    assert save_model(restored) == save_model(model)


def test_truncated_stream_is_rejected(permission_log):
    text = save_model(learn_edbn(permission_log, 1, 0.99))
    with pytest.raises(ModelFormatError):
        load_model(text[: len(text) // 2])


def test_unknown_extra_field_is_rejected(permission_log):
    import json

    doc = json.loads(save_model(learn_edbn(permission_log, 1, 0.99)))
    doc["surprise"] = True
    with pytest.raises(ModelFormatError, match="surprise"):
        load_model(json.dumps(doc))


def test_unsupported_version_is_rejected(permission_log):
    import json

    doc = json.loads(save_model(learn_edbn(permission_log, 1, 0.99)))
    doc["format_version"] = 99
    with pytest.raises(ModelFormatError, match="version"):
        load_model(json.dumps(doc))


def test_scoring_is_deterministic(permission_log):
    model = learn_edbn(permission_log, 1, 0.99)
    again = learn_edbn(permission_log, 1, 0.99)
    trace = permission_log.traces[1]
    assert trace_probability(model, trace) == trace_probability(again, trace)
    assert save_model(model) == save_model(again)


def test_single_event_log_still_learns():
    schema = AttributeSchema(("A", "B"), "tid")
    log = EventLog(schema, (Trace("only", (Event("0", ("x", "u")),)),))
    model = learn_edbn(log, 1, 0.99)
    assert model.training_event_count == 1
    assert model.new_value["A"] == 1
    score = event_scores(model, log.traces[0].events)[0]
    assert 0.0 <= score.probability <= 1.0


def test_history_deeper_than_any_trace():
    schema = AttributeSchema(("A",), "tid")
    log = EventLog(
        schema,
        (Trace("t", (Event("0", ("x",)), Event("1", ("y",)), Event("2", ("x",)))),),
    )
    model = learn_edbn(log, 5, 0.99)
    assert len(model.variables) == 6
    assert trace_probability(model, log.traces[0]) > 0.0


def test_loader_rejects_malformed_documents(permission_log):
    import json

    base = json.loads(save_model(learn_edbn(permission_log, 1, 0.99)))

    bad_variable = json.loads(json.dumps(base))
    bad_variable["dag_edges"][0][0] = "not-a-pair"
    with pytest.raises(ModelFormatError, match="variable"):
        load_model(json.dumps(bad_variable))

    bad_rate = json.loads(json.dumps(base))
    bad_rate["new_value"]["UserRole"] = [1, 2, 3]
    with pytest.raises(ModelFormatError, match="rational"):
        load_model(json.dumps(bad_rate))

    bad_row = json.loads(json.dumps(base))
    for cpt in bad_row["cpts"]:
        if cpt["parents"]:
            cpt["rows"][0]["parents"].append("extra")
            break
    with pytest.raises(ModelFormatError, match="arity"):
        load_model(json.dumps(bad_row))

    missing = json.loads(json.dumps(base))
    del missing["cpts"]
    with pytest.raises(ModelFormatError, match="missing"):
        load_model(json.dumps(missing))

    with pytest.raises(ModelFormatError, match="object"):
        load_model("[1, 2]")

    out_of_range = json.loads(json.dumps(base))
    out_of_range["new_value"]["UserRole"] = [20, 15]
    with pytest.raises(ModelFormatError):
        load_model(json.dumps(out_of_range))


def test_learn_requires_nonempty_log(permission_log):
    with pytest.raises(ValueError, match="empty"):
        learn_edbn(EventLog(permission_log.schema, ()), 1, 0.99)


def test_event_scores_rejects_wrong_arity(permission_log):
    model = learn_edbn(permission_log, 1, 0.99)
    with pytest.raises(ValueError, match="do not match"):
        event_scores(model, [Event("e", ("just", "two"))])


def test_relation_probability_rejects_wrong_parent_arity(imposed_structure_model):
    with pytest.raises(ValueError, match="parent values"):
        relation_probability(imposed_structure_model, "UserRole", "employee", ("a", "b"))


def _set_new_value_rate(doc):
    doc["new_value"]["UserRole"] = [1, 0]


def _drop_new_relation_attribute(doc):
    del doc["new_relation"]["UserRole"]


def _zero_cpt_total(doc):
    row = doc["cpts"][0]["rows"][0]
    row["total"], row["counts"] = 0, {}


def _unknown_cpt_parent(doc):
    doc["cpts"][0]["parents"].append(["Nowhere", 0])
    for row in doc["cpts"][0]["rows"]:
        row["parents"].append("x")


@pytest.mark.parametrize(
    "mutate, field",
    [
        (_set_new_value_rate, "new_value"),
        (_drop_new_relation_attribute, "new_relation"),
        (lambda doc: doc.update(k="x"), "k"),
        (lambda doc: doc.update(k=0), "k"),
        (_zero_cpt_total, "cpts"),
        (_unknown_cpt_parent, "cpts"),
        (lambda doc: doc["fd_mappings"][0]["map"].update({"001": 7}), "fd_mappings"),
        (lambda doc: doc["active_domains"].pop("UserRole"), "active_domains"),
        (lambda doc: doc["new_value"].update(Extra=[0, 1]), "new_value"),
        (lambda doc: doc["new_relation"].update(Extra=[0, 1]), "new_relation"),
        (lambda doc: doc["active_domains"].update(Extra=["x"]), "active_domains"),
        (lambda doc: doc["cpts"].append(dict(doc["cpts"][-1], attribute="Extra")), "cpts"),
        (lambda doc: doc["dag_edges"].append([["Type", 1], ["UserRole", 0]]), "dag_edges"),
        (lambda doc: doc["fd_mappings"].pop(), "dag_edges"),
    ],
    ids=[
        "zero-denominator-rate",
        "attribute-missing-from-new_relation",
        "non-integer-k",
        "zero-k",
        "zero-cpt-total",
        "cpt-parent-not-a-variable",
        "non-string-fd-target",
        "attribute-missing-from-active_domains",
        "extra-attribute-in-new_value",
        "extra-attribute-in-new_relation",
        "extra-attribute-in-active_domains",
        "extra-attribute-in-cpts",
        "dag-edge-neither-cpt-parent-nor-fd",
        "fd-edge-without-its-mapping",
    ],
)
def test_loader_names_the_malformed_field(permission_log, mutate, field):
    import json

    doc = json.loads(save_model(learn_edbn(permission_log, 1, 0.99)))
    mutate(doc)
    with pytest.raises(ModelFormatError, match=rf"\b{field}\b"):
        load_model(json.dumps(doc))


# --- loader fuzzing ------------------------------------------------------------


def _paths(node, path=()):
    """Every path to a value inside a JSON document, the root excluded."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(doc, path, how):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = parent[path[-1]]
    if how == "drop":
        del parent[path[-1]]
    elif how == "negate":
        parent[path[-1]] = -value if value else -1
    elif how == "add-key":
        sibling = next(iter(value.values()), 0)
        value["zz-added"] = json.loads(json.dumps(sibling))
    else:
        # a JSON value of another type
        parent[path[-1]] = next(v for v in (None, True, 0, 2.5, "x", [], {}, ["x"]) if type(v) is not type(value))


@pytest.fixture(scope="module")
def shipping_doc():
    from edbn import default_shipping_model, generate

    return json.loads(save_model(learn_edbn(generate(default_shipping_model(), 300, 4), 1, 0.99)))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_loader_rejects_or_round_trips_every_mutated_document(shipping_doc, data):
    doc = json.loads(json.dumps(shipping_doc))
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=str)))
    parent_value = doc
    for key in path:
        parent_value = parent_value[key]
    hows = ["drop", "retype"]
    if type(parent_value) is int:
        hows.append("negate")
    if isinstance(parent_value, dict):
        hows.append("add-key")
    _mutate(doc, path, data.draw(st.sampled_from(hows)))
    try:
        model = load_model(json.dumps(doc))
    except ModelFormatError:
        return
    assert save_model(model) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
