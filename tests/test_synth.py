import hashlib
import json
import math
import re
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edbn import (
    ANOMALOUS,
    NORMAL,
    EventLog,
    LabeledLog,
    ProcessModel,
    ProcessModelError,
    Variable,
    build_k_context,
    default_shipping_model,
    generate,
    inject_anomalies,
    parse_process_model,
    read_labels,
    serialize_log,
    uncertainty_coefficient,
)
from edbn.synth import Rule, serialize_labels

from test_model import _paths

_SHIPPING = resources.files("edbn.data").joinpath("shipping.json").read_text(encoding="utf-8")


def _linear_model(extra_rules=None, attributes=None):
    doc = {
        "name": "toy",
        "trace_id_column": "case",
        "attributes": attributes or ["activity"],
        "activity_attribute": "activity",
        "start_activity": "start",
        "end_activities": ["finish"],
        "transitions": {"start": {"middle": 1.0}, "middle": {"finish": 1.0}},
        "rules": extra_rules or {},
    }
    return parse_process_model(json.dumps(doc))


def test_linear_model_generates_ordered_trace():
    log = generate(_linear_model(), 1, seed=3)
    assert len(log.traces) == 1
    assert [e.values[0] for e in log.traces[0].events] == ["start", "middle", "finish"]


def test_functional_rule_shows_up_as_fd():
    model = _linear_model(
        attributes=["activity", "user", "role"],
        extra_rules={
            "user": {"kind": "activity_choice", "pools": {
                "start": ["u1", "u2"], "middle": ["u3", "u4"], "finish": ["u1", "u4"],
            }},
            "role": {"kind": "derived", "source": "user", "mapping": {
                "u1": "clerk", "u2": "clerk", "u3": "boss", "u4": "clerk",
            }},
        },
    )
    log = generate(model, 50, seed=5)
    ctx = build_k_context(log, 1)
    role = ctx.column(Variable("role", 0))
    user = ctx.column(Variable("user", 0))
    assert uncertainty_coefficient(role, user) == 1.0


def test_default_model_is_deterministic_and_13_attributes():
    model = default_shipping_model()
    assert len(model.attributes) == 13
    log1 = generate(model, 200, seed=42)
    log2 = generate(model, 200, seed=42)
    assert serialize_log(log1) == serialize_log(log2)
    assert serialize_log(log1) != serialize_log(generate(model, 200, seed=43))


def test_default_model_has_fd_structure():
    model = default_shipping_model()
    log = generate(model, 300, seed=8)
    ctx = build_k_context(log, 1)
    for source, target in [("user_id", "user_name"), ("user_id", "user_role"),
                           ("item", "item_group"), ("customer", "country")]:
        u = uncertainty_coefficient(ctx.column(Variable(target, 0)), ctx.column(Variable(source, 0)))
        assert u == 1.0, (source, target)


def test_unreachable_end_is_rejected():
    doc = {
        "name": "broken",
        "trace_id_column": "case",
        "attributes": ["activity"],
        "activity_attribute": "activity",
        "start_activity": "start",
        "end_activities": ["unreachable"],
        "transitions": {"start": {"loopy": 1.0}, "loopy": {"start": 1.0}},
        "rules": {},
    }
    with pytest.raises(ProcessModelError, match="end activity"):
        parse_process_model(json.dumps(doc))


def test_incomplete_derivation_is_rejected():
    with pytest.raises(ProcessModelError, match="misses"):
        _linear_model(
            attributes=["activity", "dept"],
            extra_rules={"dept": {"kind": "derived", "source": "activity", "mapping": {"start": "s"}}},
        )


def test_generate_requires_positive_count():
    with pytest.raises(ValueError):
        generate(_linear_model(), 0, seed=1)


# --- anomaly injection ------------------------------------------------------


@pytest.fixture(scope="module")
def clean_log():
    return generate(default_shipping_model(), 50, seed=21)


def test_fraction_zero_changes_nothing(clean_log):
    labeled = inject_anomalies(clean_log, 0.0, seed=1)
    assert labeled.log is clean_log  # returned as it is, not coded again
    assert set(labeled.labels.values()) == {NORMAL}
    assert labeled.anomaly_details == {}


def test_fraction_one_mutates_every_trace(clean_log):
    labeled = inject_anomalies(clean_log, 1.0, seed=2)
    assert all(label == ANOMALOUS for label in labeled.labels.values())
    assert all(len(ms) >= 1 for ms in labeled.anomaly_details.values())
    assert len(labeled.anomaly_details) == len(clean_log.traces)


def test_fraction_rounds_up_and_is_reproducible():
    log = generate(default_shipping_model(), 1000, seed=31)
    first = inject_anomalies(log, 0.1, seed=9)
    second = inject_anomalies(log, 0.1, seed=9)
    anomalous = [t for t, l in first.labels.items() if l == ANOMALOUS]
    assert len(anomalous) == 100
    assert first == second
    assert serialize_labels(first) == serialize_labels(second)


def test_injection_leaves_no_decoded_ids_or_values_on_the_log_it_reads():
    # a generated log names its events by row and holds its values as codes; injection decodes
    # both for itself, so the caller's log gains neither, and injects as into a log holding them
    log = generate(default_shipping_model(), 200, 42)
    labeled = inject_anomalies(log, 0.1, 43)
    assert "event_ids" not in vars(log) and "columns" not in vars(log)
    assert labeled == inject_anomalies(EventLog(log.schema, log.traces), 0.1, 43)


def test_normal_traces_stay_bit_identical(clean_log):
    labeled = inject_anomalies(clean_log, 0.3, seed=13)
    by_id = {t.trace_id: t for t in labeled.log.traces}
    for trace in clean_log.traces:
        if labeled.labels[trace.trace_id] == NORMAL:
            assert by_id[trace.trace_id] == trace


def test_anomalous_traces_differ(clean_log):
    labeled = inject_anomalies(clean_log, 0.3, seed=13)
    by_id = {t.trace_id: t for t in labeled.log.traces}
    for trace in clean_log.traces:
        if labeled.labels[trace.trace_id] == ANOMALOUS:
            changed = by_id[trace.trace_id]
            assert [e.values for e in changed.events] != [e.values for e in trace.events] or len(
                changed.events
            ) != len(trace.events)


def test_mutation_descriptions_cover_known_kinds(clean_log):
    labeled = inject_anomalies(clean_log, 1.0, seed=3)
    kinds = {m.kind for ms in labeled.anomaly_details.values() for m in ms}
    assert kinds <= {
        "swap_adjacent", "delete_event", "duplicate_event", "replace_value", "fresh_value",
    }
    assert len(kinds) >= 4  # with 50 traces every kind should show up


def test_injection_validates_fraction(clean_log):
    with pytest.raises(ValueError):
        inject_anomalies(clean_log, 1.5, seed=0)
    with pytest.raises(ValueError):
        inject_anomalies(clean_log, -0.1, seed=0)


def test_injection_on_empty_log_errors(clean_log):
    from edbn import EventLog

    empty = EventLog(clean_log.schema, ())
    with pytest.raises(ValueError):
        inject_anomalies(empty, 0.5, seed=0)
    labeled = inject_anomalies(empty, 0.0, seed=0)
    assert labeled.labels == {}


def test_fresh_values_are_unseen(clean_log):
    labeled = inject_anomalies(clean_log, 1.0, seed=17)
    for tid, mutations in labeled.anomaly_details.items():
        for m in mutations:
            if m.kind == "fresh_value":
                i = clean_log.schema.index_of(m.attribute)
                seen = {e.values[i] for t in clean_log.traces for e in t.events}
                assert m.new_value not in seen


def test_config_validation_errors():
    with pytest.raises(ProcessModelError, match="rule kind"):
        _linear_model(attributes=["activity", "x"], extra_rules={"x": {"kind": "mystery"}})
    with pytest.raises(ProcessModelError, match="no rule"):
        _linear_model(attributes=["activity", "orphan"])
    with pytest.raises(ProcessModelError, match="misses field"):
        parse_process_model('{"name": "x"}')
    with pytest.raises(ProcessModelError, match="not a valid"):
        parse_process_model("{nope")


def _linear_doc(**fields):
    return json.dumps({
        "name": "toy", "trace_id_column": "case", "attributes": ["activity", "x"],
        "activity_attribute": "activity", "start_activity": "start", "end_activities": ["finish"],
        "transitions": {"start": {"finish": 1.0}}, "rules": {"x": {"kind": "constant", "value": "c"}},
        **fields,
    })


def test_process_model_must_be_a_json_object():
    with pytest.raises(ProcessModelError, match="process model must be a JSON object"):
        parse_process_model("[]")


def test_transitions_must_be_a_json_object():
    with pytest.raises(ProcessModelError, match="transitions must be a JSON object"):
        parse_process_model(_linear_doc(transitions=[]))


def test_rule_must_be_a_json_object():
    with pytest.raises(ProcessModelError, match=r"rules\['x'\] must be a JSON object"):
        parse_process_model(_linear_doc(rules={"x": "constant"}))


def test_transition_weight_must_be_a_number():
    with pytest.raises(ProcessModelError, match="'start'->'finish' weight must be a positive number, got '1'"):
        parse_process_model(_linear_doc(transitions={"start": {"finish": "1"}}))
    assert parse_process_model(_linear_doc()).transitions == {"start": {"finish": 1.0}}


def test_attributes_must_be_a_json_list():
    with pytest.raises(ProcessModelError, match="attributes must be a JSON list, got 5"):
        parse_process_model(_linear_doc(attributes=5))


def test_end_activities_must_be_a_json_list():
    with pytest.raises(ProcessModelError, match="end_activities must be a JSON list, got 3"):
        parse_process_model(_linear_doc(end_activities=3))


def test_pool_values_must_be_a_json_list():
    with pytest.raises(ProcessModelError, match=r"rules\['x'\] values must be a JSON list, got 3"):
        parse_process_model(_linear_doc(rules={"x": {"kind": "pool", "values": 3}}))


def test_activity_choice_pools_must_be_a_json_object_of_lists():
    with pytest.raises(ProcessModelError, match=r"rules\['x'\] pools must be a JSON object, got \[\]"):
        parse_process_model(_linear_doc(rules={"x": {"kind": "activity_choice", "pools": []}}))
    with pytest.raises(ProcessModelError, match=r"rules\['x'\] pools\['start'\] must be a JSON list, got 3"):
        parse_process_model(_linear_doc(rules={"x": {"kind": "activity_choice", "pools": {"start": 3}}}))
    pools = {"start": ["a"], "finish": ["b", "c"]}
    model = parse_process_model(_linear_doc(rules={"x": {"kind": "activity_choice", "pools": pools}}))
    assert model.rules["x"].pools == {"start": ("a",), "finish": ("b", "c")}


def test_labels_file_giving_a_trace_two_labels_names_the_trace_and_line(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("trace_id,label\nt0,normal\nt1,normal\nt1,anomalous\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"labels file '{path}' line 4: trace 't1' is labeled both "
                                                   "'normal' and 'anomalous'")):
        read_labels(path)
    path.write_text("trace_id,label\nt0,normal\nt0,normal\n", encoding="utf-8")
    assert read_labels(path) == {"t0": NORMAL}


@pytest.mark.parametrize("fields, message", [
    ({"trace_id_column": 5}, "trace_id_column must be a JSON string, got 5"),
    ({"trace_id_column": "x"}, "trace_id_column cannot be a modeled attribute"),
    ({"start_activity": ["start"]}, "start_activity must be a JSON string"),
    ({"attributes": ["activity", 1]}, "attributes must hold one or more JSON strings"),
    ({"end_activities": []}, "end_activities must hold one or more JSON strings, got []"),
    ({"rules": {"x": {"kind": "constant", "value": 5}}}, r"rules['x'] value must be a JSON string, got 5"),
    ({"rules": {"x": {"kind": "pool", "values": []}}}, r"rules['x'] values must hold one or more JSON strings"),
    ({"rules": {"x": {"kind": "pool", "values": ["a"], "scope": "case"}}}, r"rules['x'] scope must be 'event' or 'trace'"),
    ({"rules": {"x": {"kind": "derived", "source": "activity", "mapping": "ab"}}}, r"rules['x'] mapping must be a JSON object"),
    ({"rules": {"x": {"kind": "derived", "source": "activity", "mapping": {"start": 1}}}},
     r"rules['x'] mapping must hold JSON strings"),
    ({"rules": {"x": {"kind": "derived", "source": None, "mapping": {}}}}, r"rules['x'] source must be a JSON string"),
    ({"rules": {"x": {"kind": "activity_choice", "pools": {"start": ["a"], "finish": []}}}},
     r"rules['x'] pools['finish'] must hold one or more JSON strings"),
    ({"transitions": {"start": {"finish": 1.0, "stuck": 1.0}}},
     "activity 'stuck', reachable from start_activity, has no transitions and is not in end_activities"),
], ids=["trace-id-column-type", "trace-id-column-is-an-attribute", "start-activity-type", "attribute-type",
        "no-end-activities", "constant-type", "empty-pool", "pool-scope", "mapping-type", "mapping-value-type", "derivation-source-type",
        "empty-activity-pool", "dead-end-activity"])
def test_process_model_names_each_malformed_field(fields, message):
    with pytest.raises(ProcessModelError, match=re.escape(message)):
        parse_process_model(_linear_doc(**fields))


_RETYPED = [5, -1, 0.5, None, True, "x", "", [], {}, [1], {"a": 1}, math.nan]


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_process_model_loader_rejects_or_generates_every_mutated_document(data):
    # one field of the bundled model retyped: either ProcessModelError names a key on the
    # field's path, or the model loads and generates
    doc = json.loads(_SHIPPING)
    path = data.draw(st.sampled_from(sorted(_paths(doc), key=str)))
    value = data.draw(st.sampled_from(_RETYPED))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        model = parse_process_model(json.dumps(doc))
    except ProcessModelError as exc:
        assert any(isinstance(key, str) and key in str(exc) for key in path), str(exc)
        return
    generate(model, 30, 1)


def test_labels_must_name_exactly_the_log_traces():
    labeled = inject_anomalies(generate(default_shipping_model(), 4, 1), 0.5, 2)
    log, labels = labeled.log, labeled.labels
    with pytest.raises(ValueError, match="trace 'zzz' is labeled but not in the log"):
        LabeledLog(log, {**labels, "zzz": ANOMALOUS}, {})
    mistyped = {("t0001x" if t == "t0001" else t): label for t, label in labels.items()}
    with pytest.raises(ValueError, match="trace 't0001' has no label"):
        LabeledLog(log, mistyped, {})
    with pytest.raises(ValueError, match="trace 't0001x' is labeled but not in the log"):
        LabeledLog(log, {**mistyped, "t0001": labels["t0001"]}, {})
    assert LabeledLog(log, labels, {}).labels == labels


def test_labels_file_without_a_label_column_names_the_column(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("trace_id,details\nt0,\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"labels file '{path}' has no 'label' column")):
        read_labels(path)
    path.write_text("case,label\nt0,normal\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no 'trace_id' column"):
        read_labels(path)
    path.write_text("trace_id,label\nt0,normal\n", encoding="utf-8")
    assert read_labels(path) == {"t0": NORMAL}


def test_labels_file_with_an_unknown_label_or_a_missing_field_names_the_file_and_line(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("trace_id,label\nt0,normal\nt1,odd\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"labels file '{path}' line 3: unknown label 'odd' for trace 't1'")):
        read_labels(path)
    path.write_text("trace_id,label,details\nt0,normal,\nt1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"labels file '{path}' line 3: no 'label' field")):
        read_labels(path)
    path.write_text("label,details,trace_id\nnormal,,t0\nnormal,x\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"labels file '{path}' line 3: no 'trace_id' field")):
        read_labels(path)
    path.write_text("trace_id,label\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"labels file '{path}' line 1: no trace is labeled")):
        read_labels(path)


def test_labels_file_is_read_as_strict_csv(tmp_path):
    # text after a closing quote, and an open quote, are csv errors named by file and line
    path = tmp_path / "labels.csv"
    for text, line, error in [('trace_id,label\nt0,"nor"mal\n', 2, "',' expected after '\"'"),
                              ('trace_id,"label\nt0,normal\n', 2, "unexpected end of data")]:
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"labels file '{path}' line {line}: {error}")):
            read_labels(path)


def test_labels_file_with_a_nul_names_the_file_and_line(tmp_path):
    # every supported Python rejects NUL alike; the line is counted as csv counts it, inside a quoted
    # field and after a lone CR too
    path = tmp_path / "labels.csv"
    for text, line in [("trace_id,label\nt\x000,normal\n", 2),
                       ("trace_id,label\nt0,normal\n\x00", 3),
                       ('trace_id,label\n"t\n0\x00",normal\n', 3),
                       ("trace_id,label\rt0,normal\rt1,normal\x00\r", 3)]:
        path.write_text(text, encoding="utf-8", newline="")
        with pytest.raises(ValueError, match=re.escape(f"labels file '{path}' line {line}: NUL character")):
            read_labels(path)


LABEL_TOKENS = [",", '"', "\n", "\r", "\r\n", "\x00", "\ufeff", " ", "", "x", NORMAL, ANOMALOUS, "t0001",
                "trace_id", "label"]


@st.composite
def _mutated_text(draw, text, tokens):
    """A text file with one to three edits: one of ``tokens`` inserted, a span deleted, or a
    line replaced by a token, duplicated or moved."""
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        how = draw(st.sampled_from(["insert", "delete", "replace line", "duplicate line", "move line"]))
        if how == "insert":
            text = text[:at] + draw(st.sampled_from(tokens)) + text[at:]
        elif how == "delete":
            text = text[:at] + text[at + draw(st.integers(1, 12)):]
        else:
            lines = text.splitlines(keepends=True) or [""]
            i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, len(lines)))
            line = lines[i]
            if how == "replace line":
                lines[i] = draw(st.sampled_from(tokens)) + "\n"
            elif how == "duplicate line":
                lines.insert(j, line)
            else:
                lines.insert(j, lines.pop(i))
            text = "".join(lines)
    return text


def _mutated_labels(text):
    return _mutated_text(text, LABEL_TOKENS)


@pytest.fixture(scope="module")
def labels_text():
    return serialize_labels(inject_anomalies(generate(default_shipping_model(), 6, 5), 0.5, 6))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_labels_reader_rejects_or_loads_every_mutated_file(labels_text, tmp_path, data):
    text = data.draw(_mutated_labels(labels_text))
    path = tmp_path / "labels.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        labels = read_labels(path)
    except ValueError as exc:
        assert re.search(rf"^labels file {re.escape(repr(str(path)))} .*line [1-9]\d*\b", str(exc)), str(exc)
        return
    assert labels and set(labels.values()) <= {NORMAL, ANOMALOUS}
    assert "\0" not in text  # no Python version loads a NUL


def test_nonpositive_weight_rejected():
    doc = {
        "name": "w",
        "trace_id_column": "case",
        "attributes": ["activity"],
        "activity_attribute": "activity",
        "start_activity": "start",
        "end_activities": ["finish"],
        "transitions": {"start": {"finish": 0.0}},
        "rules": {},
    }
    with pytest.raises(ProcessModelError, match="weight"):
        parse_process_model(json.dumps(doc))


def test_cyclic_derivations_rejected():
    with pytest.raises(ProcessModelError, match="cyclic"):
        _linear_model(
            attributes=["activity", "a", "b"],
            extra_rules={
                "a": {"kind": "derived", "source": "b", "mapping": {}},
                "b": {"kind": "derived", "source": "a", "mapping": {}},
            },
        )


def test_reserved_token_in_pool_rejected():
    from edbn import PADDING

    with pytest.raises(ProcessModelError, match="reserved"):
        _linear_model(
            attributes=["activity", "x"],
            extra_rules={"x": {"kind": "pool", "values": [PADDING, "ok"]}},
        )


def test_activity_choice_requires_full_pool_coverage():
    with pytest.raises(ProcessModelError, match="no pool"):
        _linear_model(
            attributes=["activity", "who"],
            extra_rules={"who": {"kind": "activity_choice", "pools": {"start": ["u"]}}},
        )


@pytest.mark.parametrize("process, fraction, expected", [
    (default_shipping_model(), 0.1, ["3cf4cb020896555089ffc87f54f11d69ad58c1769e30104c7bb9f5db4ef49eb6",
                                     "f74b31987d4f21cf17f8981db3f580e853a564cf2d4b45c1f09020ce4f44a13b",
                                     "a6b28be510d8bfbf359bd2fb534f6e5e7966d1ce0d01418184f144224c719e17"]),
    (default_shipping_model(), 1.0, ["3cf4cb020896555089ffc87f54f11d69ad58c1769e30104c7bb9f5db4ef49eb6",
                                     "1c7dc5efc265786c89ea98f56c8bc75b13aa118efa37c53ff3fc2e24f2368894",
                                     "97112d75aca8df9cf8bd364a4a677319dcb49364e98347bfdb051a8220666395"]),
    # every walk ends at its first event and every attribute takes one value, so a trace of one
    # event can only be duplicated or given a fresh value, and no value can be replaced
    (parse_process_model(_linear_doc(end_activities=["start", "finish"])), 1.0,
     ["a640c7b34dea2b9056720618fad1e74a397ecf6026b0da6564f4460c1d9e846e",
      "99adb2c955b893ce8952c4b97cd4de0bf689fdfb05e75b7eefb74a6df35d2e3c",
      "135cfbd0a12fdeeb5cc6fbfc867f79053a8293bafe9d5c951ea615d3aab39a2d"]),
], ids=["shipping-0.1", "shipping-1.0", "one-event-walks-1.0"])
def test_generated_shipping_data_is_pinned(process, fraction, expected):
    # SHA-256 of the generated log, of the log with anomalies injected and of their labels
    log = generate(process, 200, 42)
    labeled = inject_anomalies(log, fraction, 43)
    digests = [hashlib.sha256(text.encode("utf-8")).hexdigest()
               for text in (serialize_log(log), serialize_log(labeled.log), serialize_labels(labeled))]
    assert digests == expected


@pytest.mark.parametrize("rule", [Rule(kind="pool", values=()), Rule(kind="constant", value=5)],
                         ids=["empty-pool", "constant-type"])
def test_a_process_model_built_in_code_is_checked_as_a_parsed_one(rule):
    with pytest.raises(ProcessModelError, match=re.escape("rules['x']")):
        ProcessModel("t", "case", ("activity", "x"), "activity", "s", frozenset({"e"}), {"s": {"e": 1.0}}, {"x": rule})


@pytest.mark.parametrize("attr", ["activity", "zzz"])
def test_a_rule_that_no_attribute_uses_is_rejected(attr):
    with pytest.raises(ProcessModelError, match=re.escape(f"rules[{attr!r}]: not an attribute that takes a rule")):
        parse_process_model(_linear_doc(rules={"x": {"kind": "constant", "value": "c"},
                                               attr: {"kind": "constant", "value": "c"}}))
