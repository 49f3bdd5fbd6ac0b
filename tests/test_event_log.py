import re
import tracemalloc
from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbn import (
    PADDING,
    AttributeSchema,
    Event,
    EventLog,
    LogFormatError,
    Trace,
    Variable,
    build_k_context,
    default_shipping_model,
    generate,
    inject_anomalies,
    learn_edbn,
    parse_log,
    serialize_log,
)
from edbn.event_log import DuplicateEventIdError, read_header
from edbn.synth import Rule

from conftest import ATTRS, PERMISSION_ROWS_FULL, PERMISSION_ROWS
from reference_parsing import reference_parse_log
from test_parsing_equivalence import chunks_of
from test_synth import _mutated_text


def test_parse_groups_normal_rows_into_three_traces(permission_log):
    assert [(t.trace_id, len(t)) for t in permission_log.traces] == [("1", 5), ("2", 5), ("3", 5)]


def test_parse_single_row_log(permission_schema):
    text = "Time,ID,Type,Activity,UserID,UserName,UserRole,tID\n0,0,a,b,c,d,e,9\n"
    log = parse_log(text, permission_schema)
    assert len(log.traces) == 1 and len(log.traces[0]) == 1
    assert log.traces[0].events[0].values == ("a", "b", "c", "d", "e")


def test_interleaved_traces_group_by_trace_id(permission_log):
    # trace 1's approval (file row 12) arrives while trace 3 is running
    trace1 = permission_log.trace_by_id("1")
    assert [e.id for e in trace1.events] == ["0", "1", "2", "3", "12"]
    trace3 = permission_log.trace_by_id("3")
    assert [e.id for e in trace3.events] == ["9", "10", "11", "13", "14"]


def test_trace_by_id_of_an_unknown_id_raises_key_error(permission_log):
    with pytest.raises(KeyError, match="^'nope'$"):
        permission_log.trace_by_id("nope")


def test_a_log_compares_unequal_to_what_is_not_a_log(permission_log):
    assert permission_log.__eq__(1) is NotImplemented
    assert permission_log != 1


@pytest.mark.parametrize("names, error, message", [
    ((), ValueError, "schema needs at least one attribute"),
    (("A", 3), TypeError, "column names must be strings"),
], ids=["no-names", "non-string-name"])
def test_schema_rejects_no_names_and_a_non_string_name(names, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        AttributeSchema(names, "tid")


def test_two_interleaved_traces():
    schema = AttributeSchema(("A",), "tid")
    log = parse_log("A,tid\nx,1\ny,2\nz,1\nw,2\n", schema)
    assert [e.values[0] for e in log.trace_by_id("1").events] == ["x", "z"]
    assert [e.values[0] for e in log.trace_by_id("2").events] == ["y", "w"]


def test_malformed_row_reports_line_number(permission_schema):
    text = PERMISSION_ROWS + "only,three,fields\n"
    with pytest.raises(LogFormatError, match="line 17"):
        parse_log(text, permission_schema)


def test_empty_input_is_an_error(permission_schema):
    with pytest.raises(LogFormatError, match="empty log"):
        parse_log("", permission_schema)
    with pytest.raises(LogFormatError, match="empty log"):
        parse_log("Time,ID,Type,Activity,UserID,UserName,UserRole,tID\n", permission_schema)


def test_reserved_padding_token_is_rejected():
    schema = AttributeSchema(("A",), "tid")
    with pytest.raises(LogFormatError, match="__NONE__"):
        parse_log(f"A,tid\n{PADDING},1\n", schema)


def test_missing_column_is_an_error():
    schema = AttributeSchema(("Missing",), "tid")
    with pytest.raises(LogFormatError, match="Missing"):
        parse_log("A,tid\nx,1\n", schema)


def test_order_column_sorts_numerically():
    schema = AttributeSchema(("A",), "tid", event_order_column="ts")
    log = parse_log("A,tid,ts\nlate,1,10\nearly,1,2\n", schema)
    assert [e.values[0] for e in log.trace_by_id("1").events] == ["early", "late"]


def test_tab_delimiter_and_headerless_input():
    schema = AttributeSchema(("A", "B"), "tid")
    log = parse_log(
        "x\tu\t1\ny\tv\t1\n",
        schema,
        delimiter="\t",
        header=False,
        column_names=["A", "B", "tid"],
    )
    assert [e.values for e in log.trace_by_id("1").events] == [("x", "u"), ("y", "v")]
    with pytest.raises(LogFormatError, match="column_names"):
        parse_log("x,1\n", schema, header=False)


@pytest.mark.parametrize("header", [True, False])
@pytest.mark.parametrize("delimiter", ["", "ab"], ids=repr)
def test_a_delimiter_that_is_not_one_character_is_a_log_format_error(delimiter, header):
    schema = AttributeSchema(("a", "b"), "case")
    with pytest.raises(LogFormatError, match='^"delimiter" must be a 1-character string$'):
        parse_log("case,a,b\n1,x,y\n", schema, delimiter=delimiter, header=header, column_names=["case", "a", "b"])


@pytest.mark.parametrize("delimiter", ["", "ab"], ids=repr)
def test_read_header_rejects_a_delimiter_that_is_not_one_character(delimiter):
    with pytest.raises(LogFormatError, match='^"delimiter" must be a 1-character string$'):
        read_header(iter(["a,b\n"]), delimiter)


def _assert_same_log(left, right):
    # identical content: attribute names, trace column, traces, events and ids
    assert left.schema.names == right.schema.names
    assert left.schema.trace_id_column == right.schema.trace_id_column
    assert left.traces == right.traces


def test_event_id_column_round_trips_interleaved_logs(permission_full_log):
    text = serialize_log(permission_full_log)
    reparsed = parse_log(text, AttributeSchema(ATTRS, "tID", event_id_column="event_id"))
    _assert_same_log(reparsed, permission_full_log)


def test_duplicate_event_ids_rejected(permission_schema):
    schema = AttributeSchema(ATTRS, "tID", event_id_column="ID")
    with pytest.raises(ValueError, match="duplicate event id"):
        parse_log(PERMISSION_ROWS_FULL, schema)  # red trace reuses ids 12-14


def test_schema_invariants():
    with pytest.raises(ValueError):
        AttributeSchema(("A", "A"), "tid")
    with pytest.raises(ValueError):
        AttributeSchema(("A", ""), "tid")
    with pytest.raises(ValueError):
        AttributeSchema(("A",), "A")


# --- k-context ---------------------------------------------------------------


def test_two_history_of_event_three_matches_worked_example(permission_log):
    ctx = build_k_context(permission_log, 2)
    row = next(r for r in ctx.rows if r.event_id == "3")
    history = row.values[: 2 * len(ATTRS)]
    assert history == (
        "User-Actions", "Logged in", "001", "User1", "employee",
        "Request Permission", "Create Request", "001", "User1", "employee",
    )
    assert row.values == history + ("Request Permission", "Send Mail", "001", "User1", "employee")


def test_first_event_of_each_trace_padded(permission_ctx):
    type1 = permission_ctx.column(Variable("Type", 1))
    assert type1.count(PADDING) == 3  # one trace head per trace


def test_k_zero_is_rejected(permission_log):
    with pytest.raises(ValueError):
        build_k_context(permission_log, 0)


def test_context_row_count_matches_event_count(permission_log, permission_ctx):
    assert len(permission_ctx.rows) == permission_log.event_count


values_st = st.text(alphabet="abcxyz,\"'|", min_size=1, max_size=3).filter(str.strip)


@st.composite
def small_logs(draw):
    n_attrs = draw(st.integers(1, 3))
    schema = AttributeSchema(tuple(f"a{i}" for i in range(n_attrs)), "tid")
    n_traces = draw(st.integers(1, 4))
    traces = []
    counter = 0
    for t in range(n_traces):
        events = []
        for _ in range(draw(st.integers(1, 5))):
            events.append(Event(str(counter), tuple(draw(values_st) for _ in range(n_attrs))))
            counter += 1
        traces.append(Trace(str(t), tuple(events)))
    return EventLog(schema, tuple(traces))


@settings(max_examples=50)
@given(small_logs(), st.integers(1, 4))
def test_dropping_history_recovers_event_descriptions(log, k):
    ctx = build_k_context(log, k)
    n = len(log.schema.names)
    by_id = {e.id: e for t in log.traces for e in t.events}
    for row in ctx.rows:
        assert row.values[-n:] == by_id[row.event_id].values


@settings(max_examples=50)
@given(small_logs(), st.integers(1, 4))
def test_padding_count_formula(log, k):
    ctx = build_k_context(log, k)
    for trace in log.traces:
        m = len(trace.events)
        expected = sum(max(0, k - i) for i in range(m))
        for attr in log.schema.names:
            observed = 0
            for row in ctx.rows:
                if row.trace_id == trace.trace_id:
                    for lag in range(1, k + 1):
                        i = ctx.index_of(Variable(attr, lag))
                        observed += row.values[i] == PADDING
            assert observed == expected


@settings(max_examples=30)
@given(small_logs())
def test_serialize_parse_round_trip(log):
    reparsed = parse_log(serialize_log(log), AttributeSchema(log.schema.names, log.schema.trace_id_column, event_id_column="event_id"))
    _assert_same_log(reparsed, log)
    # the log built from traces is coded as parse_log codes the text it serializes to
    for field in ("vocabularies", "codes", "event_ids", "trace_ids", "trace_lengths"):
        assert getattr(reparsed, field) == getattr(log, field), field


# --- active domains: the lag-0 vocabularies of the k-context, which the model keeps ----------


def test_active_domain_examples(permission_log):
    domains = learn_edbn(permission_log, 1, 0.99).active_domains
    assert domains["UserRole"] == {"employee", "manager", "sales-manager"}
    assert len(domains["Activity"]) == 6


def test_active_domain_constant_column():
    schema = AttributeSchema(("A", "B"), "tid")
    log = parse_log("A,B,tid\nk,1,1\nk,2,1\n", schema)
    assert learn_edbn(log, 1, 0.99).active_domains["A"] == {"k"}


def test_active_domain_tuples_and_padding(permission_log, permission_ctx):
    pairs = set(zip(*(permission_ctx.column(Variable(a, 0)) for a in ("UserID", "UserRole"))))
    assert ("001", "employee") in pairs and len(pairs) == 4
    # padding is in a history slice's vocabulary, never in an attribute's active domain
    assert PADDING in permission_ctx.vocabulary(Variable("UserID", 1))
    assert PADDING not in learn_edbn(permission_log, 1, 0.99).active_domains["UserID"]


def test_active_domain_unknown_variable(permission_log, permission_ctx):
    with pytest.raises(ValueError):
        permission_log.schema.index_of("NoSuch")
    with pytest.raises(ValueError):
        permission_ctx.vocabulary(Variable("NoSuch", 0))


def test_empty_trace_id_is_an_error():
    schema = AttributeSchema(("A",), "tid")
    with pytest.raises(LogFormatError, match="empty trace id"):
        parse_log("A,tid\nx, \n", schema)


def test_trace_requires_events():
    with pytest.raises(ValueError, match="no events"):
        Trace("empty", ())


def test_event_arity_checked_at_log_construction():
    schema = AttributeSchema(("A", "B"), "tid")
    with pytest.raises(ValueError, match="values"):
        EventLog(schema, (Trace("1", (Event("0", ("only-one",)),)),))
    fine = Event("0", ("a", "b"))
    for bad in (PADDING, 5, None, ["a"]):
        with pytest.raises(ValueError, match=r"event '2' holds .* as 'B'"):
            EventLog(schema, (Trace("1", (fine, Event("1", ("a", "b")))), Trace("2", (Event("2", ("a", bad)),))))


LOG_TOKENS = [",", '"', "\n", "\r", "\r\n", "\x00", "\ufeff", " ", "", "x", PADDING, "t0001", "case_id", "event_id"]
SHIPPING = default_shipping_model()
SHIPPING_SCHEMA = AttributeSchema(SHIPPING.attributes, SHIPPING.trace_id_column)


@pytest.fixture(scope="module")
def shipping_text():
    return serialize_log(generate(SHIPPING, 6, 5))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parser_rejects_or_round_trips_every_mutated_log(shipping_text, data):
    # a serialized log with one to three token edits either raises LogFormatError naming a line
    # (or the empty log or a missing column), or parses into a log that serializes and parses back
    text = data.draw(_mutated_text(shipping_text, LOG_TOKENS))
    with chunks_of(data.draw(st.sampled_from([1, 8, None])), text):
        try:
            log = parse_log(text, SHIPPING_SCHEMA)
        except LogFormatError as exc:
            assert re.fullmatch(r"line [1-9]\d*: .*|empty log|column '.*' not found in input", str(exc), re.S), str(exc)
            return
    again = parse_log(serialize_log(log), replace(SHIPPING_SCHEMA, event_id_column="event_id"))
    assert (again.trace_ids, again.trace_lengths, again.event_ids, again.columns) == (
        log.trace_ids, log.trace_lengths, log.event_ids, log.columns)


def test_parsing_holds_about_one_chunk_beyond_the_log_it_returns():
    # beyond the coded log, a parse holds one chunk's lines, joined text and field strings:
    # at 4096 lines a chunk this 15-column log peaked 7.3 MB above what the parse returned
    lines = serialize_log(generate(SHIPPING, 1000, 8)).splitlines(keepends=True)
    tracemalloc.start()
    try:
        log = parse_log(lines, SHIPPING_SCHEMA)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.event_count == len(lines) - 1
    assert peak - retained < 4_000_000


def test_a_parsed_log_named_by_data_row_holds_under_0_6_mb():
    # its codes are bytes and its rows a range: one id string per event took 1.4 MB of this 1.8 MB log
    lines = serialize_log(generate(SHIPPING, 2000, 7)).splitlines(keepends=True)
    tracemalloc.start()
    try:
        log = parse_log(lines, SHIPPING_SCHEMA)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert log.event_count == len(lines) - 1
    assert retained < 600_000


def test_learning_holds_under_5_mb_beyond_the_parsed_log():
    # the k-context and every count key are held in the narrowest unsigned type: with int64
    # codes and keys, learning on this log peaked 7.2 MB above the parsed log
    log = parse_log(serialize_log(generate(SHIPPING, 2000, 7)), SHIPPING_SCHEMA)
    tracemalloc.start()
    try:
        learn_edbn(log, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def _assert_narrow_buffers(log):
    # bytes up to 256 values, else 4-byte codes behind a read-only view; no buffer can be written
    for vocab, codes in zip(log.vocabularies, log.codes):
        if len(vocab) <= 256:
            assert type(codes) is bytes
        else:
            assert isinstance(codes, memoryview) and (codes.format, codes.itemsize, codes.readonly) == ("I", 4, True)
        assert len(codes) == log.event_count and max(codes) == len(vocab) - 1
        with pytest.raises(TypeError):
            codes[0] = 0


def _widely_generated():
    # priority drawn per event from 400 values
    priority = Rule("pool", values=tuple(f"p{i}" for i in range(400)))
    return generate(replace(SHIPPING, rules={**SHIPPING.rules, "priority": priority}), 300, 3)


def _interleaved_text() -> str:
    # seven interleaved traces, A new at every row and B of three values; ts runs backwards
    rows = [(f"t{j % 7}", f"a{j}", f"b{j % 3}", 400 - j) for j in range(400)]
    return "tid,A,B,ts\n" + "".join(f"{t},{a},{b},{ts}\n" for t, a, b, ts in rows)


@pytest.mark.parametrize("producer", ["parse", "generate", "inject", "traces", "interleaved", "order column"])
def test_every_log_holds_its_codes_in_immutable_buffers_of_the_stated_width(producer):
    if producer in ("interleaved", "order column"):
        schema = AttributeSchema(("A", "B"), "tid", "ts" if producer == "order column" else None)
        log = parse_log(_interleaved_text(), schema)
        assert log == reference_parse_log(_interleaved_text(), schema)
    elif producer == "parse":
        log = parse_log(serialize_log(generate(SHIPPING, 50, 3)), SHIPPING_SCHEMA)
    elif producer == "generate":
        log = _widely_generated()
    elif producer == "inject":
        log = inject_anomalies(_widely_generated(), 0.5, 1).log
    else:
        log = EventLog(SHIPPING_SCHEMA, _widely_generated().traces)
    assert any(len(vocab) > 256 for vocab in log.vocabularies) == (producer != "parse")
    _assert_narrow_buffers(log)


def _with_ids(text: str, id_of) -> str:
    # the text with an id column, ``id_of(j)`` on data row j
    header, *lines = text.splitlines()
    return "\n".join([f"{header},id", *(f"{line},{id_of(j)}" for j, line in enumerate(lines))]) + "\n"


NAMED_BY_ROW = ["parse", "interleaved", "order column", "generate", "duplicate ids"]


@pytest.mark.parametrize("producer", [*NAMED_BY_ROW, "parse with ids", "inject", "traces"])
def test_every_producer_names_its_events_as_the_reference_does(producer):
    # a log named by data row keeps the rows, a range in log order and else 4-byte rows, and builds
    # its ids, the rows as text, when they are first read; any other log holds its ids
    interleaved = AttributeSchema(("A", "B"), "tid", "ts" if producer == "order column" else None)
    text = _interleaved_text()
    if producer == "parse":
        text = serialize_log(generate(SHIPPING, 50, 3))
        log, expected = parse_log(text, SHIPPING_SCHEMA), reference_parse_log(text, SHIPPING_SCHEMA).event_ids
    elif producer in ("interleaved", "order column"):
        log, expected = parse_log(text, interleaved), reference_parse_log(text, interleaved).event_ids
    elif producer == "generate":
        log = generate(SHIPPING, 50, 3)
        expected = tuple(map(str, range(log.event_count)))
    elif producer == "duplicate ids":
        with pytest.raises(DuplicateEventIdError) as raised:
            parse_log(_with_ids(text, lambda j: f"e{j % 50}"), replace(interleaved, event_id_column="id"))
        log, expected = raised.value.log, reference_parse_log(text, interleaved).event_ids
    elif producer == "parse with ids":
        schema = replace(interleaved, event_id_column="id")
        log = parse_log(_with_ids(text, lambda j: f"e{j * 37 % 400}"), schema)
        expected = reference_parse_log(_with_ids(text, lambda j: f"e{j * 37 % 400}"), schema).event_ids
    elif producer == "inject":
        labeled = inject_anomalies(generate(SHIPPING, 50, 3), 0.5, 4).log
        log, expected = labeled, parse_log(serialize_log(labeled), replace(SHIPPING_SCHEMA, event_id_column="event_id")).event_ids
    else:
        traces = parse_log(_with_ids(text, lambda j: f"e{j * 37 % 400}"), replace(interleaved, event_id_column="id")).traces
        log, expected = EventLog(interleaved, traces), tuple(e.id for t in traces for e in t.events)
    if producer in NAMED_BY_ROW:
        assert "event_ids" not in vars(log)
        in_log_order = producer in ("parse", "generate")
        assert type(log.event_rows) is (range if in_log_order else array)
        assert log.event_rows == (range(log.event_count) if in_log_order else array("I", map(int, expected)))
    else:
        assert log.event_rows is None and vars(log)["event_ids"] is log.event_ids
    assert log.event_ids == expected and len(expected) == log.event_count
    assert [e.id for t in log.traces for e in t.events] == list(expected)


def test_learning_never_builds_the_ids_of_a_log_named_by_row():
    log = parse_log(serialize_log(generate(SHIPPING, 30, 5)), SHIPPING_SCHEMA)
    ctx = build_k_context(log, 2)
    learn_edbn(log, 2)
    assert "event_ids" not in vars(log) and not hasattr(ctx, "event_ids") and not hasattr(ctx, "trace_ids")
    # the k-context derives each row's ids from the log only when its rows are read
    assert [(r.event_id, r.trace_id) for r in ctx.rows] == [(e.id, t.trace_id) for t in log.traces for e in t.events]
