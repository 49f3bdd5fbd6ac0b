"""``inject_anomalies`` against the injector that decoded and re-coded every event (``reference_injection.py``).

The two must return the same labels, mutation details, trace ids and
lengths, event ids, vocabularies in their order, and code bytes and widths:
on hypothesis-drawn logs named by data row (in log order, or not, as
``parse_log`` names interleaved traces) and by id, with one-event traces and
ids that duplicates collide with; at fractions 0, 0.01, 0.5 and 1; where a
fresh value widens a 256-value vocabulary to 4-byte codes; where a value's
only occurrence is replaced or deleted; and on the shipping logs at the
benchmark's sizes.
"""
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from edbn import AttributeSchema, Event, EventLog, Trace, default_shipping_model, generate, inject_anomalies, parse_log

from reference_injection import reference_inject_anomalies

FRACTIONS = [0, 0.01, 0.5, 1]
SCHEMA = AttributeSchema(("A", "B", "C"), "case", event_id_column="event_id")


def _fields(labeled):
    """Every field of a labeled log, its log's ids as it holds them (an id tuple, or data rows)."""
    log = labeled.log
    return (labeled.labels, labeled.anomaly_details, log.schema, log.trace_ids, log.trace_lengths,
            vars(log).get("event_ids"), log.event_rows, log.vocabularies,
            [(type(codes), bytes(codes)) for codes in log.codes])


def _assert_injects_as_the_reference(log, fraction, seed):
    held = set(vars(log))
    expected = _fields(reference_inject_anomalies(log, fraction, seed))
    labeled = inject_anomalies(log, fraction, seed)
    assert _fields(labeled) == expected
    assert set(vars(log)) == held  # nothing decoded onto the log it read
    return labeled


def _log(traces, names=("A", "B", "C")) -> EventLog:
    """A log of traces, each a list of (event id, values)."""
    return EventLog(AttributeSchema(names, "case"),
                    [Trace(f"c{i}", tuple(Event(e, v) for e, v in events)) for i, events in enumerate(traces)])


VALUES = st.sampled_from(["x", "y", "z", "w", "unseen-A-1", "a,b"])
IDS = st.sampled_from(["e", "e+dup", "e+dup+", "f", "f+dup", "1", "2"])


@st.composite
def logs(draw) -> EventLog:
    """A log named by id (drawn ids, kept unique), by data row in log order, or by data row out of it."""
    shape = draw(st.lists(st.integers(1, 5), min_size=1, max_size=12))  # one-event traces among them
    values = [tuple(draw(VALUES) for _ in SCHEMA.names) for _ in range(sum(shape))]
    kind = draw(st.sampled_from(["ids", "rows", "interleaved"]))
    if kind == "ids":
        ids = draw(st.lists(IDS, min_size=len(values), max_size=len(values)))
        ids = [f"{event_id}#{i}" if event_id in ids[:i] else event_id for i, event_id in enumerate(ids)]
        events = iter(zip(ids, values))
        return _log([[next(events) for _ in range(n)] for n in shape])
    values = iter(values)
    rows = [(f"c{t}", *next(values)) for t, n in enumerate(shape) for _ in range(n)]
    if kind == "interleaved":  # rows of the traces taken in turn: event rows out of log order
        rows = sorted(rows, key=lambda row: [r for r in rows if r[0] == row[0]].index(row))
    text = "case,A,B,C\n" + "".join(",".join(f'"{f}"' for f in row) + "\n" for row in rows)
    return parse_log(text, AttributeSchema(SCHEMA.names, "case"))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(logs(), st.sampled_from(FRACTIONS), st.integers(0, 2**32))
def test_injection_equals_the_reference_on_drawn_logs(log, fraction, seed):
    _assert_injects_as_the_reference(log, fraction, seed)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("named_by", ["row", "id"])
def test_injection_equals_the_reference_on_shipping_logs(fraction, named_by):
    log = generate(default_shipping_model(), 200, 3)
    if named_by == "id":
        log = EventLog(log.schema, log.traces)
    for seed in range(4):
        _assert_injects_as_the_reference(log, fraction, seed)


@pytest.mark.parametrize("n_traces, seed, fraction", [(1000, 8, 0.1), (120, 9, 0.1), (5000, 11, 0.025)])
def test_injection_equals_the_reference_at_the_benchmarks_sizes(n_traces, seed, fraction):
    _assert_injects_as_the_reference(generate(default_shipping_model(), n_traces, seed), fraction, seed + 1)


def test_a_fresh_value_widens_a_256_value_vocabulary_to_4_byte_codes():
    # attribute A holds 256 values, each twice, or all of them in the first trace (which mutations rarely
    # reach, so the order of first appearance mostly stays): a fresh A value is the 257th
    spread = [[(f"e{i}-{j}", (f"a{(4 * i + j) % 256}", f"b{j % 2}", "c")) for j in range(4)] for i in range(128)]
    first = [[(f"e{j}", (f"a{j}", "b", "c")) for j in range(256)], *([(f"e{i}", (f"a{i % 7}", "b", "c"))]
                                                                    for i in range(256, 356))]
    for log in (_log(spread), _log(first)):
        assert type(log.codes[0]) is bytes and len(log.vocabularies[0]) == 256
        widths = {_width(_assert_injects_as_the_reference(log, 0.05, seed).log) for seed in range(40)}
        assert {(256, bytes), (257, memoryview)} <= widths
        assert all(kind is (bytes if n <= 256 else memoryview) for n, kind in widths)


def test_a_257_value_vocabulary_that_loses_a_value_narrows_to_byte_codes():
    # attribute A holds 257 values, one per event: a replaced or deleted A value leaves 256
    log = _log([[(f"e{i}-{j}", (f"a{3 * i + j}", f"b{j % 2}", "c")) for j in range(3) if 3 * i + j < 257]
                for i in range(86)])
    assert type(log.codes[0]) is memoryview and len(log.vocabularies[0]) == 257
    widths = {_width(_assert_injects_as_the_reference(log, 0.05, seed).log) for seed in range(40)}
    assert {(256, bytes), (257, memoryview)} <= widths
    assert all(kind is (bytes if n <= 256 else memoryview) for n, kind in widths)


def _width(log):
    return len(log.vocabularies[0]), type(log.codes[0])


def test_a_value_whose_only_occurrence_is_replaced_or_deleted_leaves_the_vocabulary():
    log = _log([[(f"e{i}-{j}", (f"a{i}-{j}", f"b{i}-{j}", f"c{i % 3}")) for j in range(3)] for i in range(30)])
    shrunk = 0
    for seed in range(20):
        labeled = _assert_injects_as_the_reference(log, 0.5, seed)
        shrunk += len(labeled.log.vocabularies[0]) < 90
    assert shrunk


def test_duplicates_collide_with_ids_that_end_in_dup():
    events = [("e", ("x", "y", "z")), ("e+dup", ("x", "y", "w")), ("e+dup+", ("y", "y", "z"))]
    log = _log([events, [("f", ("x", "x", "x"))], [("f+dup", ("y", "x", "z")), ("g", ("x", "y", "z"))]])
    duplicated = 0
    for seed in range(60):
        labeled = _assert_injects_as_the_reference(log, 1, seed)
        duplicated += any(m.kind == "duplicate_event" for ms in labeled.anomaly_details.values() for m in ms)
    assert duplicated
