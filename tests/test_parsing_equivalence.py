"""The coded parse_log equals the row-by-row parser kept in reference_parsing.py.

Both must return the same traces, events and ids, or raise the same error
type with the same message, line number included; and the k-context of a
parsed log, taken from its codes, must equal that of the log built from its
traces.  The inputs cover quoted delimiters and line breaks, blank lines,
padded values, a UTF-8 BOM, numeric and text order columns, headerless
input, missing and repeated event ids, short and long rows, empty trace ids
and the reserved padding token; chunks as small as one line put record
boundaries everywhere.
"""
import csv
import io
import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edbn.event_log
from edbn import (
    PADDING,
    AttributeSchema,
    Event,
    EventLog,
    Trace,
    build_k_context,
    default_shipping_model,
    generate,
    learn_edbn,
    load_log,
    parse_log,
    rank_traces,
    write_log,
)
from edbn.cli import main
from edbn.event_log import writer_schema

from reference_parsing import reference_load_log, reference_parse_log

GOOD_VALUES = ["x", "y", " x ", "a,b", 'q"t', "l\nm", "c\r\nd", "", "\t"]
BAD_VALUES = [PADDING, f" {PADDING}"]
GOOD_TRACE_IDS = ["t1", "t2", " t1", "t3 ", "t,4"]
BAD_TRACE_IDS = ["", " "]
# numbers, text and values float() reads; no nan, which the reference sorts by file order
ORDER_VALUES = st.sampled_from(["1", "2", "10", "-1", "2.5", "1e1", "inf", "-inf", " 3 ", "1_0", "b", "a", ""])


def _outcome(parse, *args, **kwargs):
    try:
        log = parse(*args, **kwargs)
    except Exception as exc:  # the error type and message are compared
        return type(exc), str(exc)
    return [(t.trace_id, [(e.id, e.values) for e in t.events]) for t in log.traces]


def _parsers(text, bom):
    """(parser, reference parser, source) for the same text as a string, a list of lines and a file."""
    yield parse_log, reference_parse_log, text
    yield parse_log, reference_parse_log, text.splitlines(keepends=True)
    with tempfile.TemporaryDirectory() as folder:
        path = Path(folder) / "log.csv"
        with open(path, "w", newline="", encoding="utf-8-sig" if bom else "utf-8") as fh:
            fh.write(text)
        yield load_log, reference_load_log, path


def _assert_same_outcome(text, bom, schema, chunk_rows, **options):
    for parse, reference, source in _parsers(text, bom):
        with mock.patch.object(edbn.event_log, "_CHUNK_ROWS", chunk_rows):
            outcome = _outcome(parse, source, schema, **options)
        assert outcome == _outcome(reference, source, schema, **options)


@st.composite
def delimited_logs(draw):
    """(text, schema, delimiter, header, column names): a small log written with csv, some rows damaged."""
    delimiter = draw(st.sampled_from([",", "\t", ";", "|"]))
    attrs = tuple(f"a{i}" for i in range(draw(st.integers(1, 3))))
    has_ids, has_order = draw(st.booleans()), draw(st.booleans())
    columns = [*attrs, "tid", *(["id"] if has_ids else []), *(["ts"] if has_order else []), " extra "]
    columns = draw(st.permutations(columns))
    if draw(st.booleans()):
        columns = [*columns, draw(st.sampled_from(columns))]  # a repeated name: the first one is read
    schema = AttributeSchema(attrs, "tid", "ts" if has_order else None, "id" if has_ids else None)
    faults = draw(st.sets(st.sampled_from(["value", "trace id", "event id", "width"])))
    cells = {
        "tid": st.sampled_from(GOOD_TRACE_IDS + (BAD_TRACE_IDS if "trace id" in faults else [])),
        "id": st.sampled_from(["e1", "e2", "e3", " e1", ""]),
        "ts": ORDER_VALUES,
    }
    values = st.sampled_from(GOOD_VALUES + (BAD_VALUES if "value" in faults else []))

    def cell(column, j):
        if column == "id" and "event id" not in faults:
            return f"e{j}"
        return draw(cells.get(column, values))

    rows = []
    for j in range(draw(st.integers(0 if faults else 1, 10))):
        row = [cell(c, j) for c in columns]
        damage = draw(st.sampled_from(["none"] * 6 + ["blank"] + (["short", "long"] if "width" in faults else [])))
        if damage == "short":
            row = row[: draw(st.integers(0, len(row) - 1))]
        elif damage == "long":
            row = [*row, "more"]
        elif damage == "blank":
            rows.append([])
        rows.append(row)
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\n", "\r"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    header = draw(st.booleans())
    writer.writerows([columns, *rows] if header else rows)
    return out.getvalue(), schema, delimiter, header, columns


def parse_at(chunk_rows, text, schema, **options):
    """parse_log reading ``chunk_rows`` rows at a time, or None where the text is faulty."""
    with mock.patch.object(edbn.event_log, "_CHUNK_ROWS", chunk_rows):
        try:
            return parse_log(text, schema, **options)
        except (ValueError, csv.Error):
            return None


def _assert_same_k_context(text, schema, chunk_rows, **options):
    # the parsed log's codes, taken through their values' sorted ranks, give the
    # k-context that the values of its traces give when coded afresh
    log = parse_at(chunk_rows, text, schema, **options)
    if log is None:
        return
    for k in (1, 2, 3):
        parsed = build_k_context(log, k)
        built = build_k_context(EventLog(schema, log.traces), k)
        assert parsed.vocabularies == built.vocabularies
        assert all(map(np.array_equal, parsed.codes, built.codes))
        assert (parsed.event_ids, parsed.trace_ids) == (built.event_ids, built.trace_ids)


CHUNK_ROWS = st.sampled_from([1, 2, 3, 4, 4096])


@settings(max_examples=300, deadline=None)
@given(delimited_logs(), CHUNK_ROWS, st.booleans())
def test_columnar_parser_equals_the_reference(case, chunk_rows, bom):
    text, schema, delimiter, header, columns = case
    options = {"delimiter": delimiter, "header": header, "column_names": None if header else columns}
    _assert_same_outcome(text, bom, schema, chunk_rows, **options)
    _assert_same_k_context(text, schema, chunk_rows, **options)


RAW_BODIES = st.text(alphabet='ab,"\n\r \t_\0', max_size=40)


@settings(max_examples=300, deadline=None)
@given(RAW_BODIES, CHUNK_ROWS, st.booleans())
def test_columnar_parser_equals_the_reference_on_raw_text(body, chunk_rows, bom):
    # unterminated quotes, quotes inside fields, stray line breaks and NUL bytes, as csv reads them
    _assert_same_outcome("a,b\n" + body, bom, AttributeSchema(("a",), "b"), chunk_rows)
    _assert_same_k_context("a,b\n" + body, AttributeSchema(("a",), "b"), chunk_rows)


def test_a_field_over_the_csv_limit_fails_as_csv_fails():
    schema = AttributeSchema(("a",), "b")
    text = "a,b\nx,t1\n" + "y" * 200 + ",t1\n"
    limit = csv.field_size_limit(100)
    try:
        assert _outcome(parse_log, text, schema) == _outcome(reference_parse_log, text, schema)
        assert _outcome(parse_log, text, schema)[0] is csv.Error
    finally:
        csv.field_size_limit(limit)


def test_a_parsed_log_equals_the_log_of_its_traces():
    text = "a,tid,id\nx,t2,3\ny,t1,1\nz,t2,2\n"
    log = parse_log(text, AttributeSchema(("a",), "tid", event_id_column="id"))
    assert log.trace_ids == ("t2", "t1") and log.trace_lengths == (2, 1)
    assert log.event_ids == ("3", "2", "1") and log.columns == (("x", "z", "y"),)
    assert log == EventLog(log.schema, log.traces) and hash(log) == hash(EventLog(log.schema, log.traces))
    with pytest.raises(AttributeError):
        log.traces = ()


# --- order column ----------------------------------------------------------------


def test_a_nan_in_the_order_column_sorts_as_text_whatever_the_file_order():
    schema = AttributeSchema(("a",), "tid", event_order_column="ts")
    rows = ["p,1,2\n", "q,1,nan\n", "r,1,1\n"]
    orders = set()
    for permutation in itertools.permutations(rows):
        log = parse_log("a,tid,ts\n" + "".join(permutation), schema)
        orders.add(tuple(e.values[0] for e in log.traces[0].events))
    assert orders == {("r", "p", "q")}  # "1" < "2" < "nan" as text


def test_a_numeric_order_column_still_sorts_as_numbers():
    schema = AttributeSchema(("a",), "tid", event_order_column="ts")
    log = parse_log("a,tid,ts\np,1,10\nq,1,9\nr,2,b\ns,2,a\n", schema)
    assert [[e.values[0] for e in t.events] for t in log.traces] == [["q", "p"], ["s", "r"]]


# --- a log built from traces ---------------------------------------------------------


def test_a_log_built_from_traces_keeps_them_and_derives_its_columns():
    traces = (Trace("b", (Event("1", ("x", "u")), Event("2", ("y", "v")))), Trace("a", (Event("3", ("x", "w")),)))
    log = EventLog(AttributeSchema(("A", "B"), "tid"), traces)
    assert log.traces is traces  # kept, not rebuilt
    assert log.trace_ids == ("b", "a") and log.trace_lengths == (2, 1) and log.event_count == 3
    assert log.event_ids == ("1", "2", "3") and log.columns == (("x", "y", "x"), ("u", "v", "w"))


# --- no Event objects on the learning and batch scoring paths ----------------------


@pytest.fixture()
def counted_events(monkeypatch):
    made = []
    init = Event.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting_init)
    return made


def test_training_and_scoring_a_parsed_log_build_no_events(tmp_path, counted_events, capsys):
    process = default_shipping_model()
    write_log(generate(process, 60, 5), tmp_path / "train.csv")
    write_log(generate(process, 20, 6), tmp_path / "test.csv")
    counted_events.clear()
    assert main(["train", "--log", str(tmp_path / "train.csv"), "--trace-col", "case_id",
                 "--out", str(tmp_path / "model.json")]) == 0
    assert main(["score", "--model", str(tmp_path / "model.json"), "--log", str(tmp_path / "test.csv"),
                 "--out", str(tmp_path / "ranking.csv"), "--explain", "3"]) == 0
    schema = writer_schema(process.schema())
    log = load_log(tmp_path / "test.csv", schema)
    ranking = rank_traces(learn_edbn(load_log(tmp_path / "train.csv", schema), 1), log)
    assert len(ranking) == 20 and counted_events == []
    # the traces, built on first read, equal those of the row-by-row parser
    assert log.traces == reference_load_log(tmp_path / "test.csv", schema).traces
    assert len(counted_events) == 2 * log.event_count
