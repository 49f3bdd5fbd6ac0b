"""The coded parse_log equals the row-by-row parser kept in reference_parsing.py.

Both must return the same traces, events and ids, or raise the same error
type with the same message, line number included; and the k-context of a
parsed log, taken from its codes, must equal that of the log built from its
traces.  The inputs cover quoted delimiters and line breaks, blank lines,
padded values, a UTF-8 BOM, numeric and text order columns, headerless
input, missing and repeated event ids, short and long rows, empty trace ids,
the reserved padding token, open quotes, text after a closing quote and NUL;
chunks as small as one line put record boundaries everywhere.
"""
import contextlib
import csv
import io
import itertools
import re
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
    LogFormatError,
    Trace,
    build_k_context,
    default_shipping_model,
    generate,
    inject_anomalies,
    learn_edbn,
    load_log,
    parse_log,
    rank_traces,
    serialize_log,
    write_log,
)
from edbn.cli import main
from edbn.event_log import csv_text

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


def chunks_of(lines, text, delimiter=",", header=True, column_names=None):
    """A patch under which parse_log reads ``text`` (a string or its items) ``lines`` lines a
    chunk: a field budget of that many rows of the header's width; None keeps the default budget."""
    if lines is None:
        return contextlib.nullcontext()
    if not header:
        width = len(column_names)
    else:
        try:
            width = len(edbn.event_log.read_header(io.StringIO("".join(text), newline=""), delimiter)[0])
        except LogFormatError:
            width = 1  # parse_log fails at the header, before it reads a chunk
    return mock.patch.object(edbn.event_log, "_CHUNK_FIELDS", lines * width)


def _assert_same_outcome(text, bom, schema, chunk_lines, **options):
    for parse, reference, source in _parsers(text, bom):
        with chunks_of(chunk_lines, text, **options):
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


def parse_at(chunk_lines, text, schema, **options):
    """parse_log reading ``chunk_lines`` lines at a time, or None where the text is faulty."""
    with chunks_of(chunk_lines, text, **options):
        try:
            return parse_log(text, schema, **options)
        except ValueError:
            return None


def _assert_same_k_context(text, schema, chunk_lines, **options):
    # the parsed log's codes, taken through their values' sorted ranks, give the
    # k-context that the values of its traces give when coded afresh
    log = parse_at(chunk_lines, text, schema, **options)
    if log is None:
        return
    for k in (1, 2, 3):
        parsed = build_k_context(log, k)
        built = build_k_context(EventLog(schema, log.traces), k)
        assert parsed.vocabularies == built.vocabularies
        assert all(map(np.array_equal, parsed.codes, built.codes))
        assert [(r.event_id, r.trace_id) for r in parsed.rows] == [(r.event_id, r.trace_id) for r in built.rows]


CHUNK_LINES = st.sampled_from([1, 2, 3, 4, None])  # None: the default field budget


@settings(max_examples=300, deadline=None)
@given(delimited_logs(), CHUNK_LINES, st.booleans())
def test_columnar_parser_equals_the_reference(case, chunk_lines, bom):
    text, schema, delimiter, header, columns = case
    options = {"delimiter": delimiter, "header": header, "column_names": None if header else columns}
    _assert_same_outcome(text, bom, schema, chunk_lines, **options)
    _assert_same_k_context(text, schema, chunk_lines, **options)


RAW_BODIES = st.text(alphabet='ab,"\n\r \t_\0', max_size=40)


@settings(max_examples=300, deadline=None)
@given(RAW_BODIES, CHUNK_LINES, st.booleans())
def test_columnar_parser_equals_the_reference_on_raw_text(body, chunk_lines, bom):
    # unterminated quotes, quotes inside fields, stray line breaks and NUL bytes, as strict csv reads them
    _assert_same_outcome("a,b\n" + body, bom, AttributeSchema(("a",), "b"), chunk_lines)
    _assert_same_k_context("a,b\n" + body, AttributeSchema(("a",), "b"), chunk_lines)


def test_a_field_over_the_csv_limit_fails_as_csv_fails():
    schema = AttributeSchema(("a",), "b")
    text = "a,b\nx,t1\n" + "y" * 200 + ",t1\n"
    limit = csv.field_size_limit(100)
    try:
        assert _outcome(parse_log, text, schema) == _outcome(reference_parse_log, text, schema)
        assert _outcome(parse_log, text, schema) == (LogFormatError, "line 3: field larger than field limit (100)")
    finally:
        csv.field_size_limit(limit)


# --- the split path and the csv path, chosen per chunk ----------------------------------

SPLIT_SCHEMA = AttributeSchema(("a",), "b")
SPLIT_CHUNK_LINES = (1, 2, 3, 4, None)  # None: the default field budget


def _split_taken(text, schema, chunk_lines, **options):
    """Per chunk that parse_log offered to _split_columns, whether it was split (not left to csv)."""
    taken, split = [], edbn.event_log._split_columns

    def recording(*args):
        fields = split(*args)
        taken.append(fields is not None)
        return fields

    with mock.patch.object(edbn.event_log, "_split_columns", recording):
        with chunks_of(chunk_lines, text, **options):
            _outcome(parse_log, text, schema, **options)
    return taken


def _assert_same_at_every_chunk_size(text, schema=SPLIT_SCHEMA, **options):
    for chunk_lines in SPLIT_CHUNK_LINES:
        _assert_same_outcome(text, False, schema, chunk_lines, **options)
    return _outcome(parse_log, text, schema, **options)


def test_a_quoted_field_over_two_lines_is_read_by_csv_in_its_chunk_alone():
    text = "a,b\n" + "x,t1\n" * 4 + '"p\nq",t1\n' + "y,t2\n" * 3
    outcome = _assert_same_at_every_chunk_size(text)
    assert outcome == [("t1", [(str(i), ("x",)) for i in range(4)] + [("4", ("p\nq",))]),
                       ("t2", [(str(i), ("y",)) for i in range(5, 8)])]
    # the chunk that holds the quote goes to csv (one-line chunks are extended to its second
    # line); the chunks after it are split again
    assert _split_taken(text, SPLIT_SCHEMA, 1) == [True] * 4 + [False] + [True] * 3
    assert _split_taken(text, SPLIT_SCHEMA, 2) == [True, True, False, True, True]
    assert _split_taken(text, SPLIT_SCHEMA, 3) == [True, False, True]
    assert _split_taken(text, SPLIT_SCHEMA, 4) == [True, False, True]
    assert _split_taken(text, SPLIT_SCHEMA, None) == [False]


@pytest.mark.parametrize("fault, message", [("z\n", "expected 2 fields, got 1"), ("z,t1,w\n", "expected 2 fields, got 3"),
                                            ("z, \n", "empty trace id"), (f"{PADDING},t1\n", "reserved token")])
@pytest.mark.parametrize("quoted", [False, True])
def test_a_fault_is_named_by_its_line_on_both_paths(fault, message, quoted):
    # line 6 is faulty, inside a split chunk, or after a chunk that a quoted field on line 4 sent to csv
    text = "a,b\nx,t1\n\n" + ('"x",t1\n' if quoted else "x,t1\n") + "y,t2\n" + fault + "y,t2\n"
    error, text_of_error = _assert_same_at_every_chunk_size(text)
    assert error is edbn.event_log.LogFormatError and text_of_error.startswith(f"line 6: {message}")
    # two-line chunks: a line of another width is left to csv too, which names it
    assert _split_taken(text, SPLIT_SCHEMA, 2) == [True, not quoted, "fields" not in message]


def test_blank_lines_inside_and_at_the_end_of_a_chunk_are_skipped():
    text = "a,b\nx,t1\n\ny,t1\n\n\nz,t2\n\n"
    assert _assert_same_at_every_chunk_size(text) == [("t1", [("0", ("x",)), ("1", ("y",))]), ("t2", [("2", ("z",))])]
    for chunk_lines in SPLIT_CHUNK_LINES:
        assert all(_split_taken(text, SPLIT_SCHEMA, chunk_lines))  # a chunk of blank lines too
    # blank lines count in the line numbers
    assert _assert_same_at_every_chunk_size(text + "\nw, \n") == (edbn.event_log.LogFormatError, "line 10: empty trace id")


@pytest.mark.parametrize("last", ["z,t2", "z", "z,"])
def test_a_last_line_without_a_line_break(last):
    _assert_same_at_every_chunk_size("a,b\nx,t1\ny,t1\n" + last)


def test_nul_in_quote_free_text_is_rejected_naming_its_line():
    # csv reads NUL as a character from Python 3.11 and rejects it before; parse_log rejects it on both
    text = "a,b\nx,t1\ny\0z,t1\nw,t2\n"
    assert _assert_same_at_every_chunk_size(text) == (LogFormatError, "line 3: NUL character")
    assert _split_taken(text, SPLIT_SCHEMA, 1) == [True, False]


_OPEN_QUOTE_LOG = "a,b\n" + "".join(f"x{i},t{i // 5000}\n" if i != 5000 else '"x,t1\n' for i in range(10_000))


@pytest.mark.parametrize("text, error", [
    ('a,b\n"x,t1\ny,t2\nz,t3\n', "line 2: unexpected end of data"),  # an open quote reads to the end
    (_OPEN_QUOTE_LOG, "line 5002: unexpected end of data"),
    ('a,b\n"x"y,t1\n', "line 2: ',' expected after '\"'"),  # text after a closing quote
    ('a,b\nx,t1\ry\n', "line 3: expected 2 fields, got 1"),  # a lone CR ends a line
    ('a,"b\nx,t1\n', "line 1: unexpected end of data"),  # in the header
    ('a,b\n"x\n\0",t1\n', "line 2: NUL character"),  # named by the line on which its row begins
], ids=["open-quote", "open-quote-in-10001-lines", "text-after-quote", "lone-cr", "header", "nul-in-quotes"])
def test_malformed_text_is_a_format_error_naming_the_line_its_row_begins_on(text, error):
    for chunk_lines in SPLIT_CHUNK_LINES:
        _assert_same_outcome(text, False, SPLIT_SCHEMA, chunk_lines)
        with chunks_of(chunk_lines, text):
            with pytest.raises(LogFormatError, match=f"^{re.escape(error)}$"):
                parse_log(text, SPLIT_SCHEMA)


def test_a_header_wider_than_the_field_budget_is_read_one_line_a_chunk():
    width = edbn.event_log._CHUNK_FIELDS + 1
    schema = AttributeSchema(("c0", "c1"), f"c{width - 1}")
    rows = [[f"v{j}"] * (width - 1) + [f"t{j % 2}"] for j in range(3)]
    text = csv_text([f"c{i}" for i in range(width)], rows)
    assert _assert_same_at_every_chunk_size(text, schema) == [
        ("t0", [("0", ("v0", "v0")), ("2", ("v2", "v2"))]), ("t1", [("1", ("v1", "v1"))])]
    assert _split_taken(text, schema, None) == [True] * 3


def test_a_lone_cr_ends_a_line_in_every_source():
    text = "a,b\nx,t1\ry,t2\r\nz,t1\r"
    assert _assert_same_at_every_chunk_size(text) == [("t1", [("0", ("x",)), ("2", ("z",))]), ("t2", [("1", ("y",))])]


def test_a_quoted_field_over_many_chunks_is_read_whole():
    # a one-line chunk on line 3 is doubled to 16 lines, past the closing quote on line 13;
    # the chunks from line 19 are split again
    text = "a,b\nx,t1\n" + '"' + "p\n" * 10 + '",t1\n' + "y,t2\n" * 20
    assert _assert_same_at_every_chunk_size(text) == [
        ("t1", [("0", ("x",)), ("1", (("p\n" * 10).strip(),))]), ("t2", [(str(i), ("y",)) for i in range(2, 22)])]
    assert _split_taken(text, SPLIT_SCHEMA, 1) == [True, False] + [True] * 15


@pytest.mark.parametrize("field", [60, 101])
def test_a_line_over_the_csv_field_limit_is_left_to_csv(field):
    # a 60-character field fits the limit of 100 and its 125-character line does not
    schema = AttributeSchema(("a", "c"), "b")
    text = "a,b,c\nx,t1,y\n" + "x" * field + ",t1," + "y" * 60 + "\nz,t2,w\n"
    limit = csv.field_size_limit(100)
    try:
        outcome = _assert_same_at_every_chunk_size(text, schema)
        assert (outcome[0] is LogFormatError) == (field > 100)
        assert _split_taken(text, schema, 1) == [True, False] + [True] * (field <= 100)
    finally:
        csv.field_size_limit(limit)


@pytest.mark.parametrize("lines", [
    ["a,b\n", "x,t1", "y,t1\n"],  # an item that does not end its line: csv ends the row there
    ["a,b\n", "x,", "t1\n"],
    ["a,b\n", "x,t1\ny,t1\n"],  # two lines in one item: csv fails
    ["a,b\n", "x\ny,t1\n"],  # as many delimiters as one line holds
    ["a,b\n", "x,t1", "c\nd,t2\n"],  # as many line breaks as items
    ["a,b\n", "x,t1\n", ""],  # an empty item: a blank row to csv
    ["a,b\n", "", "x,t1\n"],
])
def test_items_that_are_not_one_line_are_left_to_csv(lines):
    for chunk_lines in SPLIT_CHUNK_LINES:
        with chunks_of(chunk_lines, lines):
            assert _outcome(parse_log, lines, SPLIT_SCHEMA) == _outcome(reference_parse_log, lines, SPLIT_SCHEMA)


def test_a_line_break_as_the_delimiter_is_left_to_csv():
    # csv ends a row at a line break before it looks for a delimiter
    options = {"delimiter": "\n", "header": False, "column_names": ["a", "b"]}
    _assert_same_at_every_chunk_size("x\ny\n", **options)


# A split line's last field keeps its line break, which is stripped with the value's other whitespace.  The attribute
# is the last column under a "b,a" header and the trace id under "a,b"; either way the parse equals csv's.
_RESERVED = f"reserved token {PADDING!r} used as a value"


@pytest.mark.parametrize("text, outcome", [
    ("b,a\nt1,x  \nt1,x\nt2,y \t\n", [("t1", [("0", ("x",)), ("1", ("x",))]), ("t2", [("2", ("y",))])]),
    ("a,b\nx,t1  \ny,t1\nz, t2\t\n", [("t1", [("0", ("x",)), ("1", ("y",))]), ("t2", [("2", ("z",))])]),
    (f"b,a\nt1,x\nt1,{PADDING}\n", (LogFormatError, f"line 3: {_RESERVED}")),
    (f"b,a\nt1,x\nt2,y\nt1, {PADDING} \n", (LogFormatError, f"line 4: {_RESERVED}")),
    ("a,b\nx,t1\ny,\n", (LogFormatError, "line 3: empty trace id")),
    ("a,b\nx,t1\ny,t2\nz, \t\n", (LogFormatError, "line 4: empty trace id")),
    ("b,a\nt1,x\nt2,y", [("t1", [("0", ("x",))]), ("t2", [("1", ("y",))])]),
    ("a,b\nx,t1\ny,t2 ", [("t1", [("0", ("x",))]), ("t2", [("1", ("y",))])]),
    ("b,a\nt1,x\n\nt1,y\n\n\nt2,z\n", [("t1", [("0", ("x",)), ("1", ("y",))]), ("t2", [("2", ("z",))])]),
    ("b,a\nt1,x\n\n\nt1,\n", [("t1", [("0", ("x",)), ("1", ("",))])]),
], ids=["attribute-trailing-spaces", "trace-id-trailing-spaces", "reserved-token", "padded-reserved-token",
        "empty-trace-id", "blank-trace-id", "attribute-last-line-unbroken", "trace-id-last-line-unbroken",
        "blank-lines-between-rows", "empty-last-value-after-blank-lines"])
def test_the_last_column_keeps_its_line_break_until_it_is_stripped(text, outcome):
    assert _assert_same_at_every_chunk_size(text) == outcome
    # every chunk is split but the one of an unbroken last line, which csv reads
    for chunk_lines in SPLIT_CHUNK_LINES:
        taken = _split_taken(text, SPLIT_SCHEMA, chunk_lines)
        assert all(taken[:-1]) and taken[-1] == text.endswith("\n")


def _outgrowing_text():
    """A grouped 2000-row log: ``wide`` takes 200 values over its first 1500 rows and then a new one
    per row, so its 257th value first appears on line 1558, past the first chunk at every budget
    tested (1365 lines at the default); ``unique`` takes a new value at every row."""
    rows = [(f"v{j % 200 if j < 1500 else j}", f"u{j}", f"t{j // 5}") for j in range(2000)]
    return csv_text(("wide", "unique", "tid"), rows)


@pytest.mark.parametrize("chunk_lines", [1, 2, 3, 4, None])
def test_columns_that_outgrow_a_byte_parse_to_the_reference_codes_in_four_bytes(chunk_lines):
    # each column's codes are bytes until its 257th value, then widened by value to 4 bytes
    text, schema = _outgrowing_text(), AttributeSchema(("wide", "unique"), "tid")
    with chunks_of(chunk_lines, text):
        log = parse_log(text, schema)
    reference = reference_parse_log(text, schema)
    assert log.vocabularies == reference.vocabularies
    assert [len(vocab) for vocab in log.vocabularies] == [700, 2000]
    for codes, expected in zip(log.codes, reference.codes):
        assert isinstance(codes, memoryview) and (codes.format, codes.itemsize, codes.readonly) == ("I", 4, True)
        assert list(codes) == list(expected)


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


def test_generating_and_serializing_a_log_build_no_events(counted_events):
    log = generate(default_shipping_model(), 30, 5)
    for each in (log, inject_anomalies(log, 0.5, 6).log):
        assert serialize_log(each).count("\n") == each.event_count + 1
    assert counted_events == []


def test_training_and_scoring_a_parsed_log_build_no_events(tmp_path, counted_events, capsys):
    process = default_shipping_model()
    write_log(generate(process, 60, 5), tmp_path / "train.csv")
    write_log(generate(process, 20, 6), tmp_path / "test.csv")
    counted_events.clear()
    assert main(["train", "--log", str(tmp_path / "train.csv"), "--trace-col", "case_id",
                 "--out", str(tmp_path / "model.json")]) == 0
    assert main(["score", "--model", str(tmp_path / "model.json"), "--log", str(tmp_path / "test.csv"),
                 "--out", str(tmp_path / "ranking.csv"), "--explain", "3"]) == 0
    schema = AttributeSchema(process.attributes, process.trace_id_column, event_id_column="event_id")
    log = load_log(tmp_path / "test.csv", schema)
    ranking = rank_traces(learn_edbn(load_log(tmp_path / "train.csv", schema), 1), log)
    assert len(ranking) == 20 and counted_events == []
    # the traces, built on first read, equal those of the row-by-row parser
    assert log.traces == reference_load_log(tmp_path / "test.csv", schema).traces
    assert len(counted_events) == 2 * log.event_count
