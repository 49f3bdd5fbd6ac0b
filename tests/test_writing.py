"""Log and labels writers: the text against csv.writer's, and all-or-nothing files.

``serialize_log`` and ``write_log`` join rows from a log's codes, each distinct
value rendered once; these tests hold that text to what csv.writer writes for
the decoded rows.  ``write_text`` writes a file all or nothing: a failure at any
block write leaves the target with its old bytes, or absent, and no temporary
file behind.
"""
import csv
import io
import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbn import (
    AttributeSchema,
    Event,
    EventLog,
    Trace,
    cli,
    default_shipping_model,
    event_log,
    generate,
    inject_anomalies,
    serialize_log,
    write_log,
)
from edbn.synth import serialize_labels, write_labels

DELIMITERS = [",", "\t", ";", "1", "t"]  # generated event ids hold 1, and trace ids t
AWKWARD = ["a,b", 'say "hi"', '"', "two\nlines", "cr\rhere", "crlf\r\n", "", " edge ", "é ü 中", "tab\there",
           "semi;colon", "1", "t", "nul\0"]


def _csv_writer_text(log: EventLog, delimiter: str) -> str:
    """What csv.writer writes for the log's header and decoded rows, each ended by LF."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow([log.schema.trace_id_column, "event_id", *log.schema.names])
    writer.writerows([t.trace_id, e.id, *e.values] for t in log.traces for e in t.events)
    return out.getvalue()


def _log(rows, names=("A", "B"), trace_col="case") -> EventLog:
    """A log of rows (trace id, event id, values...), each trace's rows together."""
    traces = itertools.groupby(rows, key=lambda row: row[0])
    return EventLog(AttributeSchema(names, trace_col),
                    [Trace(t, tuple(Event(r[1], tuple(r[2:])) for r in group)) for t, group in traces])


@pytest.mark.parametrize("delimiter", DELIMITERS, ids=repr)
def test_awkward_values_are_written_as_csv_writer_writes_them(delimiter):
    rows = sorted([(f"t{i % 3}", f"e{i}", value, AWKWARD[-1 - i]) for i, value in enumerate(AWKWARD)])
    log = _log(rows, names=("A,1", 'q"t'), trace_col="case\nid")
    assert serialize_log(log, delimiter=delimiter) == _csv_writer_text(log, delimiter)


@pytest.mark.parametrize("delimiter", DELIMITERS, ids=repr)
def test_trace_and_event_ids_are_written_as_csv_writer_writes_them(delimiter):
    rows = [(trace, event, "x", "y") for trace, event in
            [("t1", "1"), ("t1", "a,b"), ("", " "), ("q\"", "\r"), ("é", "line\nbreak"), ("é", "")]]
    log = _log(rows)
    assert serialize_log(log, delimiter=delimiter) == _csv_writer_text(log, delimiter)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["t1", "t,2", 't"3']), st.text(st.sampled_from('ab,;"\t\n\r 1té'),
                                                                              max_size=5),
                          st.text(st.sampled_from('ab,;"\t\n\r 1té\0'), max_size=5)), min_size=1, max_size=12),
       st.sampled_from(DELIMITERS))
def test_drawn_values_are_written_as_csv_writer_writes_them(cells, delimiter):
    rows = [(trace, f"e{i}", a, b) for i, (trace, a, b) in enumerate(sorted(cells, key=lambda cell: cell[0]))]
    log = _log(rows)
    assert serialize_log(log, delimiter=delimiter) == _csv_writer_text(log, delimiter)


@pytest.mark.parametrize("delimiter", DELIMITERS, ids=repr)
def test_write_log_writes_csv_writers_text_and_decodes_nothing_onto_the_log(delimiter, tmp_path):
    generated = generate(default_shipping_model(), 60, 5)  # named by data row
    injected = inject_anomalies(generate(default_shipping_model(), 30, 6), 0.3, 7).log  # holds its event ids
    for name, log in (("generated", generated), ("injected", injected)):
        held = set(log.__dict__)
        assert "columns" not in held and ("event_ids" in held) == (name == "injected")
        write_log(log, tmp_path / name, delimiter=delimiter)
        assert set(log.__dict__) == held  # no columns, event ids or traces decoded onto the log
        expected = _csv_writer_text(log, delimiter)
        assert (tmp_path / name).read_bytes() == expected.encode("utf-8")
        assert serialize_log(log, delimiter=delimiter) == expected


def test_serialize_log_decodes_no_columns_or_event_ids_onto_a_log_named_by_data_row():
    log = generate(default_shipping_model(), 40, 3)
    serialize_log(log, delimiter="1")
    assert {"columns", "event_ids", "traces"}.isdisjoint(log.__dict__)


def test_a_log_of_no_traces_is_its_header_alone():
    log = EventLog(AttributeSchema(("A", "B"), "case"), [])
    assert serialize_log(log, delimiter="t") == _csv_writer_text(log, "t") == 'caset"event_id"tAtB\n'


# --- all-or-nothing files ----------------------------------------------------


def _failing_open(fail_at: int):
    """open, whose files' ``fail_at``-th write (from 0) writes half its text and raises OSError."""
    def failing(*args, **kwargs):
        fh = open(*args, **kwargs)
        write, count = fh.write, itertools.count()

        def write_or_fail(text):
            if next(count) == fail_at:
                write(text[: len(text) // 2])
                raise OSError(28, "No space left on device")
            return write(text)
        fh.write = write_or_fail
        return fh
    return failing


@pytest.mark.parametrize("old", [None, b"case_id,event_id\nan older file\n"], ids=["absent", "present"])
def test_write_log_leaves_old_bytes_or_nothing_at_a_failure_of_any_block_write(old, tmp_path, monkeypatch):
    monkeypatch.setattr(event_log, "_BLOCK_ROWS", 50)
    log = generate(default_shipping_model(), 40, 3)
    blocks = len(list(event_log._log_blocks(log, ",")))
    assert blocks > 5
    target = tmp_path / "log.csv"
    for fail_at in range(blocks):
        if old is not None:
            target.write_bytes(old)
        with monkeypatch.context() as patch:
            patch.setattr(event_log, "open", _failing_open(fail_at), raising=False)
            with pytest.raises(OSError, match="No space left"):
                write_log(log, target)
        assert (target.read_bytes() if target.exists() else None) == old
        assert os.listdir(tmp_path) == ([] if old is None else ["log.csv"])
        target.unlink(missing_ok=True)
    write_log(log, target)
    assert target.read_text(encoding="utf-8") == serialize_log(log)
    assert os.listdir(tmp_path) == ["log.csv"]


def test_a_failed_replace_leaves_the_old_file_and_no_temporary_one(tmp_path, monkeypatch):
    target = tmp_path / "log.csv"
    target.write_bytes(b"old")

    def fail(*args):
        raise PermissionError(13, "Permission denied")
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(PermissionError):
        write_log(generate(default_shipping_model(), 5, 1), target)
    assert target.read_bytes() == b"old" and os.listdir(tmp_path) == ["log.csv"]


def test_write_labels_leaves_old_bytes_at_a_failed_write(tmp_path, monkeypatch):
    labeled = inject_anomalies(generate(default_shipping_model(), 20, 2), 0.5, 3)
    target = tmp_path / "labels.csv"
    target.write_bytes(b"old")
    with monkeypatch.context() as patch:
        patch.setattr(event_log, "open", _failing_open(0), raising=False)
        with pytest.raises(OSError):
            write_labels(labeled, target)
    assert target.read_bytes() == b"old" and os.listdir(tmp_path) == ["labels.csv"]
    write_labels(labeled, target)
    assert target.read_text(encoding="utf-8") == serialize_labels(labeled)
    assert os.listdir(tmp_path) == ["labels.csv"]


def test_written_files_take_the_permissions_of_a_plainly_opened_file(tmp_path):
    (tmp_path / "plain").touch()
    write_log(generate(default_shipping_model(), 3, 1), tmp_path / "log.csv")
    assert os.stat(tmp_path / "log.csv").st_mode == os.stat(tmp_path / "plain").st_mode


def test_cli_generate_streams_its_log_and_keeps_old_files_at_a_failed_write(tmp_path, monkeypatch, capsys):
    out, labels = tmp_path / "log.csv", tmp_path / "labels.csv"
    argv = ["generate", "--out", str(out), "--labels", str(labels), "--n-traces", "300", "--fraction", "0.1",
            "--seed", "4", "--delimiter", "\\t"]
    out.write_bytes(b"old log")
    labels.write_bytes(b"old labels")
    with monkeypatch.context() as patch:
        patch.setattr(event_log, "open", _failing_open(1), raising=False)
        assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error in write: [Errno 28] No space left on device\n"
    assert (out.read_bytes(), labels.read_bytes()) == (b"old log", b"old labels")
    assert sorted(os.listdir(tmp_path)) == ["labels.csv", "log.csv"]
    assert cli.main(argv) == 0
    labeled = inject_anomalies(generate(default_shipping_model(), 300, 4), 0.1, 5)
    assert out.read_text(encoding="utf-8") == serialize_log(labeled.log, delimiter="\t")
    assert labels.read_text(encoding="utf-8") == serialize_labels(labeled)
    assert sorted(os.listdir(tmp_path)) == ["labels.csv", "log.csv"]
