"""Log and labels writers: the text against csv.writer's, every written file read back, and all-or-nothing files.

``serialize_log`` and ``write_log`` join rows from a log's codes, each distinct
value rendered once; these tests hold that text to what csv.writer writes for
the decoded rows with CRLF as its line terminator, so that it also quotes a
field holding a lone CR, each row then ended by LF.  That is csv.writer's own
text, as Python 3.11 writes it with LF, for every field without a lone CR.
Every log and labels file written reads back to the values it was written
from.  ``write_text`` writes every output file all or nothing: a failure at
any write of a command leaves each of its targets with its old bytes, or
absent, and no temporary file behind.  A rewritten file keeps its permission
bits, and a symbolic link stays a link to the file that gets the bytes.
"""
import csv
import io
import itertools
import os
import re
import stat

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
    learn_edbn,
    load_log,
    serialize_log,
    write_log,
    write_model,
)
from edbn.synth import ANOMALOUS, NORMAL, LabeledLog, Mutation, read_labels, serialize_labels, write_labels

DELIMITERS = [",", "\t", ";", "1", "t"]  # generated event ids hold 1, and trace ids t
AWKWARD = ["a,b", 'say "hi"', '"', "two\nlines", "cr\rhere", "crlf\r\n", "", " edge ", "é ü 中", "tab\there",
           "semi;colon", "1", "t", "nul\0"]


def _csv_writer_text(log: EventLog, delimiter: str) -> str:
    """What csv.writer writes for the log's header and decoded rows, quoting a field that holds CR as well,
    each row ended by LF: for a row without a lone CR, the text csv.writer writes with LF as its terminator."""
    rows = [[log.schema.trace_id_column, "event_id", *log.schema.names],
            *([t.trace_id, e.id, *e.values] for t in log.traces for e in t.events)]
    return "".join(_csv_writer_row(row, delimiter) for row in rows)


def _csv_writer_row(row, delimiter: str) -> str:
    texts = []
    for terminator in ("\r\n", "\n"):  # a terminator's characters are quoted in a field
        out = io.StringIO()
        csv.writer(out, delimiter=delimiter, lineterminator=terminator).writerow(row)
        texts.append(out.getvalue()[: -len(terminator)] + "\n")
    if not any(map(_LONE_CR.search, row)):
        assert texts[0] == texts[1]
    return texts[0]


_LONE_CR = re.compile("\r(?!\n)")


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


# --- every written file reads back -------------------------------------------

_READ_BACK_VALUES = st.text(st.sampled_from('ab,;"\t\n\r 1té'), max_size=5)  # as drawn above, without NUL


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["t1", "t,2", 't"3']), _READ_BACK_VALUES, _READ_BACK_VALUES),
                min_size=1, max_size=12))
def test_every_written_log_reads_back_with_each_delimiter(tmp_path_factory, cells):
    rows = [(trace, f"e{i}", a, b) for i, (trace, a, b) in enumerate(sorted(cells, key=lambda cell: cell[0]))]
    log = _log(rows)
    schema = AttributeSchema(("A", "B"), "case", event_id_column="event_id")
    path = tmp_path_factory.mktemp("logs") / "log.csv"
    for delimiter in DELIMITERS:
        write_log(log, path, delimiter=delimiter)
        read = load_log(path, schema, delimiter=delimiter)  # parse_log strips every field
        assert [(t.trace_id, [(e.id, e.values) for e in t.events]) for t in read.traces] == [
            (t.trace_id, [(e.id, tuple(v.strip() for v in e.values)) for e in t.events]) for t in log.traces]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_READ_BACK_VALUES, st.sampled_from([NORMAL, ANOMALOUS]), _READ_BACK_VALUES),
                min_size=1, max_size=8, unique_by=lambda cell: cell[0]))
def test_every_written_labels_file_reads_back(tmp_path_factory, cells):
    log = _log([(trace, f"e{i}", "x", "y") for i, (trace, _, _) in enumerate(cells)])
    details = {trace: (Mutation("fresh_value", 0, "A", value),) for trace, label, value in cells if label == ANOMALOUS}
    labeled = LabeledLog(log, {trace: label for trace, label, _ in cells}, details)
    path = tmp_path_factory.mktemp("labels") / "labels.csv"
    write_labels(labeled, path)
    assert read_labels(path) == labeled.labels
    with open(path, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh, strict=True)) == [["trace_id", "label", "details"], *(
            [trace, label, f"fresh_value@0:A={value}" if label == ANOMALOUS else ""] for trace, label, value in cells)]


@pytest.mark.parametrize("delimiter", [";;", ""], ids=repr)
def test_a_delimiter_no_reader_accepts_is_rejected_before_any_file_is_created(delimiter, tmp_path, monkeypatch,
                                                                               capsys):
    opened = []
    monkeypatch.setattr(event_log, "open", lambda *args, **kwargs: opened.append(args), raising=False)
    log = generate(default_shipping_model(), 3, 1)
    for write in (serialize_log, lambda log, delimiter: write_log(log, tmp_path / "log.csv", delimiter=delimiter)):
        with pytest.raises(ValueError, match='^"delimiter" must be a 1-character string$'):
            write(log, delimiter=delimiter)
    argv = ["generate", "--out", str(tmp_path / "log.csv"), "--n-traces", "3", "--delimiter", delimiter]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == 'error in write: "delimiter" must be a 1-character string\n'
    assert opened == [] and os.listdir(tmp_path) == []


# --- all-or-nothing files ----------------------------------------------------


def _failing_open(fail_at: int):
    """open, whose ``fail_at``-th write (from 0, counted over every file it opens) writes half its text and
    raises OSError."""
    count = itertools.count()

    def failing(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

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


def test_a_rewritten_file_keeps_its_permission_bits(tmp_path):
    log = generate(default_shipping_model(), 3, 1)
    for mode in (0o600, 0o640, 0o444):
        target = tmp_path / "log.csv"
        target.write_bytes(b"old")
        os.chmod(target, mode)
        write_log(log, target)
        assert stat.S_IMODE(os.stat(target).st_mode) == mode
        assert target.read_text(encoding="utf-8") == serialize_log(log)
        assert os.listdir(tmp_path) == ["log.csv"]
        os.chmod(target, 0o600)
        target.unlink()


@pytest.mark.parametrize("dangling", [False, True], ids=["to-a-file", "dangling"])
def test_a_symbolic_link_stays_a_link_and_the_file_it_names_gets_the_bytes(dangling, tmp_path):
    (tmp_path / "data").mkdir()
    named, link = tmp_path / "data" / "log.csv", tmp_path / "link.csv"
    if not dangling:
        named.write_bytes(b"old")
        os.chmod(named, 0o600)
    link.symlink_to(os.path.join("data", "log.csv"))
    log = generate(default_shipping_model(), 3, 1)
    write_log(log, link)
    assert link.is_symlink() and os.readlink(link) == os.path.join("data", "log.csv")
    assert named.read_text(encoding="utf-8") == serialize_log(log)
    assert sorted(os.listdir(tmp_path)) == ["data", "link.csv"] and os.listdir(tmp_path / "data") == ["log.csv"]
    if not dangling:
        assert stat.S_IMODE(os.stat(named).st_mode) == 0o600


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


def test_a_write_into_a_missing_directory_names_the_target_and_leaves_nothing(tmp_path, capsys):
    out = tmp_path / "nodir" / "x.csv"
    assert cli.main(["generate", "--out", str(out), "--n-traces", "3"]) == 1
    assert capsys.readouterr().err == f"error in write: [Errno 2] No such file or directory: {str(out)!r}\n"
    assert os.listdir(tmp_path) == []


def test_a_target_that_is_a_directory_is_named_and_keeps_its_contents(tmp_path):
    (tmp_path / "log.csv").mkdir()
    (tmp_path / "log.csv" / "inside").write_bytes(b"kept")
    with pytest.raises(IsADirectoryError) as failed:
        write_log(generate(default_shipping_model(), 3, 1), tmp_path / "log.csv")
    assert str(failed.value) == f"[Errno 21] Is a directory: {str(tmp_path / 'log.csv')!r}"
    assert os.listdir(tmp_path) == ["log.csv"] and os.listdir(tmp_path / "log.csv") == ["inside"]


def test_write_model_leaves_old_bytes_or_nothing_at_a_failed_write(tmp_path, monkeypatch):
    model = learn_edbn(generate(default_shipping_model(), 30, 1), 1)
    target = tmp_path / "model.json"
    for old in (None, b"old"):
        if old is not None:
            target.write_bytes(old)
        with monkeypatch.context() as patch:
            patch.setattr(event_log, "open", _failing_open(0), raising=False)
            with pytest.raises(OSError, match="No space left"):
                write_model(model, target)
        assert (target.read_bytes() if target.exists() else None) == old
        assert os.listdir(tmp_path) == ([] if old is None else ["model.json"])
    write_model(model, target)
    assert os.listdir(tmp_path) == ["model.json"]


def _assert_each_failed_write_keeps_its_target(argv, targets, stage, tmp_path, monkeypatch, capsys):
    """Runs the command whole, then again failing at each of its writes in turn (the second file's among them),
    over old files and over none: the command reports the failure as an error in ``stage``, every target keeps
    its old bytes, or stays absent, and no other file is left in the directory; then the command run whole
    writes every target."""
    inputs = set(os.listdir(tmp_path))
    assert cli.main(argv) == 0
    written = [target.read_bytes() for target in targets]
    for old in (None, b"old"):
        for fail_at in range(len(targets)):
            for target in targets:
                target.unlink(missing_ok=True)
                if old is not None:
                    target.write_bytes(old)
            with monkeypatch.context() as patch:
                patch.setattr(event_log, "open", _failing_open(fail_at), raising=False)
                assert cli.main(argv) == 1
            assert capsys.readouterr().err == f"error in {stage}: [Errno 28] No space left on device\n"
            assert [target.read_bytes() if target.exists() else None for target in targets] == [old] * len(targets)
            present = targets if old is not None else []
            assert sorted(os.listdir(tmp_path)) == sorted(inputs | {target.name for target in present})
        assert cli.main(argv) == 0
        assert [target.read_bytes() for target in targets] == written


@pytest.fixture
def shipping_files(tmp_path):
    """A training log, a labeled test log and a model learned from the training log, in tmp_path."""
    train = generate(default_shipping_model(), 60, 1)
    write_log(train, tmp_path / "train.csv")
    write_model(learn_edbn(train, 1), tmp_path / "model.json")
    labeled = inject_anomalies(generate(default_shipping_model(), 20, 2), 0.3, 3)
    write_log(labeled.log, tmp_path / "test.csv")
    write_labels(labeled, tmp_path / "labels.csv")
    return tmp_path


def test_cli_score_keeps_each_old_file_at_a_failed_write(shipping_files, monkeypatch, capsys):
    out = shipping_files / "ranking.csv"
    argv = ["score", "--model", str(shipping_files / "model.json"), "--log", str(shipping_files / "test.csv"),
            "--out", str(out), "--explain", "3"]
    targets = [out, shipping_files / "ranking.csv.explain.txt"]
    _assert_each_failed_write_keeps_its_target(argv, targets, "write", shipping_files, monkeypatch, capsys)


def test_cli_train_keeps_the_old_model_file_at_a_failed_write(shipping_files, monkeypatch, capsys):
    argv = ["train", "--log", str(shipping_files / "train.csv"), "--trace-col", "case_id",
            "--out", str(shipping_files / "trained.json")]
    _assert_each_failed_write_keeps_its_target(argv, [shipping_files / "trained.json"], "write-model", shipping_files,
                                               monkeypatch, capsys)


def test_cli_evaluate_keeps_each_old_file_at_a_failed_write(shipping_files, monkeypatch, capsys):
    out = shipping_files / "eval"
    argv = ["evaluate", "--train-log", str(shipping_files / "train.csv"), "--log", str(shipping_files / "test.csv"),
            "--labels", str(shipping_files / "labels.csv"), "--trace-col", "case_id", "--out", str(out)]
    targets = [shipping_files / f"eval.{name}" for name in ("report.txt", "curve.csv", "scores.csv")]
    _assert_each_failed_write_keeps_its_target(argv, targets, "write", shipping_files, monkeypatch, capsys)


@pytest.mark.parametrize("command", ["score", "evaluate"])
def test_cli_score_and_evaluate_report_a_missing_directory_as_an_error_in_write(command, shipping_files, capsys):
    out, inputs = shipping_files / "nodir" / "out", sorted(os.listdir(shipping_files))
    if command == "score":
        argv = ["score", "--model", str(shipping_files / "model.json"), "--log", str(shipping_files / "test.csv"),
                "--out", str(out), "--explain", "3"]
        first = out
    else:
        argv = ["evaluate", "--train-log", str(shipping_files / "train.csv"), "--log", str(shipping_files / "test.csv"),
                "--labels", str(shipping_files / "labels.csv"), "--trace-col", "case_id", "--out", str(out)]
        first = shipping_files / "nodir" / "out.report.txt"
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error in write: [Errno 2] No such file or directory: {str(first)!r}\n"
    assert sorted(os.listdir(shipping_files)) == inputs
