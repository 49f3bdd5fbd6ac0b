import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import edbn
from edbn import default_shipping_model, event_log, generate, inject_anomalies, read_model, write_log
from edbn.cli import main

from conftest import PERMISSION_ROWS_FULL, PERMISSION_ROWS

SCHEMA_FLAGS = ["--trace-col", "tID", "--attrs", "Type,Activity,UserID,UserName,UserRole"]


def _child_env():
    """The environment of a child Python that imports the edbn these tests import."""
    paths = [str(Path(edbn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


@pytest.fixture()
def permission_file(tmp_path):
    path = tmp_path / "normal.csv"
    path.write_text(PERMISSION_ROWS, encoding="utf-8")
    return path


@pytest.fixture()
def permission_full_file(tmp_path):
    path = tmp_path / "full.csv"
    path.write_text(PERMISSION_ROWS_FULL, encoding="utf-8")
    return path


def test_train_writes_model_and_prints_fds(tmp_path, permission_file, capsys):
    model_path = tmp_path / "model.json"
    code = main(["train", "--log", str(permission_file), "--out", str(model_path), *SCHEMA_FLAGS])
    out = capsys.readouterr().out
    assert code == 0
    assert model_path.exists()
    assert "FD: UserID_0 -> UserRole_0" in out
    assert "new_value(UserRole) = 1/5" in out


def test_train_empty_log_fails(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    code = main(["train", "--log", str(path), *SCHEMA_FLAGS])
    err = capsys.readouterr().err
    assert code != 0
    assert "empty log" in err


def test_train_k2_has_fifteen_variables(tmp_path, permission_file):
    model_path = tmp_path / "model.json"
    code = main(
        ["train", "--log", str(permission_file), "--out", str(model_path), "--k", "2", *SCHEMA_FLAGS]
    )
    assert code == 0
    model = read_model(model_path)
    assert len(model.variables) == 15  # 3 slices x 5 attributes


def test_score_ranks_trace4_first(tmp_path, permission_file, permission_full_file, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--log", str(permission_file), "--out", str(model_path), *SCHEMA_FLAGS])
    capsys.readouterr()
    out_path = tmp_path / "ranking.csv"
    code = main(
        ["score", "--model", str(model_path), "--log", str(permission_full_file),
         "--out", str(out_path), "--explain", "1"]
    )
    printed = capsys.readouterr().out
    assert code == 0
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "trace_id,score,event_count"
    assert lines[1].startswith("4,0.0,5")
    assert "UserRole fd from UserID_0 = 0.0" in printed
    assert (tmp_path / "ranking.csv.explain.txt").exists()


def test_scoring_training_log_gives_positive_scores(tmp_path, permission_file, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--log", str(permission_file), "--out", str(model_path), *SCHEMA_FLAGS])
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--log", str(permission_file)])
    out = capsys.readouterr().out
    assert code == 0
    scores = [float(line.split(",")[1]) for line in out.splitlines()[1:4]]
    assert all(s > 0 for s in scores)


def test_score_schema_mismatch_fails(tmp_path, permission_file, capsys):
    model_path = tmp_path / "model.json"
    main(["train", "--log", str(permission_file), "--out", str(model_path), *SCHEMA_FLAGS])
    capsys.readouterr()
    other = tmp_path / "other.csv"
    other.write_text("foo,tID\nx,1\n", encoding="utf-8")
    code = main(["score", "--model", str(model_path), "--log", str(other)])
    err = capsys.readouterr().err
    assert code != 0 and "error in parse" in err


def test_generate_labels_file_counts(tmp_path, capsys):
    log_path = tmp_path / "log.csv"
    labels_path = tmp_path / "labels.csv"
    code = main(
        ["generate", "--out", str(log_path), "--labels", str(labels_path),
         "--n-traces", "1000", "--fraction", "0.01", "--seed", "7"]
    )
    assert code == 0
    rows = labels_path.read_text(encoding="utf-8").splitlines()[1:]
    anomalous = [r for r in rows if r.split(",")[1] == "anomalous"]
    assert len(rows) == 1000 and len(anomalous) == 10


def test_generate_is_byte_identical(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (first, second):
        assert main(
            ["generate", "--out", str(path), "--n-traces", "50", "--fraction", "0.1", "--seed", "3"]
        ) == 0
    assert first.read_bytes() == second.read_bytes()


def test_evaluate_reports_auc(tmp_path, capsys):
    train_path = tmp_path / "train.csv"
    test_path = tmp_path / "test.csv"
    labels_path = tmp_path / "labels.csv"
    main(["generate", "--out", str(train_path), "--n-traces", "1500", "--seed", "11"])
    main(
        ["generate", "--out", str(test_path), "--labels", str(labels_path),
         "--n-traces", "1000", "--fraction", "0.01", "--seed", "7"]
    )
    capsys.readouterr()
    code = main(
        ["evaluate", "--train-log", str(train_path), "--log", str(test_path),
         "--labels", str(labels_path), "--trace-col", "case_id",
         "--out", str(tmp_path / "eval")]
    )
    out = capsys.readouterr().out
    assert code == 0
    auc_value = float(out.split("auc:")[1].strip())
    assert auc_value >= 0.95
    assert (tmp_path / "eval.report.txt").exists()
    curve = (tmp_path / "eval.curve.csv").read_text(encoding="utf-8")
    assert curve.startswith("recall,precision")
    assert (tmp_path / "eval.scores.csv").exists()


def test_evaluate_single_class_labels_fails(tmp_path, capsys):
    train_path = tmp_path / "train.csv"
    test_path = tmp_path / "test.csv"
    labels_path = tmp_path / "labels.csv"
    main(["generate", "--out", str(train_path), "--n-traces", "30", "--seed", "1"])
    main(
        ["generate", "--out", str(test_path), "--labels", str(labels_path),
         "--n-traces", "30", "--fraction", "0.0", "--seed", "2"]
    )
    capsys.readouterr()
    code = main(
        ["evaluate", "--train-log", str(train_path), "--log", str(test_path),
         "--labels", str(labels_path), "--trace-col", "case_id"]
    )
    err = capsys.readouterr().err
    assert code != 0 and "error in evaluate" in err


@pytest.mark.parametrize("edit, message", [
    (lambda text: text + "zzz,anomalous,\n", "trace 'zzz' is labeled but not in the log"),
    (lambda text: text.replace("\nt0001,", "\nt0001x,"), "trace 't0001' has no label"),
], ids=["extra row", "mistyped id"])
def test_evaluate_rejects_labels_that_do_not_match_the_log(tmp_path, capsys, edit, message):
    train_path, test_path, labels_path = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "labels.csv"
    main(["generate", "--out", str(train_path), "--n-traces", "30", "--seed", "1"])
    main(["generate", "--out", str(test_path), "--labels", str(labels_path),
          "--n-traces", "30", "--fraction", "0.2", "--seed", "2"])
    labels_path.write_text(edit(labels_path.read_text(encoding="utf-8")), encoding="utf-8")
    capsys.readouterr()
    code = main(["evaluate", "--train-log", str(train_path), "--log", str(test_path),
                 "--labels", str(labels_path), "--trace-col", "case_id"])
    assert (code, capsys.readouterr().err) == (1, f"error in label: {message}\n")


def test_module_entry_point_runs(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "edbn", "generate", "--out", str(tmp_path / "x.csv"),
         "--n-traces", "5", "--seed", "1"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0
    assert (tmp_path / "x.csv").exists()


SCORE_WITHOUT_NUMPY = """
import sys
from edbn import AttributeSchema, explain, load_log, read_model, score_prefix
from edbn.cli import main

model_path, log_path, out = sys.argv[1:]
assert main(["score", "--model", model_path, "--log", log_path, "--out", out, "--explain", "3"]) == 0
model = read_model(model_path)
trace = load_log(log_path, AttributeSchema(model.schema.names, "case_id")).traces[0]
assert explain(score_prefix(model, trace.events[:2], trace.trace_id), 3)
assert "numpy" not in sys.modules, "scoring loaded numpy"
"""


def test_scoring_never_loads_numpy(tmp_path, capsys):
    # numpy adds about 13 MB to a process that only loads models and scores logs
    process = default_shipping_model()
    write_log(generate(process, 60, 5), tmp_path / "train.csv")
    write_log(inject_anomalies(generate(process, 20, 6), 0.2, 7).log, tmp_path / "test.csv")
    assert main(["train", "--log", str(tmp_path / "train.csv"), "--trace-col", "case_id",
                 "--out", str(tmp_path / "model.json")]) == 0
    result = subprocess.run(
        [sys.executable, "-c", SCORE_WITHOUT_NUMPY, str(tmp_path / "model.json"), str(tmp_path / "test.csv"),
         str(tmp_path / "ranking.csv")],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "ranking.csv.explain.txt").read_text(encoding="utf-8").count("event") == 3 * 20


def test_invalid_flag_values_fail(permission_file, capsys):
    code = main(["train", "--log", str(permission_file), "--k", "0", *SCHEMA_FLAGS])
    assert code != 0
    capsys.readouterr()
    code = main(["train", "--log", str(permission_file), "--fd-threshold", "1.5", *SCHEMA_FLAGS])
    assert code != 0
    capsys.readouterr()

def test_main_reuses_one_parser_across_calls_and_failed_parses(tmp_path, permission_file, permission_full_file,
                                                              capsys, monkeypatch):
    model_path, ranking = tmp_path / "m.json", tmp_path / "ranking.csv"
    assert main(["train", "--log", str(permission_file), "--out", str(model_path), *SCHEMA_FLAGS]) == 0
    monkeypatch.setattr(edbn.cli, "_build_parser", None)  # main must not build another parser
    argv = ["score", "--model", str(model_path), "--log", str(permission_full_file), "--out", str(ranking),
            "--explain", "2", *SCHEMA_FLAGS]
    outputs = []
    for bad in (None, ["score", "--model", str(model_path)], ["score", "--no-such-flag"], None):
        if bad is not None:
            with pytest.raises(SystemExit) as failed:
                main(bad)
            assert failed.value.code == 2
            assert "error:" in capsys.readouterr().err
            continue
        capsys.readouterr()
        assert main(argv) == 0
        outputs.append((capsys.readouterr(), ranking.read_bytes(), Path(f"{ranking}.explain.txt").read_bytes()))
    assert outputs[0] == outputs[1]


def test_headerless_tab_delimited_train(tmp_path, capsys):
    path = tmp_path / "plain.tsv"
    rows = [["a", "u", "1"], ["b", "v", "1"], ["a", "u", "2"], ["b", "v", "2"]]
    path.write_text("\n".join("\t".join(r) for r in rows) + "\n", encoding="utf-8")
    code = main(
        ["train", "--log", str(path), "--no-header", "--delimiter", "\\t",
         "--attrs", "A,B,tid", "--trace-col", "tid"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "trained on 4 events in 2 traces" in out


def test_train_output_is_reproducible(tmp_path, permission_file, capsys):
    first, second = tmp_path / "m1.json", tmp_path / "m2.json"
    for path in (first, second):
        assert main(["train", "--log", str(permission_file), "--out", str(path), *SCHEMA_FLAGS]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_explain_flag_must_be_positive(tmp_path, permission_file, capsys):
    model_path = tmp_path / "m.json"
    main(["train", "--log", str(permission_file), "--out", str(model_path), *SCHEMA_FLAGS])
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--log", str(permission_file), "--explain", "0"])
    assert code != 0
    assert "--explain" in capsys.readouterr().err


def test_generate_with_custom_process_model(tmp_path, capsys):
    import json

    doc = {
        "name": "toy",
        "trace_id_column": "case",
        "attributes": ["activity"],
        "activity_attribute": "activity",
        "start_activity": "start",
        "end_activities": ["finish"],
        "transitions": {"start": {"finish": 1.0}},
        "rules": {},
    }
    model_path = tmp_path / "toy.json"
    model_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "toy.csv"
    code = main(
        ["generate", "--out", str(out), "--process-model", str(model_path),
         "--n-traces", "4", "--seed", "0"]
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "case,event_id,activity"
    assert len(lines) == 1 + 8  # four two-event traces


def test_explanations_name_the_logs_event_ids(tmp_path, capsys):
    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    model = tmp_path / "model.json"
    main(["generate", "--out", str(train), "--n-traces", "300", "--seed", "11"])
    main(["generate", "--out", str(test), "--n-traces", "40", "--fraction", "0.5", "--seed", "7"])
    main(["train", "--log", str(train), "--trace-col", "case_id", "--out", str(model)])
    capsys.readouterr()
    ids_of = {}
    for line in test.read_text(encoding="utf-8").splitlines()[1:]:
        case, event_id = line.split(",")[:2]
        ids_of.setdefault(case, set()).add(event_id)
    # a top_n above every trace's factor count explains every factor of every event
    code = main(["score", "--model", str(model), "--log", str(test), "--trace-col", "case_id",
                 "--explain", "100000"])
    out = capsys.readouterr().out
    assert code == 0
    named = {}
    for block in out.split("trace ")[1:]:
        case = block.split(" ", 1)[0]
        named[case] = {line.split("event ", 1)[1].split(":")[0]
                       for line in block.splitlines() if line.startswith("  event ")}
    assert named == ids_of
    assert any(event_id.endswith("+dup") for ids in named.values() for event_id in ids)


def test_header_column_with_a_quoted_delimiter(tmp_path, capsys):
    path = tmp_path / "quoted.csv"
    path.write_text('case,"Step, detail",Who\n1,a,x\n1,b,y\n2,a,x\n2,b,y\n', encoding="utf-8")
    model_path = tmp_path / "model.json"
    code = main(["train", "--log", str(path), "--trace-col", "case", "--out", str(model_path)])
    assert code == 0, capsys.readouterr().err
    assert read_model(model_path).schema.names == ("Step, detail", "Who")


def test_header_after_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.csv"
    path.write_text("case,Step,Who\n1,a,x\n1,b,y\n2,a,x\n2,b,y\n", encoding="utf-8-sig")
    model_path = tmp_path / "model.json"
    code = main(["train", "--log", str(path), "--trace-col", "case", "--out", str(model_path)])
    assert code == 0, capsys.readouterr().err
    assert read_model(model_path).schema.names == ("Step", "Who")
    capsys.readouterr()
    code = main(["score", "--model", str(model_path), "--log", str(path), "--trace-col", "case"])
    assert code == 0
    assert sorted(line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]) == ["1", "2"]


def test_score_names_events_by_row_when_event_ids_repeat(tmp_path, capsys):
    rows = ["case,event_id,Step,Who", "1,e0,a,x", "1,e1,b,y", "2,e0,a,x", "2,e1,c,y", "3,e0,a,z"]
    with_ids, without_ids = tmp_path / "ids.csv", tmp_path / "plain.csv"
    with_ids.write_text("\n".join(rows) + "\n", encoding="utf-8")
    without_ids.write_text("\n".join(",".join(r.split(",")[:1] + r.split(",")[2:]) for r in rows) + "\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["train", "--log", str(without_ids), "--trace-col", "case", "--out", str(model_path)]) == 0
    capsys.readouterr()
    outputs = []
    for path in (with_ids, without_ids):
        code = main(["score", "--model", str(model_path), "--log", str(path), "--trace-col", "case", "--explain", "2"])
        assert code == 0, capsys.readouterr().err
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "event 4:" in outputs[0]  # the data row of case 3's event


def test_score_parses_the_log_once_when_event_ids_repeat(tmp_path, capsys, monkeypatch):
    path = tmp_path / "ids.csv"
    path.write_text("case,event_id,Step,Who\n1,e0,a,x\n1,e1,b,y\n2,e0,a,x\n2,e1,c,y\n", encoding="utf-8")
    model_path = tmp_path / "model.json"
    assert main(["train", "--log", str(path), "--trace-col", "case", "--out", str(model_path)]) == 0
    capsys.readouterr()
    parse, calls = event_log.parse_log, []
    monkeypatch.setattr(event_log, "parse_log", lambda *args, **kwargs: calls.append(args) or parse(*args, **kwargs))
    code = main(["score", "--model", str(model_path), "--log", str(path), "--trace-col", "case", "--explain", "1"])
    assert code == 0, capsys.readouterr().err
    assert len(calls) == 1
    out = capsys.readouterr().out
    assert "event 2:" in out and "event e" not in out  # named by data row, as the ids repeat


@pytest.mark.parametrize("read, error", [
    (lambda path: edbn.load_log(path, edbn.AttributeSchema(("a",), "tid")), edbn.LogFormatError),
    (edbn.read_model, edbn.ModelFormatError),
    (edbn.load_process_model, edbn.ProcessModelError),
    (edbn.read_labels, ValueError),
], ids=["log", "model", "process-model", "labels"])
def test_a_file_that_is_not_utf8_raises_its_readers_error_naming_it(tmp_path, read, error):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,tid\nx\xff,1\n")
    with pytest.raises(error, match=re.escape(f"{str(path)!r} is not UTF-8 text")) as raised:
        read(path)
    assert not isinstance(raised.value, UnicodeDecodeError)


def _run_on_log(command, path, tmp_path, permission_file, capsys):
    """Exit status and stderr of ``command`` (train, score or evaluate) reading the ``a,tid`` log at ``path``."""
    model_path, labels_path = tmp_path / "model.json", tmp_path / "labels.csv"
    assert main(["train", "--log", str(permission_file), "--out", str(model_path), *SCHEMA_FLAGS]) == 0
    labels_path.write_text("trace_id,label\n1,normal\n", encoding="utf-8")
    argv = {
        "train": ["train", "--log", str(path), "--trace-col", "tid"],
        "score": ["score", "--model", str(model_path), "--log", str(path)],
        "evaluate": ["evaluate", "--train-log", str(path), "--log", str(path), "--labels", str(labels_path),
                     "--trace-col", "tid"],
    }[command]
    capsys.readouterr()
    return main(argv), capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "score", "evaluate"])
def test_commands_name_a_log_that_is_not_utf8(tmp_path, permission_file, capsys, command):
    # the bad byte sits in a data row, past the header that the command reads first
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"a,tid\nx\xff,1\n")
    status, err = _run_on_log(command, path, tmp_path, permission_file, capsys)
    assert status == 1
    assert f"log file {str(path)!r} is not UTF-8 text" in err and "codec" not in err


def test_ranking_and_scores_files_quote_trace_ids(tmp_path, capsys):
    # trace ids holding the delimiter or a quote come back whole through csv.reader
    train_path, test_path, labels_path = tmp_path / "train.csv", tmp_path / "test.csv", tmp_path / "labels.csv"
    main(["generate", "--out", str(train_path), "--n-traces", "30", "--seed", "1"])
    main(["generate", "--out", str(test_path), "--labels", str(labels_path),
          "--n-traces", "30", "--fraction", "0.2", "--seed", "2"])
    renamed = {"t0001": "t,1", "t0003": 't"3'}
    for path in (test_path, labels_path):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = [[renamed.get(row[0], row[0]), *row[1:]] for row in csv.reader(fh)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
    model_path, ranking_path = tmp_path / "model.json", tmp_path / "ranking.csv"
    assert main(["train", "--log", str(train_path), "--trace-col", "case_id", "--out", str(model_path)]) == 0
    assert main(["score", "--model", str(model_path), "--log", str(test_path), "--out", str(ranking_path)]) == 0
    assert main(["evaluate", "--train-log", str(train_path), "--log", str(test_path), "--labels", str(labels_path),
                 "--trace-col", "case_id", "--out", str(tmp_path / "eval")]) == 0
    capsys.readouterr()
    for path, header in ((ranking_path, ["trace_id", "score", "event_count"]),
                         (tmp_path / "eval.scores.csv", ["trace_id", "score", "label"])):
        text = path.read_text(encoding="utf-8")
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert rows[0] == header and all(len(row) == 3 for row in rows)
        ids = [row[0] for row in rows[1:]]
        assert len(ids) == 30 and {"t,1", 't"3', "t0002"} <= set(ids)
        assert all(repr(float(row[1])) == row[1] for row in rows[1:])
        # ids that hold no delimiter, quote or line break are written bare, as before
        assert '\n"t,1",' in text and '\n"t""3",' in text and "\nt0002," in text


@pytest.mark.parametrize("command", ["train", "score", "evaluate"])
def test_commands_read_the_header_as_parse_log_does(tmp_path, permission_file, capsys, command):
    # an open quote in the header reads to the end of the file; the schema stage names line 1
    path = tmp_path / "quoted.csv"
    path.write_text('a,"tid\nx,1\n', encoding="utf-8")
    assert _run_on_log(command, path, tmp_path, permission_file, capsys) == (
        1, "error in schema: line 1: unexpected end of data\n")
