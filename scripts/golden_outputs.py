#!/usr/bin/env python3
"""Write every CLI output that a behaviour-preserving change must keep byte for byte.

For the shipping seeds 7 and 1001 it runs, in process and inside OUT_DIR:

- ``edbn generate``: a 2000-trace training log, a 1000-trace test log with
  10% anomalies and its labels, and a 300-trace log with every trace
  mutated and its labels, which gives each mutation kind hundreds of times;
- ``edbn train`` at k = 1 and 2: the model file and stdout;
- ``edbn train`` at k = 1 on three quoted copies of the training log, one
  value quoted on line 2, one value quoted on line 10,000 (a chunk that csv
  reads between chunks that are split) and every field quoted: each model
  file must equal the unquoted log's byte for byte, or the script fails;
- ``edbn train`` at k = 1 on a copy of the training log whose ``item`` is
  unique per event from line 10,000: the model file and stdout.  That column's
  codes widen from bytes to 4-byte codes partway through the parse;
- ``edbn score --explain 3`` and ``--explain 50`` with each model: the ranking,
  its explanations and stdout, for the test log as generated and again with
  ``item`` unique per event, where every trace holds zero factors; 50 reaches
  well past the first few blocks of each trace;
- ``edbn score --explain 3`` with each model on a copy of the test log whose
  traces interleave round robin and whose ``event_id`` column is dropped, so
  that explanations name events by data row through the parse's regrouping;
- ``edbn evaluate --out`` at k = 1 on the training log and the labeled test
  log: the report, the precision/recall curve, the scores and stdout;
- ``edbn generate`` with AWKWARD_PROCESS, a small process model whose names and
  values hold the delimiter, a quote and line breaks: a 200-trace log with 20%
  anomalies and its labels, and the log without anomalies written with
  ``--delimiter '\\t'``.

116 files in all.  Every log that ``edbn generate`` wrote is loaded back with
``load_log`` and the delimiter it was written with, and every labels file with
``read_labels``; every model file must give back its text through ``load_model``
and ``save_model``.  A file that does not do so fails the script, so the gate
also catches a written file that cannot be read back.

The gate in one command: ``--against SRC`` writes the outputs of the tree at
SRC and of this checkout's, each in a subprocess under PYTHONHASHSEED 1 and 987,
into OUT_DIR/<against|this>-hash<seed>.  It prints ``116 files identical`` and
then each tree's ``wc -l`` total of ``edbn/*.py`` (``src/edbn: 2,774 -> 2,768
lines``, SRC's first), or names each file that differs from the first run's or
is missing, and exits 1:

    python scripts/golden_outputs.py /tmp/golden --against <other checkout>/src

One tree's outputs alone, from this checkout's src or from ``--src``:

    python scripts/golden_outputs.py /tmp/after
"""
import argparse
import contextlib
import csv
import functools
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (7, 1001)
KS = (1, 2)
HASH_SEEDS = ("1", "987")
THIS_SRC = Path(__file__).resolve().parent.parent / "src"


def _run(main, argv: list[str], stdout_file: str | None = None) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = main(argv)
    if status != 0:
        raise SystemExit(f"edbn {' '.join(argv)} exited with {status}")
    if stdout_file:
        Path(stdout_file).write_text(out.getvalue(), encoding="utf-8")


def _unique_item(src: str, dst: str, first_line: int = 2) -> None:
    """A copy of the log whose item column reads item-<event id> at every event from ``first_line``
    on (the header is line 1)."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    item, event_id = header.index("item"), header.index("event_id")
    for row in rows[first_line - 2 :]:
        row[item] = f"item-{row[event_id]}"
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])


def _interleaved(src: str, dst: str) -> None:
    """A copy of the log without its event_id column, its traces' events taken round robin: the
    first event of each trace in log order, then the second of each, and so on."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    trace, event_id = header.index("case_id"), header.index("event_id")
    traces: dict[str, list[list[str]]] = {}
    for row in rows:
        traces.setdefault(row[trace], []).append(row[:event_id] + row[event_id + 1 :])
    del header[event_id]
    rounds = itertools.zip_longest(*traces.values())
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *(row for r in rounds for row in r if row)])


QUOTED_LINES = {"train-one-quoted": 2, "train-middle-quoted": 10_000}

# every value that the writer must quote: a delimiter (comma or tab), a quote, LF, CR
AWKWARD_PROCESS = {
    "name": "awkward",
    "trace_id_column": "case, id",
    "attributes": ["activity", 'the "note"', "owner", "kind", "code"],
    "activity_attribute": "activity",
    "start_activity": "open, then check",
    "end_activities": ["close\nout"],
    "transitions": {"open, then check": {'say "yes"': 0.6, "tab\there": 0.4},
                    'say "yes"': {"close\nout": 1.0}, "tab\there": {'say "yes"': 0.5, "close\nout": 0.5}},
    "rules": {
        'the "note"': {"kind": "pool", "values": ["a,b", '"', "two\nlines", "cr\rhere", " edge ", "plain", ""]},
        "owner": {"kind": "pool", "scope": "trace", "values": ["ann", "bo,b", "é\t1"]},
        "kind": {"kind": "derived", "source": "activity",
                 "mapping": {"open, then check": "in", 'say "yes"': "mid\r\n", "tab\there": "mid\r\n",
                             "close\nout": '"out"'}},
        "code": {"kind": "constant", "value": 'x,"y"'},
    },
}


def _quoted_copies(src: str, d: str) -> None:
    """Copies of the log, which quotes no field, with the third field quoted on each line of
    QUOTED_LINES, and with every field quoted."""
    with open(src, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    with open(f"{d}/train-all-quoted.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(csv.reader(lines))
    for copy, line in QUOTED_LINES.items():
        fields = lines[line - 1].split(",")
        fields[2] = f'"{fields[2]}"'
        with open(f"{d}/{copy}.csv", "w", newline="", encoding="utf-8") as fh:
            fh.writelines([*lines[: line - 1], ",".join(fields), *lines[line:]])


def _read_back(d: str) -> None:
    """Loads every log and labels file that edbn generate wrote into ``d``; one that does not load fails the
    script, naming it."""
    from edbn import AttributeSchema, default_shipping_model, load_log, load_process_model, read_labels

    shipping, awkward = default_shipping_model(), load_process_model(f"{d}/awkward-process.json")
    logs = [("train", shipping, ","), ("test", shipping, ","), ("all-anomalous", shipping, ","),
            ("awkward", awkward, ","), ("awkward-tab", awkward, "\t")]
    loads = {}
    for name, process, delimiter in logs:
        schema = AttributeSchema(process.attributes, process.trace_id_column, event_id_column="event_id")
        loads[f"{d}/{name}.csv"] = functools.partial(load_log, schema=schema, delimiter=delimiter)
    for name in ("labels", "all-anomalous-labels", "awkward-labels"):
        loads[f"{d}/{name}.csv"] = read_labels
    for path, load in loads.items():
        try:
            load(path)
        except ValueError as exc:
            raise SystemExit(f"{path} does not read back: {exc}") from None


def _round_trip(d: str) -> None:
    """Requires ``save_model(load_model(text)) == text`` of every model file written into ``d``."""
    from edbn import load_model, save_model

    for path in sorted(Path(d).glob("*model-k*.json")):
        text = path.read_text(encoding="utf-8")
        if save_model(load_model(text)) != text:
            raise SystemExit(f"{path} does not give back its text through load_model and save_model")


def _files(run: Path) -> set[Path]:
    return {p.relative_to(run) for p in run.rglob("*") if p.is_file()}


def _lines(src: Path) -> int:
    """The ``wc -l`` total of the tree's ``edbn/*.py``: the newlines in them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "edbn").glob("*.py"))


def _against(src: str, out: Path) -> int:
    """Writes the outputs of the tree at ``src`` and of this checkout's under each of HASH_SEEDS, one
    subprocess a run, and compares every run's files with the first run's."""
    trees = {"against": Path(src).resolve(), "this": THIS_SRC}
    runs = []
    for name, tree in trees.items():
        for seed in HASH_SEEDS:
            run = out / f"{name}-hash{seed}"
            argv = [sys.executable, __file__, str(run), "--src", str(tree)]
            if subprocess.run(argv, env={**os.environ, "PYTHONHASHSEED": seed}, stdout=subprocess.DEVNULL).returncode:
                raise SystemExit(f"writing the outputs of {tree} under PYTHONHASHSEED={seed} failed")
            runs.append(run)
    first, expected = runs[0], _files(runs[0])
    faults = []
    for run in runs[1:]:
        got = _files(run)
        faults += [f"missing: {run / f}" for f in sorted(expected - got)]
        faults += [f"missing: {first / f}" for f in sorted(got - expected)]
        faults += [f"differs: {run / f}" for f in sorted(expected & got) if (run / f).read_bytes() != (first / f).read_bytes()]
    if faults:
        print("\n".join(faults))
        return 1
    print(f"{len(expected)} files identical")
    print(f"src/edbn: {_lines(trees['against']):,} -> {_lines(trees['this']):,} lines")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--src", default=str(THIS_SRC), help="the source tree to import edbn from (default: this checkout's)")
    parser.add_argument("--against", metavar="SRC", default=None,
                        help="compare the outputs of the source tree SRC with this checkout's, under two hash seeds")
    args = parser.parse_args()
    out = Path(args.out_dir)
    if args.against is not None:
        return _against(args.against, out)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from edbn.cli import main as edbn

    out.mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # relative paths keep the directory out of every output
    for seed in SEEDS:
        d = f"seed{seed}"
        Path(d).mkdir(exist_ok=True)
        _run(edbn, ["generate", "--out", f"{d}/train.csv", "--n-traces", "2000", "--seed", str(seed)])
        _run(edbn, ["generate", "--out", f"{d}/test.csv", "--labels", f"{d}/labels.csv",
                    "--n-traces", "1000", "--fraction", "0.1", "--seed", str(seed + 1)])
        _run(edbn, ["generate", "--out", f"{d}/all-anomalous.csv", "--labels", f"{d}/all-anomalous-labels.csv",
                    "--n-traces", "300", "--fraction", "1.0", "--seed", str(seed + 2)])
        Path(f"{d}/awkward-process.json").write_text(json.dumps(AWKWARD_PROCESS), encoding="utf-8")
        awkward = ["generate", "--process-model", f"{d}/awkward-process.json", "--n-traces", "200", "--seed", str(seed)]
        _run(edbn, [*awkward, "--out", f"{d}/awkward.csv", "--labels", f"{d}/awkward-labels.csv", "--fraction", "0.2"])
        _run(edbn, [*awkward, "--out", f"{d}/awkward-tab.csv", "--delimiter", "\\t"])
        _read_back(d)
        _unique_item(f"{d}/test.csv", f"{d}/test-unique-item.csv")
        _unique_item(f"{d}/train.csv", f"{d}/train-unique-item.csv", 10_000)
        _interleaved(f"{d}/test.csv", f"{d}/test-interleaved.csv")
        _quoted_copies(f"{d}/train.csv", d)
        for k in KS:
            model = f"{d}/model-k{k}.json"
            _run(edbn, ["train", "--log", f"{d}/train.csv", "--trace-col", "case_id", "--out", model, "--k", str(k)],
                 f"{model}.stdout")
            for test in ("test", "test-unique-item"):
                for top_n, name in (("3", f"{test}-k{k}"), ("50", f"{test}-k{k}-explain50")):
                    ranking = f"{d}/{name}.ranking.csv"
                    _run(edbn, ["score", "--model", model, "--log", f"{d}/{test}.csv", "--out", ranking,
                                "--explain", top_n], f"{ranking}.stdout")
            ranking = f"{d}/test-interleaved-k{k}.ranking.csv"
            _run(edbn, ["score", "--model", model, "--log", f"{d}/test-interleaved.csv", "--out", ranking,
                        "--explain", "3"], f"{ranking}.stdout")
        model = f"{d}/train-unique-item-model-k1.json"
        _run(edbn, ["train", "--log", f"{d}/train-unique-item.csv", "--trace-col", "case_id", "--out", model,
                    "--k", "1"], f"{model}.stdout")
        _run(edbn, ["evaluate", "--train-log", f"{d}/train.csv", "--log", f"{d}/test.csv", "--labels",
                    f"{d}/labels.csv", "--trace-col", "case_id", "--out", f"{d}/evaluate-k1", "--k", "1"],
             f"{d}/evaluate-k1.stdout")
        for copy in (*QUOTED_LINES, "train-all-quoted"):
            model = f"{d}/{copy}-model-k1.json"
            _run(edbn, ["train", "--log", f"{d}/{copy}.csv", "--trace-col", "case_id", "--out", model, "--k", "1"])
            if Path(model).read_bytes() != Path(f"{d}/model-k1.json").read_bytes():
                raise SystemExit(f"{model} differs from {d}/model-k1.json")
        _round_trip(d)
    print(f"wrote {sum(1 for p in Path('.').rglob('*') if p.is_file())} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
