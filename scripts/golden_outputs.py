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
  well past the first few blocks of each trace.

86 files in all.

Run it on two trees and compare; an empty ``diff -r`` is the gate:

    python scripts/golden_outputs.py /tmp/before --src <other checkout>/src
    python scripts/golden_outputs.py /tmp/after
    diff -r /tmp/before /tmp/after
"""
import argparse
import contextlib
import csv
import io
import os
import sys
from pathlib import Path

SEEDS = (7, 1001)
KS = (1, 2)


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


QUOTED_LINES = {"train-one-quoted": 2, "train-middle-quoted": 10_000}


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("out_dir")
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="the source tree to import edbn from (default: this checkout's)")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.src).resolve()))
    from edbn.cli import main as edbn

    out = Path(args.out_dir)
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
        _unique_item(f"{d}/test.csv", f"{d}/test-unique-item.csv")
        _unique_item(f"{d}/train.csv", f"{d}/train-unique-item.csv", 10_000)
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
        model = f"{d}/train-unique-item-model-k1.json"
        _run(edbn, ["train", "--log", f"{d}/train-unique-item.csv", "--trace-col", "case_id", "--out", model,
                    "--k", "1"], f"{model}.stdout")
        for copy in (*QUOTED_LINES, "train-all-quoted"):
            model = f"{d}/{copy}-model-k1.json"
            _run(edbn, ["train", "--log", f"{d}/{copy}.csv", "--trace-col", "case_id", "--out", model, "--k", "1"])
            if Path(model).read_bytes() != Path(f"{d}/model-k1.json").read_bytes():
                raise SystemExit(f"{model} differs from {d}/model-k1.json")
    print(f"wrote {sum(1 for p in Path('.').rglob('*') if p.is_file())} files to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
