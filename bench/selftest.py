"""Self-test of the benchmark's checks, at tiny sizes.

Every workload runs its operation and its checks on today's package and must
pass.  Then outputs are corrupted in ways a wrong fast path could produce,
and the checks must reject each one.  Last comes a check too costly for a
timed run: no single legal edge addition or deletion improves the
independently computed AIC of the learned structure by more than SCORE_EPS.

    python3 bench/run.py --self-test
"""
from __future__ import annotations

import copy
import csv
import json
import os
import shutil
from pathlib import Path

from edbn.structure import SCORE_EPS

import oracle
import workloads

SIZES = {"TRAIN_TRACES": 400, "MODEL_TRACES": 1500, "SCORE_TRACES": 150, "MONITOR_TRACES": 40}
SEED = 5


def _expect_failure(label: str, check) -> bool:
    try:
        check()
    except oracle.CheckFailed as exc:
        print(f"PASS  {label}: rejected ({exc})")
        return True
    print(f"FAIL  {label}: the corrupted output was accepted")
    return False


def _expect_success(label: str, check) -> bool:
    try:
        check()
    except oracle.CheckFailed as exc:
        print(f"FAIL  {label}: {exc}")
        return False
    print(f"PASS  {label}")
    return True


def _run_workload(cls, d: Path):
    d.mkdir()
    cls.setup(d, SEED)
    workload = cls(d, SEED)
    workload.prepare()
    for _ in range(2):
        workload.operation(False)
    return workload


def _write_ranking(path: Path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trace_id", "score", "event_count"])
        writer.writerows([t, repr(s), c] for t, s, c in rows)


def main(root: Path) -> int:
    for name, value in SIZES.items():
        setattr(workloads, name, value)
    base = root / ".bench_out" / f"selftest-{os.getpid()}"
    base.mkdir(parents=True)
    results = []
    try:
        train = _run_workload(workloads.ShipTrain, base / "train")
        score = _run_workload(workloads.ShipScore, base / "score")
        monitor = _run_workload(workloads.ShipMonitor, base / "monitor")
        for w in (train, score, monitor):
            results.append(_expect_success(f"{w.name} checks pass on the package's outputs", w.check))

        # A CPT count off by one.
        text = (train.d / "model.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        row = next(r for c in doc["cpts"] if c["parents"] for r in c["rows"])
        value = next(iter(row["counts"]))
        row["counts"][value] += 1
        bad_model = json.dumps(doc, indent=2, sort_keys=True) + "\n"

        def train_check(model_text):
            return lambda: oracle.check_trained_model(
                model_text, train.d / "train.csv", workloads.TRACE_COL, workloads.K, workloads.FD_THRESHOLD)

        results.append(_expect_failure("training check, one CPT count off by one", train_check(bad_model)))

        # A score perturbed by 1e-9 relative, and two ranking entries swapped.
        ranking_path = score.d / "ranking.csv"
        ranking = oracle.read_ranking(ranking_path)
        i = next(i for i, (_, s, _) in enumerate(ranking) if s > 0.0)
        perturbed = list(ranking)
        perturbed[i] = (ranking[i][0], ranking[i][1] * (1 + 1e-9), ranking[i][2])
        j = next(j for j in range(len(ranking) - 1, 0, -1) if ranking[j][1] != ranking[j - 1][1])
        swapped = list(ranking)
        swapped[j - 1], swapped[j] = swapped[j], swapped[j - 1]
        for label, rows in (("score check, one score off by 1e-9 relative", perturbed),
                            ("ranking check, two entries swapped", swapped)):
            _write_ranking(ranking_path, rows)
            results.append(_expect_failure(label, score.check))
        _write_ranking(ranking_path, ranking)

        # An explained factor that is not among the smallest.
        explain_path = score.d / "ranking.csv.explain.txt"
        lines = explain_path.read_text(encoding="utf-8").splitlines(keepends=True)
        k = next(k for k, line in enumerate(lines) if line.startswith("  event") and not line.endswith("= 0.0\n"))
        head, _, value = lines[k].rpartition(" = ")
        lines[k] = f"{head} = {float(value) * 0.5!r}\n"
        explain_path.write_text("".join(lines), encoding="utf-8")
        results.append(_expect_failure("explanation check, one factor halved", score.check))
        lines[k] = f"{head} = {value}"
        head, _, tail = lines[k].partition(":")
        lines[k] = f"  event 999999:{tail}"
        explain_path.write_text("".join(lines), encoding="utf-8")
        results.append(_expect_failure("explanation check, a factor put on an event the trace lacks", score.check))

        # A monitored case whose final prefix score is off by 1e-9 relative.
        good = copy.deepcopy(monitor.passes[-1])
        n = next(n for n, rec in enumerate(good) if rec[2] > 0.0 and rec[1] == len(monitor.traces[rec[0]]) - 1)
        bad = list(good)
        bad[n] = (bad[n][0], bad[n][1], bad[n][2] * (1 + 1e-9), bad[n][3])
        monitor.passes[:] = [bad, bad]
        results.append(_expect_failure("monitor check, one final score off by 1e-9 relative", monitor.check))
        monitor.passes[:] = [good, good]

        # The learned structure is a local optimum of the AIC.
        model = oracle.ModelDoc(text)
        attrs, traces = oracle.read_log(train.d / "train.csv", workloads.TRACE_COL)
        gain, move = oracle.best_single_move_gain(model, oracle.k_context(attrs, traces, model.k))
        results.append(_expect_success(
            f"no single edge move improves the AIC by more than {SCORE_EPS} (best {gain:.3g} for {move})",
            lambda: oracle.check(gain <= SCORE_EPS, f"move {move} gains {gain}")))
        results.append(_expect_failure(
            "AIC check, a learned parent removed",
            lambda: oracle.check(_best_gain_without_parent(model, attrs, traces) <= SCORE_EPS, "a move gains")))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"self-test: {sum(results)} of {len(results)} passed")
    return 0 if all(results) else 1


def _best_gain_without_parent(model, attrs, traces) -> float:
    """Best single-move gain after deleting one conditional edge the search kept."""
    fd_edges = model.fd_edges()
    src, tgt = min(model.dag_edges - fd_edges)
    model.dag_edges = model.dag_edges - {(src, tgt)}
    parents, rows = model.cpts[tgt[0]]
    model.cpts[tgt[0]] = ([p for p in parents if p != src], rows)
    gain, _ = oracle.best_single_move_gain(model, oracle.k_context(attrs, traces, model.k))
    return gain
