#!/usr/bin/env python3
"""Run the benchmark in pairs, a parent tree against this checkout, and summarise the pairs.

Each pair runs ``python3 bench/run.py --workload W --seed SEED --seconds S --trace 0`` once in
the parent tree and once in this checkout, from the root of each, on the same seed: seed
``--seed-base + i`` for pair i.  The side that runs first alternates from pair to pair, the
parent first in pair 0.  Before the pairs, each tree runs the workload once untimed (one
second, seed ``--seed-base - 1``), so that neither side pays for a cold start.

The last JSON line of each run's standard output is its result.  For every end-to-end metric
that BENCHMARK.json declares, the summary gives each side's median and quartiles, how many
pairs the change won (strictly better in the metric's direction), the change of the median,
whether the change's median stays within the metric's bound, and whether the gap between the
medians is larger than the parent's interquartile range.  It also counts the runs that were
not ``"correct": true`` and the operations that failed.  Every run's result goes to FILE:

    python scripts/bench_pairs.py --parent /path/to/parent/checkout --workload ship-score \\
        --pairs 10 --seconds 20 --seed-base 3101 --out BENCH.json
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def last_json_line(stdout: str) -> dict:
    """The result of a benchmark run: the last line of its output that is a JSON object."""
    for line in reversed(stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("the run printed no JSON result line")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from the root of ``tree``, and its result line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    try:
        return last_json_line(done.stdout)
    except ValueError:
        raise SystemExit(f"{tree}: seed {seed} exited {done.returncode} with no result:\n{done.stderr}") from None


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """The summary of paired runs, each ``{"pair", "side", "result"}``, for ``metrics`` as BENCHMARK.json
    declares them (``name``, ``better`` and ``bound``)."""
    pairs = sorted({run["pair"] for run in runs})
    result = {(run["pair"], run["side"]): run["result"] for run in runs}
    summary = {"pairs": len(pairs), "metrics": {},
               "incorrect": {side: sum(not result[p, side]["correct"] for p in pairs) for side in SIDES},
               "failed": {side: sum(result[p, side]["failed"] for p in pairs) for side in SIDES}}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        values = {side: [result[p, side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        (p_q1, p_med, p_q3), (c_q1, c_med, c_q3) = (_quartiles(values[side]) for side in SIDES)
        wins = sum(c > p if higher else c < p for p, c in zip(values["parent"], values["change"]))
        change = (c_med - p_med) / p_med if p_med else 0.0
        summary["metrics"][name] = {
            "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
            "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
            "wins": wins,
            "relative_change": change,
            "within_bound": (change >= -metric["bound"]) if higher else (change <= metric["bound"]),
            "gap_exceeds_parent_iqr": abs(c_med - p_med) > p_q3 - p_q1,
        }
    return summary


def render(summary: dict) -> str:
    """The summary as text, one line per metric."""
    n = summary["pairs"]
    lines = [f"{n} pairs; runs not correct: parent {summary['incorrect']['parent']}, change "
             f"{summary['incorrect']['change']}; failed operations: parent {summary['failed']['parent']}, change "
             f"{summary['failed']['change']}"]
    for name, m in summary["metrics"].items():
        p, c = m["parent"], m["change"]
        lines.append(f"{name}: parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] -> change {c['median']:.6g} "
                     f"[{c['q1']:.6g}, {c['q3']:.6g}] ({m['relative_change']:+.2%}); change won {m['wins']} of {n}; "
                     f"{'within' if m['within_bound'] else 'OUTSIDE'} bound; gap "
                     f"{'>' if m['gap_exceeds_parent_iqr'] else '<='} parent IQR")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent tree's checkout")
    parser.add_argument("--workload", required=True, choices=("ship-train", "ship-score", "ship-monitor"))
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    for tree in trees.values():
        run_once(tree, args.workload, args.seed_base - 1, 1)  # untimed warm-up
    runs = []
    for pair in range(args.pairs):
        seed = args.seed_base + pair
        for side in SIDES if pair % 2 == 0 else reversed(SIDES):
            result = run_once(trees[side], args.workload, seed, args.seconds)
            runs.append({"pair": pair, "seed": seed, "side": side, "first": len(runs) % 2 == 0, "result": result})
            print(f"pair {pair} seed {seed} {side}: " + json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  flush=True)
    summary = summarize(runs, metrics)
    args.out.write_text(json.dumps({"workload": args.workload, "seconds": args.seconds, "seed_base": args.seed_base,
                                    "runs": runs, "summary": summary}, indent=1) + "\n", encoding="utf-8")
    print(render(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
