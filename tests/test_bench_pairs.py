"""The pair runner's summary (scripts/bench_pairs.py) on canned benchmark result lines."""
import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.25},
           {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def _output(events_per_s, peak_rss_mb, correct=True, failed=0):
    """A run's standard output as bench/run.py prints it: an environment line, metric lines, then the result."""
    result = {"correct": correct, "attempted": 100, "failed": failed,
              "metrics": {"events_per_s": {"value": events_per_s, "unit": "events/s"},
                          "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}
    return "\n".join([json.dumps({"environment": {"nproc": 2}}), "events_per_s events/s", "peak_rss_mb MB",
                      json.dumps(result)]) + "\n"


def _runs(parent, change):
    runs = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, output in (("parent", _output(*p)), ("change", _output(*c))):
            runs.append({"pair": pair, "side": side, "result": bench_pairs.last_json_line(output)})
    return runs


def test_the_summary_gives_quartiles_wins_bounds_and_the_gap_against_the_parents_spread():
    parent = [(100, 20.0), (110, 20.0), (90, 20.0), (105, 20.0)]
    change = [(120, 21.5), (100, 21.5), (115, 21.5, False), (118, 21.5, True, 2)]
    summary = bench_pairs.summarize(_runs(parent, change), METRICS)
    assert summary["pairs"] == 4
    assert summary["incorrect"] == {"parent": 0, "change": 1}
    assert summary["failed"] == {"parent": 0, "change": 2}
    speed = summary["metrics"]["events_per_s"]
    assert speed["parent"] == {"q1": 97.5, "median": 102.5, "q3": 106.25}
    assert speed["change"] == {"q1": 111.25, "median": 116.5, "q3": 118.5}
    assert speed["wins"] == 3  # higher is better: 120 > 100, 115 > 90, 118 > 105; 100 < 110
    assert speed["relative_change"] == pytest.approx(14 / 102.5)
    assert speed["within_bound"] and speed["gap_exceeds_parent_iqr"]  # 14 > 106.25 - 97.5
    memory = summary["metrics"]["peak_rss_mb"]
    assert memory["wins"] == 0  # lower is better, and every change run is higher
    assert memory["relative_change"] == pytest.approx(0.075)
    assert not memory["within_bound"]  # 7.5% over a 5% bound
    text = bench_pairs.render(summary)
    assert "events_per_s: parent 102.5 [97.5, 106.25] -> change 116.5 [111.25, 118.5] (+13.66%); change won 3 of 4; " \
           "within bound; gap > parent IQR" in text
    assert "peak_rss_mb: parent 20 [20, 20] -> change 21.5 [21.5, 21.5] (+7.50%); change won 0 of 4; OUTSIDE bound" in text


def test_a_slower_change_within_the_bound_and_the_parents_spread():
    parent = [(100, 20.0), (120, 20.0), (80, 20.0)]
    change = [(95, 20.0), (118, 19.0), (85, 20.5)]
    summary = bench_pairs.summarize(_runs(parent, change), METRICS)
    speed, memory = summary["metrics"]["events_per_s"], summary["metrics"]["peak_rss_mb"]
    assert (speed["parent"]["median"], speed["change"]["median"], speed["wins"]) == (100, 95, 1)
    assert speed["within_bound"] and not speed["gap_exceeds_parent_iqr"]  # 5 <= 110 - 90
    assert (memory["wins"], memory["within_bound"], memory["gap_exceeds_parent_iqr"]) == (1, True, False)


def test_one_pair_has_its_values_as_quartiles_and_a_run_without_a_result_line_is_an_error():
    summary = bench_pairs.summarize(_runs([(100, 20.0)], [(110, 20.0)]), METRICS)
    assert summary["metrics"]["events_per_s"]["change"] == {"q1": 110, "median": 110, "q3": 110}
    with pytest.raises(ValueError, match="no JSON result line"):
        bench_pairs.last_json_line("events_per_s events/s\n")
