"""AUC and precision/recall evaluation of labeled trace scores.

Anomalous is the positive class and lower scores mean more anomalous, so the
ROC AUC is the probability that a random anomalous trace scores below a random
normal one (ties count one half, the Mann-Whitney midrank convention).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .detect import score_log
from .event_log import EventLog, csv_text
from .model import learn_edbn
from .synth import ANOMALOUS, NORMAL, LabeledLog


class LabeledScore(NamedTuple):
    trace_id: str
    score: float
    label: str


@dataclass(frozen=True)
class EvalReport:
    auc: float
    pr_curve: tuple[tuple[float, float], ...]
    n_normal: int
    n_anomalous: int
    score_list: tuple[LabeledScore, ...]


def _tally(scores: Sequence[LabeledScore]) -> tuple[list[list[int]], int, int]:
    """Each distinct score's anomalous and trace counts, ascending by score, and the two class sizes.  An unknown
    label, a NaN score (it has no place in the order) or an empty class raises ValueError."""
    tally = {}  # a distinct score -> [its anomalous count, its trace count]
    for entry in scores:
        entry = LabeledScore(*entry)
        if entry.label not in (ANOMALOUS, NORMAL):
            raise ValueError(f"unknown label {entry.label!r}")
        if math.isnan(entry.score):
            raise ValueError(f"trace {entry.trace_id!r} has a NaN score")
        counts = tally.setdefault(entry.score, [0, 0])
        counts[0] += entry.label == ANOMALOUS
        counts[1] += 1
    n_a = sum(count_a for count_a, _ in tally.values())
    n_n = sum(count for _, count in tally.values()) - n_a
    if not n_a or not n_n:
        raise ValueError("need at least one normal and one anomalous score")
    return [tally[score] for score in sorted(tally)], n_a, n_n


def auc(scores: Sequence[LabeledScore]) -> float:
    """ROC AUC from labeled scores via midranks (O(n log n))."""
    tally, n_a, n_n = _tally(scores)
    rank_sum_a, j = 0.0, 0
    for count_a, count in tally:
        i, j = j, j + count
        rank_sum_a += (i + 1 + j) / 2 * count_a  # ranks are 1-based; ties share the mean rank
    u_a = rank_sum_a - n_a * (n_a + 1) / 2  # pairs where the anomalous score is higher
    return 1.0 - u_a / (n_a * n_n)


def precision_recall(scores: Sequence[LabeledScore]) -> list[tuple[float, float]]:
    """(recall, precision) per distinct threshold, sweeping scores ascending."""
    tally, n_a, _ = _tally(scores)
    curve, tp, flagged = [], 0, 0
    for count_a, count in tally:
        tp, flagged = tp + count_a, flagged + count
        curve.append((tp / n_a, tp / flagged))
    return curve


def run_experiment(
    train: EventLog, test: LabeledLog, k: int, fd_threshold: float
) -> EvalReport:
    """Learn a model on the training log, score the labeled test log, evaluate."""
    if not train.event_count or not test.log.event_count:
        raise ValueError("train and test logs must be non-empty")
    model = learn_edbn(train, k, fd_threshold)
    scores = [LabeledScore(s.trace_id, s.score, test.labels[s.trace_id]) for s in score_log(model, test.log)]
    scores.sort(key=lambda s: (s.score, s.trace_id))
    return EvalReport(
        auc=auc(scores),
        pr_curve=tuple(precision_recall(scores)),
        n_normal=sum(1 for s in scores if s.label == NORMAL),
        n_anomalous=sum(1 for s in scores if s.label == ANOMALOUS),
        score_list=tuple(scores),
    )


def render_report(report: EvalReport) -> str:
    lines = [
        "evaluation report",
        f"traces: {len(report.score_list)} ({report.n_anomalous} anomalous, {report.n_normal} normal)",
        f"auc: {report.auc!r}",
        "",
        "most anomalous traces first:",
    ]
    for entry in report.score_list[:20]:
        lines.append(f"  {entry.trace_id}  {entry.score!r}  {entry.label}")
    return "\n".join(lines) + "\n"


def serialize_curve(report: EvalReport) -> str:
    return csv_text(["recall", "precision"], ((repr(recall), repr(precision)) for recall, precision in report.pr_curve))


def serialize_scores(report: EvalReport) -> str:
    return csv_text(["trace_id", "score", "label"], ((e.trace_id, repr(e.score), e.label) for e in report.score_list))
