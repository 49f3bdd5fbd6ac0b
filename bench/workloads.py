"""The three benchmark workloads: set-up, one timed operation, output checks.

Inputs come from the bundled shipping process, generated from the workload
seed: the training log from ``seed``, the test log from ``seed + 1``, anomaly
injection from ``seed + 2`` and the monitoring arrival order from
``seed + 3``.  The package receives only the generated files and objects.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
from pathlib import Path

import edbn
import edbn.cli
import edbn.event_log
import edbn.model
import edbn.synth

import oracle

TRACE_COL = "case_id"
K = 1
FD_THRESHOLD = 0.99
TRAIN_TRACES = 2000  # ship-train: the clean training log, about 22.3k events
MODEL_TRACES = 2000  # the model that ship-score and ship-monitor read
SCORE_TRACES = 1000  # ship-score test log, about 11k events
MONITOR_TRACES = 120  # ship-monitor cases replayed per pass
ANOMALY_FRACTION = 0.10
EXPLAIN_TOP = 3
MONITOR_WIDTH = 32  # cases open at once in the arrival stream
# Prefix scores below this raise an alarm.  Normal prefixes on probe logs
# stayed above 4e-8 (one-event prefixes score lowest), so in practice the
# alarms are the prefixes with a zero-probability factor.
ALARM_THRESHOLD = 1e-8


def _cli(argv: list[str], tracer=None, span: str = "") -> int:
    """edbn.cli.main in-process, its console output discarded; a span around it if traced."""
    with tracer.span(span) if tracer else contextlib.nullcontext():
        with contextlib.redirect_stdout(io.StringIO()):
            return edbn.cli.main(argv)


def _digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _data_rows(path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


def _train_argv(log, out) -> list[str]:
    return ["train", "--log", str(log), "--trace-col", TRACE_COL, "--out", str(out),
            "--k", str(K), "--fd-threshold", str(FD_THRESHOLD)]


def _scoring_setup(d: Path, seed: int, test_traces: int, tracer) -> None:
    """Training log, labeled test log, and the model trained from the former."""
    process = edbn.synth.default_shipping_model()
    train = edbn.synth.generate(process, MODEL_TRACES, seed)
    edbn.event_log.write_log(train, d / "train.csv")
    test = edbn.synth.generate(process, test_traces, seed + 1)
    labeled = edbn.synth.inject_anomalies(test, ANOMALY_FRACTION, seed + 2)
    edbn.event_log.write_log(labeled.log, d / "test.csv")
    edbn.synth.write_labels(labeled, d / "labels.csv")
    if _cli(_train_argv(d / "train.csv", d / "model.json"), tracer, "cli.train") != 0:
        raise RuntimeError("edbn train failed in set-up")


class Workload:
    """One operation repeated in the timed window.

    ``operation`` returns (attempted, failed, events handled, per-event
    latencies in seconds or None where events are handled as one batch).
    ``timed_layers`` names the per-layer metrics (fnmatch patterns) that the
    timed operation exercises; the others are figures of set-up and
    preparation.
    """

    name = ""
    clock = staticmethod(time.perf_counter)  # the runner's clock, which skips its own sampling
    min_operations = 3  # so that no figure rests on a single timed call
    setup_reps = 3
    timed_layers: tuple[str, ...] = ()

    def __init__(self, d: Path, seed: int, tracer=None):
        self.d = d
        self.seed = seed
        self.tracer = tracer
        self.digests: set[str] = set()

    def model_bytes(self) -> int:
        return (self.d / "model.json").stat().st_size


class ShipTrain(Workload):
    name = "ship-train"
    min_operations = 4
    setup_reps = 7  # one set-up takes about 0.4 s
    timed_layers = ("event_log.*", "stats.*", "fd.*", "structure.*", "model.*", "cli.*")

    @staticmethod
    def setup(d: Path, seed: int, tracer=None) -> None:
        process = edbn.synth.default_shipping_model()
        log = edbn.synth.generate(process, TRAIN_TRACES, seed)
        edbn.event_log.write_log(log, d / "train.csv")

    def prepare(self) -> None:
        self.events = _data_rows(self.d / "train.csv")

    def operation(self, traced: bool):
        argv = _train_argv(self.d / "train.csv", self.d / "model.json")
        code = _cli(argv, self.tracer if traced else None, "cli.train")
        self.digests.add(_digest(self.d / "model.json"))
        return 1, int(code != 0), self.events, None

    def check(self) -> dict:
        text = (self.d / "model.json").read_text(encoding="utf-8")
        oracle.check(len(self.digests) == 1, "repeated training runs wrote different model files")
        oracle.check_trained_model(text, self.d / "train.csv", TRACE_COL, K, FD_THRESHOLD)
        oracle.check(edbn.model.save_model(edbn.model.load_model(text)) == text,
                     "save_model(load_model(text)) differs from the written model")
        return {}


class ShipScore(Workload):
    name = "ship-score"
    timed_layers = ("event_log.parse_s", "event_log.events_parsed", "model.load_s", "model.event_probability_calls*",
                    "model.factors", "detect.*", "cli.score_self_s")

    @staticmethod
    def setup(d: Path, seed: int, tracer=None) -> None:
        _scoring_setup(d, seed, SCORE_TRACES, tracer)

    def prepare(self) -> None:
        self.events = _data_rows(self.d / "test.csv")
        self.argv = ["score", "--model", str(self.d / "model.json"), "--log", str(self.d / "test.csv"),
                     "--out", str(self.d / "ranking.csv"), "--explain", str(EXPLAIN_TOP)]

    def operation(self, traced: bool):
        code = _cli(self.argv, self.tracer if traced else None, "cli.score")
        self.digests.add(_digest(self.d / "ranking.csv", self.d / "ranking.csv.explain.txt"))
        return 1, int(code != 0), self.events, None

    def check(self) -> dict:
        oracle.check(len(self.digests) == 1, "repeated scoring runs wrote different outputs")
        model = oracle.ModelDoc((self.d / "model.json").read_text(encoding="utf-8"))
        _, traces = oracle.read_log(self.d / "test.csv", TRACE_COL, model.attrs)
        auc = oracle.check_scored_log(
            model,
            traces,
            oracle.read_ranking(self.d / "ranking.csv"),
            oracle.read_explanations(self.d / "ranking.csv.explain.txt"),
            oracle.read_labels(self.d / "labels.csv"),
            EXPLAIN_TOP,
        )
        return {"auc": auc}


def arrival_order(lengths: list[int], width: int, rng: random.Random) -> list[tuple[int, int]]:
    """(case, event index) pairs: up to ``width`` cases open, the next event from a random one."""
    order, open_cases, position, nxt = [], [], {}, 0
    while open_cases or nxt < len(lengths):
        while len(open_cases) < width and nxt < len(lengths):
            open_cases.append(nxt)
            position[nxt] = 0
            nxt += 1
        slot = rng.randrange(len(open_cases))
        case = open_cases[slot]
        order.append((case, position[case]))
        position[case] += 1
        if position[case] == lengths[case]:
            open_cases.pop(slot)
    return order


class ShipMonitor(Workload):
    """One closed-loop caller replays an interleaved arrival stream; one pass is one operation."""

    name = "ship-monitor"
    # Passes are short and their speed follows the shared machine's load from
    # second to second, so a run averages over at least 12 of them.
    min_operations = 12
    timed_layers = ("model.event_probability_calls*", "model.factors", "detect.*")

    @staticmethod
    def setup(d: Path, seed: int, tracer=None) -> None:
        _scoring_setup(d, seed, MONITOR_TRACES, tracer)

    def prepare(self) -> None:
        self.model = edbn.read_model(self.d / "model.json")
        schema = edbn.AttributeSchema(names=self.model.schema.names, trace_id_column=TRACE_COL,
                                      event_id_column="event_id")
        self.traces = edbn.load_log(self.d / "test.csv", schema).traces
        self.stream = arrival_order([len(t) for t in self.traces], MONITOR_WIDTH,
                                    random.Random(self.seed + 3))
        self.passes: list[list] = []

    def operation(self, traced: bool):
        model, traces = self.model, self.traces
        clock = self.clock
        prefixes: dict[int, list] = {}
        record, latencies = [], []
        failed = 0
        prefix_time = 0.0
        for case, index in self.stream:
            trace = traces[case]
            prefix = prefixes.setdefault(case, [])
            prefix.append(trace.events[index])
            t0 = clock()
            try:
                score = edbn.score_prefix(model, prefix, trace.trace_id)
                t1 = clock()
                explained = edbn.explain(score, EXPLAIN_TOP) if score.score < ALARM_THRESHOLD else None
            except Exception:
                failed += 1
                continue
            t2 = clock()
            latencies.append(t2 - t0)
            prefix_time += t1 - t0
            record.append((case, index, score.score, explained))
            if index == len(trace) - 1:
                del prefixes[case]
        if traced:
            self.tracer.add("detect.score_prefix_s", prefix_time)
        self.passes.append(record)
        del self.passes[:-2]  # the last two passes are compared and checked
        return len(self.stream), failed, len(self.stream), latencies

    def check(self) -> dict:
        oracle.check(len(self.passes) == 2 and self.passes[0] == self.passes[1],
                     "repeated passes over the stream gave different results")
        model = oracle.ModelDoc((self.d / "model.json").read_text(encoding="utf-8"))
        _, traces = oracle.read_log(self.d / "test.csv", TRACE_COL, model.attrs)
        oracle.check([t for t, _ in traces] == [t.trace_id for t in self.traces],
                     "the package parsed other cases than the log holds")
        reports = [oracle.trace_report(model, events) for _, events in traces]
        alarms = 0
        for case, index, score, explained in self.passes[-1]:
            tid, events = traces[case]
            per_event, prefix_logs, _ = reports[case]
            name = f"case {tid} after {index + 1} events"
            oracle.check_log_score(name, score, prefix_logs[index])
            oracle.check((explained is not None) == (score < ALARM_THRESHOLD), f"{name}: alarm decision")
            if explained is not None:
                alarms += 1
                oracle.check_explanation(name, explained, per_event[: index + 1],
                                         [e[0] for e in events[: index + 1]], EXPLAIN_TOP)
        finals = {case: score for case, index, score, _ in self.passes[-1] if index == len(traces[case][1]) - 1}
        oracle.check(len(finals) == len(traces), "some cases never completed")
        for case, score in finals.items():
            oracle.check_log_score(f"case {traces[case][0]} (full trace)", score, reports[case][1][-1])
        return {"alarms_per_pass": alarms}


WORKLOADS = {w.name: w for w in (ShipTrain, ShipScore, ShipMonitor)}
