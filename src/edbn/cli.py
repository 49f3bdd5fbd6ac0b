"""Command-line pipeline: generate, train, score, evaluate.

Every subcommand is deterministic given its inputs, flags and seed; all file
formats are the delimited-text and JSON formats of the library modules.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .detect import TraceScore, explain, rank_traces
from .evaluate import render_report, run_experiment, serialize_curve, serialize_scores
from .event_log import AttributeSchema, DuplicateEventIdError, EventLog, LogFormatError, csv_text, load_log, open_utf8, read_header, write_log, write_text
from .model import learn_edbn, read_model, write_model
from .synth import (
    LabeledLog,
    default_shipping_model,
    generate,
    inject_anomalies,
    load_process_model,
    read_labels,
    write_labels,
)


class StageError(Exception):
    """A command's failure, its message naming the stage that failed: ``error in <stage>: <cause>``."""


def _stage(name: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(f"error in {name}: {exc}") from exc


def _header(config: argparse.Namespace, path: str) -> list[str]:
    """Column names from the log's header row, read as load_log reads it."""
    with open_utf8(path) as fh:
        return read_header(fh, config.delimiter)[0]


def _schema_for(config: argparse.Namespace, path: str) -> AttributeSchema:
    """Schema from flags; --attrs is the modeled subset (with a header) or the
    full column list in file order (without one)."""
    trace_col = config.trace_col or "trace_id"
    if config.header:
        if config.attrs is not None:
            names = config.attrs
        else:
            columns = _header(config, path)
            skip = {trace_col, config.order_col, "event_id"}
            names = tuple(c for c in columns if c and c not in skip)
    else:
        if config.attrs is None:
            raise LogFormatError("--attrs is required with --no-header")
        skip = {trace_col, config.order_col}
        names = tuple(c for c in config.attrs if c not in skip)
    return AttributeSchema(names=names, trace_id_column=trace_col, event_order_column=config.order_col)


def _read_log(config: argparse.Namespace, path: str, schema: AttributeSchema) -> EventLog:
    options = {"delimiter": config.delimiter, "header": config.header}
    if not config.header:
        options["column_names"] = list(config.attrs or ())
    return load_log(path, schema, **options)


def _read_scored_log(config: argparse.Namespace, schema: AttributeSchema, has_ids: bool) -> EventLog:
    """The log to score, its events named by its event_id column if that is unique, else by data row."""
    try:
        return _read_log(config, config.log, replace(schema, event_id_column="event_id" if has_ids else None))
    except DuplicateEventIdError as exc:
        return exc.log  # the same read, its events named by data row


def cmd_train(config: argparse.Namespace) -> int:
    schema = _stage("schema", _schema_for, config, config.log)
    log = _stage("parse", _read_log, config, config.log, schema)
    model = _stage("learn", learn_edbn, log, config.k, config.fd_threshold)
    if config.out:
        _stage("write-model", write_model, model, config.out)
    print(f"trained on {log.event_count} events in {len(log.trace_ids)} traces (k={config.k})")
    for mapping in model.fd_mappings:
        edge = mapping.edge
        print(
            f"FD: {edge.source.column_name} -> {edge.target.column_name} "
            f"(U={edge.strength:.6f}, violation={mapping.violation_rate})"
        )
    for src, tgt in sorted(model.dag.edges - model.fd_edges()):
        print(f"edge: {src.column_name} -> {tgt.column_name}")
    for attr in model.schema.names:
        print(f"new_value({attr}) = {model.new_value[attr]}")
        print(f"new_relation({attr}) = {model.new_relation[attr]}")
    return 0


def _render_ranking(entries) -> str:
    return csv_text(["trace_id", "score", "event_count"], ((e.trace_id, repr(e.score), str(e.event_count)) for e in entries))


def _render_explanation(entry: TraceScore, top_n: int) -> str:
    lines = [f"trace {entry.trace_id} (score={entry.score!r}):"]
    for event_id, attr, kind, source, value in explain(entry, top_n):
        origin = f" from {source}" if source else ""
        lines.append(f"  event {event_id}: {attr} {kind}{origin} = {value!r}")
    return "\n".join(lines) + "\n"


def cmd_score(config: argparse.Namespace) -> int:
    model = _stage("read-model", read_model, config.model)
    # explanations name events by the log's event_id column when it has one
    has_ids = config.header and "event_id" in _stage("schema", _header, config, config.log)
    schema = AttributeSchema(
        names=tuple(config.attrs) if config.attrs else model.schema.names,
        trace_id_column=config.trace_col or model.schema.trace_id_column,
        event_order_column=config.order_col,
    )
    log = _stage("parse", _read_scored_log, config, schema, has_ids)
    ranking = _stage("score", rank_traces, model, log)
    text, files = _render_ranking(ranking), {}
    if config.out:
        files[config.out] = [text]
    else:
        print(text, end="")
    if config.explain_n:
        blocks = "".join(_render_explanation(e, config.explain_n) for e in ranking)
        print(blocks, end="")
        if config.out:
            files[f"{config.out}.explain.txt"] = [blocks]
    _stage("write", write_text, files)  # every file, or none
    return 0


def cmd_generate(config: argparse.Namespace) -> int:
    if config.process_model:
        process = _stage("process-model", load_process_model, config.process_model)
    else:
        process = default_shipping_model()
    log = _stage("generate", generate, process, config.n_traces, config.seed)
    labeled = _stage("inject", inject_anomalies, log, config.fraction, config.seed + 1)
    _stage("write", write_log, labeled.log, config.out, delimiter=config.delimiter)
    if config.labels:
        _stage("write-labels", write_labels, labeled, config.labels)
    n_anom = sum(1 for v in labeled.labels.values() if v == "anomalous")
    print(f"generated {len(log.trace_ids)} traces ({n_anom} anomalous) to {config.out}")
    return 0


def cmd_evaluate(config: argparse.Namespace) -> int:
    schema = _stage("schema", _schema_for, config, config.train_log)
    train = _stage("parse-train", _read_log, config, config.train_log, schema)
    test_log = _stage("parse-test", _read_log, config, config.log, schema)
    labels = _stage("read-labels", read_labels, config.labels)
    labeled = _stage("label", LabeledLog, test_log, labels, {})
    report = _stage("evaluate", run_experiment, train, labeled, config.k, config.fd_threshold)
    print(f"auc: {report.auc!r}")
    if config.out:
        _stage("write", write_text, {f"{config.out}.report.txt": [render_report(report)],
                                     f"{config.out}.curve.csv": [serialize_curve(report)],
                                     f"{config.out}.scores.csv": [serialize_scores(report)]})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edbn", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_schema_flags(p):
        p.add_argument("--trace-col", default=None)
        p.add_argument("--order-col", default=None)
        p.add_argument("--attrs", default=None, help="comma-separated modeled columns")
        p.add_argument("--delimiter", default=",")
        p.add_argument("--header", action=argparse.BooleanOptionalAction, default=True)

    p = sub.add_parser("generate", help="generate a synthetic log (and optional labels)")
    p.add_argument("--out", required=True)
    p.add_argument("--labels", default=None)
    p.add_argument("--process-model", default=None)
    p.add_argument("--n-traces", type=int, default=1000)
    p.add_argument("--fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delimiter", default=",")

    p = sub.add_parser("train", help="learn a model from a log file")
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--fd-threshold", type=float, default=0.99)
    add_schema_flags(p)

    p = sub.add_parser("score", help="rank the traces of a log by anomalousness")
    p.add_argument("--model", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--explain", type=int, default=None, dest="explain_n")
    add_schema_flags(p)

    p = sub.add_parser("evaluate", help="train on one log, score a labeled one, report AUC")
    p.add_argument("--train-log", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--fd-threshold", type=float, default=0.99)
    add_schema_flags(p)
    return parser


def _config_from(ns: argparse.Namespace) -> argparse.Namespace:
    """The parsed options, range-checked, with --attrs split at commas and a typed '\\t' delimiter made a tab."""
    if getattr(ns, "k", 1) < 1:
        raise ValueError("--k must be >= 1")
    if not 0 < getattr(ns, "fd_threshold", 1) <= 1:
        raise ValueError("--fd-threshold must be in (0, 1]")
    if not 0 <= getattr(ns, "fraction", 0) <= 1:
        raise ValueError("--fraction must be in [0, 1]")
    if getattr(ns, "explain_n", None) is not None and ns.explain_n < 1:
        raise ValueError("--explain must be >= 1")
    if getattr(ns, "attrs", None) is not None:
        ns.attrs = tuple(a.strip() for a in ns.attrs.split(",") if a.strip())
    if ns.delimiter == "\\t":  # allow --delimiter '\t' from a shell
        ns.delimiter = "\t"
    return ns


_PARSER = _build_parser()  # built once: each build leaves its parser/action cycles to the cyclic gc
COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "score": cmd_score,
    "evaluate": cmd_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    ns = _PARSER.parse_args(argv)
    try:
        config = _config_from(ns)
        return COMMANDS[config.subcommand](config)
    except StageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
