"""Anomaly detection for multi-attribute process event logs.

Learns a dynamic Bayesian network extended with functional-dependency mappings
and novelty rates from a log of traces, then ranks traces by the geometric
mean of their event probabilities; low scores flag anomalies and each score
decomposes into per-attribute factors for root-cause inspection.
"""
from .detect import Ranking, TraceScore, explain, rank_traces, score_prefix, score_trace
from .evaluate import EvalReport, LabeledScore, auc, precision_recall, run_experiment
from .event_log import (
    PADDING,
    AttributeSchema,
    Event,
    EventLog,
    KContextLog,
    LogFormatError,
    Trace,
    Variable,
    build_k_context,
    load_log,
    parse_log,
    serialize_log,
    write_log,
)
from .fd import FDEdge, FDMapping, build_mapping, discover_fds
from .model import (
    EDBNModel,
    EventScore,
    Factor,
    ModelFormatError,
    learn_edbn,
    load_model,
    read_model,
    save_model,
    trace_log_probability,
    trace_probability,
    write_model,
)
from .stats import entropy, mutual_information, uncertainty_coefficient
from .structure import (
    CPT,
    DAG,
    StructureConstraints,
    fit_cpts,
    learn_structure,
    make_constraints,
)
from .synth import (
    ANOMALOUS,
    NORMAL,
    LabeledLog,
    Mutation,
    ProcessModel,
    ProcessModelError,
    default_shipping_model,
    generate,
    inject_anomalies,
    load_process_model,
    parse_process_model,
    read_labels,
    write_labels,
)

__version__ = "0.1.0"
