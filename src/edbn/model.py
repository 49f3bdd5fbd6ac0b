"""The learned model: FD mappings, CPTs, novelty rates, the graph they span, and event scoring.

A trained model combines one CPT per attribute, majority-vote FD mappings with violation rates,
and per-attribute new_value / new_relation rates.  Its dependency DAG over time-sliced attributes
is derived: the CPT parent edges and the FD edges.  Every rate and CPT cell is an exact rational
over training counts, so scores are bit-identical across platforms and across a save/load round
trip.  Scoring reads float tables that each model compiles once from those rationals
(ScoringTables).  Models and their tables are immutable; scoring keeps any reuse of factors local
to one call, so it is read-only and safe to call from many threads.
"""
from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator, Sequence, Union

from .event_log import (
    PADDING,
    AttributeSchema,
    Event,
    EventLog,
    Trace,
    Variable,
    _read_utf8,
    _recoded,
    build_k_context,
    k_context_variables,
    write_text,
)
from .fd import FDEdge, FDMapping, build_mapping, discover_fds
from .structure import CPT, DAG, Edge, fit_cpts, learn_structure, make_constraints

MODEL_FORMAT_VERSION = 1

VALUE = "value"
RELATION = "relation"
FD_CHECK = "fd"


class ModelFormatError(ValueError):
    """Raised when a serialized model cannot be loaded."""


def _log(value: float) -> float:
    return math.log(value) if value > 0.0 else -math.inf


@dataclass(frozen=True)
class Factor:
    """One multiplicative contribution to an event's probability."""

    attribute: str
    kind: str  # VALUE, RELATION or FD_CHECK
    source: Variable | None
    value: float

    @property
    def log_value(self) -> float:
        return _log(self.value)


@dataclass(frozen=True)
class EventScore:
    event_id: str
    factors: tuple[Factor, ...]

    @property
    def log_probability(self) -> float:
        return math.fsum(f.log_value for f in self.factors)

    @property
    def probability(self) -> float:
        return math.exp(self.log_probability)  # exp(-inf) is 0.0


@dataclass(frozen=True)
class EDBNModel:
    """A learned model.  ``cpts`` holds each attribute's CPT; ``dag`` is derived from the CPT parents and FD edges."""

    k: int
    schema: AttributeSchema
    fd_mappings: tuple[FDMapping, ...]
    cpts: dict[str, CPT]
    new_value: dict[str, Fraction]
    new_relation: dict[str, Fraction]
    active_domains: dict[str, frozenset[str]]
    training_event_count: int

    def __post_init__(self) -> None:
        # every table scoring reads must cover the schema and the model's variables
        variables, names = set(self.variables), set(self.schema.names)
        tables = {f: getattr(self, f) for f in ("cpts", "new_value", "new_relation", "active_domains")}
        for field, table in tables.items():
            if set(table) != names:
                raise ValueError(f"{field} differs from the schema in {sorted(map(str, set(table) ^ names))}")
        for attr in self.schema.names:
            for field in ("new_value", "new_relation"):
                if not 0 <= tables[field][attr] <= 1:
                    raise ValueError(f"{field} rate for {attr!r} outside [0, 1]")
            if not variables.issuperset(self.cpts[attr].parents):
                raise ValueError(f"cpts: a parent of {attr!r} is not a model variable")
        for m in self.fd_mappings:
            if m.edge.source not in variables or m.edge.target not in variables:
                raise ValueError(f"fd_mappings: {m.edge.source} -> {m.edge.target} uses an unknown variable")

    @cached_property
    def dag(self) -> DAG:
        parents = {(p, Variable(a, 0)) for a, cpt in self.cpts.items() for p in cpt.parents}
        return DAG(self.variables, self.fd_edges() | parents)

    @cached_property
    def variables(self) -> tuple[Variable, ...]:
        return k_context_variables(self.schema.names, self.k)

    @cached_property
    def scoring_tables(self) -> ScoringTables:
        return ScoringTables(self)

    def fd_edges(self) -> frozenset[Edge]:
        return frozenset((m.edge.source, m.edge.target) for m in self.fd_mappings)


def learn_edbn(
    log: EventLog,
    k: int,
    fd_threshold: float = 0.99,
    *,
    structure: Iterable[Edge] | None = None,
) -> EDBNModel:
    """Full learning pipeline: k-context, FD discovery, structure search, CPTs, rates.

    When ``structure`` is given those conditional edges are imposed verbatim and
    the greedy search is skipped; EDBNModel.dag still adds the FD edges.
    """
    if not log.event_count:
        raise ValueError("training log is empty")
    ctx = build_k_context(log, k)
    fds = discover_fds(ctx, fd_threshold)
    if structure is None:
        dag = learn_structure(ctx, make_constraints(ctx.variables, fds))
    else:
        dag = DAG(ctx.variables, frozenset(structure))
    cpts = fit_cpts(ctx, dag, fds)
    n = len(ctx)
    # the lag-0 vocabularies are the values each attribute takes in the log
    domains = {a: frozenset(ctx.vocabulary(Variable(a, 0))) for a in log.schema.names}
    return EDBNModel(
        k=k,
        schema=log.schema,
        fd_mappings=tuple(build_mapping(ctx, fd) for fd in fds),
        cpts=cpts,
        new_value={a: Fraction(len(domain), n) for a, domain in domains.items()},
        new_relation={a: Fraction(len(cpt.rows) if cpt.parents else 0, n) for a, cpt in cpts.items()},
        active_domains=domains,
        training_event_count=n,
    )


_CHUNK_EVENTS = 512  # ScoringTables.score_traces reads whole traces, a chunk of about this many events at a time

# A run's block (ScoringTables._block): its factor values, the int sum of their fixed-point logs (-inf when a
# factor is zero), and its smallest factor.
Block = tuple[tuple[float, ...], int | float, float]


def _tuple_getter(positions: Sequence[int]):
    """k-context values -> the tuple of the values at ``positions``."""
    if len(positions) == 1:
        (p,) = positions
        return lambda ctx: (ctx[p],)
    return itemgetter(*positions)


def _fixed_point(rates: Iterable[float]) -> tuple[float, dict[float, int | float]]:
    """(2 ** -S, {rate: log(rate) * 2 ** S}), S = max(53 - exponent of each nonzero finite log); log(0) is -inf."""
    shift = max((53 - math.frexp(math.log(r))[1] for r in rates if 0.0 < r < 1.0), default=0)
    return 2.0 ** -shift, {r: int(math.ldexp(math.log(r), shift)) if r else -math.inf for r in rates}


class ScoringTables:
    """A model's factors as float tables keyed on model codes, compiled once from its exact rationals.

    Per attribute, ``_coders`` gives PADDING the code 0 and each value that the tables name (in its active
    domain or CPT cells, in the CPT configurations and FD map keys that read it, or in the FD map values
    into it) a code of its own; any other value codes as UNSEEN, the coder's length.  Every factor treats
    the values a model never names alike, so one code for them all is exact.

    Every event has the same factor layout, ``labels``: per attribute in schema order its value factor,
    its relation factor when it has CPT parents, then one FD check per mapping into it, in model order.
    Each table float is taken once from its exact rate.  Value: ``float(1 - new_value)`` for a value of the
    active domain, ``float(new_value)`` for any other.  Relation: ``float(1 - new_relation)`` times the CPT
    cell's probability for a parent configuration that is a CPT row (``0.0`` for a value missing from the
    row), ``float(new_relation)`` for any other configuration.  FD check: ``float(1 - violation_rate)`` where
    the source is not a map key (PADDING included) or maps to the value, ``float(violation_rate)`` where it
    maps to another.  Tables are dicts by code, as sparse as the model, each with its unseen fallback.

    An attribute's own positions are the k-context positions of its value, its CPT parents and its FD
    sources.  ``_blocks`` holds one entry per run of attributes, taken in schema order, where each
    attribute joins the current run when its own positions share one with the union of the run's: the
    run's key, that union with each position once, and its members' entries, which read the key's codes.
    ``_log_of`` maps every float a factor can take to its log as a fixed-point int (_fixed_point).

    score_traces and score_events share one driver, _score_chunk.  It gives every event's runs' blocks
    (Block), event after event, each computed by _block once per distinct key in a call and held by
    reference, never copied; and an event's log as the int sum of its blocks' logs times _scale:
    math.fsum of its factors' logs bit for bit, since the int sum is exact and only its conversion to
    float rounds, half to even.  explain reads a block's smallest factor, so no block is sorted.
    """

    def __init__(self, model: EDBNModel):
        names = model.schema.names
        pos = {v: i for i, v in enumerate(model.variables)}  # each variable's k-context position
        coders = {a: {PADDING: 0} for a in names}

        def code(attr: str, x: str) -> int:  # a value the tables name gets the next code of its attribute
            return coders[attr].setdefault(x, len(coders[attr]))
        labels: list[tuple[str, str, Variable | None]] = []
        blocks, rates = [], [0.0]  # rates: every float a factor can take; 0.0 for a value missing from a CPT row
        for attr in names:
            cpt, mappings = model.cpts[attr], [m for m in model.fd_mappings if m.edge.target.attr == attr]
            own = [pos[Variable(attr, 0)], *(pos[p] for p in cpt.parents), *(pos[m.edge.source] for m in mappings)]
            if not blocks or blocks[-1][0].keys().isdisjoint(own):
                blocks.append(({}, []))  # a new run
            key, run = blocks[-1]  # key: the run's k-context positions -> their positions in its key
            for p in own:
                key.setdefault(p, len(key))
            at = key.__getitem__
            labels.append((attr, VALUE, None))
            # float(1 - rate) for a seen value and for a seen parent combination, derived once per attribute
            seen, relation_seen = float(1 - model.new_value[attr]), float(1 - model.new_relation[attr])
            values = dict.fromkeys([code(attr, x) for x in sorted(model.active_domains[attr])], seen)
            relation = None
            if cpt.parents:
                labels.append((attr, RELATION, None))
                rows = {
                    tuple(map(code, [p.attr for p in cpt.parents], cfg)):
                        {code(attr, x): relation_seen * cpt.probability(x, cfg) for x in counts}
                    for cfg, counts in cpt.rows.items()
                }
                relation = (_tuple_getter([at(pos[p]) for p in cpt.parents]), rows, float(model.new_relation[attr]))
                rates += [relation[2], *chain.from_iterable(row.values() for row in rows.values())]
            fds = []
            for m in mappings:
                labels.append((attr, FD_CHECK, m.edge.source))
                agree = float(1 - m.violation_rate)
                violate = float(m.violation_rate) if m.map else agree  # an empty map never violates
                expected = {code(m.edge.source.attr, x): code(attr, y) for x, y in m.map.items()}
                fds.append((at(pos[m.edge.source]), expected, agree, violate))
            unseen_value = float(model.new_value[attr])
            rates += [*values.values(), unseen_value, *chain.from_iterable(f[2:] for f in fds)]
            run.append((at(own[0]), values, unseen_value, relation, tuple(fds)))
        self.labels = tuple(labels)
        self._coders = tuple(coders.values())  # complete: every value the tables name has its code
        self._unseen = tuple(map(len, self._coders))  # each attribute's UNSEEN code, past all of its codes
        self._blocks = tuple((tuple(key), tuple(run)) for key, run in blocks)
        self._keys_of = tuple(_tuple_getter(key) for key, _ in self._blocks)  # per run, its key positions' columns
        # every k-context position that a key reads, with its attribute's index and its lag
        positions = set(chain.from_iterable(key for key, _ in self._blocks))
        self._columns = tuple((p, names.index(v.attr), v.lag) for p, v in enumerate(model.variables) if p in positions)
        self._scale, fixed = _fixed_point(rates)
        self._log_of = fixed.__getitem__

    def score_events(self, events: Sequence[Event]) -> tuple[tuple[Block, ...], list[float]]:
        """Every event's blocks, one per run in run order, event after event, and each event's log-probability,
        for one ordered sequence of events whose history is the sequence itself, padded at the head."""
        if any(len(e.values) != len(self._coders) for e in events):
            raise ValueError("event values do not match the model's schema")
        coded = [tuple(map(dict.get, self._coders, e.values, self._unseen)) for e in events]
        memos = [_Memo(self._block, plan) for _, plan in self._blocks]
        return self._score_chunk(list(zip(*coded)) or [()] * len(self._coders), [(0, len(events))], memos)

    def score_traces(self, codes, vocabularies, trace_lengths) -> Iterator[tuple[tuple[Block, ...], list[float]]]:
        """score_events of each trace of a log given as code columns (per attribute, one code per event into its
        entry of ``vocabularies``) and ``trace_lengths``.  Each vocabulary is coded once and each column taken
        through it to model codes (_recoded); then each chunk of whole traces, about _CHUNK_EVENTS events, is scored."""
        codes = [_recoded(column, list(map(coder.get, vocab, repeat(unseen))), unseen + 1)
                 for coder, unseen, vocab, column in zip(self._coders, self._unseen, vocabularies, codes)]
        memos, runs = [_Memo(self._block, plan) for _, plan in self._blocks], len(self._blocks)
        for _, chunk in groupby(zip(accumulate(trace_lengths, initial=0), trace_lengths),
                                key=lambda trace: trace[0] // _CHUNK_EVENTS):  # (first event, length) of each trace
            chunk = list(chunk)
            lo, hi = chunk[0][0], sum(chunk[-1])  # the chunk's first event, and the end of its last trace
            chunk = [(start - lo, length) for start, length in chunk]
            blocks, logs = self._score_chunk([column[lo:hi] for column in codes], chunk, memos)
            for start, length in chunk:
                yield blocks[start * runs : (start + length) * runs], logs[start : start + length]

    def _score_chunk(self, columns, traces, memos) -> tuple[tuple[Block, ...], list[float]]:
        """Every event's blocks, event after event, and each event's log, for whole traces given as model-code
        columns (per attribute, one code per event) and each trace's (first event, length).  A key position's
        column is its attribute's codes shifted by its lag within each trace, PADDING's code at the head."""
        size, starts, lagged = sum(traces[-1]), traces[1:], {}
        for p, a, lag in self._columns:
            column = lagged[p] = columns[a]
            if lag:
                column = lagged[p] = [0] * lag
                column += columns[a]
                del column[size:]
                for start, length in starts:
                    column[start : start + min(lag, length)] = [0] * min(lag, length)
        # per run, each event's block; then every event's blocks, event after event, and each event's log
        blocks = [list(map(memo.__getitem__, zip(*key_of(lagged)))) for memo, key_of in zip(memos, self._keys_of)]
        logs = list(map(self._scale.__mul__, map(sum, zip(*[map(itemgetter(1), b) for b in blocks]))))
        return tuple(chain.from_iterable(zip(*blocks))), logs

    def _block(self, plan, key) -> Block:
        """A run's block from its key's codes: its factor values laid out as its members' labels, a tuple of
        floats (untracked by gc); the sum of their fixed-point logs, an int, or -inf when a factor is zero;
        and the smallest factor.  This is the only code that turns k-context codes into factor values."""
        out: list[float] = []
        append = out.append
        for x_at, values, unseen_value, relation, fds in plan:
            x = key[x_at]
            append(values.get(x, unseen_value))
            if relation is not None:
                parents_of, rows, unseen_parents = relation
                row = rows.get(parents_of(key))
                append(unseen_parents if row is None else row.get(x, 0.0))
            for src_at, expected_of, agree, violate in fds:
                expected = expected_of.get(key[src_at])
                append(agree if expected is None or expected == x else violate)
        factors = tuple(out)
        return factors, sum(map(self._log_of, factors)), min(factors)


class _Memo(dict):
    """A run's blocks by key, each computed by ``block`` when its key is first read: one call's, never the tables'."""

    def __init__(self, block, plan):
        self.block, self.plan = block, plan

    def __missing__(self, key):
        value = self[key] = self.block(self.plan, key)
        return value


def decompose(
    labels: Sequence[tuple[str, str, Variable | None]],
    event_ids: Sequence[str],
    values: Sequence[float],
) -> list[EventScore]:
    """EventScores of consecutive events from their flat factor values laid out as ``labels``."""
    n = len(labels)
    return [
        EventScore(eid, tuple(Factor(*label, v) for label, v in zip(labels, values[i * n : (i + 1) * n])))
        for i, eid in enumerate(event_ids)
    ]


def event_scores(model: EDBNModel, events: Sequence[Event]) -> list[EventScore]:
    """EventScore per event of an ordered (possibly partial) trace."""
    tables = model.scoring_tables
    values = list(chain.from_iterable(map(itemgetter(0), tables.score_events(events)[0])))
    return decompose(tables.labels, [e.id for e in events], values)


def trace_log_probability(model: EDBNModel, trace: Union[Trace, Sequence[Event]]) -> float:
    events = trace.events if isinstance(trace, Trace) else tuple(trace)
    if not events:
        raise ValueError("trace is empty")
    return math.fsum(model.scoring_tables.score_events(events)[1])


def trace_probability(model: EDBNModel, trace: Union[Trace, Sequence[Event]]) -> float:
    """Joint probability of a trace: product of its event probabilities.

    History comes from the trace itself, padded at the head.  Computed in log
    space; exactly 0.0 only when some factor is exactly zero.
    """
    return math.exp(trace_log_probability(model, trace))  # exp(-inf) is 0.0


# --- serialization ---------------------------------------------------------


def _frac(f: Fraction) -> list[int]:
    return [f.numerator, f.denominator]


def _var(v: Variable) -> list:
    return [v.attr, v.lag]


def save_model(model: EDBNModel) -> str:
    """Serialize to a versioned JSON text document with exact rational rates."""
    doc = {
        "format": "edbn-model",
        "format_version": MODEL_FORMAT_VERSION,
        "k": model.k,
        "schema": {
            "attributes": list(model.schema.names),
            "trace_id_column": model.schema.trace_id_column,
            "event_order_column": model.schema.event_order_column,
            "event_id_column": model.schema.event_id_column,
        },
        "training_event_count": model.training_event_count,
        "dag_edges": sorted([_var(s), _var(t)] for s, t in model.dag.edges),
        "fd_mappings": [
            {
                "source": _var(m.edge.source),
                "target": _var(m.edge.target),
                "strength": m.edge.strength,
                "map": {k: v for k, v in sorted(m.map.items())},
                "violation": _frac(m.violation_rate),
            }
            for m in model.fd_mappings
        ],
        "cpts": [
            {
                "attribute": attr,
                "parents": [_var(p) for p in cpt.parents],
                "rows": [
                    {
                        "parents": list(cfg),
                        "total": cpt.row_totals[cfg],
                        "counts": {k: v for k, v in sorted(cpt.rows[cfg].items())},
                    }
                    for cfg in sorted(cpt.rows)
                ],
            }
            for attr, cpt in sorted(model.cpts.items())
        ],
        "new_value": {a: _frac(r) for a, r in sorted(model.new_value.items())},
        "new_relation": {a: _frac(r) for a, r in sorted(model.new_relation.items())},
        "active_domains": {a: sorted(d) for a, d in sorted(model.active_domains.items())},
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_model(model: EDBNModel, path) -> None:
    write_text({path: [save_model(model)]})


_TOP_KEYS = {"format", "format_version", "k", "schema", "training_event_count", "dag_edges",
             "fd_mappings", "cpts", "new_value", "new_relation", "active_domains"}


def _check_keys(obj, expected: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"{where} must be a JSON object")
    got = set(obj)
    if got - expected:
        raise ModelFormatError(f"unknown field(s) in {where}: {sorted(got - expected)}")
    if expected - got:
        raise ModelFormatError(f"missing field(s) in {where}: {sorted(expected - got)}")


@contextmanager
def _field(where: str):
    """Report any failure to build part of a model from its document as a ModelFormatError naming it."""
    try:
        yield
    except ModelFormatError:
        raise
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        raise ModelFormatError(f"malformed {where}: {exc}") from None


def _load_int(value, where: str, minimum: int) -> int:
    if type(value) is not int or value < minimum:
        raise ModelFormatError(f"{where} must be an integer >= {minimum}, got {value!r}")
    return value


def _load(value, kind: type, where: str, length: int | None = None, items: type | None = None):
    """value if its JSON type is exactly ``kind`` (no bool passes as an int) and,
    where given, it has ``length`` items and each item's type is ``items``."""
    if (type(value) is not kind or length is not None and len(value) != length
            or items is not None and any(type(v) is not items for v in value)):
        raise ModelFormatError(f"malformed {where}: {value!r}")
    return value


def _once(items: list, where: str, name=repr, error: type[ValueError] = ModelFormatError) -> list:
    """``items``, or ``error`` naming the first item that it lists twice."""
    if len(set(items)) < len(items):
        repeated = next(item for i, item in enumerate(items) if item in items[:i])
        raise error(f"{where} repeats {name(repeated)}")
    return items


def _object(pairs: list, error: type[ValueError] = ModelFormatError) -> dict:
    """A JSON object of a model or process-model document; a key that it names twice raises ``error``."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        _once([key for key, _ in pairs], "a JSON object", lambda key: f"the key {key!r}", error)
    return obj


def _load_var(pair, where: str) -> Variable:
    attr, lag = _load(pair, list, f"variable in {where}", 2)
    return Variable(_load(attr, str, f"variable in {where}"), _load_int(lag, f"variable lag in {where}", 0))


def _load_frac(pair, where: str) -> Fraction:
    numerator, denominator = _load(pair, list, f"rational in {where}", 2)
    return Fraction(_load_int(numerator, f"numerator in {where}", 0), _load_int(denominator, f"denominator in {where}", 1))


def load_model(text: str) -> EDBNModel:
    """Parse a model document; rejects unknown versions, unknown or missing fields.

    Every malformed field raises ModelFormatError naming it, so a loaded model
    never fails when it is first scored.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"not a valid model document: {exc}") from None
    _check_keys(doc, _TOP_KEYS, "model")
    version = doc["format_version"]
    if (doc["format"], version, type(version)) != ("edbn-model", MODEL_FORMAT_VERSION, int):
        raise ModelFormatError(f"unsupported format {doc['format']!r} version {version!r}")
    columns = {"trace_id_column", "event_order_column", "event_id_column"}
    _check_keys(doc["schema"], columns | {"attributes"}, "schema")
    with _field("schema"):
        names = tuple(_load(doc["schema"]["attributes"], list, "schema attributes"))
        schema = AttributeSchema(names, **{c: doc["schema"][c] for c in columns})
    k = _load_int(doc["k"], "k", 1)
    with _field("dag_edges"):
        edges = [tuple(_load_var(v, "dag_edges") for v in _load(e, list, "dag_edges", 2))
                 for e in _load(doc["dag_edges"], list, "dag_edges")]
        _once(edges, "dag_edges", lambda e: f"{e[0]} -> {e[1]}")

    mappings = []
    with _field("fd_mappings"):
        for entry in _load(doc["fd_mappings"], list, "fd_mappings"):
            _check_keys(entry, {"source", "target", "strength", "map", "violation"}, "fd_mappings")
            edge = FDEdge(
                _load_var(entry["source"], "fd_mappings"),
                _load_var(entry["target"], "fd_mappings"),
                _load(entry["strength"], float, "fd_mappings strength"),
            )
            fd_map = _load(entry["map"], dict, "fd_mappings map")
            _load(list(fd_map.values()), list, f"fd_mappings map values of {edge.target.column_name}", items=str)
            mappings.append(FDMapping(edge, fd_map, _load_frac(entry["violation"], "fd_mappings")))
        _once([(m.edge.source, m.edge.target) for m in mappings], "fd_mappings", lambda e: f"{e[0]} -> {e[1]}")

    cpts: dict[str, CPT] = {}
    with _field("cpts"):
        for entry in _load(doc["cpts"], list, "cpts"):
            _check_keys(entry, {"attribute", "parents", "rows"}, "cpts")
            attr = _load(entry["attribute"], str, "cpts attribute")
            parents = [_load_var(p, "cpts") for p in _load(entry["parents"], list, "cpts parents")]
            _once(parents, f"the parent list of {attr!r} in cpts", str)
            rows: dict = {}
            for row in _load(entry["rows"], list, "cpts rows"):
                _check_keys(row, {"parents", "total", "counts"}, "cpts row")
                cfg = tuple(_load(row["parents"], list, "cpts row parents", items=str))
                if len(cfg) != len(parents):
                    raise ModelFormatError(f"CPT row arity mismatch for {attr!r} in cpts")
                if cfg in rows:
                    raise ModelFormatError(f"repeated cpts row {list(cfg)!r} for {attr!r}")
                rows[cfg] = {k2: _load_int(v, "cpts count", 0) for k2, v in row["counts"].items()}
                if sum(rows[cfg].values()) != _load_int(row["total"], "cpts total", 1):
                    raise ModelFormatError(f"cpts row {list(cfg)!r} of {attr!r}: counts do not sum to its total")
            if attr in cpts:
                raise ModelFormatError(f"a second cpts entry for {attr!r}")
            cpts[attr] = CPT(tuple(parents), rows)

    with _field("new_value"):
        new_value = {a: _load_frac(v, f"new_value[{a!r}]") for a, v in doc["new_value"].items()}
    with _field("new_relation"):
        new_relation = {a: _load_frac(v, f"new_relation[{a!r}]") for a, v in doc["new_relation"].items()}
    with _field("active_domains"):
        domains = {a: frozenset(_once(_load(vals, list, f"active_domains[{a!r}]", items=str), f"active_domains[{a!r}]"))
                   for a, vals in doc["active_domains"].items()}
    with _field("model"):
        model = EDBNModel(
            k=k,
            schema=schema,
            fd_mappings=tuple(mappings),
            cpts=cpts,
            new_value=new_value,
            new_relation=new_relation,
            active_domains=domains,
            training_event_count=_load_int(doc["training_event_count"], "training_event_count", 0),
        )
    if set(edges) != model.dag.edges:
        odd = sorted(f"{s} -> {t}" for s, t in set(edges) ^ model.dag.edges)
        raise ModelFormatError(f"dag_edges differ from the CPT parent and FD edges in {odd}")
    return model


def read_model(path) -> EDBNModel:
    return load_model(_read_utf8(path, ModelFormatError, "model file"))
