"""Event logs: delimited-text ingestion, traces of categorical events, k-contexts.

A log is a set of traces; a trace is an ordered sequence of events; an event is
an identifier plus one categorical string value per schema attribute.  The
k-context of an event prepends the attribute values of its k predecessors in
the same trace, padding with ``PADDING`` where no predecessor exists.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO, Union

# Reserved padding token for missing history. Ingestion rejects logs that
# contain it as a value.
PADDING = "__NONE__"


class LogFormatError(ValueError):
    """Raised when delimited log text cannot be parsed into an event log."""


class DuplicateEventIdError(ValueError):
    """Raised when two events of a log share an id."""


class Variable(NamedTuple):
    """One time-sliced attribute: ``lag`` events before the current one (lag 0 = current)."""

    attr: str
    lag: int

    @property
    def column_name(self) -> str:
        return f"{self.attr}_{self.lag}"

    def __str__(self) -> str:  # pragma: no cover - repr sugar
        return self.column_name


@dataclass(frozen=True)
class AttributeSchema:
    """Maps log columns to roles: modeled attributes, trace id, optional sort/id columns."""

    names: tuple[str, ...]
    trace_id_column: str
    event_order_column: str | None = None
    event_id_column: str | None = None

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("schema needs at least one attribute")
        if len(set(self.names)) != len(self.names):
            raise ValueError("attribute names must be unique")
        if any(not n for n in self.names):
            raise ValueError("attribute names must be non-empty")
        if self.trace_id_column in self.names:
            raise ValueError("trace_id_column cannot be a modeled attribute")
        optional = [c for c in (self.event_order_column, self.event_id_column) if c is not None]
        if not all(isinstance(c, str) for c in (*self.names, self.trace_id_column, *optional)):
            raise TypeError("column names must be strings")

    def index_of(self, attr: str) -> int:
        try:
            return self.names.index(attr)
        except ValueError:
            raise ValueError(f"unknown attribute {attr!r}") from None


@dataclass(frozen=True)
class Event:
    id: str
    values: tuple[str, ...]


@dataclass(frozen=True)
class Trace:
    trace_id: str
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError(f"trace {self.trace_id!r} has no events")

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class EventLog:
    schema: AttributeSchema
    traces: tuple[Trace, ...]

    def __post_init__(self) -> None:
        n_attrs = len(self.schema.names)
        seen_ids: set[str] = set()
        for trace in self.traces:
            for event in trace.events:
                if len(event.values) != n_attrs:
                    raise ValueError(
                        f"event {event.id!r} has {len(event.values)} values, schema has {n_attrs}"
                    )
                if PADDING in event.values:
                    raise ValueError(f"event {event.id!r} uses the reserved token {PADDING!r}")
                if event.id in seen_ids:
                    raise DuplicateEventIdError(f"duplicate event id {event.id!r}")
                seen_ids.add(event.id)

    @property
    def event_count(self) -> int:
        return sum(len(t) for t in self.traces)

    def iter_events(self) -> Iterator[tuple[Trace, Event]]:
        for trace in self.traces:
            for event in trace.events:
                yield trace, event

    def trace_by_id(self, trace_id: str) -> Trace:
        for trace in self.traces:
            if trace.trace_id == trace_id:
                return trace
        raise KeyError(trace_id)


@dataclass(frozen=True)
class KContextRow:
    """One event widened with its k-history; values align with KContextLog.variables."""

    values: tuple[str, ...]
    event_id: str
    trace_id: str


@dataclass(frozen=True, eq=False)
class KContextLog:
    """The k-context as integer codes: ``codes[i]`` holds one int64 code per event, in
    log order, into ``vocabularies[i]``, the sorted values that ``variables[i]`` takes."""

    k: int
    variables: tuple[Variable, ...]
    codes: tuple = ()
    vocabularies: tuple[tuple[str, ...], ...] = ()
    event_ids: tuple[str, ...] = ()
    trace_ids: tuple[str, ...] = ()

    def __len__(self) -> int:
        return len(self.event_ids)

    def index_of(self, var: Variable) -> int:
        try:
            return self.variables.index(var)
        except ValueError:
            raise ValueError(f"unknown variable {var.column_name}") from None

    def vocabulary(self, var: Variable) -> tuple[str, ...]:
        return self.vocabularies[self.index_of(var)]

    def column(self, var: Variable) -> list[str]:
        i = self.index_of(var)
        vocab = self.vocabularies[i]
        return [vocab[c] for c in self.codes[i].tolist()]

    @cached_property
    def rows(self) -> tuple[KContextRow, ...]:
        values = zip(*(self.column(v) for v in self.variables)) if len(self) else ()
        return tuple(map(KContextRow, values, self.event_ids, self.trace_ids))

    def current_variables(self) -> tuple[Variable, ...]:
        return tuple(v for v in self.variables if v.lag == 0)


def _order_key(values: Sequence[str]):
    # Sort numerically when the whole column parses as numbers, else as text.
    try:
        return [(0, float(v), "") for v in values]
    except ValueError:
        return [(1, 0.0, v) for v in values]


def parse_log(
    source: Union[str, TextIO, Iterable[str]],
    schema: AttributeSchema,
    *,
    delimiter: str = ",",
    header: bool = True,
    column_names: Sequence[str] | None = None,
) -> EventLog:
    """Parse delimited text into an EventLog.

    Rows are grouped by the trace-id column; within a trace, events keep file
    order unless the schema names an event_order_column.  Raises
    LogFormatError for malformed rows (with line number), unknown columns,
    or empty input.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source, delimiter=delimiter)

    if header:
        try:
            columns = [c.strip() for c in next(reader)]
        except StopIteration:
            raise LogFormatError("empty log") from None
    else:
        if column_names is None:
            raise LogFormatError("column_names is required when the input has no header")
        columns = [c.strip() for c in column_names]

    col_index: dict[str, int] = {}
    for i, name in enumerate(columns):
        col_index.setdefault(name, i)
    needed = list(schema.names) + [schema.trace_id_column]
    if schema.event_order_column:
        needed.append(schema.event_order_column)
    if schema.event_id_column:
        needed.append(schema.event_id_column)
    for name in needed:
        if name not in col_index:
            raise LogFormatError(f"column {name!r} not found in input")

    trace_rows: dict[str, list[tuple[Event, str]]] = {}
    n_rows = 0
    for row in reader:
        if not row:
            continue
        line = reader.line_num
        if len(row) != len(columns):
            raise LogFormatError(f"line {line}: expected {len(columns)} fields, got {len(row)}")
        trace_id = row[col_index[schema.trace_id_column]].strip()
        if not trace_id:
            raise LogFormatError(f"line {line}: empty trace id")
        values = tuple(row[col_index[a]].strip() for a in schema.names)
        if PADDING in values:
            raise LogFormatError(f"line {line}: reserved token {PADDING!r} used as a value")
        if schema.event_id_column:
            event_id = row[col_index[schema.event_id_column]].strip()
        else:
            event_id = str(n_rows)
        order_val = row[col_index[schema.event_order_column]].strip() if schema.event_order_column else ""
        trace_rows.setdefault(trace_id, []).append((Event(event_id, values), order_val))
        n_rows += 1

    if n_rows == 0:
        raise LogFormatError("empty log")

    traces = []
    for trace_id, pairs in trace_rows.items():
        if schema.event_order_column:
            keys = _order_key([order for _, order in pairs])
            pairs = [p for _, p in sorted(zip(keys, pairs), key=lambda kp: kp[0])]
        traces.append(Trace(trace_id, tuple(event for event, _ in pairs)))
    return EventLog(schema, tuple(traces))


def load_log(path, schema: AttributeSchema, **options) -> EventLog:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return parse_log(fh, schema, **options)


def serialize_log(log: EventLog, *, delimiter: str = ",") -> str:
    """Render a log as delimited text (trace id, event id, then attribute columns)."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow([log.schema.trace_id_column, "event_id", *log.schema.names])
    for trace in log.traces:
        for event in trace.events:
            writer.writerow([trace.trace_id, event.id, *event.values])
    return out.getvalue()


def write_log(log: EventLog, path, *, delimiter: str = ",") -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(serialize_log(log, delimiter=delimiter))


def writer_schema(schema: AttributeSchema) -> AttributeSchema:
    """Schema that reads back the output of serialize_log / write_log."""
    return AttributeSchema(
        names=schema.names,
        trace_id_column=schema.trace_id_column,
        event_id_column="event_id",
    )


def build_k_context(log: EventLog, k: int) -> KContextLog:
    """Widen every event with the descriptions of its k predecessors, as integer codes.

    History slots beyond the start of the trace hold PADDING.  Variables are
    ordered slice k down to slice 0, schema order within each slice.
    """
    import numpy as np
    if k < 1:
        raise ValueError("k must be >= 1")
    names = log.schema.names
    variables = tuple(Variable(attr, lag) for lag in range(k, -1, -1) for attr in names)
    events = [e for trace in log.traces for e in trace.events]
    lengths = np.array([len(t) for t in log.traces], dtype=np.int64)
    # position of each event in its trace: a lag-l slot is padding where it is below l
    position = np.arange(len(events)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    current = {}
    for attr, values in zip(names, list(zip(*(e.values for e in events))) or [()] * len(names)):
        vocab = sorted(set(values) | {PADDING})
        code_of = {v: c for c, v in enumerate(vocab)}
        lag0 = np.fromiter(map(code_of.__getitem__, values), np.int64, len(values))
        current[attr] = vocab, code_of[PADDING], lag0
    codes, vocabularies = [], []
    for var in variables:
        vocab, pad, lag0 = current[var.attr]
        # what np.roll wraps around sits at a position below the lag too
        shifted = np.where(position < var.lag, pad, np.roll(lag0, var.lag))
        present = np.bincount(shifted, minlength=len(vocab)) > 0  # re-densify the codes
        codes.append((np.cumsum(present) - 1)[shifted])
        vocabularies.append(tuple(compress(vocab, present)))
    trace_ids = tuple(t.trace_id for t in log.traces for _ in t.events)
    return KContextLog(k, variables, tuple(codes), tuple(vocabularies), tuple(e.id for e in events), trace_ids)


def context_row_for(log_schema: AttributeSchema, events: Sequence[Event], index: int, k: int) -> KContextRow:
    """k-context row for one event of an (possibly partial) event sequence."""
    pad = (PADDING,) * len(log_schema.names)
    parts: list[str] = []
    for lag in range(k, 0, -1):
        parts.extend(events[index - lag].values if index - lag >= 0 else pad)
    parts.extend(events[index].values)
    return KContextRow(tuple(parts), events[index].id, "")


def serialize_k_context(ctx: KContextLog, *, delimiter: str = ",") -> str:
    """Delimited export: trace_id, event_id, then <Attr>_<slice> columns; padding as __NONE__."""
    out = io.StringIO()
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(["trace_id", "event_id", *(v.column_name for v in ctx.variables)])
    for row in ctx.rows:
        writer.writerow([row.trace_id, row.event_id, *row.values])
    return out.getvalue()


def active_domain(source: Union[EventLog, KContextLog], variables) -> set:
    """Set of values (single variable) or value tuples (variable sequence) seen in the source.

    On an EventLog, variables are attribute names and PADDING never occurs;
    on a KContextLog, variables are Variable instances and padding values are
    included when present.
    """
    single = isinstance(variables, (str, Variable))
    var_list = [variables] if single else list(variables)
    if not var_list:
        raise ValueError("variables must be non-empty")
    if isinstance(source, KContextLog):
        if single:
            return set(source.vocabulary(variables))
        return set(zip(*(source.column(v) for v in var_list)))

    if any(isinstance(v, Variable) and v.lag != 0 for v in var_list):
        raise ValueError("an EventLog has no history slices")
    idx = [source.schema.index_of(v.attr if isinstance(v, Variable) else v) for v in var_list]
    rows = (e.values for _, e in source.iter_events())
    if single:
        return {values[idx[0]] for values in rows}
    return {tuple(values[i] for i in idx) for values in rows}
