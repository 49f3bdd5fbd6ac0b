"""Event logs: delimited-text ingestion, traces of categorical events, k-contexts.

A log is a set of traces; a trace is an ordered sequence of events; an event is
an identifier plus one categorical string value per schema attribute.  The
k-context of an event prepends the attribute values of its k predecessors in
the same trace, padding with ``PADDING`` where no predecessor exists.
"""
from __future__ import annotations

import csv
import io
import math
from collections import Counter, deque
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, islice, repeat, tee
from operator import itemgetter, le
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO, Union

# Reserved padding token for missing history. Ingestion rejects logs that
# contain it as a value.
PADDING = "__NONE__"

_CHUNK_ROWS = 4096  # parse_log reads, checks and codes this many lines (csv: rows) at a time
_LAST_CHAR = itemgetter(slice(-1, None))


class LogFormatError(ValueError):
    """Raised when delimited log text cannot be parsed into an event log."""


class DuplicateEventIdError(ValueError):
    """Raised when two events of a log share an id; from parse_log, ``log`` is the log read, named by data row."""
    log: EventLog | None = None


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


class EventLog:
    """A log of traces, held as integer codes when it was parsed.

    ``trace_ids`` and ``trace_lengths`` give the traces in log order and
    ``event_ids`` one id per event.  Per attribute (schema order), ``codes``
    holds one code per event into its entry of ``vocabularies``, the distinct
    values in order of first appearance.  parse_log builds a log from these
    codes; its ``columns`` (the values per attribute) and ``traces`` are
    decoded when first read.  ``EventLog(schema, traces)`` builds a log from
    traces, checks every event, and derives the other fields when first
    read.  A log is immutable.
    """

    def __init__(self, schema: AttributeSchema, traces: Sequence[Trace]):
        traces = tuple(traces)
        n_attrs = len(schema.names)
        seen_ids: set[str] = set()
        for trace in traces:
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
        self.__dict__.update(schema=schema, traces=traces)

    @classmethod
    def _from_codes(cls, schema, event_ids, trace_ids, trace_lengths, vocabularies, codes) -> "EventLog":
        log = cls.__new__(cls)
        log.__dict__.update(schema=schema, trace_ids=trace_ids, trace_lengths=trace_lengths,
                            event_ids=event_ids, vocabularies=vocabularies, codes=codes)
        return log

    def __setattr__(self, name, value):
        raise AttributeError("an EventLog is immutable")

    def _key(self):
        return self.schema, self.trace_ids, self.trace_lengths, self.event_ids

    def __eq__(self, other):
        if not isinstance(other, EventLog):
            return NotImplemented
        return self._key() == other._key() and self.columns == other.columns

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"EventLog(schema={self.schema!r}, traces={self.traces!r})"

    @cached_property
    def traces(self) -> tuple[Trace, ...]:
        events = map(Event, self.event_ids, zip(*self.columns))
        return tuple(Trace(t, tuple(islice(events, n))) for t, n in zip(self.trace_ids, self.trace_lengths))

    @cached_property
    def columns(self) -> tuple[tuple[str, ...], ...]:
        if "codes" in self.__dict__:  # a parsed log; a log of traces codes these columns
            return tuple(tuple(map(v.__getitem__, c)) for v, c in zip(self.vocabularies, self.codes))
        values = [e.values for t in self.traces for e in t.events]
        return tuple(zip(*values)) or ((),) * len(self.schema.names)

    @cached_property
    def vocabularies(self) -> tuple[tuple[str, ...], ...]:
        return tuple(tuple(dict.fromkeys(column)) for column in self.columns)

    @cached_property
    def codes(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(map({v: c for c, v in enumerate(vocab)}.__getitem__, column))
                     for vocab, column in zip(self.vocabularies, self.columns))

    @cached_property
    def event_ids(self) -> tuple[str, ...]:
        return tuple(e.id for t in self.traces for e in t.events)

    @cached_property
    def trace_ids(self) -> tuple[str, ...]:
        return tuple(t.trace_id for t in self.traces)

    @cached_property
    def trace_lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self.traces))

    @property
    def event_count(self) -> int:
        return len(self.event_ids)

    def iter_events(self) -> Iterator[tuple[Trace, Event]]:
        for trace in self.traces:
            for event in trace.events:
                yield trace, event

    def trace_by_id(self, trace_id: str) -> Trace:
        for trace in self.traces:
            if trace.trace_id == trace_id:
                return trace
        raise KeyError(trace_id)


def _check_unique(event_ids: Sequence[str]) -> None:
    if len(set(event_ids)) != len(event_ids):
        seen: set[str] = set()
        for event_id in event_ids:
            if event_id in seen:
                raise DuplicateEventIdError(f"duplicate event id {event_id!r}")
            seen.add(event_id)


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


def _order_keys(values: Sequence[str]) -> Sequence:
    # Numbers when every value of the trace parses as one, else text.  A nan
    # compares false with everything, so a trace that holds one sorts as text.
    try:
        numbers = list(map(float, values))
    except ValueError:
        return values
    return values if any(map(math.isnan, numbers)) else numbers


def _split_columns(lines: list[str], delimiter: str, width: int) -> list | None:
    """The columns of ``lines`` split at the delimiter, or None where csv might read them otherwise.

    csv treats a quote, CR and NUL specially, fails a field over its limit, and ends a row at
    the end of each item; so no item may hold those, and each must be one line ending in a
    line break.  Blank lines are skipped, as csv skips them; every other line must hold
    ``width - 1`` delimiters.
    """
    text = "".join(lines)
    if ('"' in text or "\r" in text or "\0" in text or delimiter == "\n"
            or max(map(len, lines)) > csv.field_size_limit()
            or set(map(_LAST_CHAR, lines)) != {"\n"} or text.count("\n") != len(lines)):
        return None
    if "\n" in lines:
        lines = [line for line in lines if line != "\n"]
        text = "".join(lines)
    if set(map(str.count, lines, repeat(delimiter))) - {width - 1}:
        return None
    fields = text.replace("\n", delimiter).split(delimiter)
    fields.pop()  # the empty field after the last line break
    return [fields[i::width] for i in range(width)]


def _code_chunk(fields, coders, plain, trace_i: int) -> bool:
    """Appends each coded column's codes and each plain column's stripped values from ``fields``,
    the chunk's columns, or returns False at a faulty value.  Only new raw values are stripped
    and checked: no empty trace id, no PADDING as an attribute value."""
    for i, (code_of, vocab, codes) in coders.items():
        try:
            chunk = list(map(code_of.__getitem__, fields[i]))
        except KeyError:
            for raw in [raw for raw in dict.fromkeys(fields[i]) if raw not in code_of]:
                value = raw.strip()
                if (not value) if i == trace_i else value == PADDING:
                    return False
                code_of[raw] = vocab.setdefault(value, len(vocab))  # equal stripped values share a code
            chunk = list(map(code_of.__getitem__, fields[i]))
        codes += chunk
    for i, values in plain.items():
        values += map(str.strip, fields[i])
    return True


def _raise_first_fault(reader, start: int, width: int, trace_i: int, attr_is: Sequence[int]) -> None:
    """Reads rows on from the first line of a faulty chunk, ``start`` lines into the
    text, and raises the csv.Error or the LogFormatError of the first faulty one."""
    for row in reader:
        if not row:  # a blank line yields []
            continue
        line = start + reader.line_num
        if len(row) != width:
            raise LogFormatError(f"line {line}: expected {width} fields, got {len(row)}")
        if not row[trace_i].strip():
            raise LogFormatError(f"line {line}: empty trace id")
        if any(row[i].strip() == PADDING for i in attr_is):
            raise LogFormatError(f"line {line}: reserved token {PADDING!r} used as a value")
    raise AssertionError("a faulty chunk read again without a fault")


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

    The text is read a chunk of lines at a time.  A chunk that csv would read
    as plain splits at the delimiter (see _split_columns) is split with
    str.split; from the first chunk that is not, csv reads the rest a chunk of
    rows at a time, as a quoted field may span lines.  Each attribute and the
    trace id is coded as it is read (see EventLog).  A faulty chunk is read
    again row by row to name its first faulty line.
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    lines = iter(source)
    reader = csv.reader(lines, delimiter=delimiter)

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
    optional = [c for c in (schema.event_order_column, schema.event_id_column) if c]
    for name in (*schema.names, schema.trace_id_column, *optional):
        if name not in col_index:
            raise LogFormatError(f"column {name!r} not found in input")

    width, trace_i = len(columns), col_index[schema.trace_id_column]
    attr_is = [col_index[a] for a in schema.names]
    # per coded column: raw value -> code, stripped value -> code (the vocabulary), codes
    coders = {i: ({}, {}, []) for i in (*attr_is, trace_i)}
    plain = {col_index[c]: [] for c in optional}  # stripped values
    start = reader.line_num  # lines of the header
    while chunk := list(islice(lines, _CHUNK_ROWS)):
        fields = _split_columns(chunk, delimiter, width)
        if fields is None:
            break
        if not _code_chunk(fields, coders, plain, trace_i):
            _raise_first_fault(csv.reader(chunk, delimiter=delimiter), start, width, trace_i, attr_is)
        start += len(chunk)
    # csv reads the rest; ``behind`` holds the lines of the chunk being read, to read them again on a fault
    lines, behind = tee(chain(chunk, lines))
    reader = csv.reader(lines, delimiter=delimiter)
    read = 0
    while True:
        deque(islice(behind, reader.line_num - read), maxlen=0)  # lines of the last chunk
        read = reader.line_num
        try:
            rows = list(filter(None, islice(reader, _CHUNK_ROWS)))  # a blank line yields []
            coded = not set(map(len, rows)) - {width} and _code_chunk(
                list(zip(*rows)) or [()] * width, coders, plain, trace_i)
        except csv.Error:
            coded = False
        if not coded:
            _raise_first_fault(csv.reader(behind, delimiter=delimiter), start + read, width, trace_i, attr_is)
        if reader.line_num == read:
            break

    _, trace_vocab, trace_codes = coders[trace_i]
    if not trace_codes:
        raise LogFormatError("empty log")
    # trace codes follow first appearance, so they ascend where each trace's rows are together
    grouped = all(map(le, trace_codes, islice(trace_codes, 1, None)))
    order = range(len(trace_codes)) if grouped else sorted(range(len(trace_codes)), key=trace_codes.__getitem__)
    lengths = Counter(trace_codes).values()  # in code order
    if schema.event_order_column:
        times, start, order = plain[col_index[schema.event_order_column]], 0, list(order)
        for length in lengths:
            rows_of_trace = order[start : start + length]
            keys = _order_keys([times[i] for i in rows_of_trace])
            order[start : start + length] = [i for _, i in sorted(zip(keys, rows_of_trace), key=itemgetter(0))]
            start += length
        grouped = order == list(range(len(order)))

    in_order = tuple if grouped else (lambda values: tuple(map(values.__getitem__, order)))
    # the trace ids, trace lengths, vocabularies and codes
    coded = (tuple(trace_vocab), tuple(lengths), tuple(tuple(coders[i][1]) for i in attr_is),
             tuple(in_order(coders[i][2]) for i in attr_is))
    if not schema.event_id_column:
        return EventLog._from_codes(schema, tuple(map(str, order)), *coded)  # events named by data row
    event_ids = in_order(plain[col_index[schema.event_id_column]])
    try:
        _check_unique(event_ids)
    except DuplicateEventIdError as exc:  # a caller may name the events by data row without a second read
        exc.log = EventLog._from_codes(replace(schema, event_id_column=None), tuple(map(str, order)), *coded)
        raise
    return EventLog._from_codes(schema, event_ids, *coded)


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
    ordered slice k down to slice 0, schema order within each slice.  The log's
    codes are taken through the sorted rank of their values: no value is coded again.
    """
    import numpy as np
    if k < 1:
        raise ValueError("k must be >= 1")
    names = log.schema.names
    variables = tuple(Variable(attr, lag) for lag in range(k, -1, -1) for attr in names)
    lengths = np.array(log.trace_lengths, dtype=np.int64)
    # position of each event in its trace: a lag-l slot is padding where it is below l
    position = np.arange(log.event_count) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    current = {}
    for attr, values, codes in zip(names, log.vocabularies, log.codes):
        vocab = sorted((*values, PADDING))
        rank = dict(zip(vocab, range(len(vocab))))
        lag0 = np.array(list(map(rank.__getitem__, values)), np.int64)[np.fromiter(codes, np.int64, len(codes))]
        current[attr] = vocab, rank[PADDING], lag0
    codes, vocabularies = [], []
    for var in variables:
        vocab, pad, lag0 = current[var.attr]
        # what np.roll wraps around sits at a position below the lag too
        shifted = np.where(position < var.lag, pad, np.roll(lag0, var.lag))
        present = np.bincount(shifted, minlength=len(vocab)) > 0  # re-densify the codes
        codes.append((np.cumsum(present) - 1)[shifted])
        vocabularies.append(tuple(compress(vocab, present)))
    trace_ids = tuple(chain.from_iterable(map(repeat, log.trace_ids, log.trace_lengths)))
    return KContextLog(k, variables, tuple(codes), tuple(vocabularies), log.event_ids, trace_ids)


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
    columns = [source.columns[source.schema.index_of(v.attr if isinstance(v, Variable) else v)] for v in var_list]
    return set(columns[0]) if single else set(zip(*columns))
