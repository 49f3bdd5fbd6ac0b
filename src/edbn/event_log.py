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
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import itemgetter, le
from typing import Iterable, Iterator, NamedTuple, Sequence, TextIO, Union

# Reserved padding token for missing history. Ingestion rejects logs that
# contain it as a value.
PADDING = "__NONE__"

# parse_log reads, checks and codes about this many fields at a time: max(1, _CHUNK_FIELDS // width)
# lines (more where a quoted field goes on), so one chunk's strings stay cache-sized at any width
_CHUNK_FIELDS = 4096
_LAST_CHAR = itemgetter(slice(-1, None))
_BYTE_CODES = 256  # a log's codes of up to this many values are bytes, of more 4-byte unsigned ints


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
    """A log of traces, held as integer codes.

    ``trace_ids`` and ``trace_lengths`` give the traces in log order and
    ``event_ids`` one id per event.  Per attribute (schema order), ``codes``
    holds one code per event into its entry of ``vocabularies``, the distinct
    values, in an immutable buffer of the narrowest width: ``bytes`` where the
    vocabulary has at most 256 values, else a read-only memoryview of 4-byte
    unsigned codes (format ``"I"``); either indexes, slices and iterates as ints.
    ``columns`` (the values per attribute) and ``traces`` are decoded
    from them when first read.  parse_log codes a log as it reads it, so its
    vocabularies follow first appearance in the file, which differs from the
    log's where traces interleave or an order column moves an event.
    generate, ``EventLog(schema, traces)`` (kept as ``traces``) and
    inject_anomalies, where it mutates a trace, code in log order through
    _from_columns.  Equality ignores vocabulary order, and a log is immutable.
    """

    def __init__(self, schema: AttributeSchema, traces: Sequence[Trace]):
        traces = tuple(traces)
        events = [e for t in traces for e in t.events]
        n_attrs = len(schema.names)
        if (bad := next((e for e in events if len(e.values) != n_attrs), None)) is not None:
            raise ValueError(f"event {bad.id!r} has {len(bad.values)} values, schema has {n_attrs}")
        log = self._from_columns(schema, tuple(e.id for e in events), tuple(t.trace_id for t in traces),
                                 tuple(map(len, traces)), tuple(zip(*(e.values for e in events))) or ((),) * n_attrs)
        self.__dict__.update(vars(log), traces=traces)

    @classmethod
    def _from_columns(cls, schema, event_ids, trace_ids, trace_lengths, columns) -> "EventLog":
        """The log of these values per attribute, each coded in order of first appearance; a value that is
        PADDING or not a string raises ValueError naming it, its attribute and its first event."""
        vocabularies = []
        for attr, column in zip(schema.names, columns):
            try:
                vocab = tuple(dict.fromkeys(column))
            except TypeError:  # an unhashable value
                vocab = column
            if bad := [v for v in vocab if not isinstance(v, str) or v == PADDING]:
                raise ValueError(f"event {event_ids[column.index(bad[0])]!r} holds {bad[0]!r:.40} as {attr!r}; "
                                 f"values must be strings other than the reserved token {PADDING!r}")
            vocabularies.append(vocab)
        _check_unique(event_ids)
        codes = tuple(_packed(map({v: c for c, v in enumerate(vocab)}.__getitem__, column), len(vocab))
                      for vocab, column in zip(vocabularies, columns))
        return cls._from_codes(schema, event_ids, trace_ids, trace_lengths, tuple(vocabularies), codes)

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
        return tuple(tuple(map(v.__getitem__, c)) for v, c in zip(self.vocabularies, self.codes))

    @property
    def event_count(self) -> int:
        return len(self.event_ids)

    def trace_by_id(self, trace_id: str) -> Trace:
        for trace in self.traces:
            if trace.trace_id == trace_id:
                return trace
        raise KeyError(trace_id)


def _packed(codes: Iterable[int], n_values: int):
    """The codes as EventLog holds them for a vocabulary of ``n_values``: bytes, or 4-byte codes read-only."""
    if n_values <= _BYTE_CODES:
        return bytes(codes)
    return memoryview(array("I", codes)).toreadonly()


def code_type(n: int):
    """The narrowest unsigned NumPy type that holds every code below ``n``."""
    import numpy as np
    return np.min_scalar_type(max(n - 1, 0))


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
    """The k-context as integer codes: ``codes[i]`` holds one code per event, in log order, into
    ``vocabularies[i]``, the sorted values that ``variables[i]`` takes; a NumPy array of
    ``code_type(len(vocabularies[i]))``, the narrowest unsigned type that holds its codes."""

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
    and checked: no empty trace id, no PADDING as an attribute value.  An attribute's codes
    are a bytearray until its vocabulary outgrows a byte, then 4-byte codes in an array."""
    for i, coder in coders.items():
        code_of, vocab, codes = coder
        try:
            chunk = list(map(code_of.__getitem__, fields[i]))
        except KeyError:
            for raw in [raw for raw in dict.fromkeys(fields[i]) if raw not in code_of]:
                value = raw.strip()
                if (not value) if i == trace_i else value == PADDING:
                    return False
                code_of[raw] = vocab.setdefault(value, len(vocab))  # equal stripped values share a code
            chunk = list(map(code_of.__getitem__, fields[i]))
            if len(vocab) > _BYTE_CODES and type(codes) is bytearray:  # widened once, by value, not as raw bytes
                codes = coder[2] = array("I", list(codes))
        codes.extend(chunk)
    for i, values in plain.items():
        values += map(str.strip, fields[i])
    return True


def _csv_rows(lines: Iterable[str], delimiter: str):
    """A strict csv reader of ``lines``; a line that holds NUL raises csv.Error before csv reads it,
    which Python 3.10's csv rejects and later ones read as a character."""
    return csv.reader(map(_no_nul, lines), delimiter=delimiter, strict=True)


def _no_nul(line: str) -> str:
    if "\0" in line:
        raise csv.Error("NUL character")
    return line


def read_header(lines: Iterator[str], delimiter: str) -> tuple[list[str], int]:
    """The stripped column names of the first row of ``lines`` and the number of lines it takes,
    read as parse_log reads every row; no row, or a faulty one, raises LogFormatError."""
    reader = _csv_rows(lines, delimiter)
    try:
        return [c.strip() for c in next(reader)], reader.line_num
    except StopIteration:
        raise LogFormatError("empty log") from None
    except csv.Error as exc:
        raise LogFormatError(f"line 1: {exc}") from None


def _read_columns(chunk: list[str], lines: Iterator[str], delimiter: str, width: int) -> list | None:
    """The columns of ``chunk`` read by strict csv, or None at a faulty row.  Where csv fails at the
    chunk's last line, whose row may be a quoted field that goes on, the chunk is doubled in place
    from ``lines`` and read again; csv's field_size_limit bounds how far an open quote reads."""
    reader = _csv_rows(chunk, delimiter)
    try:
        rows = [row for row in reader if row]  # a blank line yields []
    except csv.Error:
        if reader.line_num == len(chunk) and (more := list(islice(lines, len(chunk)))):
            chunk += more
            return _read_columns(chunk, lines, delimiter, width)
        return None
    return None if set(map(len, rows)) - {width} else list(zip(*rows)) or [()] * width


def _raise_first_fault(chunk, start: int, delimiter: str, width: int, trace_i: int, attr_is: Sequence[int]) -> None:
    """Reads the rows of a faulty chunk, ``start`` lines into the text, and raises the
    LogFormatError of the first faulty one, named by the line on which the row begins."""
    reader, line = _csv_rows(chunk, delimiter), start + 1
    try:
        for row in reader:
            if not row:  # a blank line yields []
                pass
            elif len(row) != width:
                raise LogFormatError(f"line {line}: expected {width} fields, got {len(row)}")
            elif not row[trace_i].strip():
                raise LogFormatError(f"line {line}: empty trace id")
            elif any(row[i].strip() == PADDING for i in attr_is):
                raise LogFormatError(f"line {line}: reserved token {PADDING!r} used as a value")
            line = start + reader.line_num + 1
    except csv.Error as exc:
        raise LogFormatError(f"line {line}: {exc}") from None
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
    LogFormatError for malformed rows (naming the line on which the row
    begins), unknown columns, or empty input.

    The text is read a chunk of lines at a time, as many lines of the
    header's width as hold about _CHUNK_FIELDS fields (one line where the
    header is wider).  A chunk that csv would read
    as plain splits at the delimiter (see _split_columns) is split with
    str.split; any other chunk is read on its own by strict csv, extended
    while a quoted field runs past its end (see _read_columns).  Each
    attribute and the trace id is coded as it is read (see EventLog).  A
    faulty chunk is read again row by row to name its first faulty line.
    """
    if isinstance(source, str):
        source = io.StringIO(source, newline="")  # a lone CR ends a line, as in a file load_log opens
    lines = iter(source)
    if header:
        columns, start = read_header(lines, delimiter)
    elif column_names is None:
        raise LogFormatError("column_names is required when the input has no header")
    else:
        columns, start = [c.strip() for c in column_names], 0

    col_index: dict[str, int] = {}
    for i, name in enumerate(columns):
        col_index.setdefault(name, i)
    optional = [c for c in (schema.event_order_column, schema.event_id_column) if c]
    for name in (*schema.names, schema.trace_id_column, *optional):
        if name not in col_index:
            raise LogFormatError(f"column {name!r} not found in input")

    width, trace_i = len(columns), col_index[schema.trace_id_column]
    attr_is = [col_index[a] for a in schema.names]
    # per coded column: raw value -> code, stripped value -> code (the vocabulary), codes (the
    # trace id's in a list, which is sorted and counted below; an attribute's in a bytearray)
    coders = {i: [{}, {}, bytearray()] for i in attr_is}
    coders[trace_i] = [{}, {}, []]
    plain = {col_index[c]: [] for c in optional}  # stripped values
    chunk_lines = max(1, _CHUNK_FIELDS // width)
    while chunk := list(islice(lines, chunk_lines)):
        fields = _split_columns(chunk, delimiter, width) or _read_columns(chunk, lines, delimiter, width)
        if fields is None or not _code_chunk(fields, coders, plain, trace_i):
            _raise_first_fault(chunk, start, delimiter, width, trace_i, attr_is)
        start += len(chunk)

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

    in_order = (lambda values: values) if grouped else (lambda values: map(values.__getitem__, order))
    # the trace ids, trace lengths, vocabularies and codes
    coded = (tuple(trace_vocab), tuple(lengths), tuple(tuple(coders[i][1]) for i in attr_is),
             tuple(_packed(in_order(codes), len(vocab)) for _, vocab, codes in map(coders.get, attr_is)))
    if not schema.event_id_column:
        return EventLog._from_codes(schema, tuple(map(str, order)), *coded)  # events named by data row
    event_ids = tuple(in_order(plain[col_index[schema.event_id_column]]))
    try:
        _check_unique(event_ids)
    except DuplicateEventIdError as exc:  # a caller may name the events by data row without a second read
        exc.log = EventLog._from_codes(replace(schema, event_id_column=None), tuple(map(str, order)), *coded)
        raise
    return EventLog._from_codes(schema, event_ids, *coded)


@contextmanager
def open_utf8(path, error: type[ValueError] = LogFormatError, what: str = "log file", encoding: str = "utf-8-sig"):
    """The file opened as text, its line breaks kept (by default a log, a byte order mark skipped);
    a file that is not UTF-8 raises ``error`` naming it."""
    with open(path, newline="", encoding=encoding) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise error(f"{what} {str(path)!r} is not UTF-8 text") from None


def load_log(path, schema: AttributeSchema, **options) -> EventLog:
    with open_utf8(path) as fh:
        return parse_log(fh, schema, **options)


def _read_utf8(path, error: type[ValueError], what: str) -> str:
    with open_utf8(path, error, what, "utf-8") as fh:
        return fh.read()


def _write_csv(out: TextIO, header: Sequence[str], rows: Iterable[Sequence], delimiter: str) -> None:
    """Writes a header and rows to ``out`` as delimited text, a field quoted only where it holds
    the delimiter, a quote or a line break."""
    writer = csv.writer(out, delimiter=delimiter, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def csv_text(header: Sequence[str], rows: Iterable[Sequence], delimiter: str = ",") -> str:
    """A header and rows as the text _write_csv writes."""
    out = io.StringIO()
    _write_csv(out, header, rows, delimiter)
    return out.getvalue()


def _log_table(log: EventLog) -> tuple[list[str], Iterator[tuple[str, ...]]]:
    """A log's header (trace id, event id, then attribute columns) and its rows, one per event."""
    trace_ids = chain.from_iterable(map(repeat, log.trace_ids, log.trace_lengths))
    return [log.schema.trace_id_column, "event_id", *log.schema.names], zip(trace_ids, log.event_ids, *log.columns)


def serialize_log(log: EventLog, *, delimiter: str = ",") -> str:
    """Render a log as delimited text (trace id, event id, then attribute columns)."""
    return csv_text(*_log_table(log), delimiter)


def write_log(log: EventLog, path, *, delimiter: str = ",") -> None:
    """Writes the text of serialize_log to ``path`` row by row, never holding it whole."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        _write_csv(fh, *_log_table(log), delimiter)


def build_k_context(log: EventLog, k: int) -> KContextLog:
    """Widen every event with the descriptions of its k predecessors, as integer codes.

    History slots beyond the start of the trace hold PADDING.  Variables are
    ordered slice k down to slice 0, schema order within each slice.  The log's
    codes are read as they are held (np.frombuffer) and taken through the sorted
    rank of their values, one attribute at a time: no value is coded again, and
    each variable's codes are held in code_type of its vocabulary's size.
    """
    import numpy as np
    if k < 1:
        raise ValueError("k must be >= 1")
    names = log.schema.names
    lengths = np.array(log.trace_lengths, dtype=np.int64)
    # position of each event in its trace: a lag-l slot is padding where it is below l
    position = np.arange(log.event_count) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    coded = {}
    for attr, values, codes in zip(names, log.vocabularies, log.codes):
        vocab = sorted((*values, PADDING))
        rank = dict(zip(vocab, range(len(vocab))))
        log_codes = np.frombuffer(codes, np.uint8 if len(values) <= _BYTE_CODES else np.uint32)
        lag0 = np.array(list(map(rank.__getitem__, values)), code_type(len(vocab)))[log_codes]
        for lag in range(k + 1):
            shifted = np.roll(lag0, lag)
            shifted[position < lag] = rank[PADDING]  # what np.roll wraps around sits there too
            present = np.bincount(shifted, minlength=len(vocab)) > 0  # re-densify the codes
            dense = (np.cumsum(present) - 1).astype(code_type(np.count_nonzero(present)))
            coded[Variable(attr, lag)] = dense[shifted], tuple(compress(vocab, present))
    variables = tuple(Variable(attr, lag) for lag in range(k, -1, -1) for attr in names)
    codes, vocabularies = zip(*map(coded.pop, variables))
    trace_ids = tuple(chain.from_iterable(map(repeat, log.trace_ids, log.trace_lengths)))
    return KContextLog(k, variables, codes, vocabularies, log.event_ids, trace_ids)
