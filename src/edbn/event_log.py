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
import os
import shutil
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain, compress, islice, pairwise, repeat
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
_BLOCK_ROWS = 4096  # serialize_log joins and write_log writes this many rows at a time


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

    def __str__(self) -> str:
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

    ``trace_ids`` and ``trace_lengths`` give the traces in log order and ``event_ids`` one id per
    event.  A log named by data row (parse_log with no id column, generate) keeps in ``event_rows``
    a range, or 4-byte rows in an array where they are not in log order, and builds ``event_ids``,
    the rows as text, when first read; any other log holds its ids.  Per attribute (schema order),
    ``codes`` holds one code per event into its entry of ``vocabularies``, the distinct values, in
    an immutable buffer of the narrowest width: ``bytes`` where the vocabulary has at most 256
    values, else a read-only memoryview of 4-byte unsigned codes (format ``"I"``); either indexes,
    slices and iterates as ints.  ``columns`` (the values per attribute) and ``traces`` are decoded
    from them when first read.  parse_log codes a log as it reads it, so its vocabularies follow
    first appearance in the file, which differs from the log's where traces interleave or an order
    column moves an event.  generate and ``EventLog(schema, traces)`` (kept as ``traces``) code in
    log order.  inject_anomalies reads and codes only the traces it mutates (_spliced): the others
    keep their codes, and each vocabulary still follows first appearance in the log.  Equality
    ignores vocabulary order, and a log is immutable.
    """

    event_rows: Sequence[int] | None = None

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
        """The log of these values per attribute, each coded in order of first appearance (_coded), once
        _check_values has checked them and the event ids are found unique."""
        vocabularies = list(map(_check_values, schema.names, columns, repeat(event_ids)))
        _check_unique(event_ids)
        coded = map(_coded, columns, vocabularies)
        return cls._from_codes(schema, event_ids, trace_ids, trace_lengths, *map(tuple, zip(*coded)))

    def _spliced(self, event_ids: tuple[str, ...], edited: dict[int, list[tuple]],
                 vocabularies: Sequence[Sequence[str]]) -> "EventLog":
        """This log, its events named by ``event_ids``, with the trace at each key of ``edited`` (ascending) made of
        those rows (an event's id, then its codes into ``vocabularies``, each the log's own with any new values
        after it), put in its place: one slice of the codes and ids per gap between edited traces, an empty one
        too.  Each vocabulary then takes back the order of first appearance, the codes taken through it (_recoded)
        only where it moved; nothing is checked again: the log was, and injection adds only unique ids and new values."""
        starts, n_events = list(accumulate(self.trace_lengths, initial=0)), len(event_ids)
        kept = list(zip([0, *(starts[i + 1] for i in edited)], [*map(starts.__getitem__, edited), n_events]))
        added = pairwise(accumulate(map(len, edited.values()), initial=n_events))  # where each trace's rows follow
        pieces = [*chain(*zip(kept, added)), kept[-1]]  # of the log's events and the rows after them, empty ones too
        new_ids, *columns = zip(*chain.from_iterable(edited.values()))
        whole_ids = event_ids + new_ids
        ids = tuple(chain.from_iterable([whole_ids[lo:hi] for lo, hi in pieces]))
        coded = []
        for vocab, held, column in zip(vocabularies, self.codes, columns):
            whole = bytearray(held) if type(held) is bytes and len(vocab) <= _BYTE_CODES else array("I", iter(held))
            whole.extend(column)
            codes = b"".join([whole[lo:hi] for lo, hi in pieces])  # 4-byte codes as their bytes
            if type(whole) is bytearray:  # each code that occurs -> its first event: one bytes.find per code
                first = {c: at for c in range(len(vocab)) if (at := codes.find(c)) >= 0}
            else:  # a code's last entry, going backwards, is its first event
                codes = memoryview(codes).cast("I")
                first = dict(zip(reversed(codes), range(len(codes) - 1, -1, -1)))
            first = dict(sorted(first.items(), key=itemgetter(1)))  # in order of first appearance
            if list(first) != list(range(len(vocab))):  # a value moved, or is gone
                rank = dict(zip(first, range(len(first))))
                codes = _recoded(codes, list(map(rank.get, range(len(vocab)), repeat(0))), len(first))
            coded.append((tuple(map(vocab.__getitem__, first)), codes))
        lengths = list(self.trace_lengths)
        for i, rows in edited.items():
            lengths[i] = len(rows)
        return self._from_codes(self.schema, ids, self.trace_ids, tuple(lengths), *map(tuple, zip(*coded)))

    @classmethod
    def _from_codes(cls, schema, event_ids, trace_ids, trace_lengths, vocabularies, codes) -> "EventLog":
        log = cls.__new__(cls)
        log.__dict__.update(schema=schema, trace_ids=trace_ids, trace_lengths=trace_lengths,
                            vocabularies=vocabularies, codes=codes)
        log.__dict__["event_ids" if isinstance(event_ids, tuple) else "event_rows"] = event_ids
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

    def uncached_event_ids(self) -> tuple[str, ...]:
        """event_ids; where the log is named by data row, built from ``event_rows`` on each call, never cached."""
        return self.event_ids if self.event_rows is None else tuple(map(str, self.event_rows))

    event_ids = cached_property(uncached_event_ids)  # a log that holds its ids has them in __dict__

    @property
    def event_count(self) -> int:
        return sum(self.trace_lengths)

    def trace_by_id(self, trace_id: str) -> Trace:
        for trace in self.traces:
            if trace.trace_id == trace_id:
                return trace
        raise KeyError(trace_id)


def _check_values(attr: str, column: Sequence, event_ids: Sequence) -> tuple[str, ...]:
    """The column's values in order of first appearance; a value that is PADDING or not a string raises
    ValueError naming it, its attribute and its first event."""
    try:
        vocab = tuple(dict.fromkeys(column))
    except TypeError:  # an unhashable value
        vocab = column
    if bad := [v for v in vocab if not isinstance(v, str) or v == PADDING]:
        raise ValueError(f"event {str(event_ids[column.index(bad[0])])!r} holds {bad[0]!r:.40} as {attr!r}; "
                         f"values must be strings other than the reserved token {PADDING!r}")
    return vocab


def _packed(codes: Iterable[int], n_values: int):
    """The codes as EventLog holds them for a vocabulary of ``n_values``: bytes, or 4-byte codes read-only."""
    if n_values <= _BYTE_CODES:
        return bytes(codes)
    return memoryview(array("I", codes)).toreadonly()


def _coded(values: Sequence[str], vocab: tuple[str, ...] | None = None) -> tuple[tuple[str, ...], bytes | memoryview]:
    """``vocab``, by default the distinct values in order of first appearance, and the values' codes into it
    (_packed)."""
    vocab = tuple(dict.fromkeys(values)) if vocab is None else vocab
    return vocab, _packed(map(dict(zip(vocab, range(len(vocab)))).__getitem__, values), len(vocab))


def _recoded(codes, table: Sequence[int], n_values: int):
    """Each code taken through ``table`` (old code -> new), packed for ``n_values`` (by bytes.translate where
    both widths are a byte)."""
    if type(codes) is bytes and n_values <= _BYTE_CODES:
        return codes.translate(bytes(table).ljust(256, b"\0"))
    return _packed(map(table.__getitem__, codes), n_values)


def code_type(n: int):
    """The narrowest unsigned NumPy type that holds every code below ``n``."""
    import numpy as np
    return np.min_scalar_type(max(n - 1, 0))


def _check_unique(event_ids: Sequence[str]) -> None:
    if isinstance(event_ids, tuple) and len(set(event_ids)) != len(event_ids):  # data rows are unique
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
    ``code_type(len(vocabularies[i]))``, the narrowest unsigned type that holds its codes; k is the
    deepest lag of ``variables``.  ``rows`` reads each event's event id and trace id from ``log``, the log it widens."""

    variables: tuple[Variable, ...]
    codes: tuple = ()
    vocabularies: tuple[tuple[str, ...], ...] = ()
    log: EventLog | None = field(default=None, repr=False)  # its repr would decode every trace

    def __len__(self) -> int:
        return len(self.codes[0]) if self.codes else 0

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
        values = zip(*(self.column(v) for v in self.variables))
        trace_ids = chain.from_iterable(map(repeat, self.log.trace_ids, self.log.trace_lengths))
        return tuple(map(KContextRow, values, self.log.event_ids, trace_ids))

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
    line break.  Blank lines are skipped, as csv skips them.  Each other line is split once and
    the rows zipped into columns, so a line's width is the length of its split, which must be
    ``width``.  The last column's values keep the line break, which _code_chunk strips with the
    other whitespace of a value.
    """
    text = "".join(lines)
    if ('"' in text or "\r" in text or "\0" in text or delimiter == "\n"
            or max(map(len, lines)) > csv.field_size_limit()
            or set(map(_LAST_CHAR, lines)) != {"\n"} or text.count("\n") != len(lines)):
        return None
    if "\n" in lines:
        lines = [line for line in lines if line != "\n"]
    rows = list(map(str.split, lines, repeat(delimiter)))
    if set(map(len, rows)) - {width}:
        return None
    return list(zip(*rows)) or [()] * width


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


def _check_delimiter(delimiter: str, error: type[ValueError]) -> str:
    """The delimiter, or ``error`` where it is not one character, which no reader accepts."""
    if len(delimiter) != 1:
        raise error('"delimiter" must be a 1-character string')
    return delimiter


def _no_nul(line: str) -> str:
    if "\0" in line:
        raise csv.Error("NUL character")
    return line


def read_header(lines: Iterator[str], delimiter: str) -> tuple[list[str], int]:
    """The stripped column names of the first row of ``lines`` and the number of lines it takes,
    read as parse_log reads every row; no row, a faulty one, or a delimiter that is not one
    character (_check_delimiter) raises LogFormatError."""
    reader = _csv_rows(lines, _check_delimiter(delimiter, LogFormatError))
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
    LogFormatError for a delimiter that is not one character, malformed rows
    (naming the line on which the row begins), unknown columns, or empty input.

    The text is read a chunk of lines at a time, as many lines of the
    header's width as hold about _CHUNK_FIELDS fields (one line where the
    header is wider).  A chunk that csv would read
    as plain splits at the delimiter (see _split_columns) is split with
    str.split; any other chunk is read on its own by strict csv, extended
    while a quoted field runs past its end (see _read_columns).  Each
    attribute and the trace id is coded as it is read (see EventLog).  A
    faulty chunk is read again row by row to name its first faulty line.
    """
    _check_delimiter(delimiter, LogFormatError)
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
    rows = range(len(trace_codes)) if grouped else array("I", order)  # each event's data row, in log order
    # the trace ids, trace lengths, vocabularies and codes
    coded = (tuple(trace_vocab), tuple(lengths), tuple(tuple(coders[i][1]) for i in attr_is),
             tuple(_packed(in_order(codes), len(vocab)) for _, vocab, codes in map(coders.get, attr_is)))
    if not schema.event_id_column:
        return EventLog._from_codes(schema, rows, *coded)  # events named by data row
    event_ids = tuple(in_order(plain[col_index[schema.event_id_column]]))
    try:
        _check_unique(event_ids)
    except DuplicateEventIdError as exc:  # a caller may name the events by data row without a second read
        exc.log = EventLog._from_codes(replace(schema, event_id_column=None), rows, *coded)
        raise
    return EventLog._from_codes(schema, event_ids, *coded)


@contextmanager
def open_utf8(path, error: type[ValueError] = LogFormatError, what: str = "log file"):
    """The input file (by default a log) opened as UTF-8 text, as every input file is read: a byte order
    mark at its start skipped, its line breaks kept; a file that is not UTF-8 raises ``error`` naming it."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            raise error(f"{what} {str(path)!r} is not UTF-8 text") from None


def load_log(path, schema: AttributeSchema, **options) -> EventLog:
    with open_utf8(path) as fh:
        return parse_log(fh, schema, **options)


def _read_utf8(path, error: type[ValueError], what: str) -> str:
    with open_utf8(path, error, what) as fh:
        return fh.read()


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """A header and rows of strings, all of its width, as comma-separated text: each column rendered by
    _rendered, each row ended by LF."""
    columns = (_rendered(column, ",") for column in zip(header, *rows, strict=True))
    return "".join(",".join(row) + "\n" for row in zip(*columns))


def _rendered(values: Sequence[str], delimiter: str) -> Sequence[str]:
    """Each value as a field of a written file: as it is, or quoted, its quotes doubled, where it holds the
    delimiter, a quote, CR or LF, so that every field reads back on every Python version (_check_delimiter)."""
    special = (_check_delimiter(delimiter, ValueError), '"', "\r", "\n")
    if not any(map("".join(values).__contains__, special)):
        return values
    return ['"' + v.replace('"', '""') + '"' if any(map(v.__contains__, special)) else v for v in values]


def _log_blocks(log: EventLog, delimiter: str) -> Iterator[str]:
    """The text of serialize_log: its header, then blocks of rows joined from the log's codes.  Each distinct
    value, trace id and event id is rendered once (_rendered), before write_text opens a file; neither
    ``columns`` nor ``event_ids`` is decoded onto the log."""
    header = delimiter.join(_rendered([log.schema.trace_id_column, "event_id", *log.schema.names], delimiter))
    event_ids = log.uncached_event_ids()
    trace_ids = chain.from_iterable(map(repeat, _rendered(log.trace_ids, delimiter), log.trace_lengths))
    columns = (map(_rendered(vocab, delimiter).__getitem__, codes) for vocab, codes in zip(log.vocabularies, log.codes))
    rows = map(delimiter.join, zip(trace_ids, _rendered(event_ids, delimiter), *columns))
    blocks = iter(lambda: list(islice(rows, _BLOCK_ROWS)), [])
    return chain([header + "\n"], ("\n".join(block) + "\n" for block in blocks))


def write_text(files: dict) -> None:
    """Writes each path's text blocks, all or nothing, as every output file is written: into a new file beside the
    file that the path names (through a symbolic link), which replaces that file (os.replace), its permission
    bits kept, once every new file is written whole and closed; where anything fails, no new file is left."""
    written = {}  # each new file -> its path, and the file that the path names
    try:
        for path, blocks in files.items():
            target = os.path.realpath(path)
            temporary = f"{target}.{os.urandom(4).hex()}.tmp"
            written[temporary] = path, target
            with open(temporary, "x", newline="", encoding="utf-8") as fh:
                fh.writelines(blocks)
            if os.path.exists(target):
                shutil.copymode(target, temporary)
        for temporary, (_, target) in written.items():
            os.replace(temporary, target)
    except OSError as exc:
        if exc.filename in written:  # name the path, as writing it in place would
            raise type(exc)(exc.errno, exc.strerror, os.fspath(written[exc.filename][0])) from None
        raise
    finally:
        for temporary in written:
            if os.path.exists(temporary):  # not replaced: a write failed
                os.remove(temporary)


def serialize_log(log: EventLog, *, delimiter: str = ",") -> str:
    """Render a log as delimited text (trace id, event id, then attribute columns), as csv_text writes it."""
    return "".join(_log_blocks(log, delimiter))


def write_log(log: EventLog, path, *, delimiter: str = ",") -> None:
    """Writes the text of serialize_log to ``path`` a block of rows at a time, all or nothing (write_text)."""
    write_text({path: _log_blocks(log, delimiter)})


def k_context_variables(names: Sequence[str], k: int) -> tuple[Variable, ...]:
    """The variables of a k-context over attributes ``names``: slice k down to slice 0, schema order within each."""
    return tuple(Variable(attr, lag) for lag in range(k, -1, -1) for attr in names)


def build_k_context(log: EventLog, k: int) -> KContextLog:
    """Widen every event with the descriptions of its k predecessors, as integer codes.

    History slots beyond the start of the trace hold PADDING.  Variables are
    ordered slice k down to slice 0, schema order within each slice.  The log's
    codes are read as they are held (np.frombuffer) and taken through the sorted
    rank of their values, one attribute at a time: no value is coded again, and
    each variable's codes are held in code_type of its vocabulary's size.  No
    event id or trace id is read: the k-context keeps the log, which names them.
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
    variables = k_context_variables(names, k)
    codes, vocabularies = zip(*map(coded.pop, variables))
    return KContextLog(variables, codes, vocabularies, log)
