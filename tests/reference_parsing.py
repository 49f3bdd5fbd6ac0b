"""The row-by-row log parser that the columnar ``parse_log`` replaced, kept as a test oracle.

It builds one Event per row, groups rows by trace id in a dict, sorts each
trace by its order column, and lets EventLog check the events for repeated
ids.  It reads the whole text with one strict csv reader: a quote opens and
closes a field, a line that holds NUL is rejected on every Python version, and
a faulty row is named by the line on which it begins.
``test_parsing_equivalence`` requires the columnar parser to return the same
traces, events and ids, or to raise the same error type with the same message.
"""
from __future__ import annotations

import csv
import io
from typing import Iterable, Sequence, TextIO, Union

from edbn.event_log import PADDING, AttributeSchema, Event, EventLog, LogFormatError, Trace


def _order_key(values: Sequence[str]):
    # Sort numerically when the whole column parses as numbers, else as text.
    try:
        return [(0, float(v), "") for v in values]
    except ValueError:
        return [(1, 0.0, v) for v in values]


def _without_nul(lines):
    for line in lines:
        if "\0" in line:
            raise csv.Error("NUL character")
        yield line


def reference_parse_log(
    source: Union[str, TextIO, Iterable[str]],
    schema: AttributeSchema,
    *,
    delimiter: str = ",",
    header: bool = True,
    column_names: Sequence[str] | None = None,
) -> EventLog:
    if isinstance(source, str):
        source = io.StringIO(source, newline="")
    reader = csv.reader(_without_nul(source), delimiter=delimiter, strict=True)

    if header:
        try:
            columns = [c.strip() for c in next(reader)]
        except StopIteration:
            raise LogFormatError("empty log") from None
        except csv.Error as exc:
            raise LogFormatError(f"line 1: {exc}") from None
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
    while True:
        line = reader.line_num + 1  # the line on which the next row begins
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise LogFormatError(f"line {line}: {exc}") from None
        if not row:
            continue
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


def reference_load_log(path, schema: AttributeSchema, **options) -> EventLog:
    with open(path, newline="", encoding="utf-8-sig") as fh:
        return reference_parse_log(fh, schema, **options)
