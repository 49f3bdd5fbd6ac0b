"""Synthetic business-process logs: seeded generation and anomaly injection.

A ProcessModel is a weighted activity graph plus one generation rule per
attribute (constant, pool choice, fixed derivation from another attribute, or
a choice conditioned on the current activity).  Generation walks the graph
per trace with a Mersenne-Twister generator seeded as seed * 2**32 + trace
index, so traces are reproducible and independently derivable in parallel.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from importlib import resources
from itertools import chain, islice
from typing import Mapping, Sequence

from .event_log import PADDING, AttributeSchema, EventLog, _read_utf8, csv_text

NORMAL = "normal"
ANOMALOUS = "anomalous"

MUTATION_KINDS = ("swap_adjacent", "delete_event", "duplicate_event", "replace_value", "fresh_value")

_WALK_LIMIT = 10_000
_JSON_TYPES = {dict: "object", list: "list", str: "string"}


class ProcessModelError(ValueError):
    """Raised for invalid process-model configuration or impossible generation."""


@dataclass(frozen=True)
class Rule:
    kind: str  # constant | pool | derived | activity_choice
    value: str | None = None
    values: tuple[str, ...] = ()
    scope: str = "event"  # pool only: event | trace
    source: str | None = None
    mapping: Mapping[str, str] | None = None
    pools: Mapping[str, tuple[str, ...]] | None = None


@dataclass(frozen=True)
class ProcessModel:
    name: str
    trace_id_column: str
    attributes: tuple[str, ...]
    activity_attribute: str
    start_activity: str
    end_activities: frozenset[str]
    transitions: Mapping[str, Mapping[str, float]]
    rules: Mapping[str, Rule]

    def __post_init__(self) -> None:
        _validate_model(self)

    @property
    def activities(self) -> set[str]:
        acts = {self.start_activity} | set(self.end_activities) | set(self.transitions)
        for targets in self.transitions.values():
            acts |= set(targets)
        return acts

    def schema(self) -> AttributeSchema:
        return AttributeSchema(names=self.attributes, trace_id_column=self.trace_id_column)


def _possible_values(model: ProcessModel) -> dict[str, set[str]]:
    """Value closure per attribute, in generate's fill order; checks each rule, its coverage and acyclicity."""
    possible: dict[str, set[str]] = {model.activity_attribute: model.activities}
    remaining = [a for a in model.attributes if a != model.activity_attribute]
    progress = True
    while remaining and progress:
        progress = False
        for attr in list(remaining):
            rule, where = model.rules[attr], f"rules[{attr!r}]"
            if rule.kind == "constant":
                possible[attr] = {_json(rule.value, f"{where} value", str)}
            elif rule.kind == "pool":
                possible[attr] = set(_strings(rule.values, f"{where} values"))
                if rule.scope not in ("event", "trace"):
                    raise ProcessModelError(f"{where} scope must be 'event' or 'trace', got {rule.scope!r:.40}")
            elif rule.kind == "activity_choice":
                pools = {a: _strings(pool, f"{where} pools[{a!r}]") for a, pool in (rule.pools or {}).items()}
                if missing := model.activities - set(pools):
                    raise ProcessModelError(f"{where} pools: no pool for activities {sorted(missing)}")
                possible[attr] = {v for pool in pools.values() for v in pool}
            elif rule.kind != "derived":
                raise ProcessModelError(f"{where}: unknown rule kind {rule.kind!r}")
            elif _json(rule.source, f"{where} source", str) not in possible:
                continue  # source not resolved yet
            else:
                if missing := possible[rule.source] - set(_strings(rule.mapping, f"{where} mapping")):
                    raise ProcessModelError(f"{where}: derivation from {rule.source!r} misses {sorted(missing)}")
                possible[attr] = {rule.mapping[v] for v in possible[rule.source]}
            remaining.remove(attr)
            progress = True
    if remaining:
        raise ProcessModelError(f"rules: cyclic or dangling derivations: {sorted(remaining)}")
    return possible


def _validate_model(model: ProcessModel) -> None:
    for field in ("trace_id_column", "activity_attribute", "start_activity"):
        _json(getattr(model, field), field, str)
    _strings(model.attributes, "attributes")
    _strings(model.end_activities, "end_activities")
    try:
        model.schema()  # unique, non-empty string names, and a trace id column that is none of them
    except (TypeError, ValueError) as exc:
        raise ProcessModelError(f"attributes or trace_id_column: {exc}") from None
    if model.activity_attribute not in model.attributes:
        raise ProcessModelError("activity_attribute must be one of the attributes")
    ruled = [a for a in model.attributes if a != model.activity_attribute]
    if missing := [a for a in ruled if a not in model.rules]:
        raise ProcessModelError(f"attributes: {missing[0]!r} has no rule in rules")
    if unused := [a for a in model.rules if a not in ruled]:  # _possible_values checks the rules it reads
        raise ProcessModelError(f"rules[{unused[0]!r}]: not an attribute that takes a rule (activity_attribute takes none)")
    for act, targets in model.transitions.items():
        for nxt, weight in targets.items():
            if type(weight) not in (int, float) or not 0 < weight < math.inf:
                raise ProcessModelError(f"transitions: {act!r}->{nxt!r} weight must be a positive number, got {weight!r}")
    # The walk ends at the first end activity it reaches: one must be reachable, and every other
    # activity that the walk can reach needs a successor.
    seen = {model.start_activity}
    frontier = [model.start_activity]
    while frontier:
        act = frontier.pop()
        if act in model.end_activities:
            continue
        if not model.transitions.get(act):
            raise ProcessModelError(f"activity {act!r}, reachable from start_activity, has no transitions "
                                    "and is not in end_activities")
        for nxt in model.transitions[act]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    if not (set(model.end_activities) & seen):
        raise ProcessModelError("end_activities: no end activity is reachable from start_activity")
    values = _possible_values(model)
    for attr, vals in values.items():
        if PADDING in vals:
            raise ProcessModelError(f"{attr!r} can produce the reserved token {PADDING!r}")


def _walk(model: ProcessModel, rng: random.Random) -> list[str]:
    path = [model.start_activity]
    while path[-1] not in model.end_activities:
        targets = model.transitions[path[-1]]  # not empty: _validate_model rules out dead ends
        step = rng.choices(list(targets), weights=list(targets.values()))[0]
        path.append(step)
        if len(path) > _WALK_LIMIT:
            raise ProcessModelError("random walk failed to reach an end activity")
    return path


def generate(model: ProcessModel, n_traces: int, seed: int) -> EventLog:
    """n_traces random start-to-end walks with attributes filled per the rules.

    Each event's values are appended to one column per attribute, filled with
    every derivation after its source; the log is coded from these columns in
    log order (see EventLog), and no Event or Trace is built.
    """
    if n_traces < 1:
        raise ValueError("n_traces must be >= 1")
    activity_attr, *order = _possible_values(model)  # the activity attribute, then the others, sources first
    columns = {attr: [] for attr in model.attributes}
    fills = [(attr, model.rules[attr], columns[attr]) for attr in order]
    lengths = []
    for i in range(n_traces):
        rng = random.Random(seed * 2**32 + i)
        trace_values = {attr: rng.choice(rule.values) for attr, rule, _ in fills
                        if rule.kind == "pool" and rule.scope == "trace"}
        path = _walk(model, rng)
        lengths.append(len(path))
        for activity in path:
            columns[activity_attr].append(activity)
            for attr, rule, column in fills:
                if rule.kind == "constant":
                    column.append(rule.value)
                elif rule.kind == "pool":
                    column.append(trace_values[attr] if rule.scope == "trace" else rng.choice(rule.values))
                elif rule.kind == "derived":
                    column.append(rule.mapping[columns[rule.source][-1]])
                else:  # activity_choice
                    column.append(rng.choice(rule.pools[activity]))
    width = max(4, len(str(n_traces)))
    return EventLog._from_columns(model.schema(), range(sum(lengths)),
                                  tuple(f"t{i:0{width}d}" for i in range(n_traces)), tuple(lengths),
                                  tuple(tuple(columns[attr]) for attr in model.attributes))


# --- anomaly injection ------------------------------------------------------


@dataclass(frozen=True)
class Mutation:
    kind: str
    position: int
    attribute: str | None = None
    new_value: str | None = None
    insert_at: int | None = None

    def describe(self) -> str:
        parts = [f"{self.kind}@{self.position}"]
        if self.insert_at is not None:
            parts.append(f"->{self.insert_at}")
        if self.attribute is not None:
            parts.append(f":{self.attribute}={self.new_value}")
        return "".join(parts)


@dataclass(frozen=True)
class LabeledLog:
    log: EventLog
    labels: dict[str, str]
    anomaly_details: dict[str, tuple[Mutation, ...]]

    def __post_init__(self) -> None:
        for trace_id in self.log.trace_ids:
            if trace_id not in self.labels:
                raise ValueError(f"trace {trace_id!r} has no label")
        traces = set(self.log.trace_ids)
        if (extra := next((t for t in self.labels if t not in traces), None)) is not None:
            raise ValueError(f"trace {extra!r} is labeled but not in the log")


def _applicable_kinds(n_events: int, replace_attrs: Sequence[str]) -> list[str]:
    kinds = ["duplicate_event", "fresh_value"]
    if n_events >= 2:
        kinds += ["swap_adjacent", "delete_event"]
    if replace_attrs:
        kinds.append("replace_value")
    return sorted(kinds)


def inject_anomalies(log: EventLog, fraction: float, seed: int) -> LabeledLog:
    """Mutate a uniformly chosen ceil(fraction * n) subset of traces.

    Each chosen trace receives 1-3 mutations drawn from: swap two adjacent
    events, delete an event, duplicate an event at a random position, replace
    an attribute value with another active-domain value, or replace one with
    a fresh unseen value.  Unchosen traces are returned untouched.  Only the
    chosen traces' rows (an event's id, then its values) are edited, and the
    rows are coded as generate codes its columns, building no Event or Trace;
    where no trace is chosen, the log given is returned as it is.
    """
    if not 0 <= fraction <= 1:
        raise ValueError("fraction must be in [0, 1]")
    if fraction > 0 and not log.trace_ids:
        raise ValueError("cannot inject anomalies into an empty log")
    n_mutate = math.ceil(fraction * len(log.trace_ids))
    rng = random.Random(seed)
    chosen = sorted(rng.sample(range(len(log.trace_ids)), n_mutate))
    labels = dict.fromkeys(log.trace_ids, NORMAL)
    if not chosen:
        return LabeledLog(log, labels, {})

    domains = {a: sorted(vocab) for a, vocab in zip(log.schema.names, log.vocabularies)}
    multi_valued = [a for a in log.schema.names if len(domains[a]) >= 2]
    used_ids = set(log.event_ids)
    fresh_counter = 0

    rows = zip(log.event_ids, *log.columns)
    traces = [list(islice(rows, n)) for n in log.trace_lengths]
    details: dict[str, tuple[Mutation, ...]] = {}

    for index in chosen:
        events = traces[index]
        mutations: list[Mutation] = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(_applicable_kinds(len(events), multi_valued))
            if kind == "swap_adjacent":
                pos = rng.randrange(len(events) - 1)
                events[pos], events[pos + 1] = events[pos + 1], events[pos]
                mutations.append(Mutation(kind, pos))
            elif kind == "delete_event":
                pos = rng.randrange(len(events))
                del events[pos]
                mutations.append(Mutation(kind, pos))
            elif kind == "duplicate_event":
                pos = rng.randrange(len(events))
                insert_at = rng.randrange(len(events) + 1)
                copy_id = f"{events[pos][0]}+dup"
                while copy_id in used_ids:
                    copy_id += "+"
                used_ids.add(copy_id)
                events.insert(insert_at, (copy_id, *events[pos][1:]))
                mutations.append(Mutation(kind, pos, insert_at=insert_at))
            else:
                attr = rng.choice(multi_valued if kind == "replace_value" else log.schema.names)
                pos = rng.randrange(len(events))
                i = log.schema.index_of(attr) + 1  # the value's place in the row
                if kind == "replace_value":
                    value = rng.choice([v for v in domains[attr] if v != events[pos][i]])
                else:  # fresh_value
                    while True:
                        fresh_counter += 1
                        value = f"unseen-{attr}-{fresh_counter}"
                        if value not in domains[attr]:
                            break
                events[pos] = (*events[pos][:i], value, *events[pos][i + 1:])
                mutations.append(Mutation(kind, pos, attribute=attr, new_value=value))
        labels[log.trace_ids[index]] = ANOMALOUS
        details[log.trace_ids[index]] = tuple(mutations)

    event_ids, *columns = tuple(zip(*chain.from_iterable(traces))) or ((),) * (len(log.schema.names) + 1)
    return LabeledLog(EventLog._from_columns(log.schema, event_ids, log.trace_ids, tuple(map(len, traces)), columns),
                      labels, details)


# --- process-model and label files -----------------------------------------


def _rule_from_json(attr: str, raw: dict) -> Rule:
    kind, where = raw.get("kind"), f"rules[{attr!r}]"
    if kind == "constant":
        return Rule(kind="constant", value=raw["value"])
    if kind == "pool":
        return Rule(kind="pool", values=tuple(_json(raw["values"], f"{where} values", list)),
                    scope=raw.get("scope", "event"))
    if kind == "derived":
        return Rule(kind="derived", source=raw["source"], mapping=dict(_json(raw["mapping"], f"{where} mapping")))
    if kind == "activity_choice":
        pools = _json(raw["pools"], f"{where} pools").items()
        return Rule(kind="activity_choice", pools={a: tuple(_json(p, f"{where} pools[{a!r}]", list)) for a, p in pools})
    return Rule(kind=kind)  # _possible_values names the unknown kind


def _json(value, where: str, kind: type = dict):
    """value if it has JSON type ``kind``; ProcessModel checks what the values inside hold."""
    if not isinstance(value, kind):
        raise ProcessModelError(f"{where} must be a JSON {_JSON_TYPES[kind]}, got {value!r:.40}")
    return value


def _strings(value, where: str):
    """value if it is a mapping to strings, or holds one or more strings."""
    mapping = isinstance(value, Mapping)
    items = value.values() if mapping else value or ()
    if not (all(isinstance(v, str) for v in items) and (items or mapping)):
        raise ProcessModelError(f"{where} must hold {'' if mapping else 'one or more '}JSON strings, got {value!r:.40}")
    return value


def parse_process_model(text: str) -> ProcessModel:
    try:
        doc = _json(json.loads(text), "process model")
    except json.JSONDecodeError as exc:
        raise ProcessModelError(f"not a valid process model: {exc}") from None
    try:
        return ProcessModel(
            name=doc.get("name", "unnamed"),
            trace_id_column=doc["trace_id_column"],
            attributes=tuple(_json(doc["attributes"], "attributes", list)),
            activity_attribute=doc["activity_attribute"],
            start_activity=doc["start_activity"],
            # a frozenset needs hashable items
            end_activities=frozenset(_strings(_json(doc["end_activities"], "end_activities", list), "end_activities")),
            transitions={a: dict(_json(t, f"transitions[{a!r}]"))
                         for a, t in _json(doc["transitions"], "transitions").items()},
            rules={a: _rule_from_json(a, _json(r, f"rules[{a!r}]")) for a, r in _json(doc["rules"], "rules").items()},
        )
    except KeyError as exc:
        raise ProcessModelError(f"process model misses field {exc.args[0]!r}") from None


def load_process_model(path) -> ProcessModel:
    return parse_process_model(_read_utf8(path, ProcessModelError, "process model file"))


def default_shipping_model() -> ProcessModel:
    """The bundled shipping-goods process: 13 attributes, insurance branch."""
    text = resources.files("edbn.data").joinpath("shipping.json").read_text(encoding="utf-8")
    return parse_process_model(text)


def serialize_labels(labeled: LabeledLog) -> str:
    details = {tid: ";".join(m.describe() for m in found) for tid, found in labeled.anomaly_details.items()}
    rows = ((tid, labeled.labels[tid], details.get(tid, "")) for tid in labeled.log.trace_ids)
    return csv_text(["trace_id", "label", "details"], rows)


def write_labels(labeled: LabeledLog, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(serialize_labels(labeled))


def read_labels(path) -> dict[str, str]:
    """trace id -> label from a labels file; a malformed file raises ValueError naming it and the line."""
    where = f"labels file {str(path)!r}"
    text = _read_utf8(path, ValueError, "labels file")
    if "\0" in text:  # Python 3.10's csv rejects NUL and later ones read it as a character
        line = sum(1 for _ in io.StringIO(text[: text.index("\0") + 1], newline=""))
        raise ValueError(f"{where} line {line}: NUL character")
    reader = csv.DictReader(io.StringIO(text, newline=""), strict=True)
    try:
        if missing := {"trace_id", "label"}.difference(reader.fieldnames or ()):
            raise ValueError(f"{where} has no {min(missing)!r} column in its header, line {max(reader.line_num, 1)}")
        labels = {}
        for row in reader:
            at, trace_id, label = f"{where} line {reader.line_num}", row["trace_id"], row["label"]
            if trace_id is None or label is None:
                raise ValueError(f"{at}: no {'trace_id' if trace_id is None else 'label'!r} field")
            if label not in (NORMAL, ANOMALOUS):
                raise ValueError(f"{at}: unknown label {label!r} for trace {trace_id!r}")
            if labels.setdefault(trace_id, label) != label:
                raise ValueError(f"{at}: trace {trace_id!r} is labeled both {labels[trace_id]!r} and {label!r}")
    except csv.Error as exc:
        raise ValueError(f"{where} line {reader.reader.line_num}: {exc}") from None  # the line csv failed on
    if not labels:
        raise ValueError(f"{where} line {reader.line_num}: no trace is labeled")
    return labels
