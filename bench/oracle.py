"""Reference computations the benchmark checks the package's outputs against.

Standard library only: nothing here imports ``edbn``.  Every value is
recomputed from the written files (CSV logs, the model JSON document, the
ranking and explanation files) and from the definitions of the eDBN method:

* an event's probability is the product, per attribute, of a value factor
  (1 - new_value if the value was seen in training, new_value otherwise), a
  relation factor for attributes with conditional parents ((1 - new_relation)
  * count / total for a seen parent tuple, new_relation for an unseen one)
  and one factor per FD mapping into the attribute (1 - violation when the
  mapping agrees or never saw the source value, violation otherwise);
* a trace's score is the geometric mean of its event probabilities, zero
  exactly when some factor is zero;
* the k-context of an event is its own values after those of its k
  predecessors in the trace, padded with ``__NONE__``.
"""
from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter, defaultdict
from fractions import Fraction

PADDING = "__NONE__"
LOG_TOL = 1e-12  # agreement of log-scores and relative agreement of factors
U_TOL = 1e-9  # agreement of FD strengths with an independent U(X|Y)
AUC_FLOOR = 0.95


class CheckFailed(Exception):
    """An output of the package disagrees with the reference computation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# --- logs -------------------------------------------------------------------


def read_log(path, trace_col: str, attrs=None):
    """Traces of a CSV log as [(trace_id, [(names, values), ...]), ...].

    Traces keep first-appearance order and events keep file order.  ``names``
    holds the ways an event may be named: its ``event_id`` column, where the
    log has one, then its 0-based data row, which is the package's name for an
    event when it reads the log without an event-id column.  ``attrs``
    defaults to every column but the trace id and ``event_id``.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [c.strip() for c in next(reader)]
        if attrs is None:
            attrs = [c for c in header if c not in (trace_col, "event_id")]
        index = [header.index(a) for a in attrs]
        tcol = header.index(trace_col)
        idcol = header.index("event_id") if "event_id" in header else None
        traces: dict[str, list] = {}
        for row_number, row in enumerate(reader):
            values = tuple(row[i].strip() for i in index)
            names = (str(row_number),) if idcol is None else (row[idcol].strip(), str(row_number))
            traces.setdefault(row[tcol].strip(), []).append((names, values))
    return list(attrs), list(traces.items())


def read_labels(path) -> dict[str, str]:
    with open(path, newline="", encoding="utf-8") as fh:
        return {row["trace_id"]: row["label"] for row in csv.DictReader(fh)}


def k_context(attrs, traces, k: int):
    """Column per variable (attr, lag) over every event, by a plain shift per trace."""
    columns = {(a, lag): [] for lag in range(k, -1, -1) for a in attrs}
    for _, events in traces:
        for i in range(len(events)):
            for lag in range(k, -1, -1):
                values = events[i - lag][1] if i - lag >= 0 else (PADDING,) * len(attrs)
                for a, v in zip(attrs, values):
                    columns[(a, lag)].append(v)
    return columns


# --- the model document -----------------------------------------------------


def _var(pair) -> tuple[str, int]:
    return (pair[0], int(pair[1]))


class ModelDoc:
    """The model JSON document read as plain data, with exact rationals."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.k = int(doc["k"])
        self.attrs = list(doc["schema"]["attributes"])
        self.n = int(doc["training_event_count"])
        self.new_value = {a: Fraction(*r) for a, r in doc["new_value"].items()}
        self.new_relation = {a: Fraction(*r) for a, r in doc["new_relation"].items()}
        self.domains = {a: set(vs) for a, vs in doc["active_domains"].items()}
        self.dag_edges = {(_var(s), _var(t)) for s, t in doc["dag_edges"]}
        self.cpts = {}
        for entry in doc["cpts"]:
            rows = {
                tuple(r["parents"]): ({v: int(c) for v, c in r["counts"].items()}, int(r["total"]))
                for r in entry["rows"]
            }
            self.cpts[entry["attribute"]] = ([_var(p) for p in entry["parents"]], rows)
        self.fds = [
            {
                "source": _var(m["source"]),
                "target": _var(m["target"]),
                "map": dict(m["map"]),
                "violation": Fraction(*m["violation"]),
                "strength": float(m["strength"]),
            }
            for m in doc["fd_mappings"]
        ]
        self._relation_cache: dict = {}

    def fd_edges(self) -> set:
        return {(m["source"], m["target"]) for m in self.fds}

    def relation_factor(self, attr: str, cfg: tuple, x: str) -> float:
        key = (attr, cfg, x)
        value = self._relation_cache.get(key)
        if value is None:
            rows = self.cpts[attr][1]
            rate = self.new_relation[attr]
            if cfg in rows:
                counts, total = rows[cfg]
                value = float((1 - rate) * Fraction(counts.get(x, 0), total))
            else:
                value = float(rate)
            self._relation_cache[key] = value
        return value


# --- scoring ----------------------------------------------------------------


def event_factors(model: ModelDoc, events, i: int):
    """[(attribute, kind, FD source column or None, value)] for event i of a trace.

    Order per attribute: value, relation, then FD checks in document order.
    """
    k = model.k
    lookup = {}
    for lag in range(k, -1, -1):
        values = events[i - lag][1] if i - lag >= 0 else (PADDING,) * len(model.attrs)
        for a, v in zip(model.attrs, values):
            lookup[(a, lag)] = v
    factors = []
    for attr in model.attrs:
        x = lookup[(attr, 0)]
        rate = model.new_value[attr]
        factors.append((attr, "value", None, float(1 - rate if x in model.domains[attr] else rate)))
        parents, _ = model.cpts[attr]
        if parents:
            cfg = tuple(lookup[p] for p in parents)
            factors.append((attr, "relation", None, model.relation_factor(attr, cfg, x)))
        for m in model.fds:
            if m["target"] != (attr, 0):
                continue
            expected = m["map"].get(lookup[m["source"]])
            viol = m["violation"]
            value = float(1 - viol if expected is None or expected == x else viol)
            factors.append((attr, "fd", f"{m['source'][0]}_{m['source'][1]}", value))
    return factors


def _log(value: float) -> float:
    return math.log(value) if value > 0.0 else -math.inf


def trace_report(model: ModelDoc, events):
    """Per-event factor lists, per-prefix log geometric means, and zero-factor count."""
    per_event = [event_factors(model, events, i) for i in range(len(events))]
    event_logs = [math.fsum(_log(f[3]) for f in fs) for fs in per_event]
    prefix_logs = [math.fsum(event_logs[: i + 1]) / (i + 1) for i in range(len(events))]
    zeros = sum(1 for fs in per_event for f in fs if f[3] == 0.0)
    return per_event, prefix_logs, zeros


def check_log_score(name: str, score: float, oracle_log: float) -> None:
    """Package score (a probability) against the oracle's log geometric mean."""
    if oracle_log == -math.inf or score == 0.0:
        check(score == 0.0 and oracle_log == -math.inf,
              f"{name}: score {score!r} but oracle log-score {oracle_log!r}; zeros must agree exactly")
        return
    diff = abs(math.log(score) - oracle_log)
    check(diff <= LOG_TOL, f"{name}: log-score differs from the oracle by {diff:.3e}")


def same_factor(a: float, b: float) -> bool:
    if a == 0.0 or b == 0.0:
        return a == b
    return abs(a - b) <= LOG_TOL * max(abs(a), abs(b))


def check_explanation(name: str, entries, per_event, event_names, top_n: int) -> None:
    """Explained factors must be the oracle's top_n smallest, each one a real factor.

    ``event_names`` gives each event's names as ``read_log`` does.  One way of
    naming (the event-id column, or the data row) must place every entry on
    an event that has a factor of that attribute, kind, source and value.
    """
    smallest = sorted(f[3] for fs in per_event for f in fs)[:top_n]
    check(len(entries) == len(smallest), f"{name}: {len(entries)} explained factors, expected {len(smallest)}")
    for got, want in zip(sorted(e[4] for e in entries), smallest):
        check(same_factor(got, want), f"{name}: explained factor {got!r}, oracle's smallest {want!r}")
    unplaced = []
    for naming in range(len(event_names[0])):
        position = {names[naming]: i for i, names in enumerate(event_names)}
        unplaced.append([e for e in entries if not _is_factor(e, position, per_event)])
        if not unplaced[-1]:
            return
    eid, attr, kind, source, value = min(unplaced, key=len)[0]
    check(False, f"{name}: no factor {attr} {kind} of event {eid} has value {value!r}")


def _is_factor(entry, position, per_event) -> bool:
    eid, attr, kind, source, value = entry
    i = position.get(eid)
    return i is not None and any(
        f[:3] == (attr, kind, source) and same_factor(value, f[3]) for f in per_event[i])


# --- ranking files ----------------------------------------------------------


def read_ranking(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        check(next(reader) == ["trace_id", "score", "event_count"], "ranking header")
        return [(tid, float(score), int(count)) for tid, score, count in reader]


_EXPLAIN_HEAD = re.compile(r"^trace (\S+) \(score=(.+)\):$")
_EXPLAIN_LINE = re.compile(r"^  event (\S+): (\S+) (value|relation|fd)(?: from (\S+))? = (.+)$")


def read_explanations(path) -> dict[str, list]:
    blocks: dict[str, list] = {}
    current = None
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            head = _EXPLAIN_HEAD.match(line)
            if head:
                current = blocks.setdefault(head.group(1), [])
                continue
            entry = _EXPLAIN_LINE.match(line)
            check(entry is not None and current is not None, f"unreadable explanation line {line!r}")
            eid, attr, kind, source, value = entry.groups()
            current.append((eid, attr, kind, source, float(value)))
    return blocks


def check_ranking_order(ranking, zero_counts: dict[str, int]) -> None:
    """Ascending by score; zeros break ties by more zero factors first, then trace id."""
    keys = [(score, -zero_counts[tid] if score == 0.0 else 0, tid) for tid, score, _ in ranking]
    for i in range(1, len(keys)):
        check(keys[i - 1] <= keys[i], f"ranking out of order at position {i}: {keys[i - 1]} before {keys[i]}")


def brute_force_auc(scores: dict[str, float], labels: dict[str, str]) -> float:
    """P(anomalous scores below normal), ties counting one half, over all pairs."""
    anomalous = [scores[t] for t, lab in labels.items() if lab == "anomalous"]
    normal = [scores[t] for t, lab in labels.items() if lab == "normal"]
    check(bool(anomalous) and bool(normal), "labels need both classes")
    wins = sum(1.0 if a < b else 0.5 if a == b else 0.0 for a in anomalous for b in normal)
    return wins / (len(anomalous) * len(normal))


def check_scored_log(model: ModelDoc, traces, ranking, explanations, labels, top_n: int):
    """Every check of one `edbn score --explain` output against the oracle; returns the AUC."""
    check(sorted(t for t, _, _ in ranking) == sorted(t for t, _ in traces),
          "ranking does not hold every trace exactly once")
    by_id = dict(traces)
    zero_counts = {}
    for tid, score, count in ranking:
        events = by_id[tid]
        check(count == len(events), f"trace {tid}: event_count {count}, log has {len(events)}")
        per_event, prefix_logs, zeros = trace_report(model, events)
        zero_counts[tid] = zeros
        check_log_score(f"trace {tid}", score, prefix_logs[-1])
        check(tid in explanations, f"trace {tid} has no explanation")
        check_explanation(f"trace {tid}", explanations[tid], per_event, [e[0] for e in events], top_n)
    check_ranking_order(ranking, zero_counts)
    auc = brute_force_auc({t: s for t, s, _ in ranking}, labels)
    check(auc >= AUC_FLOOR, f"AUC {auc:.4f} below {AUC_FLOOR}")
    return auc


# --- training ---------------------------------------------------------------


def uncertainty(xs, ys) -> float:
    """U(X|Y) = I(X;Y) / H(X) from plain counts; 1 for a constant X."""
    n = len(xs)
    cx, cy, cxy = Counter(xs), Counter(ys), Counter(zip(xs, ys))
    h = -math.fsum(c / n * math.log(c / n) for c in cx.values())
    if h == 0.0:
        return 1.0
    mi = math.fsum(c / n * math.log(c * n / (cx[x] * cy[y])) for (x, y), c in cxy.items())
    return mi / h


def majority_map(src, tgt):
    """Majority vote per non-padding source value, ties to the smallest target; violations."""
    votes: dict = defaultdict(Counter)
    for x, y in zip(src, tgt):
        if x != PADDING:
            votes[x][y] += 1
    mapping = {}
    for x, counter in votes.items():
        best = max(counter.values())
        mapping[x] = min(v for v, c in counter.items() if c == best)
    violations = sum(1 for x, y in zip(src, tgt) if x != PADDING and mapping[x] != y)
    return mapping, violations


def reaches(edges, start, goal) -> bool:
    children = defaultdict(list)
    for s, t in edges:
        children[s].append(t)
    stack, seen = [start], {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for nxt in children[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


def check_trained_model(model_text: str, log_path, trace_col: str, k: int, threshold: float) -> ModelDoc:
    """Recount every rate, CPT, FD map and strength of a model from its training CSV."""
    model = ModelDoc(model_text)
    attrs, traces = read_log(log_path, trace_col)
    check(model.attrs == attrs, f"model attributes {model.attrs} differ from the log's {attrs}")
    check(model.k == k, f"model k={model.k}, trained with k={k}")
    columns = k_context(attrs, traces, k)
    n = len(columns[(attrs[0], 0)])
    check(model.n == n, f"training_event_count {model.n}, log has {n} events")

    for a in attrs:
        domain = set(columns[(a, 0)])
        check(model.domains[a] == domain, f"active domain of {a} differs from the log")
        check(model.new_value[a] == Fraction(len(domain), n), f"new_value({a}) is not |domain|/n")

    fd_edges = model.fd_edges()
    for a in attrs:
        parents, rows = model.cpts[a]
        dag_parents = {s for s, t in model.dag_edges if t == (a, 0)} - {s for s, t in fd_edges if t == (a, 0)}
        check(set(parents) == dag_parents, f"CPT parents of {a} differ from its conditional DAG parents")
        recount: dict = defaultdict(Counter)
        for i, x in enumerate(columns[(a, 0)]):
            recount[tuple(columns[p][i] for p in parents)][x] += 1
        check(set(rows) == set(recount), f"CPT rows of {a} differ from the log's parent tuples")
        for cfg, (counts, total) in rows.items():
            check(counts == dict(recount[cfg]), f"CPT counts of {a} at {cfg} differ from the log")
            check(total == sum(recount[cfg].values()), f"CPT total of {a} at {cfg} differs from the log")
        expected = Fraction(len(rows), n) if parents else Fraction(0)
        check(model.new_relation[a] == expected, f"new_relation({a}) is not rows/n")

    for m in model.fds:
        src, tgt = columns[m["source"]], columns[m["target"]]
        mapping, violations = majority_map(src, tgt)
        name = f"FD {m['source']} -> {m['target']}"
        check(m["map"] == mapping, f"{name}: map is not the majority vote")
        check(m["violation"] == Fraction(violations, n), f"{name}: violation is not {violations}/{n}")
        u = uncertainty(tgt, src)
        check(abs(u - m["strength"]) <= U_TOL, f"{name}: strength {m['strength']!r}, U(X|Y) = {u!r}")
        check(m["strength"] > threshold, f"{name}: strength {m['strength']!r} not above {threshold}")

    for s, t in model.dag_edges:
        check(t[1] == 0, f"edge {s} -> {t} ends in a history slice")
    check(fd_edges <= model.dag_edges, "an FD edge is missing from the DAG")
    conditional = model.dag_edges - fd_edges
    for s, t in conditional:
        check(not reaches(conditional, t, s), f"conditional edges have a cycle through {s} -> {t}")
    return model


# --- structure score (costly; run by the self-test) -------------------------


def family_aic(columns, cards, child, parents) -> float:
    """Multinomial log-likelihood of child given parents minus the parameter count."""
    keys = list(zip(*(columns[p] for p in parents))) if parents else [()] * len(columns[child])
    joint = Counter(zip(keys, columns[child]))
    margin = Counter(keys)
    ll = math.fsum(c * math.log(c / margin[cfg]) for (cfg, _), c in joint.items())
    params = cards[child] - 1
    for p in parents:
        params *= cards[p]
    return ll - params


def best_single_move_gain(model: ModelDoc, columns) -> tuple[float, tuple]:
    """Largest AIC gain of one legal edge addition or deletion on the conditional DAG.

    Legal moves keep edges out of history slices, leave FD edges pinned and
    add no cycle through conditional or FD edges.
    """
    cards = {v: len(set(col)) for v, col in columns.items()}
    fd_edges = model.fd_edges()
    conditional = model.dag_edges - fd_edges
    parents = {(a, 0): frozenset(model.cpts[a][0]) for a in model.attrs}
    best = (-math.inf, None)
    for tgt in parents:
        base = family_aic(columns, cards, tgt, sorted(parents[tgt]))
        for src in columns:
            if src == tgt or (src, tgt) in fd_edges:
                continue
            if src in parents[tgt]:
                trial = parents[tgt] - {src}
            elif reaches(conditional | fd_edges, tgt, src):
                continue
            else:
                trial = parents[tgt] | {src}
            gain = family_aic(columns, cards, tgt, sorted(trial)) - base
            best = max(best, (gain, (src, tgt)), key=lambda g: g[0])
    return best
