"""The string-based learner that the integer-coded k-context replaced, kept as its reference.

The k-context is a tuple of string rows; FD discovery and the structure
search code each column with ``np.unique``; CPTs, FD mappings and the novelty
rates are counted row by row in Python.  ``reference_learn`` returns the
EDBNModel this pipeline learns.
"""
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np

from edbn import PADDING, Variable
from edbn.fd import FDEdge, FDMapping
from edbn.model import EDBNModel
from edbn.structure import (
    CPT,
    DAG,
    SCORE_EPS,
    _candidate_order,
    make_constraints,
)


class ReferenceContext:
    def __init__(self, log, k):
        names = log.schema.names
        self.variables = tuple(Variable(a, lag) for lag in range(k, -1, -1) for a in names)
        pad = (PADDING,) * len(names)
        self.rows = []
        for trace in log.traces:
            descs = [e.values for e in trace.events]
            for i in range(len(descs)):
                parts = []
                for lag in range(k, 0, -1):
                    parts.extend(descs[i - lag] if i - lag >= 0 else pad)
                parts.extend(descs[i])
                self.rows.append(tuple(parts))

    def column(self, var):
        i = self.variables.index(var)
        return [row[i] for row in self.rows]

    def current_variables(self):
        return tuple(v for v in self.variables if v.lag == 0)


def _encode(column):
    uniq, inverse = np.unique(np.asarray(column), return_inverse=True)
    return inverse.astype(np.int64), len(uniq)


def reference_uncertainty(col_x, col_y):
    n = len(col_x)
    x, nx = _encode(col_x)
    y, ny = _encode(col_y)
    x_counts = np.bincount(x, minlength=nx)
    p = x_counts / n
    h = float(-(p * np.log(p)).sum())
    if h == 0.0:
        return 1.0
    joint, joint_counts = np.unique(x * ny + y, return_counts=True)
    if len(joint) == ny:
        return 1.0
    y_counts = np.bincount(y, minlength=ny)
    p_xy = joint_counts / n
    p_x = x_counts[joint // ny] / n
    p_y = y_counts[joint % ny] / n
    mi = float((p_xy * np.log(p_xy / (p_x * p_y))).sum())
    return min(max(mi / h, 0.0), 1.0)


def reference_discover_fds(ctx, threshold):
    columns = {v: _encode(ctx.column(v))[0] for v in ctx.variables}
    edges = []
    for target in ctx.current_variables():
        for source in ctx.variables:
            if source != target:
                u = reference_uncertainty(columns[target], columns[source])
                if u > threshold:
                    edges.append(FDEdge(source, target, u))
    return edges


def _sum_n_log_n(keys):
    _, counts = np.unique(keys, return_counts=True)
    return float((counts * np.log(counts)).sum())


class _FamilyScores:
    def __init__(self, ctx):
        self.n = len(ctx.rows)
        coded = {v: _encode(ctx.column(v)) for v in ctx.variables}
        self.codes = {v: c for v, (c, _) in coded.items()}
        self.cards = {v: card for v, (_, card) in coded.items()}
        self.cache = {}

    def __call__(self, child, parents):
        if (child, parents) not in self.cache:
            params = self.cards[child] - 1
            for p in parents:
                params *= self.cards[p]
            limit = self.n * (2.0 * np.log(max(self.cards[child], 2)) + 1.0) + 1.0
            if params > limit:
                score = -float(params)
            else:
                cfg_key = np.zeros(self.n, dtype=np.int64)
                for p in sorted(parents):
                    cfg_key = cfg_key * self.cards[p] + self.codes[p]
                joint_key = cfg_key * self.cards[child] + self.codes[child]
                score = _sum_n_log_n(joint_key) - _sum_n_log_n(cfg_key) - params
            self.cache[(child, parents)] = score
        return self.cache[(child, parents)]


def _reaches(edges, start, goal):
    stack, seen = [start], {start}
    while stack:
        node = stack.pop()
        if node == goal:
            return True
        for src, tgt in edges:
            if src == node and tgt not in seen:
                seen.add(tgt)
                stack.append(tgt)
    return False


def reference_learn_structure(ctx, constraints):
    score = _FamilyScores(ctx)
    edges = set(constraints.whitelist)
    parents = {v: frozenset() for v in ctx.current_variables()}
    improved = True
    while improved:
        improved = False
        for src, tgt in _candidate_order(ctx.variables):
            if (src, tgt) in constraints.blacklist or (src, tgt) in constraints.whitelist:
                continue
            if (src, tgt) in edges:
                trial = parents[tgt] - {src}
            elif _reaches(edges, tgt, src):
                continue
            else:
                trial = parents[tgt] | {src}
            if score(tgt, trial) - score(tgt, parents[tgt]) > SCORE_EPS:
                edges ^= {(src, tgt)}
                parents[tgt] = trial
                improved = True
                break
    return DAG(ctx.variables, frozenset(edges))


def reference_fit_cpts(ctx, dag, fds):
    fd_edges = frozenset((fd.source, fd.target) for fd in fds)
    cpts = {}
    for child in ctx.current_variables():
        parents = tuple(sorted(dag.parents_of(child, exclude=fd_edges), key=ctx.variables.index))
        child_i = ctx.variables.index(child)
        parent_i = [ctx.variables.index(p) for p in parents]
        rows, totals = {}, {}
        for row in ctx.rows:
            cfg = tuple(row[i] for i in parent_i)
            counts = rows.setdefault(cfg, {})
            counts[row[child_i]] = counts.get(row[child_i], 0) + 1
            totals[cfg] = totals.get(cfg, 0) + 1
        cpts[child.attr] = CPT(parents, rows)
        assert cpts[child.attr].row_totals == totals  # the CPT's totals are summed from its counts
    return cpts


def reference_build_mapping(ctx, edge):
    src_col, tgt_col = ctx.column(edge.source), ctx.column(edge.target)
    pair_counts = defaultdict(Counter)
    for x, y in zip(src_col, tgt_col):
        if x != PADDING:
            pair_counts[x][y] += 1
    mapping = {}
    for x, counter in pair_counts.items():
        best = max(counter.values())
        mapping[x] = min(v for v, c in counter.items() if c == best)
    violations = sum(1 for x, y in zip(src_col, tgt_col) if x != PADDING and mapping[x] != y)
    return FDMapping(edge, mapping, Fraction(violations, len(ctx.rows)))


def reference_learn(log, k, fd_threshold=0.99, structure=None):
    ctx = ReferenceContext(log, k)
    fds = reference_discover_fds(ctx, fd_threshold)
    fd_pairs = frozenset((fd.source, fd.target) for fd in fds)
    if structure is None:
        dag = reference_learn_structure(ctx, make_constraints(ctx.variables, fds))
    else:
        dag = DAG(ctx.variables, frozenset(structure) | fd_pairs)
    cpts = reference_fit_cpts(ctx, dag, fds)
    n = len(ctx.rows)
    domains = {a: frozenset(e.values[i] for t in log.traces for e in t.events) for i, a in enumerate(log.schema.names)}
    model = EDBNModel(
        k=k,
        schema=log.schema,
        fd_mappings=tuple(reference_build_mapping(ctx, fd) for fd in fds),
        cpts=cpts,
        new_value={a: Fraction(len(d), n) for a, d in domains.items()},
        new_relation={
            a: Fraction(len(cpt.rows), n) if cpt.parents else Fraction(0) for a, cpt in cpts.items()
        },
        active_domains=domains,
        training_event_count=n,
    )
    assert model.dag == dag  # the model derives the graph searched here from its CPT parents and FD edges
    return model
