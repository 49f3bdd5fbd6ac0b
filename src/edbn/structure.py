"""Conditional-dependency structure learning and CPT fitting.

Greedy first-improvement hill climbing on an AIC score over the k-context
columns: score(G) = LL(G) - #params(G), maximized, where LL is the multinomial
log-likelihood of each slice-0 attribute given its conditional parents and
#params charges (|a_dom(child)|-1) * prod |a_dom(parent)| per family.
Whitelisted FD edges are pinned into the graph but are not conditional
parents, so they contribute neither likelihood nor parameters; acyclicity is
required of the conditional edge set only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .event_log import KContextLog, Variable
from .fd import FDEdge
from .stats import cell_counts, key_counts, tuple_keys

Edge = tuple[Variable, Variable]

# Minimum score gain for a hill-climbing move to be accepted.
SCORE_EPS = 1e-9

# numpy is imported inside the functions that use it, so that a process that
# only loads and scores models never loads it.


@dataclass(frozen=True)
class StructureConstraints:
    blacklist: frozenset[Edge]
    whitelist: frozenset[Edge]

    def __post_init__(self) -> None:
        overlap = self.blacklist & self.whitelist
        if overlap:
            raise ValueError(f"edges both blacklisted and whitelisted: {sorted(overlap)}")


@dataclass(frozen=True)
class DAG:
    """Dependency graph over time-sliced variables; every edge ends in slice 0."""

    vertices: tuple[Variable, ...]
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        vertex_set = set(self.vertices)
        for src, tgt in self.edges:
            if src not in vertex_set or tgt not in vertex_set:
                raise ValueError(f"edge {src}->{tgt} uses unknown vertices")
            if tgt.lag != 0:
                raise ValueError(f"edge {src}->{tgt} ends in a history slice")

    def parents_of(self, var: Variable, exclude: frozenset[Edge] = frozenset()) -> tuple[Variable, ...]:
        return tuple(src for src, tgt in sorted(self.edges) if tgt == var and (src, tgt) not in exclude)


@dataclass(frozen=True)
class CPT:
    """Empirical conditional distribution of a slice-0 attribute given its parents.

    Rows are keyed by parent-value tuples and hold raw counts, so every
    probability is an exact m/n from the training rows.
    """

    child: Variable
    parents: tuple[Variable, ...]
    rows: dict
    row_totals: dict

    def __post_init__(self) -> None:
        for cfg, counts in self.rows.items():
            if sum(counts.values()) != self.row_totals[cfg]:
                raise ValueError(f"CPT row {cfg} counts do not sum to its total")

    def probability(self, value, cfg) -> float:
        return self.rows[cfg].get(value, 0) / self.row_totals[cfg]

    def row_distribution(self, cfg) -> dict:
        total = self.row_totals[cfg]
        return {v: c / total for v, c in self.rows[cfg].items()}


def make_constraints(variables: Sequence[Variable], fds: Iterable[FDEdge]) -> StructureConstraints:
    """Blacklist every edge into a history slice; whitelist the FD edges."""
    blacklist = frozenset(
        (src, tgt) for tgt in variables if tgt.lag > 0 for src in variables if src != tgt
    )
    whitelist = frozenset((fd.source, fd.target) for fd in fds)
    return StructureConstraints(blacklist, whitelist)


class _CodedContext:
    """The k-context's code columns with memoized family scores, one dict per child, and
    memoized parent-configuration terms, one per parent set."""

    def __init__(self, ctx: KContextLog):
        self.n = len(ctx)
        self.codes = dict(zip(ctx.variables, ctx.codes))
        self.cards = {v: len(vocab) for v, vocab in zip(ctx.variables, ctx.vocabularies)}
        self.scores: dict[Variable, dict[frozenset[Variable], float]] = {v: {} for v in ctx.variables}
        self._parent_terms: dict[frozenset[Variable], float] = {}

    def _params(self, child: Variable, parents: frozenset[Variable]) -> int:
        params = self.cards[child] - 1
        for p in parents:
            params *= self.cards[p]
        return params

    def family_score(self, child: Variable, parents: frozenset[Variable]) -> float:
        scores = self.scores[child]
        score = scores.get(parents)
        if score is None:
            import numpy as np

            params = self._params(child, parents)
            # Any family the climber can hold scores above -n*(2*ln card + 1), so a
            # family whose parameter count alone is below that can never be chosen;
            # skip counting it.
            if params > self.n * (2.0 * np.log(max(self.cards[child], 2)) + 1.0) + 1.0:
                score = -float(params)
            else:
                score = self._log_likelihood(child, parents) - params
            scores[parents] = score
        return score

    def gain(self, child: Variable, current: frozenset[Variable], trial: frozenset[Variable]) -> float:
        """The score gain of the trial parents over the current ones, or -inf where it cannot
        exceed SCORE_EPS: a log-likelihood is at most 0, and so is a computed one (exactly 0,
        or at most -2 ln 2 before rounding), so a family scores at most -params."""
        score = self.family_score(child, current)
        if -self._params(child, trial) - score <= SCORE_EPS:
            return -math.inf
        return self.family_score(child, trial) - score

    def _log_likelihood(self, child: Variable, parents: frozenset[Variable]) -> float:
        """sum n(cfg, x) ln n(cfg, x) - sum n(cfg) ln n(cfg), cfg the sorted parents' values and x the
        child's, from one count of the joint key; the second sum (of exact float64 counts) is kept per parent set."""
        import numpy as np

        card = self.cards[child]
        columns = [(self.codes[p], self.cards[p]) for p in sorted(parents)]
        keys, counts = key_counts(*tuple_keys(columns + [(self.codes[child], card)], self.n))
        term = self._parent_terms.get(parents)
        if term is None:
            parent_counts = np.bincount(keys // card, weights=counts)  # zero at each key no row has
            term = _sum_n_log_n(parent_counts[parent_counts > 0])
            self._parent_terms[parents] = term
        return _sum_n_log_n(counts) - term


def _sum_n_log_n(counts: np.ndarray) -> float:
    """sum c ln c over positive counts, in their order."""
    import numpy as np
    return float((counts * np.log(counts)).sum())


def _reachable(children: dict[Variable, list[Variable]], start: Variable) -> set[Variable]:
    """The vertices reachable from start along the directed edges given as child lists."""
    stack, seen = [start], {start}
    while stack:
        for nxt in children.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _candidate_order(variables: Sequence[Variable]) -> list[Edge]:
    sources = sorted(variables, key=lambda v: (v.lag, v.attr))
    targets = sorted((v for v in variables if v.lag == 0), key=lambda v: v.attr)
    return [(s, t) for s in sources for t in targets if s != t]


def learn_structure(ctx: KContextLog, constraints: StructureConstraints) -> DAG:
    """Greedy AIC hill climbing over single-edge additions and deletions.

    Deterministic: candidates are scanned in lexicographic (source slice,
    source attribute, target attribute) order and the first move improving
    the score by more than SCORE_EPS is applied, restarting the scan.
    """
    if not len(ctx):
        raise ValueError("context log is empty")
    coded = _CodedContext(ctx)
    # whitelisted edges are pinned: neither addable nor deletable
    candidates = [
        (src, tgt) for src, tgt in _candidate_order(ctx.variables)
        if (src, tgt) not in constraints.blacklist and (src, tgt) not in constraints.whitelist
    ]
    edges: set[Edge] = set(constraints.whitelist)
    parents: dict[Variable, frozenset[Variable]] = {
        v: frozenset() for v in ctx.variables if v.lag == 0
    }

    # Per target, the sources whose move was found not to improve the score.  A
    # move's gain depends only on its target's parents, so this holds until a move
    # into that target; a move blocked by a cycle is checked again in every scan.
    settled: dict[Variable, set[Variable]] = {v: set() for v in parents}
    while True:
        # edges change only when a move ends the scan
        children: dict[Variable, list[Variable]] = {}
        for src, tgt in edges:
            children.setdefault(src, []).append(tgt)
        reachable: dict[Variable, set[Variable]] = {}
        for src, tgt in candidates:
            if src in settled[tgt]:
                continue
            current = parents[tgt]
            if src in current:
                trial = current - {src}
            else:
                # No new cycle through conditional or whitelisted edges, so the
                # conditional edges stay acyclic; in particular the reverse of
                # an FD edge is never re-modeled.
                if tgt not in reachable:
                    reachable[tgt] = _reachable(children, tgt)
                if src in reachable[tgt]:
                    continue
                trial = current | {src}
            if coded.gain(tgt, current, trial) > SCORE_EPS:
                break
            settled[tgt].add(src)
        else:
            break
        # the move adds or deletes its edge
        edges ^= {(src, tgt)}
        parents[tgt] = trial
        settled[tgt].clear()
    return DAG(tuple(ctx.variables), frozenset(edges))


def fit_cpts(ctx: KContextLog, dag: DAG, fds: Iterable[FDEdge]) -> dict[str, CPT]:
    """Empirical-frequency CPTs, one per slice-0 attribute, read off the k-context's cell counts.

    Parent sets are the DAG parents minus FD edges, ordered as in the
    k-context variable list (slice k first).  Rows and counts keep the order
    in which the log first shows them.
    """
    fd_edges = frozenset((fd.source, fd.target) for fd in fds)
    var_pos = {v: i for i, v in enumerate(ctx.variables)}
    cpts: dict[str, CPT] = {}
    for child in ctx.current_variables():
        parents = tuple(sorted(dag.parents_of(child, exclude=fd_edges), key=var_pos.__getitem__))
        rows = cell_counts(ctx, parents + (child,))
        totals = {cfg: sum(cell.values()) for cfg, cell in rows.items()}
        cpts[child.attr] = CPT(child, parents, rows, totals)
    return cpts
