"""Functional-dependency discovery and mapping functions.

An FD edge source -> target means the source variable's value determines the
target attribute's value on the current event.  Discovery keeps every pair
whose uncertainty coefficient U(target | source) strictly exceeds the
threshold; mappings are majority votes with an explicit violation rate.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction

from .event_log import PADDING, KContextLog, Variable
from .stats import uncertainty_coefficient

# numpy is imported inside the functions that use it, so that a process that
# only loads and scores models never loads it.


@dataclass(frozen=True)
class FDEdge:
    source: Variable
    target: Variable
    strength: float

    def __post_init__(self) -> None:
        if self.target.lag != 0:
            raise ValueError("FD targets must be in slice 0")


@dataclass(frozen=True)
class FDMapping:
    """Finite source value -> target value function plus its violation rate."""

    edge: FDEdge
    map: dict
    violation_rate: Fraction

    def __post_init__(self) -> None:
        if not 0 <= self.violation_rate <= 1:
            raise ValueError("violation_rate must be in [0, 1]")


def discover_fds(ctx: KContextLog, threshold: float) -> list[FDEdge]:
    """All edges source -> target (target in slice 0) with U(target|source) > threshold.

    Columns are used as-is, padding rows included; None-exclusion semantics
    live in build_mapping.
    """
    import numpy as np
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    if not ctx.rows:
        raise ValueError("context log is empty")
    # Pre-coding the columns once keeps the pairwise scan cheap on large logs.
    columns = {
        v: np.unique(np.asarray(ctx.column(v)), return_inverse=True)[1]
        for v in ctx.variables
    }
    edges = []
    for target in ctx.current_variables():
        for source in ctx.variables:
            if source == target:
                continue
            u = uncertainty_coefficient(columns[target], columns[source])
            if u > threshold:
                edges.append(FDEdge(source, target, u))
    return edges


def build_mapping(ctx: KContextLog, edge: FDEdge) -> FDMapping:
    """Majority-vote mapping for an FD edge, with its empirical violation rate.

    Rows whose source value is PADDING contribute neither mapping entries nor
    violations; the violation denominator is the full row count.  Majority
    ties break on the lexicographically smallest target value.
    """
    src_col = ctx.column(edge.source)
    tgt_col = ctx.column(edge.target)
    pair_counts: dict = defaultdict(Counter)
    for x, y in zip(src_col, tgt_col):
        if x != PADDING:
            pair_counts[x][y] += 1
    mapping = {}
    for x, counter in pair_counts.items():
        best = max(counter.values())
        mapping[x] = min(v for v, c in counter.items() if c == best)
    violations = sum(
        1 for x, y in zip(src_col, tgt_col) if x != PADDING and mapping[x] != y
    )
    return FDMapping(edge, mapping, Fraction(violations, len(ctx.rows)))


def fdm_probability(mapping: FDMapping, x, y) -> float:
    """Probability contribution of one FD check for source value x, target value y.

    Returns 1 - violation_rate when the mapping agrees or x was never seen as
    a source (padding included); the violation rate otherwise.
    """
    expected = mapping.map.get(x)
    if expected is None or expected == y:
        return float(1 - mapping.violation_rate)
    return float(mapping.violation_rate)
