"""Functional-dependency discovery and mapping functions.

An FD edge source -> target means the source variable's value determines the
target attribute's value on the current event.  Discovery keeps every pair
whose uncertainty coefficient U(target | source) strictly exceeds the
threshold; mappings are majority votes over the cell counts that CPTs are
read from too (``stats.cell_counts``), with an explicit violation rate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .event_log import PADDING, KContextLog, Variable
from .stats import cell_counts, coded_column, coded_uncertainty


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
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    if not len(ctx):
        raise ValueError("context log is empty")
    # each variable's code counts and entropy, computed once for all its pairs
    coded = {v: coded_column(codes, len(vocab)) for v, codes, vocab in zip(ctx.variables, ctx.codes, ctx.vocabularies)}
    edges = []
    for target in ctx.current_variables():
        x = coded[target]
        for source in ctx.variables:
            y = coded[source]
            # U(target|source) <= H(source) / H(target): a source below the threshold's share of the
            # target's entropy (less a rounding margin) cannot pass unless it determines the target,
            # and a source that takes fewer values than the target cannot determine it
            if source == target or len(y.counts) < len(x.counts) and y.entropy < threshold * x.entropy * (1 - 1e-9):
                continue
            u = coded_uncertainty(x, y)
            if u > threshold:
                edges.append(FDEdge(source, target, u))
    return edges


def build_mapping(ctx: KContextLog, edge: FDEdge) -> FDMapping:
    """Majority-vote mapping for an FD edge, read off the (source, target) cell counts.

    Each source value maps to the target value it occurs with most often, ties going
    to the smallest string.  Rows whose source value is PADDING contribute neither
    mapping entries nor violations; the violation denominator is the full row count.
    """
    table = cell_counts(ctx, (edge.source, edge.target))
    table.pop((PADDING,), None)
    mapping = {x: min(counts, key=lambda y: (-counts[y], y)) for (x,), counts in table.items()}
    violations = sum(sum(counts.values()) - counts[mapping[x]] for (x,), counts in table.items())
    return FDMapping(edge, mapping, Fraction(violations, len(ctx)))


def fdm_probability(mapping: FDMapping, x, y) -> float:
    """Probability contribution of one FD check for source value x, target value y.

    Returns 1 - violation_rate when the mapping agrees or x was never seen as
    a source (padding included); the violation rate otherwise.
    """
    expected = mapping.map.get(x)
    if expected is None or expected == y:
        return float(1 - mapping.violation_rate)
    return float(mapping.violation_rate)
