"""Information-theoretic measures over categorical columns.

All functions are stateless and safe to call concurrently.  Natural logarithm
throughout unless a base is given; 0*log(0) counts as 0.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

# numpy is imported inside the functions that use it, so that a process that
# only loads and scores models never loads it.


@dataclass(frozen=True)
class FrequencyTable:
    """Occurrence counts backing the empirical p(x) / p(x,y) estimates."""

    counts: Mapping
    total: int

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError("total must be positive")
        if sum(self.counts.values()) != self.total:
            raise ValueError("counts must sum to total")

    @classmethod
    def from_values(cls, values: Sequence) -> "FrequencyTable":
        """Count scalar values or value tuples (joint occurrences)."""
        if len(values) == 0:
            raise ValueError("column is empty")
        return cls(dict(Counter(values)), len(values))

    def probabilities(self) -> dict:
        return {v: c / self.total for v, c in self.counts.items()}


def _count(values: Sequence) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np
    return np.unique(np.asarray(values), return_counts=True)


def _codes(values: Sequence) -> tuple[np.ndarray, int]:
    import numpy as np
    uniq, inverse = np.unique(np.asarray(values), return_inverse=True)
    return inverse.astype(np.int64), len(uniq)


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    import numpy as np
    p = counts / n
    return float(-(p * np.log(p)).sum())


def entropy(column: Sequence, base: float | None = None) -> float:
    """Shannon entropy of a categorical column; 0 iff the column is constant."""
    import numpy as np
    if len(column) == 0:
        raise ValueError("column is empty")
    _, counts = _count(column)
    h = _entropy_from_counts(counts, len(column))
    if base is not None:
        h /= np.log(base)
    return max(h, 0.0)


def mutual_information(col_x: Sequence, col_y: Sequence, base: float | None = None) -> float:
    """Empirical mutual information between two aligned columns."""
    import numpy as np
    if len(col_x) != len(col_y):
        raise ValueError("columns differ in length")
    if len(col_x) == 0:
        raise ValueError("columns are empty")
    n = len(col_x)
    x, nx = _codes(col_x)
    y, ny = _codes(col_y)
    joint, joint_counts = np.unique(x * ny + y, return_counts=True)
    x_counts = np.bincount(x, minlength=nx)
    y_counts = np.bincount(y, minlength=ny)
    p_xy = joint_counts / n
    p_x = x_counts[joint // ny] / n
    p_y = y_counts[joint % ny] / n
    mi = float((p_xy * np.log(p_xy / (p_x * p_y))).sum())
    if base is not None:
        mi /= np.log(base)
    return max(mi, 0.0)


def is_functional(col_x: Sequence, col_y: Sequence) -> bool:
    """True iff the empirical mapping Y -> X is single-valued on these rows."""
    if len(col_x) != len(col_y):
        raise ValueError("columns differ in length")
    seen: dict = {}
    for xv, yv in zip(col_x, col_y):
        if seen.setdefault(yv, xv) != xv:
            return False
    return True


def uncertainty_coefficient(col_x: Sequence, col_y: Sequence) -> float:
    """U(X|Y) = I(X;Y) / H(X) in [0, 1]; how much Y tells about X.

    Exactly 1.0 when Y functionally determines X (including constant X, which
    any Y determines); invariant under the logarithm base.
    """
    import numpy as np
    if len(col_x) != len(col_y):
        raise ValueError("columns differ in length")
    if len(col_x) == 0:
        raise ValueError("columns are empty")
    n = len(col_x)
    x, nx = _codes(col_x)
    y, ny = _codes(col_y)
    x_counts = np.bincount(x, minlength=nx)
    h = _entropy_from_counts(x_counts, n)
    if h == 0.0:
        return 1.0
    joint, joint_counts = np.unique(x * ny + y, return_counts=True)
    if len(joint) == ny:
        # One x per y value: the mapping is single-valued, so U is exactly 1.
        return 1.0
    y_counts = np.bincount(y, minlength=ny)
    p_xy = joint_counts / n
    p_x = x_counts[joint // ny] / n
    p_y = y_counts[joint % ny] / n
    mi = float((p_xy * np.log(p_xy / (p_x * p_y))).sum())
    return min(max(mi / h, 0.0), 1.0)
