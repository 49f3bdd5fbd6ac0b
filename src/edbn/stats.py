"""Information-theoretic measures over categorical columns.

All functions are stateless and safe to call concurrently.  Natural logarithm
throughout unless a base is given; 0*log(0) counts as 0.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

# numpy is imported inside the functions that use it, so that a process that
# only loads and scores models never loads it.


def _codes(values: Sequence) -> tuple[np.ndarray, int]:
    import numpy as np
    uniq, inverse = np.unique(np.asarray(values), return_inverse=True)
    return inverse.astype(np.int64), len(uniq)


def dense_size(n: int) -> int:
    return 4 * n + 4096  # key spaces up to this size are counted with one bincount pass


def key_counts(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct integer keys in [0, size) and their counts, in key order."""
    import numpy as np
    if size > dense_size(len(keys)):
        return np.unique(keys, return_counts=True)
    counts = np.bincount(keys, minlength=size)
    present = np.flatnonzero(counts)
    return present, counts[present]


def tuple_keys(columns: Sequence[tuple[np.ndarray, int]], n: int) -> tuple[np.ndarray, int]:
    """Per row, an int64 key of its codes in ``columns`` ((codes, code count) pairs) in tuple
    order, and the key-space size; keys are re-coded before they outgrow a bincount pass.
    The keys of a single column are its codes array itself."""
    import numpy as np
    if not columns:
        return np.zeros(n, dtype=np.int64), 1
    (keys, size), *rest = columns
    for codes, card in rest:
        if size * card > dense_size(n):
            keys, size = dense_ranks(keys, size)
        keys = keys * card
        keys += codes
        size *= card
    return keys, size


def dense_ranks(keys: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Each key's rank among the distinct keys, and their number: np.unique's inverse."""
    import numpy as np
    if size > dense_size(len(keys)):  # only for keys of very many values
        uniq, inverse = np.unique(keys, return_inverse=True)
        return inverse, len(uniq)
    rank = np.cumsum(np.bincount(keys, minlength=size) > 0) - 1
    return rank[keys], int(rank[-1]) + 1


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    import numpy as np
    p = counts / n
    return float(-(p * np.log(p)).sum())


class CodedColumn(NamedTuple):
    """A dense code column with the count of each code and its entropy, computed once."""

    codes: np.ndarray
    counts: np.ndarray
    entropy: float


def coded_column(codes: np.ndarray, n_codes: int) -> CodedColumn:
    """The CodedColumn of ``codes``, which take values in [0, n_codes)."""
    import numpy as np
    counts = np.bincount(codes, minlength=n_codes)
    return CodedColumn(codes, counts, _entropy_from_counts(counts, len(codes)))


def _coded_mutual_information(x: CodedColumn, y: CodedColumn) -> tuple[float, int]:
    """I(X;Y) of two aligned coded columns, and the number of distinct (x, y) pairs."""
    import numpy as np
    n, ny = len(x.codes), len(y.counts)
    joint, joint_counts = key_counts(x.codes * ny + y.codes, len(x.counts) * ny)
    p_xy = joint_counts / n
    p_x = x.counts[joint // ny] / n
    p_y = y.counts[joint % ny] / n
    return float((p_xy * np.log(p_xy / (p_x * p_y))).sum()), len(joint)


def _check_aligned(col_x: Sequence, col_y: Sequence) -> None:
    if len(col_x) != len(col_y):
        raise ValueError("columns differ in length")
    if len(col_x) == 0:
        raise ValueError("columns are empty")


def entropy(column: Sequence, base: float | None = None) -> float:
    """Shannon entropy of a categorical column; 0 iff the column is constant."""
    import numpy as np
    if len(column) == 0:
        raise ValueError("column is empty")
    h = coded_column(*_codes(column)).entropy
    if base is not None:
        h /= np.log(base)
    return max(h, 0.0)


def mutual_information(col_x: Sequence, col_y: Sequence, base: float | None = None) -> float:
    """Empirical mutual information between two aligned columns."""
    import numpy as np
    _check_aligned(col_x, col_y)
    mi = _coded_mutual_information(coded_column(*_codes(col_x)), coded_column(*_codes(col_y)))[0]
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
    _check_aligned(col_x, col_y)
    return coded_uncertainty(coded_column(*_codes(col_x)), coded_column(*_codes(col_y)))


def coded_uncertainty(x: CodedColumn, y: CodedColumn) -> float:
    """uncertainty_coefficient of two aligned coded columns."""
    if x.entropy == 0.0:
        return 1.0
    mi, pairs = _coded_mutual_information(x, y)
    if pairs == len(y.counts):
        # One x per y value: the mapping is single-valued, so U is exactly 1.
        return 1.0
    return min(max(mi / x.entropy, 0.0), 1.0)
