"""Information-theoretic measures over categorical columns.

All functions are stateless and safe to call concurrently.  Natural logarithm
throughout unless a base is given; 0*log(0) counts as 0.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .event_log import KContextLog, Variable, code_type

# numpy is imported inside the functions that use it, so that a process that
# only loads and scores models never loads it.


def _codes(values: Sequence) -> tuple[np.ndarray, int]:
    import numpy as np
    uniq, inverse = np.unique(np.asarray(values), return_inverse=True)
    return inverse.astype(code_type(len(uniq))), len(uniq)


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
    """Per row, a key of its codes in ``columns`` ((codes, code count) pairs) in tuple order, and
    the key-space size; keys are re-coded before they outgrow a bincount pass.  The keys are held
    in code_type(size), the narrowest unsigned type of their key space: before each column is
    joined, the keys so far are copied into the type of the key space they are about to span
    (see _joined).  The keys of a single column are its codes array itself."""
    import numpy as np
    if not columns:
        return np.zeros(n, dtype=code_type(1)), 1
    (keys, size), *rest = columns
    for codes, card in rest:
        if size * card > dense_size(n):
            keys, size = dense_ranks(keys, size)
        keys, size = _joined(keys, size, codes, card), size * card
    return keys, size


def _joined(keys: np.ndarray, size: int, codes: np.ndarray, card: int) -> np.ndarray:
    """keys * card + codes in code_type(size * card), widened before the multiply so that no key
    overflows; the type is chosen here, not by NumPy's promotion rules, which differ by version."""
    import numpy as np
    joined = keys.astype(code_type(size * card))
    if size > 1:  # a key space of one holds only 0, and its type may not hold card
        joined *= card
    return np.add(joined, codes, out=joined, dtype=joined.dtype, casting="unsafe")


def dense_ranks(keys: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Each key's rank among the distinct keys, in code_type of their number, and their number:
    np.unique's inverse."""
    import numpy as np
    if size > dense_size(len(keys)):  # only for keys of very many values
        uniq, inverse = np.unique(keys, return_inverse=True)
        return inverse.astype(code_type(len(uniq))), len(uniq)
    present = np.bincount(keys, minlength=size) > 0
    count = int(np.count_nonzero(present))
    return (np.cumsum(present) - 1).astype(code_type(count))[keys], count


def cell_counts(ctx: KContextLog, variables: Sequence[Variable]) -> dict:
    """The k-context's cell counts {configuration: {value: count}}, the value being the last variable's and
    the configuration the others'; each cell is decoded at its first row, and cells keep that row order."""
    import numpy as np
    columns = [ctx.index_of(v) for v in variables]
    keys, size = tuple_keys([(ctx.codes[i], len(ctx.vocabularies[i])) for i in columns], len(ctx))
    cell, cells = dense_ranks(keys, size)
    first = np.full(cells, len(ctx))
    np.minimum.at(first, cell, np.arange(len(ctx)))
    counts = np.bincount(cell, minlength=cells)
    table: dict = {}
    for row, count in sorted(zip(first.tolist(), counts.tolist())):
        *cfg, value = (ctx.vocabularies[i][ctx.codes[i][row]] for i in columns)
        table.setdefault(tuple(cfg), {})[value] = count
    return table


def _entropy_from_counts(counts: np.ndarray, n: int) -> float:
    import numpy as np
    p = counts[counts > 0] / n  # a code with no count adds 0*log(0) = 0
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
    n, nx, ny = len(x.codes), len(x.counts), len(y.counts)
    joint, joint_counts = key_counts(_joined(x.codes, nx, y.codes, ny), nx * ny)
    x_of, y_of = np.divmod(joint.astype(np.int64, copy=False), ny)  # where nx is 1, the keys' type may not hold ny
    p_xy = joint_counts / n
    p_x = x.counts[x_of] / n
    p_y = y.counts[y_of] / n
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
