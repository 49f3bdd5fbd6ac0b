import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edbn import Variable, entropy, mutual_information, uncertainty_coefficient
from edbn import stats
from edbn.event_log import code_type
from edbn.stats import coded_column, dense_ranks, dense_size, key_counts, tuple_keys


# --- independent oracles (plain dict counting, direct summation) -------------


def oracle_entropy(column):
    n = len(column)
    counts = {}
    for v in column:
        counts[v] = counts.get(v, 0) + 1
    return -sum(c / n * math.log(c / n) for c in counts.values())


def oracle_mi(col_x, col_y):
    n = len(col_x)
    cx, cy, cxy = {}, {}, {}
    for a, b in zip(col_x, col_y):
        cx[a] = cx.get(a, 0) + 1
        cy[b] = cy.get(b, 0) + 1
        cxy[a, b] = cxy.get((a, b), 0) + 1
    return sum(
        c / n * math.log((c / n) / (cx[a] / n * cy[b] / n)) for (a, b), c in cxy.items()
    )


def oracle_u(col_x, col_y):
    h = oracle_entropy(col_x)
    if h == 0:
        return 1.0
    return oracle_mi(col_x, col_y) / h


# --- entropy ------------------------------------------------------------------


def test_entropy_constant_column_is_zero():
    assert entropy(["k"] * 7) == 0.0


def test_entropy_even_split_is_ln2():
    assert entropy(["a", "b", "a", "b"]) == pytest.approx(math.log(2), abs=1e-12)


def test_entropy_of_user_id_column(permission_ctx):
    # counts 001x8, 002x2, 003x4, 004x1 over 15; oracle value frozen below
    column = permission_ctx.column(Variable("UserID", 0))
    assert sorted(
        (column.count(v) for v in set(column)), reverse=True
    ) == [8, 4, 2, 1]
    assert entropy(column) == pytest.approx(1.1369165918330006, abs=1e-12)
    assert entropy(column) == pytest.approx(oracle_entropy(column), abs=1e-12)


def test_entropy_empty_column_is_error():
    with pytest.raises(ValueError):
        entropy([])


def test_mutual_information_of_empty_columns_is_error():
    with pytest.raises(ValueError, match="^columns are empty$"):
        mutual_information([], [])


# --- mutual information ---------------------------------------------------------


def test_mi_independent_columns_is_zero():
    x = ["a", "a", "b", "b"]
    y = ["u", "v", "u", "v"]
    assert mutual_information(x, y) == pytest.approx(0.0, abs=1e-12)


def test_mi_identical_columns_equals_entropy():
    col = ["a", "b", "c", "a", "b", "a"]
    assert mutual_information(col, col) == pytest.approx(entropy(col), abs=1e-12)


def test_mi_user_id_vs_user_role(permission_ctx):
    x = permission_ctx.column(Variable("UserID", 0))
    y = permission_ctx.column(Variable("UserRole", 0))
    expected = oracle_mi(x, y)
    assert expected == pytest.approx(0.6277052571971504, abs=1e-12)
    assert mutual_information(x, y) == pytest.approx(expected, abs=1e-12)


def test_mi_length_mismatch_is_error():
    with pytest.raises(ValueError):
        mutual_information(["a"], ["b", "c"])


# --- uncertainty coefficient -----------------------------------------------------


def test_u_constant_x_is_one_by_convention():
    assert uncertainty_coefficient(["k", "k", "k"], ["a", "b", "c"]) == 1.0


def test_u_exact_functional_dependency_is_one(permission_ctx):
    role = permission_ctx.column(Variable("UserRole", 0))
    uid = permission_ctx.column(Variable("UserID", 0))
    # grouping check: every UserID co-occurs with exactly one UserRole
    assert len(set(zip(uid, role))) == len(set(uid))
    assert uncertainty_coefficient(role, uid) == 1.0


def test_u_history_user_id_matches_counting_oracle(permission_ctx):
    x = permission_ctx.column(Variable("UserID", 1))
    y = permission_ctx.column(Variable("UserID", 0))
    assert uncertainty_coefficient(x, y) == pytest.approx(oracle_u(x, y), abs=1e-12)
    assert uncertainty_coefficient(x, y) < 0.99  # well under the FD threshold


columns_st = st.lists(st.sampled_from("abcd"), min_size=1, max_size=40)
pairs_st = st.integers(2, 40).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from("abcd"), min_size=n, max_size=n),
        st.lists(st.sampled_from("uvwx"), min_size=n, max_size=n),
    )
)


@settings(max_examples=80)
@given(pairs_st)
def test_mi_symmetry_and_bounds(pair):
    x, y = pair
    assert abs(mutual_information(x, y) - mutual_information(y, x)) < 1e-12
    assert 0 <= mutual_information(x, y) <= min(entropy(x), entropy(y)) + 1e-12


@settings(max_examples=80)
@given(pairs_st)
def test_u_is_base_invariant(pair):
    x, y = pair
    u = uncertainty_coefficient(x, y)
    h2 = entropy(x, base=2)
    if h2 > 0 and len(set(zip(y, x))) != len(set(y)):  # y does not determine x
        assert abs(u - mutual_information(x, y, base=2) / h2) < 1e-12
    assert 0 <= u <= 1


@settings(max_examples=80)
@given(pairs_st)
def test_u_is_one_exactly_for_single_valued_mappings(pair):
    x, y = pair
    grouped = {}
    single_valued = True
    for xv, yv in zip(x, y):
        if grouped.setdefault(yv, xv) != xv:
            single_valued = False
    assert (uncertainty_coefficient(x, y) == 1.0) == (single_valued or entropy(x) == 0.0)



# --- tuple keys -----------------------------------------------------------------


def _unique_recoded_tuple_keys(columns, n):
    """Mixed-radix int64 row keys, re-coded with np.unique's inverse before they outgrow 4n+4096."""
    keys, size = np.zeros(n, dtype=np.int64), 1
    for codes, card in columns:
        if size * card > 4 * n + 4096:
            uniq, keys = np.unique(keys, return_inverse=True)
            size = len(uniq)
        keys, size = keys * card + codes.astype(np.int64), size * card
    return keys, size


def _assert_tuple_keys_equal_reference(columns, n):
    keys, size = tuple_keys(columns, n)
    expected_keys, expected_size = _unique_recoded_tuple_keys(columns, n)
    # the narrowest unsigned type of the key space; one column's keys are its codes as given
    assert keys.dtype == (columns[0][0].dtype if len(columns) == 1 else code_type(size))
    assert np.array_equal(keys, expected_keys)
    assert size == expected_size


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.lists(st.tuples(st.integers(1, 400), st.integers(1, 400)), max_size=6), st.integers(0, 2**32 - 1))
def test_tuple_keys_equal_unique_recoded_keys(n, shapes, seed):
    # each column takes at most `used` of its `card` codes, so codes may skip values
    rng = np.random.default_rng(seed)
    columns = [(rng.choice(rng.integers(0, card, used), n), card) for card, used in shapes]
    _assert_tuple_keys_equal_reference(columns, n)


@pytest.mark.parametrize("n, cards", [(34, [16] * 17), (300, [16] * 17), (300, [400, 400, 400])])
def test_tuple_keys_of_many_wide_columns_equal_unique_recoded_keys(n, cards):
    # three columns of 400 codes over 300 rows re-code a key space above 4n+4096
    rng = np.random.default_rng(n)
    _assert_tuple_keys_equal_reference([(rng.integers(0, card, n), card) for card in cards], n)


# --- key widths ---------------------------------------------------------------

# code counts at each width's edge (a byte, two bytes, four bytes) and small ones
CARDS = st.sampled_from([1, 2, 3, 16, 17, 255, 256, 257, 65_535, 65_536, 65_537,
                         2**32 - 1, 2**32, 2**32 + 1]) | st.integers(1, 400)


def _narrow_columns(n, cards, seed):
    """Columns of (codes, card) over n rows, each code column in code_type(card) as a k-context
    holds it, its highest code present."""
    rng = np.random.default_rng(seed)
    columns = []
    for card in cards:
        codes = rng.integers(0, card, n, dtype=np.uint64).astype(code_type(card))
        codes[rng.integers(n)] = card - 1
        columns.append((codes, card))
    return columns


@st.composite
def narrow_columns(draw, cards=CARDS, max_columns=5):
    """(columns, n): _narrow_columns of up to max_columns code counts drawn from ``cards``."""
    n = draw(st.integers(1, 300))
    return _narrow_columns(n, draw(st.lists(cards, min_size=1, max_size=max_columns)), draw(st.integers(0, 2**32 - 1))), n


@settings(max_examples=300, deadline=None)
@given(narrow_columns())
def test_tuple_keys_of_narrow_codes_equal_int64_keys(case):
    # the keys stay equal to int64 keys at every width: each is widened before it is multiplied
    columns, n = case
    _assert_tuple_keys_equal_reference(columns, n)


@pytest.mark.parametrize("n, cards, dtype", [
    (300, [255, 2], np.uint16),  # byte codes whose key needs two bytes
    (20_000, [256, 256], np.uint16),  # 65,536 keys, the most that two bytes hold, under dense_size
    (20_000, [257, 255], np.uint16),
    (20_000, [257, 256], np.uint32),  # 65,792 keys cross 2**16
    (20_000, [16, 16, 257], np.uint32),  # byte keys cross 2**16 at the third column, under dense_size
    (50, [17, 17, 17], np.uint16),  # 4,913 keys cross dense_size (4,296): re-ranked first
    (300, [65_535, 65_536, 65_537], np.uint32),  # above dense_size: re-ranked to at most 300 keys first
    (300, [300, 2**32 + 1], np.uint64),  # 300 * (2**32 + 1) keys cross 2**32
    (3, [2**32 - 1, 2**32], np.uint64),
])
def test_tuple_keys_cross_each_width_partway(n, cards, dtype):
    columns = _narrow_columns(n, cards, n)
    _assert_tuple_keys_equal_reference(columns, n)
    assert tuple_keys(columns, n)[0].dtype == dtype


@settings(max_examples=200, deadline=None)
@given(narrow_columns(max_columns=1), st.booleans())
def test_dense_ranks_of_narrow_keys_equal_unique_inverse(case, sparse):
    # a key space above dense_size is ranked by np.unique, one below by a bincount pass
    [(keys, size)], n = case
    if sparse:  # the same keys spread over a key space above dense_size
        size = max(size, dense_size(n) + 1)
    ranks, count = dense_ranks(keys, size)
    uniq, inverse = np.unique(keys.astype(np.int64), return_inverse=True)
    assert ranks.dtype == code_type(count)
    assert np.array_equal(ranks, inverse) and count == len(uniq)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=60), st.integers(0, 5))
def test_entropy_of_a_column_with_unused_codes_equals_that_of_its_dense_form(codes, unused):
    # codes in [0, card) that no row takes count 0 and add nothing, with no nan and no warning
    card = max(codes) + 1 + unused
    present = np.bincount(codes, minlength=card) > 0
    dense = (np.cumsum(present) - 1)[codes]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sparse = coded_column(np.array(codes), card)
        assert sparse.entropy == coded_column(dense, int(present.sum())).entropy
    assert sparse.entropy == entropy(codes)


@settings(max_examples=200, deadline=None)
@given(narrow_columns(cards=st.sampled_from([1, 2, 17, 255, 256, 257, 65_535, 65_536, 65_537]) | st.integers(1, 400),
                      max_columns=2))
def test_mutual_information_of_narrow_codes_counts_int64_keys(case):
    # the joint keys, their counts and their order equal those of int64 keys, so I(X;Y) is the same float
    columns, n = case
    x, y = (coded_column(codes, card) for codes, card in (columns * 2)[:2])
    nx, ny = len(x.counts), len(y.counts)
    keys = x.codes.astype(np.int64) * ny + y.codes
    with mock.patch.object(stats, "key_counts", wraps=key_counts) as counted:
        mi, pairs = stats._coded_mutual_information(x, y)
    narrow_keys, size = counted.call_args.args
    assert narrow_keys.dtype == code_type(nx * ny) and size == nx * ny
    assert np.array_equal(narrow_keys, keys)
    joint, joint_counts = key_counts(keys, size)
    assert all(map(np.array_equal, key_counts(narrow_keys, size), (joint, joint_counts)))
    p_xy = joint_counts / n
    expected = float((p_xy * np.log(p_xy / (x.counts[joint // ny] / n * (y.counts[joint % ny] / n)))).sum())
    assert (mi, pairs) == (expected, len(joint))
