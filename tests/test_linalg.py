import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fistab.linalg import IntRowBasis, solve_exact
from linalg_helpers import columns_to_dense, dense_echelon_rows, int_rank, mat_mul_columns


def _fraction_rank(rows):
    # straightforward Gaussian elimination over Fraction, as the oracle
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_int_rank_small_cases():
    assert int_rank([]) == 0
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 0], [0, 1]]) == 2
    assert int_rank([[2, 4, 6], [1, 2, 3], [0, 1, 1]]) == 2


matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.integers(min_value=1, max_value=5).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_int_rank_matches_fraction_elimination(mat):
    assert int_rank(mat) == _fraction_rank(mat)


@given(matrices)
@settings(max_examples=80, deadline=None)
def test_row_basis_reduce_detects_span(mat):
    basis = IntRowBasis(len(mat[0]))
    for row in mat:
        basis.insert(row)
    # every row of the matrix and every stored row reduces to nothing
    for row in mat + basis.rows:
        assert basis.reduce(row) is None
    rng = random.Random(7)
    combo = [0] * basis.width
    for row in mat:
        c = rng.randint(-3, 3)
        combo = [x + c * y for x, y in zip(combo, row)]
    assert basis.reduce(combo) is None


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_row_basis_sparse_and_dense_inputs_agree(mat):
    dense = IntRowBasis(len(mat[0]))
    sparse = IntRowBasis(len(mat[0]))
    for row in mat:
        as_dict = {c: x for c, x in enumerate(row) if x}
        assert dense.insert(row) == sparse.insert(as_dict)
    assert dense.rank == sparse.rank == _fraction_rank(mat)
    assert dense.pivots == sparse.pivots
    assert dense.rows == sparse.rows == dense_echelon_rows(mat)
    # stored rows are primitive, positive at their pivot, and zero on the
    # pivots of every earlier row
    for idx, (row, p) in enumerate(zip(sparse.rows, sparse.pivots)):
        assert math.gcd(*row) == 1 and row[p] > 0
        assert not any(row[:p])
        assert all(row[q] == 0 for q in sparse.pivots[:idx])


def test_row_basis_rejects_out_of_range_input():
    basis = IntRowBasis(3)
    with pytest.raises(ValueError):
        basis.insert([1, 2])
    with pytest.raises(ValueError):
        basis.insert({3: 1})
    assert basis.insert({0: 0, 2: -4}) and basis.rows == [[0, 0, 1]]


def test_solve_exact_unique_system():
    solution, free, consistent = solve_exact([[1, 1], [1, -1]], [3, 1])
    assert consistent and not free
    assert solution == [2, 1]


def test_solve_exact_inconsistent_system():
    solution, free, consistent = solve_exact([[1, 1], [2, 2]], [1, 3])
    assert not consistent and solution is None


def test_solve_exact_reports_free_columns():
    solution, free, consistent = solve_exact([[1, 1, 0]], [2])
    assert consistent
    assert free == [1, 2]


def test_solve_exact_rational_entries():
    solution, free, consistent = solve_exact(
        [[Fraction(1, 2), 1], [0, Fraction(1, 3)]], [1, 1]
    )
    assert consistent and not free
    assert solution == [Fraction(-4), Fraction(3)]


def test_sparse_column_composition():
    # a: swap of two coordinates, b: shear
    a = [{1: 1}, {0: 1}]
    b = [{0: 1, 1: 2}, {1: 1}]
    ab = mat_mul_columns(a, b)
    assert ab == [{1: 1, 0: 2}, {0: 1}]
    dense = columns_to_dense(ab, 2)
    assert dense == [[2, 1], [1, 0]]
