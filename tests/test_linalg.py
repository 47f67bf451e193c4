import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fistab.characters import ClassFunction
from fistab.fi_analysis import FISequence, fit_char_polynomial
from fistab.linalg import IntRowBasis, solve_exact
from fistab.partitions import partition_count, partitions
from linalg_helpers import (
    columns_to_dense,
    dense_echelon_rows,
    dense_rows,
    fraction_solve,
    int_rank,
    mat_mul_columns,
)


def _fraction_rank(rows):
    # straightforward Gaussian elimination over Fraction, as the oracle:
    # with a zero right-hand side every column without a pivot is free
    if not rows:
        return 0
    _, free, _ = fraction_solve(rows, [0] * len(rows))
    return len(rows[0]) - len(free)


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
    for row in mat + dense_rows(basis):
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
    assert dense_rows(dense) == dense_rows(sparse) == dense_echelon_rows(mat)
    # stored rows are primitive, positive at their pivot, and zero on the
    # pivots of every earlier row
    for idx, (row, p) in enumerate(zip(dense_rows(sparse), sparse.pivots)):
        assert math.gcd(*row) == 1 and row[p] > 0
        assert not any(row[:p])
        assert all(row[q] == 0 for q in sparse.pivots[:idx])


def test_row_basis_rejects_out_of_range_input():
    basis = IntRowBasis(3)
    with pytest.raises(ValueError):
        basis.insert([1, 2])
    with pytest.raises(ValueError):
        basis.insert({3: 1})
    assert basis.insert({0: 0, 2: -4}) and dense_rows(basis) == [[0, 0, 1]]


def test_solve_exact_unique_system():
    solution, free, consistent = solve_exact([[1, 1], [1, -1]], [3, 1])
    assert consistent and not free
    assert solution == [2, 1]
    assert solve_exact([], []) == ([], [], True)


def test_solve_exact_inconsistent_system():
    solution, free, consistent = solve_exact([[1, 1], [2, 2]], [1, 3])
    assert not consistent and solution is None
    assert solve_exact([[], []], [0, 1]) == (None, [], False)


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


INTEGER_ENTRIES = st.integers(-4, 4)
RATIONAL_ENTRIES = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# every nonzero entry negative, so is every pivot of a triangular system
NEGATIVE_ENTRIES = st.integers(-9, 0)
# pairwise unrelated large denominators: the solution's common one is huge
LARGE_DENOMINATOR_ENTRIES = st.builds(
    Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**9)
)


@st.composite
def linear_systems(draw, kind, entries):
    """(rows, rhs) of a random system that is, by construction, uniquely
    solvable, underdetermined (consistent, with free columns),
    inconsistent, overdetermined (an invertible block, then combinations
    of its rows that only substitution can check), uniquely solvable with
    zero or repeated columns put in anywhere (consistent, with free
    columns among the pivot ones), or anything at all."""
    def row(width):
        return [draw(entries) for _ in range(width)]

    def times(mat, x):
        return [sum(a * b for a, b in zip(r, x)) for r in mat]

    if kind == "free":
        mat, rhs = draw(linear_systems("unique", entries))
        columns = [list(c) for c in zip(*mat)]
        for _ in range(draw(st.integers(1, 3))):
            source = draw(st.sampled_from(columns))
            scale = draw(st.sampled_from([0, 1, -2]))
            columns.insert(draw(st.integers(0, len(columns))), [scale * x for x in source])
        return [list(r) for r in zip(*columns)], rhs
    if kind == "any":
        ncols = draw(st.integers(1, 5))
        mat = [row(ncols) for _ in range(draw(st.integers(0, 5)))]
        return mat, row(len(mat))
    if kind in ("unique", "overdetermined"):
        # lower unitriangular times upper triangular with a nonzero
        # diagonal, rows shuffled: invertible
        size = draw(st.integers(1, 5))
        nonzero = entries.filter(bool)
        lower = [row(i) + [1] + [0] * (size - i - 1) for i in range(size)]
        upper = [[0] * i + [draw(nonzero)] + row(size - i - 1) for i in range(size)]
        mat = [[sum(lower[i][t] * upper[t][j] for t in range(size)) for j in range(size)]
               for i in range(size)]
        mat, rhs = draw(st.permutations(mat)), row(size)
        if kind == "unique":
            return mat, rhs
        # every column has a pivot after the block; each extra row is an
        # integer combination of it, with the same combination of the
        # right-hand side, or that plus a nonzero shift
        extra, extra_rhs = [], []
        for _ in range(draw(st.integers(1, 4))):
            weights = [draw(st.integers(-3, 3)) for _ in range(size)]
            extra.append([sum(w * r[j] for w, r in zip(weights, mat)) for j in range(size)])
            extra_rhs.append(sum(w * b for w, b in zip(weights, rhs)))
        if draw(st.booleans()):
            extra_rhs[draw(st.integers(0, len(extra) - 1))] += draw(nonzero)
        return mat + extra, rhs + extra_rhs
    ncols = draw(st.integers(2, 5))
    nrows = draw(st.integers(1, ncols - 1))
    mat = [row(ncols) for _ in range(nrows)]
    rhs = times(mat, row(ncols))  # consistent
    if kind == "underdetermined":
        return mat, rhs
    # inconsistent: a combination of the rows with a shifted right-hand side
    weights = row(nrows)
    combined = [sum(w * r[j] for w, r in zip(weights, mat)) for j in range(ncols)]
    target = sum(w * b for w, b in zip(weights, rhs)) + draw(entries.filter(bool))
    at = draw(st.integers(0, nrows))
    return mat[:at] + [combined] + mat[at:], rhs[:at] + [target] + rhs[at:]


@pytest.mark.parametrize(
    "entries",
    [INTEGER_ENTRIES, RATIONAL_ENTRIES, NEGATIVE_ENTRIES, LARGE_DENOMINATOR_ENTRIES],
    ids=["int", "rational", "negative", "large-denominator"],
)
@pytest.mark.parametrize(
    "kind", ["unique", "underdetermined", "inconsistent", "overdetermined", "free", "any"]
)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_solve_exact_matches_fraction_elimination(kind, entries, data):
    rows, rhs = data.draw(linear_systems(kind, entries))
    solution, free, consistent = result = solve_exact(rows, rhs)
    assert result == fraction_solve(rows, rhs)
    if kind == "unique":
        assert consistent and not free
    elif kind == "overdetermined":
        assert not free
    elif kind in ("underdetermined", "free"):
        assert consistent and free
    elif kind == "inconsistent":
        assert not consistent and solution is None
    if consistent:
        assert [sum(a * x for a, x in zip(r, solution)) for r in rows] == list(rhs)
        # an int exactly where the entry is integral, else a Fraction
        for x in solution:
            assert type(x) is (int if Fraction(x).denominator == 1 else Fraction), solution


def test_character_fit_stops_inserting_at_full_column_rank(monkeypatch):
    # a short-window fit of the zero sequence: 30 monomials over the
    # p(29) + p(30) classes; rows past the 30th pivot are only checked by
    # substitution
    inserts = []
    insert = IntRowBasis.insert

    def counted(self, vector):
        inserts.append((self.rank, self.width))
        return insert(self, vector)

    monkeypatch.setattr(IntRowBasis, "insert", counted)
    zero = {n: ClassFunction(n, dict.fromkeys(partitions(n), 0)) for n in (29, 30)}
    fit_char_polynomial(FISequence(zero), 6)
    assert inserts and all(rank < width - 1 for rank, width in inserts)
    assert len(inserts) < (partition_count(29) + partition_count(30)) // 5


def test_sparse_column_composition():
    # a: swap of two coordinates, b: shear
    a = [{1: 1}, {0: 1}]
    b = [{0: 1, 1: 2}, {1: 1}]
    ab = mat_mul_columns(a, b)
    assert ab == [{1: 1, 0: 2}, {0: 1}]
    dense = columns_to_dense(ab, 2)
    assert dense == [[2, 1], [1, 0]]
