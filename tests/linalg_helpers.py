"""Matrix helpers used only by the tests: rank of a dense integer
matrix, a dense reference for IntRowBasis, composition and
densification of sparse column maps ({row index: coefficient} per
column), and the Fraction elimination solve_exact is checked against."""

from fractions import Fraction
from math import gcd

from fistab.linalg import IntRowBasis


def int_rank(rows) -> int:
    """Exact rank of a matrix given as an iterable of integer rows."""
    basis = None
    for row in rows:
        if basis is None:
            basis = IntRowBasis(len(row))
        basis.insert(row)
    return 0 if basis is None else basis.rank


def dense_echelon_rows(rows) -> list[list[int]]:
    """The rows IntRowBasis stores for these inserts, computed densely:
    each candidate is cross-multiplied against every earlier row whose
    pivot it touches, then made primitive and positive at its lead."""
    stored: list[list[int]] = []
    pivots: list[int] = []
    for v in rows:
        v = list(v)
        for row, p in zip(stored, pivots):
            if v[p]:
                a, b = row[p], v[p]
                v = [a * x - b * y for x, y in zip(v, row)]
        g = gcd(*v)
        if g == 0:
            continue
        lead = next(x for x in v if x)
        g = g if lead > 0 else -g
        stored.append([x // g for x in v])
        pivots.append(next(i for i, x in enumerate(v) if x))
    return stored


def mat_mul_columns(a_cols, b_cols):
    """Compose two linear maps given as lists of sparse columns; returns
    the columns of a o b."""
    out = []
    for col in b_cols:
        acc: dict[int, int] = {}
        for j, coeff in col.items():
            for i, entry in a_cols[j].items():
                val = acc.get(i, 0) + coeff * entry
                if val:
                    acc[i] = val
                else:
                    acc.pop(i, None)
        out.append(acc)
    return out


def columns_to_dense(cols, nrows):
    """Sparse columns to a dense row-major matrix of ints."""
    mat = [[0] * len(cols) for _ in range(nrows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            mat[i][j] = v
    return mat


def fraction_solve(rows, rhs):
    """Gauss-Jordan elimination over Fraction, the reference for
    solve_exact: the first nonzero row of each column is the pivot, its
    row is scaled to a leading 1 and the column is cleared everywhere
    else.  Returns (solution, free_columns, consistent) like solve_exact."""
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    if not m:
        return [], [], True
    ncols = len(m[0]) - 1
    pivot_of_col: dict[int, int] = {}
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivot_of_col[c] = r
        r += 1
        if r == len(m):
            break
    for i in range(r, len(m)):
        if m[i][ncols]:
            return None, [], False
    free = [c for c in range(ncols) if c not in pivot_of_col]
    solution = [Fraction(0)] * ncols
    for c, i in pivot_of_col.items():
        solution[c] = m[i][ncols]
    return solution, free, True
