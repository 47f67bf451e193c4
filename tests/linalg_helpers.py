"""Matrix helpers used only by the tests: rank of a dense integer
matrix, a dense reference for IntRowBasis, and composition and
densification of sparse column maps ({row index: coefficient} per
column)."""

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
