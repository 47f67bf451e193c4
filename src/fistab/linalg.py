"""Exact linear algebra over the rationals.

`IntRowBasis` computes exact ranks by fraction-free elimination on sparse
integer rows: each reduction step is a cross-multiplication, and each
residue is divided by its gcd.  The dense solver behind the polynomial
fits eliminates the same way and reports inconsistency and free columns
explicitly.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm


class IntRowBasis:
    """Incremental echelon basis for integer row vectors.

    Rows are sparse {column: coefficient} mappings kept integral: a
    candidate is reduced by cross-multiplication against the pivot rows
    whose pivot columns it touches, in insertion order, and the residue is
    divided by its gcd and made positive at its first nonzero column, so
    no fractions ever appear.  Each stored row is zero on the pivots of
    all earlier rows, so eliminating one row can only bring in pivots of
    later ones, and the pending pivots are kept in a heap.
    """

    def __init__(self, width: int):
        self.width = width
        self.sparse_rows: list[dict[int, int]] = []
        self.pivots: list[int] = []
        self._row_of_pivot: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.sparse_rows)

    @property
    def rows(self) -> list[list[int]]:
        """The stored rows as dense lists."""
        dense = []
        for row in self.sparse_rows:
            out = [0] * self.width
            for c, x in row.items():
                out[c] = x
            dense.append(out)
        return dense

    def _as_sparse(self, vector) -> dict[int, int]:
        if isinstance(vector, Mapping):
            v = {c: int(x) for c, x in vector.items() if x}
            if v and (min(v) < 0 or max(v) >= self.width):
                raise ValueError(f"column index outside 0..{self.width - 1}")
            return v
        dense = [int(x) for x in vector]
        if len(dense) != self.width:
            raise ValueError(f"expected width {self.width}, got {len(dense)}")
        return {c: x for c, x in enumerate(dense) if x}

    def reduce(self, vector) -> dict[int, int] | None:
        """Residue of vector (a {column: value} mapping or a dense
        sequence) modulo the current span, or None if it lies in the span
        (up to scaling)."""
        v = self._as_sparse(vector)
        row_of = self._row_of_pivot
        pending = [row_of[c] for c in v if c in row_of]
        heapify(pending)
        while pending:
            r = heappop(pending)
            p = self.pivots[r]
            b = v.get(p)
            if not b:  # cancelled, or already eliminated via a duplicate entry
                continue
            row = self.sparse_rows[r]
            a = row[p]
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                v = {c: a * x for c, x in v.items()}
            for c, y in row.items():
                x = v.get(c)
                if x is None:
                    v[c] = -b * y
                    later = row_of.get(c)
                    if later is not None:
                        heappush(pending, later)
                else:
                    x -= b * y
                    if x:
                        v[c] = x
                    else:
                        del v[c]
        if not v:
            return None
        g = gcd(*v.values())
        if v[min(v)] < 0:
            g = -g
        return v if g == 1 else {c: x // g for c, x in v.items()}

    def insert(self, vector) -> bool:
        """Add vector to the span; True if it increased the rank."""
        residue = self.reduce(vector)
        if residue is None:
            return False
        pivot = min(residue)
        self._row_of_pivot[pivot] = len(self.sparse_rows)
        self.sparse_rows.append(residue)
        self.pivots.append(pivot)
        return True


def _integer_row(values) -> list[int]:
    # clear denominators; a rational row and its integer multiple have
    # the same zero pattern and the same solutions
    fracs = [x if isinstance(x, int) else Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs]


def solve_exact(rows, rhs):
    """Solve A x = b over the rationals by Gauss-Jordan elimination.

    Returns (solution, free_columns, consistent).  When the system is
    consistent, free columns are assigned zero; `solution` is None when it
    is inconsistent.

    Elimination is fraction-free: rows (with their right-hand side) are
    cleared of denominators, each reduction is a cross-multiplication, and
    each row is divided by its gcd.  Every row stays a nonzero multiple of
    the row elimination over Fraction would hold, so the pivots (the first
    nonzero row of each column) and the verdicts are the same; the only
    fractions are the final rhs/pivot quotients.
    """
    m = [_integer_row([*row, b]) for row, b in zip(rows, rhs)]
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
        prow = m[r]
        p = prow[c]
        for i, row in enumerate(m):
            b = row[c]
            if i == r or not b:
                continue
            g = gcd(p, b)
            a, b = p // g, b // g
            row = [a * x - b * y for x, y in zip(row, prow)]
            g = gcd(*row)
            m[i] = [x // g for x in row] if g > 1 else row
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
        solution[c] = Fraction(m[i][ncols], m[i][c])
    return solution, free, True
