"""Exact linear algebra over the rationals.

`IntRowBasis` is the one elimination: fraction-free, on sparse integer
rows, where each reduction step is a cross-multiplication and each residue
is divided by its gcd.  `solve_exact`, behind the polynomial fits, inserts
the rows of its system into one and stops once every column has a pivot;
the tests' integer-rank oracle inserts whole matrices.
"""

from __future__ import annotations

from collections.abc import Mapping
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import mul

from .characters import exact_quotient


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
    if all(isinstance(x, int) for x in values):
        return values
    from fractions import Fraction

    fracs = [x if isinstance(x, int) else Fraction(x) for x in values]
    den = lcm(*(x.denominator for x in fracs))
    return [x.numerator * (den // x.denominator) for x in fracs]


def solve_exact(rows, rhs):
    """Solve A x = b over the rationals.

    Returns (solution, free_columns, consistent).  When the system is
    consistent, free columns are assigned zero, and each entry of
    `solution` is an int where it is integral and a Fraction where it is
    not; `solution` is None when the system is inconsistent.

    The augmented rows, cleared of denominators, go into an IntRowBasis
    until every column of A has a pivot; a pivot on the right-hand side
    means no solution.  The pivot columns, and the solution with free
    columns at zero, do not depend on the order of elimination, so this is
    Gauss-Jordan elimination's result.  Back-substitution runs in
    integers over one common denominator.  The remaining rows (rows may be
    a generator, read once and no further than the verdict needs) are only
    checked by substitution, in integers.
    """
    augmented = (_integer_row([*row, b]) for row, b in zip(rows, rhs))
    basis = None
    for v in augmented:
        if basis is None:
            basis = IntRowBasis(len(v))
            ncols = basis.width - 1
        if basis.insert(v) and basis.pivots[-1] == ncols:
            return None, [], False
        if basis.rank == ncols:
            break
    if basis is None:
        return [], [], True
    # back-substitution, solution[c] = num[c] / den: each stored row is
    # zero on the pivots of earlier rows, so in reverse order every other
    # column it reads is known; a pivot that does not divide its residue
    # scales the common denominator
    num, den = [0] * ncols, 1
    for row, p in zip(reversed(basis.sparse_rows), reversed(basis.pivots)):
        known = sum(x * num[c] for c, x in row.items() if c != p and c != ncols)
        t, a = row.get(ncols, 0) * den - known, row[p]
        if t % a:
            scale = a // gcd(t, a)
            num = [x * scale for x in num]
            den *= scale
            t *= scale
        num[p] = t // a
    weights = num + [-den]
    for v in augmented:
        if sum(map(mul, v, weights)):
            return None, [], False
    pivots = set(basis.pivots)
    solution = [exact_quotient(x, den) for x in num]
    return solution, [c for c in range(ncols) if c not in pivots], True
