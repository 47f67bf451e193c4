"""Analysis of sequences of S_n-representations: the unpadded
multiplicity tables, uniform-stability detection over a window, and the
exact fits of character polynomials in cycle-count statistics and of
integer-valued dimension polynomials.  The stability report and the
character polynomial themselves live in fistab.fi_reports, which os-scan
reads without these fits."""

from __future__ import annotations

from functools import lru_cache

from .characters import ClassFunction, IrrDecomposition, exact_obj, exact_quotient
from .errors import DomainError
from .fi_reports import (
    CharPolynomial,
    StabilityReport,
    _monomial,
    _monomial_key,
    _monomial_value,
    monomial_label,
)
from .partitions import (
    Partition,
    cycle_counts,
    partition_count,
    partition_counts,
    partitions,
)


def unpadded_table(V: IrrDecomposition) -> dict[Partition, int]:
    """Multiplicities keyed by the unpadded root of each constituent."""
    table: dict[Partition, int] = {}
    for mu, m in V.mult.items():
        root = mu[1:]  # drop the first row
        table[root] = table.get(root, 0) + m
    return table


class FISequence:
    """A window of S_n-representations (or class functions), n running
    over a contiguous range."""

    def __init__(self, entries: dict):
        if not entries:
            raise DomainError("empty sequence")
        keys = sorted(int(k) for k in entries)
        if keys != list(range(keys[0], keys[-1] + 1)):
            raise DomainError(f"window must be contiguous, got {keys}")
        self.n_min, self.n_max = keys[0], keys[-1]
        self.entries = {}
        for k, v in entries.items():
            k = int(k)
            if v.n != k:
                raise DomainError(f"entry at n={k} is defined over S_{v.n}")
            self.entries[k] = v

    @property
    def window(self) -> tuple[int, int]:
        return (self.n_min, self.n_max)

    def __getitem__(self, n: int):
        return self.entries[n]

    def __iter__(self):
        return iter(range(self.n_min, self.n_max + 1))


def detect_stability(seq: FISequence) -> StabilityReport:
    """Smallest N in the window from which the unpadded multiplicity
    tables are identical, never extrapolating beyond the window.

    Agreement must involve at least two window points: if even the last
    two entries differ, the sequence is reported as not stabilized.
    """
    if seq.n_max - seq.n_min < 1:
        raise DomainError("stability detection needs a window of length >= 2")
    tables = {}
    for n in seq:
        entry = seq[n]
        if not isinstance(entry, IrrDecomposition):
            raise DomainError("stability detection needs decompositions, not characters")
        tables[n] = unpadded_table(entry)
    final = tables[seq.n_max]
    stable_from = seq.n_max
    for n in range(seq.n_max - 1, seq.n_min - 1, -1):
        if tables[n] != final:
            break
        stable_from = n
    if stable_from == seq.n_max:
        return StabilityReport(seq.window, None, final)
    return StabilityReport(seq.window, stable_from, final)


# ---------------------------------------------------------------------------
# The fit of a character polynomial (fi_reports.CharPolynomial), one
# column per monomial of weighted degree at most the bound.


@lru_cache(maxsize=None)
def _monomials(degree_bound: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # the monomials of the cycle types of each weighted degree
    # d <= degree_bound, one per partition of d
    degrees = range(degree_bound + 1)
    monos = (_monomial(mu) for d in degrees for mu in partitions(d))
    return tuple(sorted(monos, key=_monomial_key))


@lru_cache(maxsize=None)
def _class_rows(n: int, degree_bound: int) -> tuple[tuple[int, ...], ...]:
    # the values of _monomials(degree_bound) on the classes of S_n, one
    # row per class in partitions(n) order; cached like
    # characters.class_sizes, shared by every fit, never mutated
    monos = _monomials(degree_bound)
    return tuple(
        tuple(_monomial_value(mono, counts) for mono in monos)
        for counts in map(cycle_counts, partitions(n))
    )


def _monomial_count(degree_bound: int, cap: int) -> int:
    # one monomial per partition of each weighted degree d <= degree_bound;
    # counting stops at the first p(d) > cap, so a result above cap is
    # only a lower bound
    return sum(partition_counts(degree_bound, cap=cap))


def fit_char_polynomial(seq: FISequence, degree_bound: int) -> CharPolynomial:
    """The unique polynomial of weighted degree <= degree_bound agreeing
    with every entry of the sequence on every conjugacy class.

    The fit is an exact linear solve; an inconsistent system means no such
    polynomial exists, and an underdetermined one is reported with the
    monomials the window fails to pin down.  The system's rows depend
    only on the classes of the window and the degree bound, so each level
    reads them from _class_rows, built once per process; only the
    right-hand side is the sequence's.
    """
    if degree_bound < 0:
        raise DomainError("degree bound must be nonnegative")
    # rank <= rows < columns: more monomials than class values never fit uniquely
    values = sum(partition_count(n) for n in seq)
    if _monomial_count(degree_bound, cap=values) > values:
        raise DomainError(
            f"window does not determine the monomials of weighted degree <= {degree_bound}: "
            f"there are more of them than its {values} class values"
        )
    from .linalg import solve_exact  # here, so a process that never fits never loads it

    monos = _monomials(degree_bound)
    rows, rhs = [], []
    for n in seq:
        entry = seq[n]
        if not isinstance(entry, ClassFunction):
            raise DomainError("character polynomial fitting needs characters, not decompositions")
        rows += _class_rows(n, degree_bound)
        rhs += map(entry.values.__getitem__, partitions(n))
    solution, free, consistent = solve_exact(rows, rhs)
    if not consistent:
        raise DomainError(
            f"no character polynomial of weighted degree <= {degree_bound} "
            "matches the window"
        )
    if free:
        names = ", ".join(monomial_label(monos[j]) for j in free)
        raise DomainError(
            f"window does not determine the monomials: {names}"
        )
    return CharPolynomial(dict(zip(monos, solution)))


class IntPolynomial:
    """Integer-valued polynomial stored in the binomial basis C(T, j);
    an integral coefficient is an int (characters.exact_quotient)."""

    def __init__(self, coeffs: dict):
        exact = {int(j): exact_quotient(c) for j, c in coeffs.items()}
        self.coeffs = {j: c for j, c in exact.items() if c != 0}

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPolynomial(0)"
        body = " + ".join(
            f"{c}*C(T,{j})" if c != 1 else f"C(T,{j})"
            for j, c in sorted(self.coeffs.items())
        )
        return f"IntPolynomial({body})"

    def to_mapping(self) -> dict:
        return {
            "binomial_coeffs": {str(j): exact_obj(c) for j, c in sorted(self.coeffs.items())},
            "degree": self.degree,
        }


def _binomial_row(n: int, degree_bound: int) -> list[int]:
    # [C(n, 0), ..., C(n, degree_bound)] by C(n, j + 1) = C(n, j) (n - j) /
    # (j + 1): the division is exact for every integer n, negative included
    row = [1]
    for j in range(degree_bound):
        row.append(row[j] * (n - j) // (j + 1))
    return row


def fit_dim_polynomial(dims: dict[int, int], degree_bound: int) -> IntPolynomial:
    """Least-degree polynomial in the binomial basis matching every given
    dimension exactly.

    One exact solve over every point, in level order, one column per
    binomial C(T, j) with j <= degree_bound: the points of the first
    degree_bound + 1 distinct levels fix the solution (with free columns
    at zero where a level is given twice, as 2 and "2"), whose zero top
    coefficients leave the least degree, and solve_exact checks every
    later point against it by substitution, in integers.  At least
    degree_bound + 2 points are required, so one is always left over to
    check at the top degree.
    """
    if degree_bound < 0:
        raise DomainError("degree bound must be nonnegative")
    from .linalg import solve_exact

    points = sorted((int(n), int(v)) for n, v in dims.items())
    if len(points) < degree_bound + 2:
        raise DomainError(
            f"need at least {degree_bound + 2} points to fit and validate "
            f"degree <= {degree_bound}, got {len(points)}"
        )
    rows = (_binomial_row(n, degree_bound) for n, _ in points)
    solution, _, consistent = solve_exact(rows, [v for _, v in points])
    if not consistent:
        raise DomainError(
            f"no integer-valued polynomial of degree <= {degree_bound} fits the data"
        )
    return IntPolynomial(dict(enumerate(solution)))
