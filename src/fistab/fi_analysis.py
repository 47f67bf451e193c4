"""Analysis of sequences of S_n-representations: unpadding, weight and
length statistics of padded partitions, uniform-stability detection over
a window, character polynomials in cycle-count statistics, and
integer-valued dimension polynomials."""

from __future__ import annotations

from bisect import bisect_left
from math import lcm
from typing import NamedTuple

from .characters import ClassFunction, IrrDecomposition, exact_obj, unique_keys
from .errors import DomainError
from .partitions import (
    Partition,
    binomial,
    check_partition,
    cycle_counts,
    format_partition,
    pad as pad,  # re-exported as fistab.fi_analysis.pad
    partition_count,
    partition_counts,
    partitions,
)


def unpad(mu: Partition) -> Partition:
    """Drop the first part; inverse of pad wherever pad is defined."""
    return check_partition(mu)[1:]


def weight_of(V: IrrDecomposition) -> int:
    """Largest |unpad(mu)| over the constituents; 0 for the zero module."""
    if not V.mult:
        return 0
    return max(V.n - mu[0] for mu in V.mult)


def length_of(V: IrrDecomposition) -> int:
    """Largest number of parts among the constituents."""
    if not V.mult:
        raise DomainError("the zero decomposition has no length")
    return max(len(mu) for mu in V.mult)


def quotient_betti(V: IrrDecomposition) -> int:
    """Multiplicity of the trivial representation; by transfer, the Betti
    number of the quotient by the symmetric-group action."""
    return V.mult.get((V.n,) if V.n else (), 0)


def unpadded_table(V: IrrDecomposition) -> dict[Partition, int]:
    """Multiplicities keyed by the unpadded root of each constituent."""
    table: dict[Partition, int] = {}
    for mu, m in V.mult.items():
        root = mu[1:]  # unpad(mu) of a constituent, a partition already
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

    def to_mapping(self) -> dict:
        return {
            "window": [self.n_min, self.n_max],
            "entries": {str(n): self.entries[n].to_mapping() for n in self},
        }

    @staticmethod
    def _tables(payload) -> dict:
        """The {n: table} part of a JSON sequence {"entries": {n: table}}."""
        entries = payload.get("entries") if isinstance(payload, dict) else None
        if not isinstance(entries, dict):
            raise DomainError('a sequence must be a mapping {"entries": {"<n>": table}}')
        try:
            levels = [(n, int(n), table) for n, table in entries.items()]
        except ValueError as exc:
            raise DomainError(f"sequence levels must be integers: {exc}") from exc
        return unique_keys(levels, "sequence")

    @classmethod
    def decompositions_from_mapping(cls, payload: dict) -> "FISequence":
        tables = cls._tables(payload)
        return cls({n: IrrDecomposition.from_mapping(n, t) for n, t in tables.items()})

    @classmethod
    def characters_from_mapping(cls, payload: dict) -> "FISequence":
        tables = cls._tables(payload)
        return cls({n: ClassFunction.from_mapping(n, t) for n, t in tables.items()})


class StabilityReport(NamedTuple):
    """Where a window's unpadded multiplicity tables stop changing."""

    window: tuple[int, int]
    stable_from: int | None
    stable_table: dict[Partition, int]

    @property
    def stabilized(self) -> bool:
        return self.stable_from is not None

    def to_mapping(self) -> dict:
        return {
            "window": list(self.window),
            "stabilized": self.stabilized,
            "stable_from": self.stable_from,
            "note": (
                f"consistent with N = {self.stable_from}"
                if self.stabilized
                else "not stabilized in window"
            ),
            "stable_table": {
                format_partition(root): m for root, m in sorted(self.stable_table.items())
            },
        }


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
# Character polynomials: exact polynomials in the cycle-count statistics
# Z_l, expressed in the basis prod_l C(Z_l, m_l).  The weighted degree of a
# monomial is sum l*m_l.


def _monomial_key(mono) -> tuple:
    # weighted degree, then lexicographic
    return (sum(l * e for l, e in mono), mono)


def _monomials(degree_bound: int) -> list[tuple[tuple[int, int], ...]]:
    # Exponent vectors as sorted tuples of (cycle length, exponent): the
    # cycle counts of one partition of each weighted degree d <= degree_bound.
    degrees = range(degree_bound + 1)
    monos = (tuple(sorted(cycle_counts(mu).items())) for d in degrees for mu in partitions(d))
    return sorted(monos, key=_monomial_key)


def _monomial_count(degree_bound: int, cap: int) -> int:
    # one monomial per partition of each weighted degree d <= degree_bound;
    # counting stops at the first p(d) > cap, so a result above cap is
    # only a lower bound
    return sum(partition_counts(degree_bound, cap=cap))


def monomial_label(mono: tuple[tuple[int, int], ...]) -> str:
    if not mono:
        return "1"
    factors = []
    for length, exp in mono:
        if exp == 1:
            factors.append(f"Z{length}")
        else:
            factors.append(f"C(Z{length},{exp})")
    return "*".join(factors)


def _monomial_value(mono, counts: dict[int, int]) -> int:
    val = 1
    for length, exp in mono:
        val *= binomial(counts.get(length, 0), exp)
        if val == 0:
            return 0
    return val


def _exact(c):
    # an int stays an int, so a polynomial with integer coefficients, such
    # as every os-scan character polynomial, never loads fractions
    if type(c) is int:
        return c
    from fractions import Fraction

    return Fraction(c)


class CharPolynomial:
    """A polynomial in the statistics Z_l = number of l-cycles, stored in
    the integer-valued basis prod_l C(Z_l, m_l); integer coefficients stay
    ints, any other is a Fraction."""

    def __init__(self, coeffs: dict):
        exact = {mono: _exact(c) for mono, c in coeffs.items()}
        self.coeffs = {mono: c for mono, c in exact.items() if c != 0}

    @property
    def weighted_degree(self) -> int:
        """Degree with each Z_l counted with weight l."""
        if not self.coeffs:
            return 0
        return max(sum(l * e for l, e in mono) for mono in self.coeffs)

    @property
    def max_cycle_length(self) -> int:
        """Largest cycle length the polynomial actually reads; characters
        agreeing with it depend only on cycles up to this length."""
        if not any(self.coeffs):
            return 0
        return max((l for mono in self.coeffs for l, _ in mono), default=0)

    def evaluate(self, mu: Partition):
        """The value at the class mu: an int, or a Fraction when a
        coefficient is one."""
        return self._value(cycle_counts(check_partition(mu)))

    def _value(self, counts: dict[int, int]):
        return sum(c * _monomial_value(mono, counts) for mono, c in self.coeffs.items())

    def as_class_function(self, n: int) -> ClassFunction:
        return ClassFunction._unchecked(
            n, {mu: self._value(cycle_counts(mu)) for mu in partitions(n)}
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, CharPolynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "CharPolynomial(0)"
        body = " + ".join(
            f"{c}*{monomial_label(m)}" if c != 1 or not m else monomial_label(m)
            for m, c in sorted(self.coeffs.items(), key=lambda kv: _monomial_key(kv[0]))
        )
        return f"CharPolynomial({body})"

    def to_mapping(self) -> dict:
        terms = [
            {
                "monomial": monomial_label(mono),
                "exponents": {str(l): e for l, e in mono},
                "coefficient": exact_obj(c),
            }
            for mono, c in sorted(self.coeffs.items(), key=lambda kv: _monomial_key(kv[0]))
        ]
        return {
            "terms": terms,
            "weighted_degree": self.weighted_degree,
            "max_cycle_length": self.max_cycle_length,
        }


def fit_char_polynomial(seq: FISequence, degree_bound: int) -> CharPolynomial:
    """The unique polynomial of weighted degree <= degree_bound agreeing
    with every entry of the sequence on every conjugacy class.

    The fit is an exact linear solve; an inconsistent system means no such
    polynomial exists, and an underdetermined one is reported with the
    monomials the window fails to pin down.
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
            entry = entry.character()
        for mu in partitions(n):
            counts = cycle_counts(mu)
            rows.append([_monomial_value(mono, counts) for mono in monos])
            rhs.append(entry.values[mu])
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
    """Integer-valued polynomial stored in the binomial basis C(T, j)."""

    def __init__(self, coeffs: dict):
        from fractions import Fraction

        self.coeffs = {int(j): Fraction(c) for j, c in coeffs.items() if Fraction(c) != 0}

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def evaluate(self, t: int):
        """The value at t, as a Fraction."""
        from fractions import Fraction

        return sum(
            (c * binomial(t, j) for j, c in self.coeffs.items()), Fraction(0)
        )

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


def fit_dim_polynomial(dims: dict[int, int], degree_bound: int) -> IntPolynomial:
    """Least-degree polynomial in the binomial basis matching every given
    dimension exactly.

    The fit is of degree e, the bound or one less than the number of
    distinct levels if smaller: one exact solve over the points of the
    first e + 1 distinct levels fixes it, and the least-degree fit is its
    solution, zero top coefficients dropped.  Every later point is
    checked against that solution at its own degree, in integers.  At
    least degree_bound + 2 points are required, so one is always left
    over to check at the top degree.
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
    levels = sorted({n for n, _ in points})
    e = min(degree_bound, len(levels) - 1)
    split = bisect_left(points, (levels[e + 1],)) if e + 1 < len(levels) else len(points)
    head = points[:split]
    rows = ([binomial(n, j) for j in range(e + 1)] for n, _ in head)
    solution, _, consistent = solve_exact(rows, [v for _, v in head])
    if consistent:
        top = max((j for j, c in enumerate(solution) if c), default=-1)
        den = lcm(*(c.denominator for c in solution[: top + 1]))
        nums = [c.numerator * (den // c.denominator) for c in solution[: top + 1]]
        if all(
            sum(c * binomial(n, j) for j, c in enumerate(nums)) == den * v
            for n, v in points[split:]
        ):
            return IntPolynomial(dict(enumerate(solution)))
    raise DomainError(
        f"no integer-valued polynomial of degree <= {degree_bound} fits the data"
    )
