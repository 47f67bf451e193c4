"""Exact character theory of symmetric groups over the rationals.

Irreducible characters are evaluated by the Murnaghan-Nakayama rule with
memoization on (shape, remaining cycles); all arithmetic is exact, so
multiplicity integrality checks are meaningful.  All functions here are
pure and the caches are safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import ConsistencyError, DomainError
from .partitions import (
    Partition,
    centralizer_order,
    check_partition,
    class_size,
    dimension,
    format_partition,
    parse_partition,
    partitions,
)


def _beta_set(lam: Partition) -> tuple[int, ...]:
    # First-column hook lengths: strictly decreasing, one per row.
    m = len(lam)
    return tuple(lam[i] + (m - 1 - i) for i in range(m))


def _from_beta_set(beta) -> Partition:
    beta = sorted(beta, reverse=True)
    m = len(beta)
    parts = [beta[i] - (m - 1 - i) for i in range(m)]
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def rim_hook_removals(lam: Partition, length: int) -> tuple[tuple[int, Partition], ...]:
    """All ways to remove a rim hook of the given length from lam.

    Returns pairs (sign, remaining shape) where sign = (-1)**(leg length).
    In beta-set terms a rim hook removal replaces a first-column hook
    length b by b - length, provided the result is nonnegative and not
    already present; the leg length counts the beta elements jumped over.
    """
    beta = _beta_set(lam)
    present = set(beta)
    out = []
    for idx, b in enumerate(beta):
        target = b - length
        if target < 0 or target in present:
            continue
        leg = sum(1 for c in beta if target < c < b)
        new_beta = beta[:idx] + (target,) + beta[idx + 1 :]
        out.append(((-1) ** leg, _from_beta_set(new_beta)))
    return tuple(out)


@lru_cache(maxsize=None)
def _mn(lam: Partition, cycles: tuple[int, ...]) -> int:
    if not cycles:
        return 1
    length, rest = cycles[0], cycles[1:]
    total = 0
    for sign, smaller in rim_hook_removals(lam, length):
        total += sign * _mn(smaller, rest)
    return total


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible indexed by lam at the class mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise DomainError(
            f"shape {lam!r} and cycle type {mu!r} index different symmetric groups"
        )
    return _mn(lam, mu)


class ClassFunction:
    """Exact rational-valued function on the conjugacy classes of S_n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        self.n = int(n)
        vals = {check_partition(k): v for k, v in values.items()}
        expected = set(partitions(self.n))
        if set(vals) != expected:
            raise DomainError(
                f"class function on S_{self.n} must be defined on exactly "
                f"the {len(expected)} cycle types"
            )
        self.values = vals

    def __call__(self, mu) -> Fraction | int:
        mu = check_partition(mu)
        if mu not in self.values:
            raise DomainError(f"{mu!r} is not a cycle type of S_{self.n}")
        return self.values[mu]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.n == other.n
            and self.values == other.values
        )

    def __repr__(self) -> str:
        vals = ", ".join(
            f"{format_partition(mu) or '()'}: {self.values[mu]}"
            for mu in partitions(self.n)
        )
        return f"ClassFunction(S_{self.n}, {{{vals}}})"

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise DomainError("cannot add class functions on different groups")
        return ClassFunction(
            self.n, {mu: self.values[mu] + other.values[mu] for mu in self.values}
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        if self.n != other.n:
            raise DomainError("cannot subtract class functions on different groups")
        return ClassFunction(
            self.n, {mu: self.values[mu] - other.values[mu] for mu in self.values}
        )

    def __rmul__(self, scalar) -> "ClassFunction":
        return ClassFunction(self.n, {mu: scalar * v for mu, v in self.values.items()})

    def dimension(self):
        """Value at the identity class."""
        return self.values[(1,) * self.n if self.n else ()]

    def to_mapping(self) -> dict[str, object]:
        return {
            format_partition(mu): exact_obj(self.values[mu])
            for mu in partitions(self.n)
        }

    @classmethod
    def from_mapping(cls, n: int, mapping: dict) -> "ClassFunction":
        _require_table(mapping, "class function")
        return cls(n, {parse_partition(k): parse_exact(v) for k, v in mapping.items()})


def exact_obj(v):
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _require_table(mapping, what: str) -> None:
    if not isinstance(mapping, dict):
        raise DomainError(
            f"a {what} must be a {{partition: value}} table, not {type(mapping).__name__}"
        )


def parse_exact(v):
    try:
        f = Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"not an exact rational: {v!r}") from exc
    return int(f) if f.denominator == 1 else f


@lru_cache(maxsize=None)
def irreducible_character(lam: Partition) -> ClassFunction:
    lam = check_partition(lam)
    n = sum(lam)
    return ClassFunction(n, {mu: _mn(lam, mu) for mu in partitions(n)})


def trivial_character(n: int) -> ClassFunction:
    return irreducible_character((n,) if n else ())


def sign_character(n: int) -> ClassFunction:
    return irreducible_character((1,) * n if n else ())


def inner_product(f: ClassFunction, g: ClassFunction) -> Fraction:
    """Standard character inner product (1/n!) sum class_size * f * g."""
    if f.n != g.n:
        raise DomainError(
            f"inner product needs matching groups, got S_{f.n} and S_{g.n}"
        )
    total = sum(class_size(mu) * Fraction(f.values[mu]) * g.values[mu] for mu in f.values)
    return Fraction(total, factorial(f.n))


class IrrDecomposition:
    """An S_n-representation recorded as irreducible multiplicities."""

    __slots__ = ("n", "mult")

    def __init__(self, n: int, mult: dict | None = None):
        self.n = int(n)
        clean: dict[Partition, int] = {}
        for lam, m in (mult or {}).items():
            lam = check_partition(lam)
            if sum(lam) != self.n:
                raise DomainError(f"{lam!r} is not a partition of {self.n}")
            if m != int(m) or m < 0:
                raise DomainError(f"multiplicity of {lam!r} must be a nonnegative integer")
            if m:
                clean[lam] = int(m)
        self.mult = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IrrDecomposition)
            and self.n == other.n
            and self.mult == other.mult
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{format_partition(lam) or '()'}: {m}" for lam, m in self.items()
        )
        return f"IrrDecomposition(S_{self.n}, {{{body}}})"

    def __add__(self, other: "IrrDecomposition") -> "IrrDecomposition":
        if self.n != other.n:
            raise DomainError("cannot add decompositions over different groups")
        merged = dict(self.mult)
        for lam, m in other.mult.items():
            merged[lam] = merged.get(lam, 0) + m
        return IrrDecomposition(self.n, merged)

    def __bool__(self) -> bool:
        return bool(self.mult)

    def items(self):
        """Constituents in lexicographic partition order."""
        return sorted(self.mult.items())

    def multiplicity(self, lam) -> int:
        return self.mult.get(check_partition(lam), 0)

    def dimension(self) -> int:
        return sum(m * dimension(lam) for lam, m in self.mult.items())

    def character(self) -> ClassFunction:
        values = {mu: 0 for mu in partitions(self.n)}
        for lam, m in self.mult.items():
            for mu in values:
                values[mu] += m * _mn(lam, mu)
        return ClassFunction(self.n, values)

    def to_mapping(self) -> dict[str, int]:
        return {format_partition(lam): m for lam, m in self.items()}

    @classmethod
    def from_mapping(cls, n: int, mapping: dict) -> "IrrDecomposition":
        _require_table(mapping, "decomposition")
        return cls(n, {parse_partition(k): parse_exact(v) for k, v in mapping.items()})


def decompose(f: ClassFunction) -> IrrDecomposition:
    """Decompose the character of a representation into irreducibles.

    Multiplicities are the inner products with the irreducible characters;
    a negative or non-integer multiplicity means f was not the character
    of an actual representation and signals an upstream bug.
    """
    mult = {}
    for lam in partitions(f.n):
        m = inner_product(f, irreducible_character(lam))
        if m.denominator != 1 or m < 0:
            raise ConsistencyError(
                f"not a representation character: multiplicity of "
                f"{format_partition(lam) or '()'} is {m}"
            )
        if m:
            mult[lam] = int(m)
    return IrrDecomposition(f.n, mult)


def regular_character(n: int) -> ClassFunction:
    """Character of the regular representation: n! at the identity."""
    values = {mu: 0 for mu in partitions(n)}
    values[(1,) * n if n else ()] = factorial(n)
    return ClassFunction(n, values)


def restriction_inner_product(
    f: ClassFunction, g: ClassFunction, h: ClassFunction
) -> Fraction:
    """Inner product of Res_{S_a x S_b} f with g (x) h, for |f| = |g|+|h|.

    Classes of the product group are pairs of cycle types; the restricted
    value at (mu1, mu2) is f evaluated at the merged cycle type.
    """
    a, b = g.n, h.n
    if f.n != a + b:
        raise DomainError("sizes must satisfy f.n == g.n + h.n")
    total = Fraction(0)
    for mu1 in partitions(a):
        for mu2 in partitions(b):
            merged = tuple(sorted(mu1 + mu2, reverse=True))
            weight = Fraction(1, centralizer_order(mu1) * centralizer_order(mu2))
            total += weight * Fraction(f.values[merged]) * g.values[mu1] * h.values[mu2]
    return total
