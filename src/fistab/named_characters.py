"""Characters of S_n by name (trivial, sign and regular), one
irreducible character value by the Murnaghan-Nakayama rule, and the
character inner product: library conveniences and the tests' oracles of
decompose, which no subcommand computes, so a process that only computes
tables and decompositions never compiles them.  fistab.characters
resolves inner_product, which the benchmark's tracer times there, on
each access (PEP 562).
"""

from __future__ import annotations

from math import factorial

from .characters import ClassFunction, _mn_value, class_sizes, irreducible_character
from .errors import DomainError
from .partitions import Partition, check_partition, partitions


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible indexed by lam at the class mu."""
    return _mn_value(check_partition(lam), check_partition(mu))


def trivial_character(n: int) -> ClassFunction:
    return irreducible_character((n,) if n else ())


def sign_character(n: int) -> ClassFunction:
    return irreducible_character((1,) * n if n else ())


def inner_product(f: ClassFunction, g: ClassFunction):
    """Standard character inner product (1/n!) sum class_size * f * g, as
    a Fraction."""
    if f.n != g.n:
        raise DomainError(
            f"inner product needs matching groups, got S_{f.n} and S_{g.n}"
        )
    fv, gv = f.values, g.values
    total = sum(
        size * fv[mu] * gv[mu] for size, mu in zip(class_sizes(f.n), partitions(f.n))
    )
    from fractions import Fraction

    return Fraction(total, factorial(f.n))


def regular_character(n: int) -> ClassFunction:
    """Character of the regular representation: n! at the identity."""
    values = {mu: 0 for mu in partitions(n)}
    values[(1,) * n if n else ()] = factorial(n)
    return ClassFunction._unchecked(n, values)
