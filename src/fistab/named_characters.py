"""The character inner product, which no subcommand computes: decompose
reads multiplicities off the Frobenius map by Horner's rule instead.  The
benchmark's tracer times it as characters.inner_product, which
fistab.characters resolves here on each access (PEP 562), so a process
that only computes characters and decompositions never compiles it.
"""

from __future__ import annotations

from math import factorial

from .characters import ClassFunction, class_sizes, exact_quotient
from .errors import DomainError
from .partitions import partitions


def inner_product(f: ClassFunction, g: ClassFunction):
    """Standard character inner product (1/n!) sum class_size * f * g: an
    int where it is integral, else a Fraction."""
    if f.n != g.n:
        raise DomainError(
            f"inner product needs matching groups, got S_{f.n} and S_{g.n}"
        )
    fv, gv = f.values, g.values
    total = sum(
        size * fv[mu] * gv[mu] for size, mu in zip(class_sizes(f.n), partitions(f.n))
    )
    return exact_quotient(total, factorial(f.n))
