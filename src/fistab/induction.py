"""The free building-block modules M(lam) and M(m), and graded Kunneth
powers for product spaces and wreath products with symmetric quotient.

The wreath-product Betti numbers need no characters: they are counts of
graded-symmetric powers (Macdonald 1962), computed in fistab.wreath, whose
series gives wreath_invariant_dim; it imports that module when called, so
a kunneth process never compiles it.

The irreducible decomposition of the tensor power needs no character
table of S_n either.  Splitting V = 1 + V_+ into degree 0 and positive
degrees, a pure tensor of V^(x)n is a choice of the m factors that lie in
V_+, so degree i of V^(x)n is a sum of free modules

    sum_m Ind_{S_m x S_{n-m}}^{S_n} (W_m (x) 1) = sum M(W_m)_n

with W_m the degree-i part of V_+^(x)m, Koszul signs included (Church,
Ellenberg and Farb, *FI-modules and stability for representations of
symmetric groups*, 2015), zero unless m positive degrees with a class sum
to i: the m of _generator_sizes, which alone kunneth builds and prices.
kunneth_decomposition decomposes each W_m over S_m and induces by the
Pieri rule: characters.free_module_sum at the single level n, as m_module
and m_regular do; os-scan calls it once for a whole window.  The traces
of V^(x)n and V_+^(x)m factor over the cycles of a permutation
(characters.cycle_product of partial_products, which os_model calls too).
"""

from __future__ import annotations

from .characters import (
    ClassFunction,
    IrrDecomposition,
    cycle_product,
    decompose,
    free_module_sum,
    partial_products,
)
from .errors import DomainError
from .graded import _check_graded_dims, _degrees
from .partitions import Partition, check_partition, dimension, partitions


def m_module(lam: Partition, n: int) -> IrrDecomposition:
    """Level n of the free module induced from the irreducible of shape
    lam: zero below |lam|, and by the Pieri rule one copy of each
    horizontal-strip extension of lam above."""
    lam = check_partition(lam)
    if n < 0:
        raise DomainError(f"level must be nonnegative, got {n}")
    m = sum(lam)
    return free_module_sum({m: IrrDecomposition._unchecked(m, {lam: 1})}, n, n)[n]


def m_regular(m: int, n: int) -> IrrDecomposition:
    """Level n of the module induced from the full group algebra of S_m;
    its total dimension is n!/(n-m)! once n >= m."""
    if m < 0 or n < 0:
        raise DomainError("m and n must be nonnegative")
    regular = IrrDecomposition._unchecked(m, {lam: dimension(lam) for lam in partitions(m)})
    return free_module_sum({m: regular}, n, n)[n]


def _class_traces(dims, n: int, i: int) -> ClassFunction:
    # The trace at each cycle type of S_n on total degree i of the n-fold
    # graded tensor power factors over the cycles.  A length-l cycle
    # rotates l tensor factors; a degree-g class contributes
    # (-1)**(g*(l-1)) d_g in degree g*l, so odd-degree classes rotated by
    # an even-length cycle pick up the sign.  z cycles of length l give
    # that trace to the power z.
    powers = {}
    for length in range(1, n + 1):
        cycle = {
            g * length: -d if g % 2 and not length % 2 else d
            for g, d in enumerate(dims[: i // length + 1])
            if d
        }
        powers[length] = partial_products([cycle] * (n // length), i)
    return cycle_product(n, i, powers)


def kunneth_power(graded_dims, n: int, i: int) -> ClassFunction:
    """Character of S_n on total degree i of the n-fold graded tensor
    power of a space with the given Betti numbers.

    The trace at a permutation is a product over its cycles (see
    _class_traces).  The sign rule was frozen against a basis-level
    brute force with explicit Koszul signs (see the test suite) and is the
    convention used throughout this package.
    """
    return _class_traces(_check_graded_dims(graded_dims, n, i), n, i)


def _generator_sizes(dims, n: int, i: int) -> range:
    # the m <= n for which W_m can be nonzero: m classes, of degrees from
    # the least to the greatest degree <= i that has a class (i + 1 if none
    # has), reach degree i only if m g_min <= i <= m G
    degrees = _degrees(dims, i) or [i + 1]
    return range(-(-i // degrees[-1]), min(n, i // degrees[0]) + 1)


def kunneth_decomposition(graded_dims, n: int, i: int) -> IrrDecomposition:
    """Irreducible decomposition of total degree i of the n-fold graded
    tensor power: the free modules M(W_m) of the module docstring, each
    W_m decomposed over S_m and induced up to S_n by the Pieri rule.
    Equal to decompose(kunneth_power(graded_dims, n, i)), its test
    oracle, without the character table of S_n."""
    dims = _check_graded_dims(graded_dims, n, i)
    positive = (0, *dims[1:])
    generators = {}
    for m in _generator_sizes(dims, n, i):
        w = _class_traces(positive, m, i)
        if w.dimension():
            generators[m] = decompose(w)
    return free_module_sum(generators, n, n)[n]


def wreath_invariant_dim(graded_dims, n: int, i: int) -> int:
    """Dimension of the S_n-invariants in total degree i of the n-fold
    graded tensor power; equivalently the i-th Betti number of the wreath
    product of the underlying group with S_n.

    Under the Koszul sign rule (even classes commute, odd classes
    anticommute) the invariants are the graded-symmetric power, so this
    is the coefficient of x^n t^i in prod_{g even} (1 - x t^g)^(-d_g) *
    prod_{g odd} (1 + x t^g)^(d_g), d_g the g-th graded dimension
    (Macdonald 1962): entry n of wreath.wreath_invariant_series."""
    from .wreath import _graded_symmetric_counts

    return sum(_graded_symmetric_counts(graded_dims, n, i))

