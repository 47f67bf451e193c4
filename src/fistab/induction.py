"""The free building-block modules M(lam) and M(m), and graded Kunneth
powers for product spaces and wreath products with symmetric quotient.

The wreath-product Betti numbers need no characters: they are counts of
graded-symmetric powers (Macdonald 1962), computed in fistab.wreath, whose
series gives wreath_invariant_dim; it imports that module when called, so
a kunneth process never compiles it.

Splitting V = 1 + V_+ into degree 0 and positive degrees, a pure tensor
of V^(x)n is a choice of the m factors that lie in V_+, so degree i of
V^(x)n is a sum of free modules

    sum_m Ind_{S_m x S_{n-m}}^{S_n} (W_m (x) 1) = sum M(W_m)_n

with W_m the degree-i part of V_+^(x)m, Koszul signs included (Church,
Ellenberg and Farb, *FI-modules and stability for representations of
symmetric groups*, 2015), zero unless m positive degrees with a class sum
to i: the m of _generator_sizes, which alone kunneth reads and prices.
kunneth_decomposition builds all the W_m at once, with no class function
of any S_m, and induces them by the Pieri rule: characters.free_module_sum
at the single level n, as m_module and m_regular do; os-scan calls it
once for a whole window.  The trace of V^(x)n factors over the cycles of
a permutation (characters.cycle_product of partial_products, which
os_model calls too).
"""

from __future__ import annotations

from . import _forward
from .characters import (
    ClassFunction,
    IrrDecomposition,
    _beads,
    _rim_hooks,
    as_multiplicity,
    cycle_product,
    exact_quotient,
    free_module_sum,
    partial_products,
)
from .errors import DomainError
from .graded import _check_graded_dims, _degrees
from .partitions import Partition, check_partition, dimension, partitions

# characters.decompose, looked up there on each access: the benchmark's self-test reads it here
__getattr__ = _forward(__name__, "characters", ("decompose",))


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


def _cycle_trace(dims, length: int, i: int) -> dict[int, int]:
    # The trace of a length-l cycle, which rotates l tensor factors, in
    # rising degree up to i: a degree-g class contributes (-1)**(g*(l-1))
    # d_g in degree g*l, the sign of odd classes rotated by an even cycle.
    signed = [-d if g % 2 and not length % 2 else d for g, d in enumerate(dims[: i // length + 1])]
    return {g * length: d for g, d in enumerate(signed) if d}


def _class_traces(dims, n: int, i: int) -> ClassFunction:
    # The trace of each cycle type of S_n on total degree i of the n-fold
    # graded tensor power: z cycles of length l give _cycle_trace**z.
    steps = {l: [_cycle_trace(dims, l, i)] * (n // l) for l in range(1, n + 1)}
    return cycle_product(n, i, {l: partial_products(step, i) for l, step in steps.items()})


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
    """Irreducible decomposition of total degree i of the n-fold graded tensor
    power, sum_m M(W_m), equal to its oracle decompose(kunneth_power(...)).  By
    Newton's identity (Macdonald I.2) the Frobenius images of the V_+^(x)m are
    H_0 = 1 and m H_m = sum_l phi_l p_l H_(m-l), phi_l = _cycle_trace(V_+, l),
    cut at t^i: each {degree: {bead mask: Schur coefficient}}."""
    dims = _check_graded_dims(graded_dims, n, i)
    sizes = _generator_sizes(dims, n, i)
    beads = max(sizes, default=0)  # enough for every shape of the H_m read
    phi = {length: _cycle_trace((0, *dims[1:]), length, i) for length in range(1, beads + 1)}
    series = [{0: {(1 << beads) - 1: 1}}]
    for m in range(1, beads + 1):
        sums: dict[int, dict[int, int]] = {}
        for length in range(1, m + 1):
            for degree, h in series[m - length].items():
                terms = [(degree + s, c) for s, c in phi[length].items() if degree + s <= i]
                grown = _rim_hooks(h, (length,), grow=True) if terms else {}
                for at, c in terms:
                    into = sums.setdefault(at, {})
                    for mask, value in grown.items():
                        into[mask] = into.get(mask, 0) + c * value
        what = f"a multiplicity of W_{m} came out as"
        series.append({
            e: {mask: as_multiplicity(exact_quotient(v, m), what) for mask, v in h.items() if v}
            for e, h in sums.items()
        })
    shapes = {_beads(lam, beads): lam for m in sizes for lam in partitions(m)}
    generators = {
        m: IrrDecomposition._unchecked(m, {shapes[b]: c for b, c in series[m].get(i, {}).items()})
        for m in sizes
    }
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

