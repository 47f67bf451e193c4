"""Induction products, the free building-block modules M(lam) and M(m),
coinvariants, and graded Kunneth powers for product spaces and wreath
products with symmetric quotient.

The wreath-product Betti numbers need no characters.  S_n permutes the
tensor factors of the n-fold graded tensor power with the Koszul sign
rule: even-degree classes commute and odd-degree classes anticommute.
The invariants are therefore the graded-symmetric power, spanned by
multisets of even classes times sets of odd classes, and with d_g the
g-th Betti number their dimensions are the coefficients of x^n t^i in

    prod_{g even} (1 - x t^g)^(-d_g) * prod_{g odd} (1 + x t^g)^(d_g)

(Macdonald, *The Poincare polynomial of a symmetric product*, 1962).
That series gives wreath_invariant_dim for every n at once; the twisted
multiplicities of wreath_twisted_dim are read off kunneth_decomposition
below.

The irreducible decomposition of the tensor power needs no character
table of S_n either.  Splitting V = 1 + V_+ into degree 0 and positive
degrees, a pure tensor of V^(x)n is a choice of the m factors that lie in
V_+, so degree i of V^(x)n is a sum of free modules

    sum_{m <= min(n, i)} Ind_{S_m x S_{n-m}}^{S_n} (W_m (x) 1) = sum M(W_m)_n

with W_m the degree-i part of V_+^(x)m, Koszul signs included (Church,
Ellenberg and Farb, *FI-modules and stability for representations of
symmetric groups*, 2015).  kunneth_decomposition decomposes each W_m
over S_m and induces by the Pieri rule: characters.free_module_sum at the
single level n, as m_module and m_regular do; os-scan calls it once for a
whole window.  The traces of V^(x)n and V_+^(x)m factor over the cycles
of a permutation (characters.cycle_product, which os_model also calls).
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .characters import (
    ClassFunction,
    IrrDecomposition,
    _poly_mul,
    cycle_product,
    decompose,
    free_module_sum,
    restrict_and_average,
)
from .errors import DomainError
from .partitions import (
    Partition,
    centralizer_order,
    check_partition,
    dimension,
    pad,
    partitions,
)


def induced_character(f: ClassFunction, g: ClassFunction) -> ClassFunction:
    """Character of Ind from S_a x S_b to S_{a+b} of f (x) g.

    The class mu meets S_a x S_b in the classes (mu1, mu2) that split its
    cycles between the two factors; each adds f(mu1) g(mu2) weighted by
    z_mu / (z_mu1 z_mu2), the number of ways to pick which cycles of one
    permutation of type mu go to the first factor.
    """
    values = dict.fromkeys(partitions(f.n + g.n), 0)
    for mu1 in partitions(f.n):
        for mu2 in partitions(g.n):
            mu = tuple(sorted(mu1 + mu2, reverse=True))
            weight = centralizer_order(mu) // (centralizer_order(mu1) * centralizer_order(mu2))
            values[mu] += weight * f.values[mu1] * g.values[mu2]
    return ClassFunction._unchecked(f.n + g.n, values)


def m_module(lam: Partition, n: int) -> IrrDecomposition:
    """Level n of the free module induced from the irreducible of shape
    lam: zero below |lam|, and by the Pieri rule one copy of each
    horizontal-strip extension of lam above."""
    return _m_module(check_partition(lam), n)


def _m_module(lam: Partition, n: int) -> IrrDecomposition:
    # m_module of a checked partition, such as parse_partition returns
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


def coinvariants_as_sa(V: IrrDecomposition, a: int) -> IrrDecomposition:
    """The S_a-module of coinvariants of V under the subgroup permuting
    the last n-a points.

    Over the rationals coinvariants agree with invariants, so the
    character is the average of V's character over that subgroup; the
    result is decomposed as an S_a-representation.
    """
    return decompose(restrict_and_average(V.character(), a))


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
        powers[length] = [{0: 1}]
        for _ in range(n // length):
            powers[length].append(dict(sorted(_poly_mul(powers[length][-1], cycle, i).items())))
    return cycle_product(n, i, powers)


def _check_graded_dims(graded_dims, n: int, i: int) -> tuple[int, ...]:
    dims = tuple(int(d) for d in graded_dims)
    if not dims or dims[0] != 1:
        raise DomainError(
            f"graded dimensions must start with 1 (connected space), got {dims!r}"
        )
    if any(d < 0 for d in dims):
        raise DomainError(f"graded dimensions must be nonnegative: {dims!r}")
    if n < 0 or i < 0:
        raise DomainError("n and i must be nonnegative")
    return dims


def kunneth_power(graded_dims, n: int, i: int) -> ClassFunction:
    """Character of S_n on total degree i of the n-fold graded tensor
    power of a space with the given Betti numbers.

    The trace at a permutation is a product over its cycles (see
    _class_traces).  The sign rule was frozen against a basis-level
    brute force with explicit Koszul signs (see the test suite) and is the
    convention used throughout this package.
    """
    return _class_traces(_check_graded_dims(graded_dims, n, i), n, i)


def kunneth_decomposition(graded_dims, n: int, i: int) -> IrrDecomposition:
    """Irreducible decomposition of total degree i of the n-fold graded
    tensor power: the free modules M(W_m) of the module docstring, each
    W_m decomposed over S_m and induced up to S_n by the Pieri rule.
    Equal to decompose(kunneth_power(graded_dims, n, i)), its test
    oracle, without the character table of S_n."""
    dims = _check_graded_dims(graded_dims, n, i)
    positive = (0, *dims[1:])
    generators = {}
    for m in range(min(n, i) + 1):
        w = _class_traces(positive, m, i)
        if w.dimension():
            generators[m] = decompose(w)
    return free_module_sum(generators, n, n)[n]


def _graded_symmetric_counts(graded_dims, n: int, i: int) -> list[int]:
    # Entry s: dimension of the span of the products of s classes of
    # positive degree in total degree i, for s <= min(n, i) (a product of
    # more than i such classes has degree above i).  Each degree g is
    # folded into the table c[s][t] in one step: j of its d_g classes add
    # x^j t^(g j) in C(d_g, j) ways when g is odd (sets) and in
    # C(d_g + j - 1, j) ways when g is even (multisets).
    dims = _check_graded_dims(graded_dims, n, i)
    s_max = min(n, i)
    c = [[0] * (i + 1) for _ in range(s_max + 1)]
    c[0][0] = 1
    for g in range(1, min(len(dims) - 1, i) + 1):
        d = dims[g]
        if not d:
            continue
        top = min(s_max, i // g, d if g % 2 else s_max)  # C(d, j) = 0 for j > d
        ways = [comb(d, j) if g % 2 else comb(d + j - 1, j) for j in range(top + 1)]
        folded = [[0] * (i + 1) for _ in range(s_max + 1)]
        for s, row in enumerate(c):
            for t, x in enumerate(row):
                if x:
                    for j, w in enumerate(ways):
                        if s + j > s_max or t + g * j > i:
                            break
                        folded[s + j][t + g * j] += x * w
        c = folded
    return [row[i] for row in c]


def wreath_invariant_series(graded_dims, n_max: int, i: int) -> list[int]:
    """wreath_invariant_dim(graded_dims, n, i) for n = 0..n_max, from one
    pass over the graded-symmetric power series (see the module
    docstring).  The single degree-0 class contributes 1/(1 - x), so
    entry n is the running sum of the products of at most n classes of
    positive degree; it is constant from n = i on."""
    head = list(accumulate(_graded_symmetric_counts(graded_dims, n_max, i)))
    return head + head[-1:] * (n_max + 1 - len(head))


def wreath_invariant_dim(graded_dims, n: int, i: int) -> int:
    """Dimension of the S_n-invariants in total degree i of the n-fold
    graded tensor power; equivalently the i-th Betti number of the wreath
    product of the underlying group with S_n.

    Under the Koszul sign rule (even classes commute, odd classes
    anticommute) the invariants are the graded-symmetric power, so this
    is the coefficient of x^n t^i in prod_{g even} (1 - x t^g)^(-d_g) *
    prod_{g odd} (1 + x t^g)^(d_g), d_g the g-th graded dimension
    (Macdonald 1962): entry n of wreath_invariant_series."""
    return sum(_graded_symmetric_counts(graded_dims, n, i))


def wreath_twisted_dim(graded_dims, lam: Partition, n: int, i: int) -> int:
    """Multiplicity of the irreducible with padded shape lam[n] in total
    degree i of the n-fold graded tensor power; by transfer this is the
    dimension of the wreath-product cohomology with coefficients twisted
    by that irreducible, read off kunneth_decomposition.  lam = ()
    recovers wreath_invariant_dim through the free modules rather than the
    series, and is its test oracle."""
    mu = pad(lam, n)  # first: a shape too large for n is refused before the dimensions
    return kunneth_decomposition(graded_dims, n, i).multiplicity(mu)
