"""Cohomology of ordered configuration spaces of the plane, modeled by
the Orlik-Solomon algebra of the braid arrangement.

Degree-one generators are classes w[a,b] = w[b,a] indexed by unordered
pairs; a monomial is a wedge of generators.  The no-broken-circuit (NBC)
basis consists of monomials whose second indices are strictly increasing,
and every product rewrites into it through the quadratic relation

    w[a,c] ^ w[b,c] = w[a,b] ^ w[b,c] - w[a,b] ^ w[a,c]      (a < b < c)

together with anticommutativity and square-zero.  Symmetric groups act by
relabeling points.  The characters come from Lehrer's closed form; the NBC
basis and the action are the explicit model they are checked against.

What os-scan reports comes from the free-module decomposition of the
cohomology, sum_m M(W_m) (see the section above free_generator): by
Lehrer-Solomon W_m = 0 unless k + 1 <= m <= 2k, so W_m is peeled off the
tables of S_m for m <= 2k once per (m, k), and every level n is a Pieri
sum (free_decomposition, through characters.free_module_sum, which
induction's free modules call too), its Betti number sum_m C(n, m) dim W_m
(free_betti), its coinvariant dimensions a sum over the W_m
(coinvariant_report), and the character polynomial sum_m sum_{nu |- m}
chi_{W_m}(nu) prod_l C(Z_l, m_l(nu)) on every window of at least 2k + 1
levels, where the exact fit is unique and equal to it
(character_polynomial).  So os-scan builds no character table of S_n for
n > 2k.  decomposition, betti, character and invariant_dimension compute
the same numbers from the characters of S_n and are the test oracles.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from typing import NamedTuple

from .characters import (
    ClassFunction,
    IrrDecomposition,
    _poly_mul,
    as_multiplicity,
    decompose,
    free_module_sum,
    restrict_and_average,
)
from .errors import DomainError
from .fi_analysis import CharPolynomial, FISequence, fit_char_polynomial
from .partitions import Partition, cycle_counts, partitions

Edge = tuple  # (a, b) with 1 <= a < b
Monomial = tuple  # edges with strictly increasing second indices


def normalize_edge(a: int, b: int) -> Edge:
    """Canonical form of the generator on the pair {a, b}."""
    if a == b or a < 1 or b < 1:
        raise DomainError(f"generator needs two distinct positive points, got {(a, b)}")
    return (a, b) if a < b else (b, a)


@lru_cache(maxsize=None)
def nbc_basis(n: int, k: int) -> tuple[Monomial, ...]:
    """All degree-k NBC monomials on n points, in lexicographic order.

    Counting second indices shows there are e_k(1, 2, ..., n-1) of them;
    out-of-range k just gives the empty basis.
    """
    if k < 0 or k > max(n - 1, 0):
        return ()
    out = []
    for seconds in itertools.combinations(range(2, n + 1), k):
        for firsts in itertools.product(*(range(1, b) for b in seconds)):
            out.append(tuple(zip(firsts, seconds)))
    return tuple(out)


@lru_cache(maxsize=None)
def _basis_index(n: int, k: int) -> dict[Monomial, int]:
    return {mono: j for j, mono in enumerate(nbc_basis(n, k))}


def _canonical_sort(edges: tuple) -> tuple[int, tuple | None]:
    # Sort by (second, first), one sign flip per adjacent swap of the
    # degree-one factors; a repeated factor kills the product.
    lst = list(edges)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and (lst[j][1], lst[j][0]) < (lst[j - 1][1], lst[j - 1][0]):
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(len(lst) - 1):
        if lst[i] == lst[i + 1]:
            return 0, None
    return sign, tuple(lst)


@lru_cache(maxsize=None)
def _straighten(edges: tuple) -> tuple[tuple[Monomial, int], ...]:
    """Expand a wedge of generators in the NBC basis.

    Worklist rewriting: each step fires the quadratic relation on the
    leftmost adjacent pair sharing a second index.  The relation replaces
    a second index c by some b < c, so the multiset of second indices
    strictly decreases (compared as a sorted sequence) and the rewriting
    terminates.
    """
    result: dict[Monomial, int] = {}
    stack = [(1, edges)]
    while stack:
        coeff, mono = stack.pop()
        sign, srt = _canonical_sort(mono)
        if sign == 0:
            continue
        coeff *= sign
        clash = next(
            (t for t in range(len(srt) - 1) if srt[t][1] == srt[t + 1][1]), None
        )
        if clash is None:
            val = result.get(srt, 0) + coeff
            if val:
                result[srt] = val
            else:
                del result[srt]
            continue
        (a, c), (b, _) = srt[clash], srt[clash + 1]
        head, tail = srt[:clash], srt[clash + 2 :]
        stack.append((coeff, head + ((a, b), (b, c)) + tail))
        stack.append((-coeff, head + ((a, b), (a, c)) + tail))
    return tuple(sorted(result.items()))


class OSElement(NamedTuple):
    """Sparse exact vector in one graded piece of the algebra."""

    n: int
    degree: int
    coeffs: dict


def straighten(edges, n: int) -> OSElement:
    """NBC expansion of the wedge of the given generators inside the
    algebra on n points."""
    normed = tuple(normalize_edge(a, b) for a, b in edges)
    for a, b in normed:
        if b > n:
            raise DomainError(f"generator {(a, b)} does not fit on {n} points")
    from fractions import Fraction

    coeffs = {m: Fraction(c) for m, c in _straighten(normed)}
    return OSElement(n, len(normed), coeffs)


def check_permutation(perm) -> tuple[int, ...]:
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise DomainError(f"not a permutation of 1..{len(p)}: {p!r}")
    return p


def _apply_perm(perm, mono: Monomial) -> tuple[tuple[Monomial, int], ...]:
    # perm is a checked permutation, so each image is a valid edge
    mapped = []
    for a, b in mono:
        x, y = perm[a - 1], perm[b - 1]
        mapped.append((x, y) if x < y else (y, x))
    return _straighten(tuple(mapped))


def action_columns(perm, k: int) -> list[dict[int, int]]:
    """Sparse columns of the permutation action on the degree-k basis."""
    perm = check_permutation(perm)
    n = len(perm)
    index = _basis_index(n, k)
    cols = []
    for mono in nbc_basis(n, k):
        cols.append({index[m]: c for m, c in _apply_perm(perm, mono)})
    return cols


def action_matrix(perm, k: int):
    """Dense matrix of the permutation acting on the degree-k basis."""
    perm = check_permutation(perm)
    dim = betti(len(perm), k)
    mat = [[0] * dim for _ in range(dim)]
    for j, col in enumerate(action_columns(perm, k)):
        for i, v in col.items():
            mat[i][j] = v
    return mat


def _mobius(d: int) -> int:
    result, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            result = -result
        p += 1
    return -result if d > 1 else result


def _trace_in_degree(mu: Partition, k: int) -> int:
    """chi_k(g) for g of cycle type mu, where chi_k is the character on
    the degree-k cohomology.

    Lehrer's product formula (J. London Math. Soc. 1987), with m_r the
    number of r-cycles of g:

        sum_k chi_k(g) (-t)^k
            = prod_r prod_{j < m_r} (sum_{d | r} mu(d) t^(r - r/d) - j r t^r),

    expanded only up to t^k: no factor has a negative degree, so the
    terms past t^k never reach it.
    """
    series = {0: 1}
    for r, m in cycle_counts(mu).items():
        # one term per divisor d of r, in rising degree r - r/d < r
        base = {r - r // d: _mobius(d) for d in range(1, r + 1) if r % d == 0}
        for j in range(m):
            series = _poly_mul(series, {**base, r: -j * r} if j else base, k)
    return -series.get(k, 0) if k % 2 else series.get(k, 0)


def betti(n: int, k: int) -> int:
    """dim of the degree-k cohomology on n points: e_k(1, 2, ..., n-1),
    the degree-k character at the identity (Lehrer's product there is
    prod_{j < n} (1 + j t)), kept only up to degree k."""
    if k < 0 or k > max(n - 1, 0):
        return 0
    e = [1] + [0] * k
    for v in range(1, n):
        for j in range(min(k, v), 0, -1):
            e[j] += v * e[j - 1]
    return e[k]


@lru_cache(maxsize=None)
def character(n: int, k: int) -> ClassFunction:
    """Character of S_n on the degree-k cohomology, in closed form."""
    return ClassFunction(n, {mu: _trace_in_degree(mu, k) for mu in partitions(n)})


@lru_cache(maxsize=None)
def decomposition(n: int, k: int) -> IrrDecomposition:
    """Irreducible decomposition of the degree-k cohomology; a non-integer
    multiplicity would mean the closed-form character is broken."""
    return decompose(character(n, k))


def fi_map(n: int, k: int):
    """Dense matrix of the inclusion-induced map from level n to level
    n+1: each NBC monomial goes to the same monomial one level up."""
    src = nbc_basis(n, k)
    index = _basis_index(n + 1, k)
    mat = [[0] * len(src) for _ in range(betti(n + 1, k))]
    for j, mono in enumerate(src):
        mat[index[mono]][j] = 1
    return mat


def invariant_dimension(n: int, a: int, k: int) -> int:
    """dim of the subspace fixed by the subgroup permuting the last n-a
    points, by averaging the character over that subgroup; the test
    oracle of the free-module count that coinvariant_report uses."""
    d = restrict_and_average(character(n, k), a).dimension()
    return as_multiplicity(d, "invariant dimension came out as")


# ---------------------------------------------------------------------------
# The free-module decomposition.  The cohomology of the configuration
# spaces of an open manifold, here C, is an FI#-module, hence at every
# level n a sum of free modules
#
#     H^k(Conf_n(C)) = sum_m Ind_{S_m x S_{n-m}}^{S_n} (W_m (x) 1) = sum_m M(W_m)_n
#
# (Church-Ellenberg-Farb, FI-modules and stability for representations of
# symmetric groups, Duke 2015).  Lehrer-Solomon (On the action of the
# symmetric group on the cohomology of the complement of its reflecting
# hyperplanes, J. Algebra 1986) give H^k as the sum, over the cycle types
# lam of S_n with n - len(lam) = k, of a character of the centralizer of
# a permutation of type lam induced up to S_n; it is trivial on the
# permutations of the fixed points.  So each summand is free, induced
# from the c cycles of length >= 2, which cover m = k + c points with
# 1 <= c <= k: W_m = 0 unless k + 1 <= m <= 2k (only W_0 for k = 0), and
# everything os-scan reports comes from the tables of S_m for m <= 2k.


@lru_cache(maxsize=None)
def free_generator(m: int, k: int) -> IrrDecomposition:
    """W_m of the decomposition above: level m of the degree-k cohomology
    less the Pieri sums of W_0, ..., W_(m-1) at level m.  A negative
    difference would mean the cohomology is not a sum of free modules."""
    if not betti(m, k):  # then every W_j with j <= m vanishes too
        return IrrDecomposition(m, {})
    below = free_module_sum({j: free_generator(j, k) for j in range(m)}, m).mult
    here = decomposition(m, k).mult
    mult = {
        lam: as_multiplicity(
            here.get(lam, 0) - below.get(lam, 0), f"multiplicity of {lam} in W_{m} came out as"
        )
        for lam in {**here, **below}
    }
    return IrrDecomposition(m, mult)


def _free_generators(n: int, k: int) -> dict[int, IrrDecomposition]:
    # the nonzero W_m that reach level n
    gens = {m: free_generator(m, k) for m in range(min(n, 2 * k) + 1)}
    return {m: w for m, w in gens.items() if w}


def free_decomposition(n: int, k: int) -> IrrDecomposition:
    """decomposition(n, k), its test oracle, as the Pieri sum of the W_m:
    no character table of S_n, only those of S_m for m <= min(n, 2k)."""
    return free_module_sum(_free_generators(n, k), n)


def free_betti(n: int, k: int) -> int:
    """betti(n, k), its test oracle, as the dimension of the free sum:
    sum_m C(n, m) dim W_m, the invariants of the trivial subgroup."""
    return _free_invariant_dimension(n, n, k)


def character_polynomial(n_min: int, n_max: int, k: int) -> CharPolynomial:
    """The polynomial of weighted degree <= 2k that fit_char_polynomial
    fits to the degree-k characters on the window n_min..n_max.

    On a window with n_max - n_min >= 2k it is read off the W_m: the
    trace of a permutation sigma on M(W_m)_n sums chi_{W_m}(sigma|_A) over
    the m-sets A that sigma maps to themselves, and sigma|_A has cycle
    type nu for prod_l C(Z_l(sigma), m_l(nu)) of them, so

        chi(sigma) = sum_{m <= 2k} sum_{nu |- m} chi_{W_m}(nu) prod_l C(Z_l, m_l(nu)),

    a polynomial in the fit's own binomial basis, true at every level.
    The fit is unique there, so it returns this polynomial.  Take an exponent vector nu of
    weight w <= 2k: the class with exactly the cycles of nu lies at level
    n = w, and at every level n >= w + 2k + 1 the class of nu plus one
    cycle of length n - w > 2k, which no monomial of weighted degree
    <= 2k reads, so the monomials take the same values there as on nu.
    If w >= n_min the window holds n = w (w <= 2k < n_max); if w < n_min
    it holds n_max >= n_min + 2k >= w + 2k + 1.  The monomial of nu is 1
    at nu and 0 at every nu' with fewer cycles of some length, so on
    these points the monomials form a unitriangular matrix, and the rows
    of the fit have full column rank.

    A shorter window goes to fit_char_polynomial itself, so it fails with
    the fit's own message where the window does not determine the
    polynomial: at (k, n_min, n_max) = (2, 4, 5), (3, 5, 7), (3, 6, 7)
    and (3, 7, 8), for example, although n_max >= 2k + 1.
    """
    if n_max - n_min < 2 * k:
        chars = FISequence({n: character(n, k) for n in range(n_min, n_max + 1)})
        return fit_char_polynomial(chars, 2 * k)
    coeffs = {}
    for m, w in _free_generators(n_max, k).items():
        for nu, value in w.character().values.items():
            coeffs[tuple(sorted(cycle_counts(nu).items()))] = value
    return CharPolynomial(coeffs)


@lru_cache(maxsize=None)
def _free_fixed_dims(m: int, k: int) -> tuple[int, ...]:
    # entry j: dim of the vectors of W_m fixed by the subgroup permuting
    # its last m - j points
    chi = free_generator(m, k).character()
    return tuple(
        as_multiplicity(
            restrict_and_average(chi, j).dimension(), f"invariant dimension of W_{m} came out as"
        )
        for j in range(m + 1)
    )


def _free_invariant_dimension(n: int, a: int, k: int) -> int:
    # On M(W_m)_n the subgroup S_(n-a) permuting the last n - a points has
    # one orbit of m-sets A per choice of the j = |A meets 1..a| points of A
    # among the first a (j >= m - (n - a), so the rest fits), and the
    # stabilizer of A permutes its other m - j points.
    if not 0 <= a <= n:
        raise DomainError(f"need 0 <= a <= {n}, got a={a}")
    return sum(
        comb(a, j) * _free_fixed_dims(m, k)[j]
        for m in _free_generators(n, k)
        for j in range(max(0, m - n + a), min(a, m) + 1)
    )


class CoinvariantReport(NamedTuple):
    n: int
    a: int
    degree: int
    injective: bool
    surjective: bool
    dims: tuple[int, int]

    def to_mapping(self) -> dict:
        return {
            "n": self.n,
            "a": self.a,
            "degree": self.degree,
            "injective": self.injective,
            "surjective": self.surjective,
            "dims": list(self.dims),
        }


def coinvariant_report(n: int, a: int, k: int) -> CoinvariantReport:
    """Verdict on the coinvariant map from level n to level n+1 with
    respect to the subgroups permuting all but the first a points.

    The cohomology of the configuration spaces of an open manifold, here
    C, is an FI#-module, hence a direct sum of free FI-modules M(W)
    (Church-Ellenberg-Farb, FI-modules and stability for representations
    of symmetric groups, Duke 2015).  On a free module the coinvariant map
    comes from an injective map of orbit sets, so it is split injective:
    always injective, and surjective exactly when both sides have the same
    dimension.  Both dimensions are counted on the free modules M(W_m),
    and invariant_dimension is their test oracle.
    """
    d_src = _free_invariant_dimension(n, a, k)  # rejects a outside 0..n
    d_dst = _free_invariant_dimension(n + 1, a, k)
    return CoinvariantReport(
        n=n,
        a=a,
        degree=k,
        injective=True,
        surjective=d_src == d_dst,
        dims=(d_src, d_dst),
    )
