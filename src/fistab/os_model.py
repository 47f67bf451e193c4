"""Cohomology of ordered configuration spaces of the plane, modeled by
the Orlik-Solomon algebra of the braid arrangement.

Degree-one generators are classes w[a,b] = w[b,a] indexed by unordered
pairs; a monomial is a wedge of generators.  The no-broken-circuit (NBC)
basis consists of monomials whose second indices are strictly increasing,
and every product rewrites into it through the quadratic relation

    w[a,c] ^ w[b,c] = w[a,b] ^ w[b,c] - w[a,b] ^ w[a,c]      (a < b < c)

together with anticommutativity and square-zero.  Symmetric groups act by
relabeling points.  The characters come from Lehrer's closed form and the
coinvariant verdicts from the dimensions it gives; the NBC basis and the
action are the explicit model they are checked against.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .characters import (
    ClassFunction,
    IrrDecomposition,
    as_multiplicity,
    decompose,
    restrict_and_average,
)
from .errors import DomainError
from .induction import _poly_mul
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


@lru_cache(maxsize=None)
def _graded_trace(mu: Partition) -> tuple[int, ...]:
    """(chi_0(g), chi_1(g), ...) for g of cycle type mu, where chi_k is the
    character on the degree-k cohomology.

    Lehrer's product formula (J. London Math. Soc. 1987), with m_r the
    number of r-cycles of g:

        sum_k chi_k(g) (-t)^k
            = prod_r prod_{j < m_r} (sum_{d | r} mu(d) t^(r - r/d) - j r t^r).
    """
    n = sum(mu)
    series = {0: 1}
    for r, m in cycle_counts(mu).items():
        # one term per divisor d of r, in rising degree r - r/d < r
        base = {r - r // d: _mobius(d) for d in range(1, r + 1) if r % d == 0}
        for j in range(m):
            series = _poly_mul(series, {**base, r: -j * r} if j else base, n)
    return tuple(-series.get(k, 0) if k % 2 else series.get(k, 0) for k in range(n + 1))


def _trace_in_degree(mu: Partition, k: int) -> int:
    series = _graded_trace(mu)
    return series[k] if 0 <= k < len(series) else 0


def betti(n: int, k: int) -> int:
    """dim of the degree-k cohomology on n points: e_k(1, 2, ..., n-1),
    the degree-k character at the identity."""
    return _trace_in_degree((1,) * n, k)


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
    points, by averaging the character over that subgroup."""
    d = restrict_and_average(character(n, k), a).dimension()
    return as_multiplicity(d, "invariant dimension came out as")


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
    dimension.  Both dimensions come from the closed-form character.
    """
    d_src = invariant_dimension(n, a, k)  # rejects a outside 0..n
    d_dst = invariant_dimension(n + 1, a, k)
    return CoinvariantReport(
        n=n,
        a=a,
        degree=k,
        injective=True,
        surjective=d_src == d_dst,
        dims=(d_src, d_dst),
    )
