"""The test oracles of fistab.os_model: the explicit Orlik-Solomon model
and the table route.

Degree-one generators are classes w[a,b] = w[b,a] indexed by unordered
pairs; a monomial is a wedge of generators.  The no-broken-circuit (NBC)
basis consists of monomials whose second indices are strictly increasing,
and every product rewrites into it through the quadratic relation

    w[a,c] ^ w[b,c] = w[a,b] ^ w[b,c] - w[a,b] ^ w[a,c]      (a < b < c)

together with anticommutativity and square-zero.  Symmetric groups act by
relabeling points.  The table route takes the character of the whole
cohomology at a level (character, from Lehrer's closed form), decomposes
it over S_n (decomposition, by characters.decompose) and averages it
over the subgroup that permutes the last points (invariant_dimension,
by characters.fixed_dimension).  os-scan runs on the free-module route of
os_model and calls none of this, so a process that only scans never
compiles it; os_model resolves the five names the benchmark's tracer
times there on each access (PEP 562).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import NamedTuple

from .characters import (
    ClassFunction,
    IrrDecomposition,
    as_multiplicity,
    cycle_product,
    decompose,
    fixed_dimension,
)
from .errors import DomainError
from .os_model import _lehrer_partials

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
    dim = len(nbc_basis(len(perm), k))
    mat = [[0] * dim for _ in range(dim)]
    for j, col in enumerate(action_columns(perm, k)):
        for i, v in col.items():
            mat[i][j] = v
    return mat


@lru_cache(maxsize=None)
def character(n: int, k: int) -> ClassFunction:
    """Character of S_n on the degree-k cohomology, Lehrer's product
    (os_model._lehrer_partials) expanded only up to t^k."""
    return cycle_product(n, k, {r: _lehrer_partials(r, n // r, k) for r in range(1, n + 1)})


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
    mat = [[0] * len(src) for _ in range(len(nbc_basis(n + 1, k)))]
    for j, mono in enumerate(src):
        mat[index[mono]][j] = 1
    return mat


def invariant_dimension(n: int, a: int, k: int) -> int:
    """dim of the subspace fixed by the subgroup permuting the last n-a
    points: the character of the whole level averaged over that subgroup
    (characters.fixed_dimension); the test oracle of the free-module
    count that os_model.coinvariant_report uses."""
    d = fixed_dimension(character(n, k), a)
    return as_multiplicity(d, "invariant dimension came out as")
