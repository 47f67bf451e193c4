"""Cohomology of ordered configuration spaces of the plane, modeled by
the Orlik-Solomon algebra of the braid arrangement.

Symmetric groups act by relabeling points.  The characters come from
Lehrer's closed form, one characters.cycle_product; the no-broken-circuit
(NBC) basis and the action on it (fistab.os_reference) are the explicit
model they are checked against.

What os-scan reports comes from the free-module decomposition of the
cohomology, sum_m M(W_m) (see the section above _generator_sizes): by
Lehrer-Solomon W_m = 0 unless k + 1 <= m <= 2k, each W_m is read off
Lehrer's product and decomposed by the table of S_m once per (m, k), and
every level n is a Pieri sum (free_decompositions, one call of
characters.free_module_sum for a whole window), its coinvariant
dimensions and its Betti number (a = n) sums over the W_m
(coinvariant_report), its character polynomial read off the W_m
(character_polynomial).  So os-scan takes no character of the cohomology
and no Betti number past level 2k: decomposition, character and
invariant_dimension are the test oracles, in os_reference with the NBC
model, which a scan never compiles.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from . import _forward
from .characters import (
    ClassFunction,
    FreeLevels,
    IrrDecomposition,
    as_multiplicity,
    cycle_product,
    decompose,
    fixed_dimension,
    free_module_sum,
    partial_products,
)
from .errors import DomainError
from .fi_reports import CharPolynomial, _monomial
from .partitions import partitions

# the oracles the benchmark's tracer times under these names: os_reference's,
# looked up there on each access
__getattr__ = _forward(__name__, "os_reference", (
    "nbc_basis", "character", "decomposition", "invariant_dimension", "action_columns",
))


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


def _lehrer_partials(r: int, e: int, k: int) -> list[dict[int, int]]:
    """g_r(0), ..., g_r(e), kept up to t^k in rising degree, where g_r(j)
    = prod_{i < j} (sum_{d | r} mu(d) (-t)^(r - r/d) - i r (-t)^r) is the
    factor that j cycles of length r contribute to Lehrer's product
    (J. London Math. Soc. 1987) sum_k chi_k(g) t^k = prod_r g_r(Z_r),
    chi_k the degree-k character and Z_r the number of r-cycles of g."""
    # one term per divisor d of r, in rising degree r - r/d < r
    base = {r - r // d: _mobius(d) * (-1) ** (r - r // d) for d in range(1, r + 1) if r % d == 0}
    steps = ({**base, r: -i * r * (-1) ** r} if i else base for i in range(e))
    return partial_products(steps, k)


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
# Each such m has a nonzero summand: _generator_sizes lists the nonzero W_m.


def _generator_sizes(n: int, k: int) -> range:
    # the m <= n of Lehrer-Solomon's range, none when k < 0
    return range(k + 1 if k else 0, min(n, 2 * k) + 1)


@lru_cache(maxsize=None)
def _free_character(m: int, k: int) -> ClassFunction:
    """The character of W_m, read off Lehrer's product (_lehrer_partials).
    The t^s coefficient of g_r(Z) takes a non-constant term from at most s
    factors, so it is a polynomial in Z of degree <= 2s, and by Newton's
    forward differences g_r(Z) = sum_e C(Z, e) D_r(e), D_r(e) = Delta^e
    g_r(0), a finite sum up to t^k.  So chi_k = sum_nu [t^k] prod_r
    D_r(e_r) C(Z_r, e_r), e_r the number of r-cycles of nu; these
    monomials are linearly independent on cycle counts, so by the
    expansion in character_polynomial chi_{W_m}(nu) is this coefficient."""
    diffs = {}  # r -> [D_r(0), ..., D_r(m // r)], each in rising degree
    for r in range(1, m + 1):
        rows = [[g.get(s, 0) for s in range(k + 1)] for g in _lehrer_partials(r, m // r, k)]
        diffs[r] = []
        for _ in range(m // r + 1):  # rows[0] is the next D_r(e)
            diffs[r].append({s: c for s, c in enumerate(rows[0]) if c})
            rows = [[y - x for x, y in zip(u, v)] for u, v in zip(rows, rows[1:])]
    return cycle_product(m, k, diffs)


@lru_cache(maxsize=None)
def free_generator(m: int, k: int) -> IrrDecomposition:
    """W_m of the decomposition above; decompose refuses a non-character."""
    return decompose(_free_character(m, k))


@lru_cache(maxsize=None)
def _generators_up_to(top: int, k: int) -> dict[int, IrrDecomposition]:
    # the nonzero W_m with m <= top; shared by every caller, never mutated
    return {m: free_generator(m, k) for m in _generator_sizes(top, k)}


def _free_generators(n: int, k: int) -> dict[int, IrrDecomposition]:
    # the nonzero W_m that reach level n: cached on min(n, 2k), never on n
    return _generators_up_to(min(n, 2 * k), k)


def free_decompositions(n_min: int, n_max: int, k: int) -> FreeLevels:
    """decomposition(n, k), its test oracle, at every level n of the window
    n_min..n_max, as the Pieri sum of the W_m (characters.free_module_sum):
    no character table of S_n, only those of S_m for m <= min(n_max, 2k),
    and one strip enumeration per constituent for the whole window."""
    return free_module_sum(_free_generators(n_max, k), n_min, n_max)


def _needs_check(n_min: int, n_max: int, k: int) -> bool:
    """Whether the window n_min..n_max may leave the degree-k character
    polynomial open, so that character_polynomial checks it with a fit:
    only when n_max - n_min < 2k and n_max <= 4k (proof there)."""
    return n_max - n_min < 2 * k and n_max <= 4 * k


@lru_cache(maxsize=None)
def _fit_refusal(n_min: int, n_max: int, k: int) -> str | None:
    """The message with which fit_char_polynomial refuses the zero
    sequence on the classes of the window n_min..n_max at weighted degree
    <= 2k, or None where it fits: character_polynomial's check, kept per
    window as a value, since lru_cache keeps no exception."""
    from .fi_analysis import FISequence, fit_char_polynomial  # the path that fits alone

    zero = {
        n: ClassFunction._unchecked(n, dict.fromkeys(partitions(n), 0))
        for n in range(n_min, n_max + 1)
    }
    try:
        fit_char_polynomial(FISequence(zero), 2 * k)
    except DomainError as exc:
        return str(exc)
    return None


def character_polynomial(n_min: int, n_max: int, k: int) -> CharPolynomial:
    """The polynomial of weighted degree <= 2k that fit_char_polynomial
    fits to the degree-k characters on the window n_min..n_max, read off
    the W_m: the trace of a permutation sigma on M(W_m)_n sums
    chi_{W_m}(sigma|_A) over the m-sets A that sigma maps to themselves,
    and sigma|_A has cycle type nu for prod_l C(Z_l(sigma), m_l(nu)) of
    them, so

        chi(sigma) = sum_{m <= 2k} sum_{nu |- m} chi_{W_m}(nu) prod_l C(Z_l, m_l(nu)),

    a polynomial in the fit's own binomial basis, true at every level.
    So the fit's system is consistent, and wherever the fit is unique it
    returns this polynomial.

    The fit is unique on a window with n_max - n_min >= 2k or n_max > 4k.
    Take an exponent vector nu of weight w <= 2k: the class with exactly
    the cycles of nu lies at level n = w, and at every level n >= w + 2k
    + 1 the class of nu plus one cycle of length n - w > 2k, which no
    monomial of weighted degree <= 2k reads, so the monomials take the
    same values there as on nu.  The window holds such a level: n_max
    itself when n_max >= 4k + 1 >= w + 2k + 1; otherwise n_max - n_min >=
    2k, and the window holds n = w if w >= n_min (w <= 2k <= n_max) and
    n_max >= n_min + 2k >= w + 2k + 1 if w < n_min.  The monomial of nu
    is 1 at nu and 0 at every nu' with fewer cycles of some length, so on
    these points the monomials form a unitriangular matrix, and the rows
    of the fit have full column rank.

    Any other window (_needs_check) has n_max <= 4k, and is checked by
    fitting the zero sequence on its classes, which takes no character,
    once per window in a process (_fit_refusal).
    Whether the fit is unique depends on the classes and not on the
    values: on a consistent system the elimination finds its pivots on
    the monomial columns alone, the same for the characters as for zero.
    So the check fails with the fit's own message exactly where the fit
    of the characters does: at (k, n_min, n_max) = (2, 4, 5), (3, 5, 7),
    (3, 6, 7) and (3, 7, 8), for example, although n_max >= 2k + 1.  When
    n_max < 2k it always fails, since a monomial of weight above n_max is
    0 on every class of the window, so the W_m past n_max are never
    needed.
    """
    if _needs_check(n_min, n_max, k) and (refusal := _fit_refusal(n_min, n_max, k)) is not None:
        raise DomainError(refusal)
    return _polynomial_up_to(min(n_max, 2 * k), k)


@lru_cache(maxsize=None)
def _polynomial_up_to(top: int, k: int) -> CharPolynomial:
    # character_polynomial read off the W_m with m <= top; cached like
    # _generators_up_to, shared by every caller, never mutated
    coeffs = {}
    for m in _generators_up_to(top, k):
        for nu, value in _free_character(m, k).values.items():
            coeffs[_monomial(nu)] = value
    return CharPolynomial(coeffs)


@lru_cache(maxsize=None)
def _free_fixed_dims(m: int, k: int) -> tuple[int, ...]:
    # entry j: dim of the vectors of W_m fixed by the subgroup permuting
    # its last m - j points
    chi = _free_character(m, k)
    return tuple(
        as_multiplicity(fixed_dimension(chi, j), f"invariant dimension of W_{m} came out as")
        for j in range(m + 1)
    )


def _free_invariant_dimension(n: int, a: int, k: int) -> int:
    # On M(W_m)_n the subgroup S_(n-a) permuting the last n - a points has
    # one orbit of m-sets A per choice of the j = |A meets 1..a| points of A
    # among the first a (j >= m - (n - a), so the rest fits), and the
    # stabilizer of A permutes its other m - j points.
    if not 0 <= a <= n:
        raise DomainError(f"need 0 <= a <= {n}, got a={a}")
    total = 0
    for m in _free_generators(n, k):
        fixed = _free_fixed_dims(m, k)
        for j in range(max(0, m - n + a), min(a, m) + 1):
            total += comb(a, j) * fixed[j]
    return total


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


def coinvariant_report(n: int, a: int, k: int, d_src: int | None = None) -> CoinvariantReport:
    """Verdict on the coinvariant map from level n to level n+1 with
    respect to the subgroups permuting all but the first a points.

    The cohomology of the configuration spaces of an open manifold, here
    C, is an FI#-module, hence a direct sum of free FI-modules M(W)
    (Church-Ellenberg-Farb, FI-modules and stability for representations
    of symmetric groups, Duke 2015).  On a free module the coinvariant map
    comes from an injective map of orbit sets, so it is split injective:
    always injective, and surjective exactly when both sides have the same
    dimension.  Both dimensions are counted on the free modules M(W_m),
    and invariant_dimension is their test oracle.  A caller walking up the
    levels passes the source dimension it already has, the target of the
    map from level n - 1.
    """
    if d_src is None:
        d_src = _free_invariant_dimension(n, a, k)  # rejects a outside 0..n
    d_dst = _free_invariant_dimension(n + 1, a, k)
    return CoinvariantReport(n, a, k, True, d_src == d_dst, (d_src, d_dst))
