"""Reference computations the closed forms of `fistab.os_model` are
checked against.

`nbc_trace_character` is the character of S_n on the degree-k cohomology
as the trace of a class representative on the NBC basis.  Only monomials
whose flat (the set partition of the points that their edges connect) the
representative maps to itself can contribute: permuting points maps the
flat of a monomial to the flat of its image, and the quadratic relation
rewrites three edges on the same three points, so straightening keeps the
flat.  `nbc_trace` takes the basis to trace over, so the tests check the
restriction to stable flats against the whole basis.

`betti` is the dimension of the degree-k cohomology, e_k(1, ..., n-1),
the oracle of the Betti numbers that os-scan sums over the W_m.

`quotient_coinvariant_report` decides the coinvariant maps from the
definition of coinvariants as a quotient, by integer rank on the NBC basis.

`table_route_scan` is the `os-scan` report built the way it was before
the free-module route: every level decomposed against the character
table of S_n, the character polynomial fitted to the characters of the
window, and the coinvariant dimensions averaged off the characters.

The top degrees are the costly part of the trace (every class fixes the
one-block flat, with (n-1)! monomials); the full comparison with the
closed form, every class and every degree up to N points, runs as

    PYTHONPATH=src python tests/os_oracles.py N

(at N = 9 about two minutes and 2.7 GB of straightening cache), and the
coinvariant maps with k <= 4 and a <= 5 (n + 1 <= 11 for k <= 2, 10 for
k = 3, 9 for k = 4) are compared with `coinvariant_report`, and the
free-module route with the table route at every level n <= 14 for k <= 3
and n <= 11 for k = 4 (decompositions, Betti numbers, every invariant
dimension, and the polynomial of the window 1..n when it holds 2k + 1
levels), by

    PYTHONPATH=src python tests/os_oracles.py
"""

import copy
import itertools
import sys
from functools import lru_cache

from fistab.errors import DomainError
from fistab.fi_analysis import FISequence, detect_stability, fit_char_polynomial
from fistab.linalg import IntRowBasis
from fistab.os_model import (
    _free_invariant_dimension,
    action_columns,
    character,
    character_polynomial,
    coinvariant_report,
    decomposition,
    free_decompositions,
    invariant_dimension,
    nbc_basis,
)
from fistab.os_reference import _straighten
from fistab.partitions import Partition, partitions


def betti(n: int, k: int) -> int:
    """dim of the degree-k cohomology on n points: the degree-k character
    at the identity, e_k(1, 2, ..., n-1), the t^k coefficient of Lehrer's
    product there, prod_{j < n} (1 + j t), kept only up to degree k.  Past
    degree n - 1 it is zero (bar degree 0 on no points)."""
    if k < 0 or k > max(n - 1, 0):
        return 0
    e = [1] + [0] * k
    for j in range(1, n):
        for s in range(min(k, j), 0, -1):
            e[s] += j * e[s - 1]
    return e[k]


def class_representative(mu: Partition) -> tuple[int, ...]:
    """A permutation with cycle type mu, cycles on consecutive blocks of
    points: start -> start+1 -> ... -> start+part-1 -> start."""
    perm: list[int] = []
    start = 1
    for part in mu:
        perm.extend(range(start + 1, start + part))
        perm.append(start)
        start += part
    return tuple(perm)


def image(perm, mono) -> dict:
    """NBC expansion of the image of a monomial under a permutation."""
    mapped = tuple(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in mono)
    return dict(_straighten(mapped))


def nbc_trace(perm, monomials) -> int:
    """Sum of the diagonal coefficients of perm on the given NBC
    monomials."""
    return sum(image(perm, mono).get(mono, 0) for mono in monomials)


def stable_flats(perm) -> list[list[list[int]]]:
    """Set partitions of 1..n (lists of sorted blocks) that perm maps to
    themselves, built one point at a time: a labelling of the points is
    kept only while perm induces a well-defined map on its labels."""
    n = len(perm)
    closes_at = [[] for _ in range(n + 1)]  # pairs (j, perm j) complete at max(j, perm j)
    for j in range(1, n + 1):
        closes_at[max(j, perm[j - 1])].append(j)
    label = [0] * (n + 1)
    out = []

    def extend(point, nblocks, induced):
        if point > n:
            blocks = [[] for _ in range(nblocks)]
            for p in range(1, n + 1):
                blocks[label[p]].append(p)
            out.append(blocks)
            return
        for lab in range(nblocks + 1):
            label[point] = lab
            induced_here = dict(induced)
            if all(
                induced_here.setdefault(label[j], label[perm[j - 1]]) == label[perm[j - 1]]
                for j in closes_at[point]
            ):
                extend(point + 1, max(nblocks, lab + 1), induced_here)

    extend(1, 0, {})
    return out


def flat_monomials(blocks):
    """The NBC monomials whose flat is the given set partition: in each
    block, every point but the least picks a smaller point of its block."""
    choices = [
        [(a, b) for a in block[:i]]
        for block in blocks
        for i, b in enumerate(block)
        if i
    ]
    for edges in itertools.product(*choices):
        yield tuple(sorted(edges, key=lambda e: e[1]))


def nbc_trace_character(n: int, k_max: int | None = None) -> dict[Partition, list[int]]:
    """{mu: [chi_0(mu), ..., chi_(k_max)(mu)]} (k_max defaults to the top
    degree, max(n-1, 0)),
    traced on the NBC monomials of stable flats: a flat with b blocks
    holds the monomials of degree n - b."""
    k_max = max(n - 1, 0) if k_max is None else k_max
    table = {}
    for mu in partitions(n):
        perm = class_representative(mu)
        values = [0] * (k_max + 1)
        for blocks in stable_flats(perm):
            if n - len(blocks) <= k_max:
                values[n - len(blocks)] += nbc_trace(perm, flat_monomials(blocks))
        table[mu] = values
    return table


def full_nbc_trace(n: int, k: int, mu: Partition) -> int:
    """The trace of a class representative on the whole degree-k basis."""
    return nbc_trace(class_representative(mu), nbc_basis(n, k))


@lru_cache(maxsize=2)  # a scan over n needs levels n and n + 1
def coinvariant_relations(m: int, a: int, k: int) -> IntRowBasis:
    """Echelon basis of W_m, the span of (s - 1) e_j over the NBC monomials
    e_j of degree k on m points and the adjacent transpositions s of the
    points a+1..m.  They generate the group permuting those points, and
    (gh - 1) v = (g - 1) h v + (h - 1) v, so W_m is the span of every
    (g - 1) v and the coinvariants are the quotient V_m / W_m."""
    relations = []
    for t in range(a + 1, m):
        perm = list(range(1, m + 1))
        perm[t - 1], perm[t] = t + 1, t
        for j, col in enumerate(action_columns(perm, k)):
            if len(col) == 1 and min(col) < j:
                continue  # s e_j = +-e_i, so (s - 1) e_i gave this relation
            relation = dict(col)
            relation[j] = relation.get(j, 0) - 1
            relations.append(relation)
    # shortest first: most are e_j' -+ e_j and keep the echelon rows short
    relations.sort(key=len)
    span = IntRowBasis(betti(m, k))
    for relation in relations:
        span.insert(relation)
    return span


def quotient_coinvariant_report(n: int, a: int, k: int) -> tuple[bool, bool, int, int]:
    """(injective, surjective, d_src, d_dst) of the map from V_n / W_n to
    V_(n+1) / W_(n+1) that sends each NBC monomial to the same monomial one
    level up: d = betti - rank W, and the rank of the map is
    rank(W_(n+1) + image of V_n) - rank W_(n+1)."""
    d_src = betti(n, k) - coinvariant_relations(n, a, k).rank
    span = copy.deepcopy(coinvariant_relations(n + 1, a, k))
    relations = span.rank
    d_dst = betti(n + 1, k) - relations
    index = {mono: j for j, mono in enumerate(nbc_basis(n + 1, k))}
    for mono in nbc_basis(n, k):
        span.insert({index[mono]: 1})
    rank = span.rank - relations
    return rank == d_src, rank == d_dst, d_src, d_dst


def coinvariant_cases(n_max_of_k: dict[int, int], a_max: int):
    """(n, a, k) for each k of the table, a <= a_max and
    max(a, 1) <= n <= n_max_of_k[k]."""
    for k, n_max in n_max_of_k.items():
        for a in range(a_max + 1):
            for n in range(max(a, 1), n_max + 1):
                yield n, a, k


def table_route_scan(n_min: int, n_max: int, k: int, a_max: int = 3) -> dict:
    """The payload of `os-scan --n-min n_min --n-max n_max --k k --a-max
    a_max` from the character tables of every S_n of the window."""
    window = range(n_min, n_max + 1)
    decs = {n: decomposition(n, k) for n in window}
    payload = {
        "k": k,
        "window": [n_min, n_max],
        "betti": {str(n): character(n, k).dimension() for n in window},
        "decompositions": {str(n): decs[n].to_mapping() for n in window},
    }
    if n_max > n_min:
        payload["stability"] = detect_stability(FISequence(decs)).to_mapping()
        chars = FISequence({n: character(n, k) for n in window})
        try:
            payload["character_polynomial"] = fit_char_polynomial(chars, 2 * k).to_mapping()
        except DomainError as exc:
            payload["character_polynomial"] = {"error": str(exc)}
    coinv = {}
    for a in range(min(a_max, n_max - 1) + 1):
        rows = {}
        for n in range(max(n_min, a), n_max):
            d_src, d_dst = invariant_dimension(n, a, k), invariant_dimension(n + 1, a, k)
            rows[str(n)] = {
                "n": n, "a": a, "degree": k, "injective": True,
                "surjective": d_src == d_dst, "dims": [d_src, d_dst],
            }
        if rows:
            coinv[str(a)] = rows
    payload["coinvariants"] = coinv
    return payload


def free_route_mismatches(n: int, k: int) -> list[str]:
    """What the free-module route at level n gets wrong against the
    character table of S_n: the decomposition, the Betti number, the
    invariant dimension for some a, or the polynomial of the window 1..n
    when it holds 2k + 1 levels."""
    bad = []
    if free_decompositions(n, n, k)[n] != decomposition(n, k):
        bad.append("decomposition")
    if _free_invariant_dimension(n, n, k) != betti(n, k):
        bad.append("betti")
    bad += [
        f"invariants a={a}" for a in range(n + 1)
        if _free_invariant_dimension(n, a, k) != invariant_dimension(n, a, k)
    ]
    if n - 1 >= 2 * k:
        chars = FISequence({m: character(m, k) for m in range(1, n + 1)})
        if character_polynomial(1, n, k) != fit_char_polynomial(chars, 2 * k):
            bad.append("polynomial")
    return bad


def _check_free_modules() -> int:
    tops = {k: 14 if k <= 3 else max(11, 2 * k + 1) for k in range(7)}
    cases = [(n, k) for k, top in tops.items() for n in range(1, top + 1)]
    bad = [(n, k, what) for n, k in cases for what in free_route_mismatches(n, k)]
    print(f"{len(cases)} levels through the free modules, mismatches {bad}")
    return 1 if bad else 0


def _check_coinvariants() -> int:
    cases = list(coinvariant_cases({0: 10, 1: 10, 2: 10, 3: 9, 4: 8}, 5))
    bad = []
    for n, a, k in cases:
        r = coinvariant_report(n, a, k)
        if quotient_coinvariant_report(n, a, k) != (r.injective, r.surjective, *r.dims):
            bad.append((n, a, k))
    print(f"{len(cases)} coinvariant maps, mismatches {bad}")
    return 1 if bad else 0


def _check_characters(n_max: int) -> int:
    for n in range(n_max + 1):
        table = nbc_trace_character(n)
        bad = [
            (mu, k) for mu, values in table.items() for k, v in enumerate(values)
            if character(n, k).values[mu] != v
        ]
        print(f"n={n}: {len(table)} classes, degrees 0..{max(n - 1, 0)}, mismatches {bad}")
        if bad:
            return 1
    return 0


if __name__ == "__main__":
    if sys.argv[1:]:
        sys.exit(_check_characters(int(sys.argv[1])))
    sys.exit(_check_free_modules() | _check_coinvariants())
