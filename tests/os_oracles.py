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

`brute_orbit_sum` sums g v over every g of the group permuting points
first..n, one permutation at a time.

The top degrees are the costly part of the trace (every class fixes the
one-block flat, with (n-1)! monomials); the full comparison with the
closed form, every class and every degree up to N points, runs as

    PYTHONPATH=src python tests/os_oracles.py N

(at N = 9 about two minutes and 2.7 GB of straightening cache).
"""

import itertools
import sys

from fistab.os_model import _straighten, character, nbc_basis
from fistab.partitions import Partition, partitions


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


def brute_orbit_sum(n: int, k: int, first: int, vec: dict[int, int]) -> dict[int, int]:
    """sum over g permuting points first..n of g applied to vec."""
    basis = nbc_basis(n, k)
    index = {mono: j for j, mono in enumerate(basis)}
    total: dict[int, int] = {}
    fixed = tuple(range(1, first))
    for moved in itertools.permutations(range(first, n + 1)):
        perm = fixed + moved
        for j, c in vec.items():
            for mono, x in image(perm, basis[j]).items():
                total[index[mono]] = total.get(index[mono], 0) + c * x
    return {i: x for i, x in total.items() if x}


if __name__ == "__main__":
    for n in range(int(sys.argv[1]) + 1):
        table = nbc_trace_character(n)
        bad = [
            (mu, k) for mu, values in table.items() for k, v in enumerate(values)
            if character(n, k).values[mu] != v
        ]
        print(f"n={n}: {len(table)} classes, degrees 0..{max(n - 1, 0)}, mismatches {bad}")
        if bad:
            sys.exit(1)
