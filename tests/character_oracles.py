"""Reference implementations the character-table core is checked against.

`mn` is the recursive form of the Murnaghan-Nakayama rule (strip a rim
hook for the first cycle, recurse on the rest), written independently of
the iterative form in `fistab.characters`; `restriction_inner_product` is
the direct formula for inner products over a Young subgroup S_a x S_b.
"""

from fractions import Fraction
from functools import lru_cache

from fistab.errors import DomainError
from fistab.partitions import Partition, centralizer_order, partitions


def _beta_set(lam: Partition) -> tuple[int, ...]:
    # First-column hook lengths: strictly decreasing, one per row.
    m = len(lam)
    return tuple(lam[i] + (m - 1 - i) for i in range(m))


def _from_beta_set(beta) -> Partition:
    beta = sorted(beta, reverse=True)
    m = len(beta)
    parts = [beta[i] - (m - 1 - i) for i in range(m)]
    return tuple(p for p in parts if p > 0)


@lru_cache(maxsize=None)
def rim_hook_removals(lam: Partition, length: int) -> tuple[tuple[int, Partition], ...]:
    """All ways to remove a rim hook of the given length from lam.

    Returns pairs (sign, remaining shape) where sign = (-1)**(leg length).
    In beta-set terms a rim hook removal replaces a first-column hook
    length b by b - length, provided the result is nonnegative and not
    already present; the leg length counts the beta elements jumped over.
    """
    beta = _beta_set(lam)
    present = set(beta)
    out = []
    for idx, b in enumerate(beta):
        target = b - length
        if target < 0 or target in present:
            continue
        leg = sum(1 for c in beta if target < c < b)
        new_beta = beta[:idx] + (target,) + beta[idx + 1 :]
        out.append(((-1) ** leg, _from_beta_set(new_beta)))
    return tuple(out)


@lru_cache(maxsize=None)
def mn(lam: Partition, cycles: tuple[int, ...]) -> int:
    """chi_lam at the class with the given cycles, by recursion on cycles."""
    if not cycles:
        return 1
    length, rest = cycles[0], cycles[1:]
    total = 0
    for sign, smaller in rim_hook_removals(lam, length):
        total += sign * mn(smaller, rest)
    return total


def restriction_inner_product(f, g, h) -> Fraction:
    """Inner product of Res_{S_a x S_b} f with g (x) h, for |f| = |g|+|h|.

    Classes of the product group are pairs of cycle types; the restricted
    value at (mu1, mu2) is f evaluated at the merged cycle type.
    """
    a, b = g.n, h.n
    if f.n != a + b:
        raise DomainError("sizes must satisfy f.n == g.n + h.n")
    total = Fraction(0)
    for mu1 in partitions(a):
        for mu2 in partitions(b):
            merged = tuple(sorted(mu1 + mu2, reverse=True))
            weight = Fraction(1, centralizer_order(mu1) * centralizer_order(mu2))
            total += weight * Fraction(f.values[merged]) * g.values[mu1] * h.values[mu2]
    return total
