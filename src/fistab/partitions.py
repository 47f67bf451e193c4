"""Integer partitions, cycle types, and conjugacy-class data for S_n.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Cycle types of conjugacy
classes reuse the same representation, with cycle-count statistics
computed on demand.  The reader of a partition's text, parse_partition,
lives here too (fistab.exact reads exact numbers), so that the CLI reads
its flags without the character layer.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from math import factorial

from .errors import DomainError

Partition = tuple


def check_partition(parts) -> Partition:
    """Validate ``parts`` as a partition and return it as a tuple."""
    p = tuple(int(x) for x in parts)
    if any(x <= 0 for x in p):
        raise DomainError(f"partition parts must be positive: {p!r}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise DomainError(f"partition parts must be weakly decreasing: {p!r}")
    return p


def parse_partition(text: str) -> Partition:
    """Parse a '3+2+1' style partition string, in any order; '' and '()'
    both denote the empty partition, and empty parts ('3++1') are skipped.
    The parts are read, sorted and checked in one pass, as check_partition
    would check them."""
    try:
        parts = sorted(map(int, text.split("+")), reverse=True)
    except ValueError:
        # a blank part or a bad one
        if text.strip() in ("", "()"):
            return ()
        try:
            parts = sorted((int(s) for s in text.split("+") if s.strip()), reverse=True)
        except ValueError as exc:
            raise DomainError(f"bad partition string {text!r}") from exc
    p = tuple(parts)
    if p and p[-1] <= 0:
        raise DomainError(f"partition parts must be positive: {p!r}")
    return p


def format_partition(p: Partition) -> str:
    return "+".join(map(str, p))


def _strip_extensions(lam: Partition, n: int) -> list[Partition]:
    """Partitions mu of n with mu containing lam and mu/lam a horizontal
    strip (at most one added box per column), i.e. the interlacing
    condition mu_1 >= lam_1 >= mu_2 >= lam_2 >= ...; lam is a partition
    tuple already, such as a constituent of a decomposition."""
    boxes = n - sum(lam)
    if boxes < 0:
        return []
    # Row i >= 1 (the last one a new row, lam_l = 0) takes a length v with
    # lam_{i-1} >= v >= lam_i, a choice only below a longer row; the first
    # row takes the boxes left over, so every partial choice extends to a
    # strip.  Loops, not a recursion, so thousands of rows are fine.
    rows = list(lam) + [0]
    corners = [i for i in range(1, len(rows)) if rows[i - 1] > rows[i]]
    partial = [((), boxes)]
    for i in corners:
        lo = rows[i]
        partial = [
            (grown + (v,), left - (v - lo))
            for grown, left in partial
            for v in range(lo, min(rows[i - 1], lo + left) + 1)
        ]
    out = []
    for grown, left in partial:
        mu = [rows[0] + left, *rows[1:]]
        for i, v in zip(corners, grown):
            mu[i] = v
        out.append(tuple(p for p in mu if p))
    return sorted(out)


@lru_cache(maxsize=None)
def partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in lexicographic order.

    The order is fixed once and for all so that every table keyed by
    conjugacy classes is emitted deterministically.
    """
    if n < 0:
        raise DomainError(f"cannot partition a negative integer: {n}")

    def gen(remaining, bound):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, bound), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return tuple(sorted(gen(n, n)))


# p(0), p(1), ... as far as any call has needed them: a tuple, replaced
# whole when it grows, so a reader never sees it half extended
_COUNTS = (1,)


def partition_counts(n: int, cap: int | None = None) -> list[int]:
    """[p(0), p(1), ..., p(n)], the numbers of partitions (the numbers of
    conjugacy classes of S_m), by Euler's pentagonal number recurrence

        p(m) = sum_{j >= 1} (-1)^(j+1) (p(m - j(3j-1)/2) + p(m - j(3j+1)/2)).

    With a cap, the list ends at the first m <= n with p(m) > cap; p is
    nondecreasing, so every later count is above the cap too.  p(0) is
    always listed and never compared with the cap.  The counts are
    computed once per process and extended as far as a call needs them,
    which with a cap is no further than the first count past it.
    """
    global _COUNTS
    if n < 0:
        return []
    p = _COUNTS
    # the first m >= 1 with p(m) > cap among the counts known so far
    stop = n if cap is None else min(n, bisect_right(p, cap, 1))
    if stop >= len(p):
        p = list(p)
        for m in range(len(p), n + 1):
            total, j = 0, 1
            while j * (3 * j - 1) // 2 <= m:
                term = p[m - j * (3 * j - 1) // 2]
                if j * (3 * j + 1) // 2 <= m:
                    term += p[m - j * (3 * j + 1) // 2]
                total += term if j % 2 else -term
                j += 1
            p.append(total)
            if cap is not None and total > cap:
                break
        stop = len(p) - 1
        _COUNTS = p = tuple(p)
    return list(p[: stop + 1])


def partition_count(n: int, cap: int | None = None) -> int:
    """p(n), or with a cap the first p(m) > cap for m <= n (then p(n) >
    cap too); 0 for negative n."""
    return partition_counts(n, cap)[-1] if n >= 0 else 0


def cycle_counts(mu: Partition) -> dict[int, int]:
    """Map cycle length l to the number of l-cycles in the class mu."""
    counts: dict[int, int] = {}
    for part in mu:
        counts[part] = counts.get(part, 0) + 1
    return counts


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation with cycle type mu."""
    z = 1
    for length, count in cycle_counts(mu).items():
        z *= length**count * factorial(count)
    return z


def class_size(mu: Partition) -> int:
    """Number of permutations in S_n with cycle type mu (n = |mu|)."""
    mu = check_partition(mu)
    return factorial(sum(mu)) // centralizer_order(mu)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for part in lam if part > i) for i in range(lam[0]))


@lru_cache(maxsize=None)
def dimension(lam: Partition) -> int:
    """Dimension of the irreducible S_n-representation indexed by lam,
    via the hook length formula."""
    lam = check_partition(lam)
    conj = conjugate(lam)
    num = factorial(sum(lam))
    for i, row in enumerate(lam):
        for j in range(row):
            num //= row - j + conj[j] - i - 1
    return num

