"""Reference implementations the character-table core is checked against,
and the named characters and partition helpers that no subcommand needs.

`mn` is the recursive form of the Murnaghan-Nakayama rule (strip a rim
hook for the first cycle, recurse on the rest), written independently of
the iterative form in `fistab.characters`, whose downward walk
`mn_character` calls on one value; `restriction_inner_product` is
the direct formula for inner products over a Young subgroup S_a x S_b;
`restrict_and_average` is the whole S_b-average of a class function, a
class function of S_a: the oracle of `fistab.characters.fixed_dimension`,
its value at the identity, and, decomposed by `coinvariants_as_sa`, the
coinvariants that the branching rule checks; `induced_character` is the
induction that the Pieri sums of `fistab.characters.free_module_sum` are
checked against;
`_mn_column` is the character table's column at one class, walked from
the empty shape for that class alone, and `table_columns` and
`table_rows` are the whole table so built, read by columns as
`fistab.characters.character_table` keeps it and by rows;
`character_of` sums the rows of a decomposition;
`horizontal_strip_extensions` and `pad` take any tuple of parts, checked;
`wreath_twisted_dim`, read off the free-module decomposition, is the
oracle of the wreath-product series; `graded_symmetric_counts`, the
series' fold over a full table of degrees 0..i, is the oracle of the
fold in `fistab.wreath`, which builds no table when no product of
classes reaches degree i.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from fistab.characters import (
    ClassFunction,
    _beads,
    _mn_value,
    _rim_hooks,
    class_sizes,
    decompose,
    exact_quotient,
    irreducible_character,
)
from fistab.errors import DomainError
from fistab.induction import kunneth_decomposition
from fistab.partitions import (
    Partition,
    _strip_extensions,
    centralizer_order,
    check_partition,
    partitions,
)


def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible indexed by lam at the class mu."""
    return _mn_value(check_partition(lam), check_partition(mu))


def trivial_character(n: int) -> ClassFunction:
    return irreducible_character((n,) if n else ())


def sign_character(n: int) -> ClassFunction:
    return irreducible_character((1,) * n if n else ())


def regular_character(n: int) -> ClassFunction:
    """Character of the regular representation: n! at the identity."""
    values = dict.fromkeys(partitions(n), 0)
    values[(1,) * n if n else ()] = factorial(n)
    return ClassFunction(n, values)


def _mn_column(mu: Partition) -> dict[int, int]:
    """chi_lam(mu) for every shape lam of |mu|, as {_beads(lam, |mu|):
    value}, the character table's column at mu: the rim hooks are added
    upwards from the empty shape, last cycle first."""
    count = sum(mu)
    return _rim_hooks({(1 << count) - 1: 1}, reversed(mu), grow=True)


def table_columns(n: int) -> list[dict[int, int]]:
    """The character table of S_n as one {shape index: nonzero value}
    per class, both in partitions(n) order, each class walked alone."""
    index = {_beads(lam, n): i for i, lam in enumerate(partitions(n))}
    return [
        {index[mask]: value for mask, value in _mn_column(mu).items()} for mu in partitions(n)
    ]


@lru_cache(maxsize=None)
def table_rows(n: int) -> dict[Partition, tuple[int, ...]]:
    """The character table of S_n by rows: each irreducible's values on
    the classes in partitions(n) order, the transpose of table_columns."""
    columns = table_columns(n)
    return {
        lam: tuple(column.get(i, 0) for column in columns)
        for i, lam in enumerate(partitions(n))
    }


def character_of(V) -> ClassFunction:
    """The character of the decomposition V: the character table's rows
    of its constituents, each as often as its multiplicity."""
    table = table_rows(V.n)
    values = [0] * len(partitions(V.n))
    for lam, m in V.mult.items():
        values = [v + m * x for v, x in zip(values, table[lam])]
    return ClassFunction(V.n, dict(zip(partitions(V.n), values)))


def pad(lam: Partition, n: int) -> Partition:
    """The partition (n - |lam|, lam_1, ..., lam_l) of n."""
    lam = check_partition(lam)
    size = sum(lam)
    first = lam[0] if lam else 0
    if n < size + first:
        raise DomainError(f"cannot pad {lam!r} to {n}: need n >= {size + first}")
    if n == 0:
        return ()
    return (n - size,) + lam


def horizontal_strip_extensions(lam: Partition, n: int) -> list[Partition]:
    """Partitions mu of n with mu containing lam and mu/lam a horizontal
    strip (at most one added box per column), i.e. the interlacing
    condition mu_1 >= lam_1 >= mu_2 >= lam_2 >= ..."""
    return _strip_extensions(check_partition(lam), n)


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


def restrict_and_average(f: ClassFunction, a: int) -> ClassFunction:
    """Restrict f from S_n to S_a x S_b, the second factor permuting the
    last b = n - a points, and average over S_b.

    For a character this is the character of the S_b-invariants as an
    S_a-representation; a = 0 gives the S_n-invariants and reads only the
    class sizes of S_n.
    """
    n = f.n
    if not 0 <= a <= n:
        raise DomainError(f"need 0 <= a <= {n}, got a={a}")
    b = n - a
    order = factorial(b)
    values = {}
    for nu in partitions(a):
        total = sum(
            size * f.values[tuple(sorted(nu + mu2, reverse=True))]
            for size, mu2 in zip(class_sizes(b), partitions(b))
        )
        values[nu] = exact_quotient(total, order)
    return ClassFunction._unchecked(a, values)


def induced_character(f, g) -> ClassFunction:
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
    return ClassFunction(f.n + g.n, values)


def coinvariants_as_sa(V, a: int):
    """The S_a-module of coinvariants of the decomposition V under the
    subgroup permuting the last n-a points.

    Over the rationals coinvariants agree with invariants, so the
    character is the average of V's character over that subgroup; the
    result is decomposed as an S_a-representation.
    """
    return decompose(restrict_and_average(character_of(V), a))


def wreath_twisted_dim(graded_dims, lam: Partition, n: int, i: int) -> int:
    """Multiplicity of the irreducible with padded shape lam[n] in total
    degree i of the n-fold graded tensor power; by transfer this is the
    dimension of the wreath-product cohomology with coefficients twisted
    by that irreducible, read off kunneth_decomposition.  lam = ()
    recovers wreath_invariant_dim through the free modules rather than the
    series."""
    mu = pad(lam, n)  # first: a shape too large for n is refused before the dimensions
    return kunneth_decomposition(graded_dims, n, i).mult.get(mu, 0)


def graded_symmetric_counts(dims, n: int, i: int) -> list[int]:
    """Entry s: the dimension of the span of the products of s classes of
    positive degree in total degree i, for s <= min(n, i), folded one
    degree g at a time into a table c[s][t] of every degree t <= i: j of
    the d_g classes add x^j t^(g j) in C(d_g, j) ways when g is odd and
    in C(d_g + j - 1, j) ways when g is even."""
    s_max = min(n, i)
    c = [[0] * (i + 1) for _ in range(s_max + 1)]
    c[0][0] = 1
    for g in range(1, min(len(dims) - 1, i) + 1):
        d = dims[g]
        if not d:
            continue
        top = min(s_max, i // g, d if g % 2 else s_max)
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
