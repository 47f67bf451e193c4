"""Induction, free modules, coinvariants, and graded tensor powers.

Two independent oracles anchor this file: induced characters are checked
against the textbook average over the full group (brute-force conjugation,
n <= 5), and the graded tensor-power character is checked against an
explicit basis-level action with Koszul signs computed from inversions.
That brute force is what froze the sign convention in the implementation.
"""

import itertools
import random
from fractions import Fraction
from math import comb, factorial

import pytest

from fistab.characters import (
    ClassFunction,
    IrrDecomposition,
    decompose,
    irreducible_character,
)
from fistab.errors import DomainError
from fistab.induction import (
    kunneth_decomposition,
    kunneth_power,
    m_module,
    m_regular,
    wreath_invariant_dim,
)
from fistab.named_characters import inner_product, sign_character, trivial_character
from fistab.partitions import horizontal_strip_extensions, pad, partitions
from fistab import induction
from fistab.wreath import _graded_symmetric_counts, _plan, _reach, wreath_invariant_series
from character_oracles import (
    coinvariants_as_sa,
    graded_symmetric_counts,
    induced_character,
    restriction_inner_product,
    wreath_twisted_dim,
)


def _cycle_type(perm):
    seen, lens = set(), []
    for start in perm:
        if start in seen:
            continue
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x = perm[x - 1]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def _brute_induced(f, g):
    """Induced character via (1/|H|) sum over x in G of the extended
    character at x sigma x^{-1}, H = S_a x S_b inside S_{a+b}."""
    a, b = f.n, g.n
    n = a + b
    elements = list(itertools.permutations(range(1, n + 1)))
    reps = {}
    for perm in elements:
        reps.setdefault(_cycle_type(perm), perm)

    def dot_chi(perm):
        if not all(1 <= perm[i] <= a for i in range(a)):
            return 0
        left = _cycle_type(perm[:a]) if a else ()
        right = _cycle_type(tuple(p - a for p in perm[a:])) if b else ()
        return f.values[left] * g.values[right]

    values = {}
    for ct, sigma in reps.items():
        total = Fraction(0)
        for x in elements:
            x_inv = [0] * n
            for i, img in enumerate(x):
                x_inv[img - 1] = i + 1
            conj = tuple(x[sigma[x_inv[i - 1] - 1] - 1] for i in range(1, n + 1))
            total += dot_chi(conj)
        values[ct] = total / (factorial(a) * factorial(b))
    return ClassFunction(n, values)


@pytest.mark.parametrize(
    "lam,mu",
    [
        ((1,), (1,)),
        ((2,), (1,)),
        ((1, 1), (2,)),
        ((2, 1), (1, 1)),
        ((2,), (2, 1)),
        ((1,), (2, 2)),
    ],
)
def test_induced_character_against_group_average(lam, mu):
    f = irreducible_character(lam)
    g = irreducible_character(mu)
    assert induced_character(f, g) == _brute_induced(f, g)


def test_induced_character_examples():
    two_points = induced_character(trivial_character(1), trivial_character(1))
    assert two_points.values == {(1, 1): 2, (2,): 0}
    subsets = induced_character(trivial_character(2), trivial_character(2))
    assert subsets.dimension() == 6
    unchanged = induced_character(sign_character(2), trivial_character(0))
    assert unchanged == sign_character(2)


def test_induced_character_is_symmetric():
    f = irreducible_character((2, 1))
    g = irreducible_character((1, 1))
    assert induced_character(f, g) == induced_character(g, f)


def test_horizontal_strip_extensions():
    assert horizontal_strip_extensions((1,), 2) == [(1, 1), (2,)]
    assert horizontal_strip_extensions((2,), 4) == [(2, 2), (3, 1), (4,)]
    assert horizontal_strip_extensions((2, 1), 3) == [(2, 1)]
    assert horizontal_strip_extensions((3,), 2) == []
    # against the interlacing condition, checked on every partition of n
    for n in range(0, 9):
        for lam in (lam for k in range(n + 1) for lam in partitions(k)):
            want = [mu for mu in partitions(n) if _interlaces(mu, lam)]
            assert horizontal_strip_extensions(lam, n) == want, (lam, n)
    # a column of 3000 boxes: no recursion through its rows
    column = horizontal_strip_extensions((1,) * 3000, 3001)
    assert column == [(1,) * 3001, (2,) + (1,) * 2999]


def _interlaces(mu, lam):
    # mu_1 >= lam_1 >= mu_2 >= lam_2 >= ..., both padded with zeros
    size = len(lam) + 1
    mu, lam = mu + (0,) * (size - len(mu)), lam + (0,) * (size - len(lam))
    return len(mu) == size and all(
        mu[i] >= lam[i] and (i + 1 == size or lam[i] >= mu[i + 1]) for i in range(size)
    )


def test_m_module_examples():
    assert m_module((), 5).to_mapping() == {"5": 1}
    assert m_module((1,), 3).to_mapping() == {"2+1": 1, "3": 1}
    assert m_module((2,), 4).to_mapping() == {"2+2": 1, "3+1": 1, "4": 1}
    assert m_module((2,), 1).to_mapping() == {}  # below the support


@pytest.mark.parametrize("lam", [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (2, 2)])
def test_m_module_agrees_with_induced_character(lam):
    for n in range(sum(lam), 9):
        chi = induced_character(
            irreducible_character(lam), trivial_character(n - sum(lam))
        )
        assert decompose(chi) == m_module(lam, n), (lam, n)


def test_m_regular_examples_and_dimension():
    assert m_regular(0, 4).to_mapping() == {"4": 1}
    assert m_regular(1, 3).to_mapping() == {"2+1": 1, "3": 1}
    assert m_regular(2, 2).to_mapping() == {"1+1": 1, "2": 1}
    for m in range(0, 5):
        for n in range(0, 9):
            expected = factorial(n) // factorial(n - m) if n >= m else 0
            assert m_regular(m, n).dimension() == expected


@pytest.mark.parametrize("n", [5, 6, 7])
def test_frobenius_reciprocity_spot_checks(n):
    for lam in [(1,), (2,), (2, 1)]:
        block = m_module(lam, n)
        triv = trivial_character(n - sum(lam))
        for mu in partitions(n):
            lhs = block.multiplicity(mu)
            rhs = restriction_inner_product(
                irreducible_character(mu), irreducible_character(lam), triv
            )
            assert lhs == rhs, (lam, mu, n)


def test_coinvariants_examples():
    top = coinvariants_as_sa(IrrDecomposition(6, {(6,): 1}), 0)
    assert top.to_mapping() == {"": 1}
    std = coinvariants_as_sa(IrrDecomposition(4, {(3, 1): 1}), 1)
    assert std.to_mapping() == {"1": 1}
    for n in range(4, 7):
        for a in range(0, n - 1):
            sign = coinvariants_as_sa(IrrDecomposition(n, {(1,) * n: 1}), a)
            assert not sign, (n, a)


def test_coinvariants_against_strip_oracle():
    # branching: the coinvariants of an irreducible are indexed by the
    # shapes it extends by a horizontal strip
    for n in range(1, 7):
        for lam in partitions(n):
            dec = IrrDecomposition(n, {lam: 1})
            for a in range(0, n + 1):
                expected = {
                    nu: 1
                    for nu in partitions(a)
                    if lam in horizontal_strip_extensions(nu, n)
                }
                assert coinvariants_as_sa(dec, a).mult == expected, (lam, a)


def test_coinvariants_stabilize_for_free_modules():
    # dimensions of the coinvariants of m_module(lam, .) freeze once
    # n >= |lam| + a
    for lam in [(1,), (2,), (2, 1)]:
        for a in range(0, 3):
            first = max(sum(lam), a)
            dims = [
                coinvariants_as_sa(m_module(lam, n), a).dimension()
                for n in range(first, 9)
            ]
            start = sum(lam) + a - first  # offset of n = |lam| + a
            assert len(set(dims[start:])) == 1, (lam, a, dims)


def test_coinvariants_domain_errors():
    with pytest.raises(DomainError):
        coinvariants_as_sa(IrrDecomposition(3, {(3,): 1}), 4)


# ---------------------------------------------------------------------------
# graded tensor powers


def _koszul_sign(perm, degrees):
    # sign of permuting graded letters: one factor (-1)**(d_i d_j) per
    # inversion of perm
    n = len(perm)
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if perm[i] > perm[j] and degrees[i] % 2 and degrees[j] % 2:
                sign = -sign
    return sign


def _brute_kunneth(graded_dims, n, i):
    """Trace of each class on total degree i of the n-fold tensor power,
    with an explicit basis and explicit Koszul signs."""
    letters = [(g, c) for g, d in enumerate(graded_dims) for c in range(d)]
    reps = {}
    for perm in itertools.permutations(range(1, n + 1)):
        reps.setdefault(_cycle_type(perm), perm)
    values = {}
    for ct, perm in reps.items():
        trace = 0
        for word in itertools.product(letters, repeat=n):
            if sum(letter[0] for letter in word) != i:
                continue
            image = tuple(word[perm[t] - 1] for t in range(n))
            if image != word:
                continue
            degrees = [letter[0] for letter in word]
            trace += _koszul_sign([perm[t] for t in range(n)], degrees)
        values[ct] = trace
    return ClassFunction(n, values)


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (1, 2, 1), (1, 0, 1)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_kunneth_power_matches_koszul_brute_force(dims, n):
    top = sum(g for g, d in enumerate(dims) for _ in range(d)) * n
    for i in range(0, min(top, 4) + 1):
        assert kunneth_power(dims, n, i) == _brute_kunneth(dims, n, i), (dims, n, i)


def test_kunneth_power_examples():
    assert kunneth_power((1,), 4, 0) == trivial_character(4)
    torus = kunneth_power((1, 1), 2, 1)
    assert torus.values == {(1, 1): 2, (2,): 0}
    assert decompose(torus).to_mapping() == {"1+1": 1, "2": 1}
    wedge = kunneth_power((1, 2), 3, 1)
    assert wedge.dimension() == 6
    assert decompose(wedge).to_mapping() == {"2+1": 2, "3": 2}


def test_kunneth_identity_counts_compositions():
    # at the identity the trace is plain dimension counting over
    # compositions of i into n graded parts
    dims = (1, 2, 1)
    for n in range(1, 7):
        for i in range(0, 5):
            count = 0
            for comp in itertools.product(range(len(dims)), repeat=n):
                if sum(comp) == i:
                    prod = 1
                    for g in comp:
                        prod *= dims[g]
                    count += prod
            assert kunneth_power(dims, n, i).dimension() == count


@pytest.mark.parametrize(
    "dims",
    [(1,), (1, 1), (1, 2), (1, 0, 1), (1, 0, 3), (1, 1, 1), (1, 3, 0, 2),
     (1, 0, 0, 1), (1, 2, 1, 2, 1), (1, 1, 0, 0, 2), (1, 100000), (1, 0, 100000)],
)
def test_kunneth_decomposition_matches_decomposed_character(dims):
    # free modules induced from S_m by Pieri against the S_n character
    # table, including i >= n, zero entries, odd and even degrees
    for n in range(0, 10):
        for i in range(0, 7):
            oracle = decompose(kunneth_power(dims, n, i))
            assert kunneth_decomposition(dims, n, i) == oracle, (dims, n, i)


def test_kunneth_decomposition_traces_only_the_generator_sizes(monkeypatch):
    # W_m is zero unless m positive degrees with a class sum to i, so the
    # traces of V_+^(x)m are taken for the m of _generator_sizes alone, and
    # every W_m outside them is zero
    traced = []
    class_traces = induction._class_traces
    monkeypatch.setattr(induction, "_class_traces",
                        lambda dims, m, i: traced.append(m) or class_traces(dims, m, i))
    gap = (1, *[0] * 20, 1)
    for dims in ((1, 2), (1, 1, 1), (1, 0, 3, 1), (1, 0, 0, 2), (1, 3, 0, 0, 1), gap):
        for n in range(9):
            for i in range(25):
                sizes = induction._generator_sizes(dims, n, i)
                traced.clear()
                kunneth_decomposition(dims, n, i)
                assert traced == list(sizes), (dims, n, i)
                positive = (0, *dims[1:])
                for m in set(range(min(n, i) + 1)) - set(sizes):
                    assert class_traces(positive, m, i).dimension() == 0, (dims, m, i)
    assert list(induction._generator_sizes(gap, 21, 21)) == [1]
    assert list(induction._generator_sizes((1, 2), 5, 0)) == [0]


def test_kunneth_rejects_disconnected_input():
    for f in (kunneth_power, kunneth_decomposition):
        for dims, n, i in (
            ((2, 1), 3, 1), ((), 3, 1), ((1, -1), 3, 1), ((1,), -1, 0), ((1,), 2, -1),
        ):
            with pytest.raises(DomainError):
                f(dims, n, i)


def test_wreath_invariant_examples():
    for dims in [(1, 1), (1, 2), (1, 2, 1)]:
        assert wreath_invariant_dim(dims, 5, 0) == 1
    assert wreath_invariant_dim((1, 2), 3, 1) == 2
    for n in range(1, 8):
        assert wreath_invariant_dim((1, 1), n, 1) == 1


def test_wreath_invariant_constant_in_stable_range():
    for dims in [(1, 1), (1, 2), (1, 2, 1)]:
        for i in range(0, 3):
            values = {n: wreath_invariant_dim(dims, n, i) for n in range(2 * i, 9)}
            assert len(set(values.values())) == 1, (dims, i, values)


@pytest.mark.parametrize("dims", [
    (1,), (1, 1), (1, 2), (1, 0, 1), (1, 3, 2), (1, 0, 3, 1),
    (1, 2, 0, 0), (1, 0, 0, 2), (1, 1, 1, 1, 1), (1, 4, 0, 1, 0),
])
def test_wreath_series_matches_class_sum_average(dims):
    # the graded-symmetric power series against the Kunneth character
    # averaged over the p(n) classes, for i <= 4 and n <= 12 and graded
    # dimensions with zero gaps, odd and even multiplicities above 1 and
    # trailing zeros; the free-module route of wreath_twisted_dim agrees too
    for i in range(5):
        series = wreath_invariant_series(dims, 12, i)
        assert len(series) == 13
        for n, value in enumerate(series):
            class_sum = inner_product(kunneth_power(dims, n, i), trivial_character(n))
            assert value == class_sum, (dims, n, i)
            assert wreath_twisted_dim(dims, (), n, i) == value
            assert wreath_invariant_dim(dims, n, i) == value


def _monomial_counts(dims, n, i_max):
    """Basis monomials of the n-th graded-symmetric power by total degree:
    multisets of n classes in which no odd-degree class repeats."""
    letters = [(g, c) for g, d in enumerate(dims) for c in range(d)]
    counts = [0] * (i_max + 1)
    for word in itertools.combinations_with_replacement(letters, n):
        odd = [letter for letter in word if letter[0] % 2]
        degree = sum(letter[0] for letter in word)
        if len(set(odd)) == len(odd) and degree <= i_max:
            counts[degree] += 1
    return counts


@pytest.mark.parametrize("dims", [(1, 1), (1, 2), (1, 0, 2), (1, 1, 1), (1, 0, 1, 1)])
def test_wreath_series_counts_graded_symmetric_monomials(dims):
    series = {i: wreath_invariant_series(dims, 60, i) for i in range(5)}
    for n in range(61):
        counts = _monomial_counts(dims, n, 4)
        assert [series[i][n] for i in range(5)] == counts, (dims, n)


def _fold_one_class_at_a_time(dims, n_max, i):
    # one factor (1 + x t^g) per odd class, 1/(1 - x t^g) per even class
    c = [[0] * (i + 1) for _ in range(n_max + 1)]
    c[0][0] = 1
    for g, d in enumerate(dims):
        for _ in range(d):
            sizes = range(n_max, 0, -1) if g % 2 else range(1, n_max + 1)
            for s in sizes:
                for t in range(g, i + 1):
                    c[s][t] += c[s - 1][t - g]
    return [row[i] for row in c]


def test_wreath_series_binomial_fold_at_large_multiplicity():
    dims = (1, 50, 0, 7)
    for i in range(7):
        assert wreath_invariant_series(dims, 20, i) == _fold_one_class_at_a_time(dims, 20, i)
    # a million classes: exterior and symmetric squares and cubes
    big = 10**6
    assert wreath_invariant_series((1, big), 5, 3) == [0, 0, 0] + [comb(big, 3)] * 3
    assert wreath_invariant_series((1, 0, big), 3, 4) == [0, 0, comb(big + 1, 2), comb(big + 1, 2)]


def test_wreath_counts_past_every_product_degree_agree_with_the_full_table():
    # when no product of at most min(n, i) classes reaches degree i, the
    # fold builds no table and the counts are zeros: random graded
    # dimensions of up to 6 positive degrees, 0-7 classes each, and
    # odd-heavy vectors, whose products stop at few classes of each odd
    # degree however large n and i are
    rng = random.Random(41)
    cases = [
        ((1, *(rng.choice((0, 0, *range(8))) for _ in range(rng.randint(0, 6)))),
         rng.randint(0, 12), rng.randint(0, 30))
        for _ in range(3000)
    ]
    cases += [
        (dims, n, i)
        for dims in ((1, 1), (1, 3), (1, 0, 0, 5))
        for n in range(13)
        for i in range(31)
    ]
    skipped = 0
    for dims, n, i in cases:
        oracle = graded_symmetric_counts(dims, n, i)
        assert _graded_symmetric_counts(dims, n, i) == oracle, (dims, n, i)
        s_max = min(n, i)
        skipped += _reach(_plan(dims, s_max, i), s_max) < i
    assert 1000 < skipped < len(cases) - 1000, skipped


def test_wreath_reach_is_the_highest_degree_of_a_product():
    # the greedy reach of a plan against the maximum over every multiset of
    # at most s_max classes with at most `most` of each degree
    rng = random.Random(42)
    for _ in range(3000):
        dims = (1, *(rng.choice((0, 0, *range(5))) for _ in range(rng.randint(0, 5))))
        s_max, i = rng.randint(0, 8), rng.randint(0, 20)
        plan = _plan(dims, s_max, i)
        best = max(
            (sum(g * j for (g, _, _), j in zip(plan, counts))
             for counts in itertools.product(*(range(most + 1) for _, _, most in plan))
             if sum(counts) <= s_max),
            default=0,
        )
        assert _reach(plan, s_max) == best, (dims, s_max, i)
        for g, d, most in plan:
            assert most <= (d if g % 2 else s_max) and g * most <= i, (dims, s_max, i)


def test_wreath_series_domain_errors():
    # the graded dimensions are checked before n and i, with one set of
    # messages
    for fn in (wreath_invariant_series, wreath_invariant_dim, kunneth_power, kunneth_decomposition):
        with pytest.raises(DomainError, match="must start with 1"):
            fn((2, 1), -1, 1)
        with pytest.raises(DomainError, match="must be nonnegative: "):
            fn((1, -1), 3, 1)
        for n, i in ((-1, 1), (3, -1)):
            with pytest.raises(DomainError, match="^n and i must be nonnegative$"):
                fn((1, 2), n, i)


def test_wreath_twisted_multiplicities():
    # the empty shape recovers the invariant dimension
    for n in range(1, 7):
        assert wreath_twisted_dim((1, 2), (), n, 1) == wreath_invariant_dim((1, 2), n, 1)
    # twisted multiplicities agree with a full decomposition of the class
    # sums; a shape too large to pad to n is refused
    for dims in [(1, 2), (1, 1, 1), (1, 0, 3), (1, 2, 1, 1), (1, 3, 2)]:
        for n in range(8):
            for i in range(6):
                dec = decompose(kunneth_power(dims, n, i))
                for lam in [(), (1,), (2,), (1, 1), (2, 1)]:
                    if n < sum(lam) + (lam[0] if lam else 0):
                        with pytest.raises(DomainError, match="cannot pad"):
                            wreath_twisted_dim(dims, lam, n, i)
                        continue
                    expected = dec.multiplicity(pad(lam, n))
                    assert wreath_twisted_dim(dims, lam, n, i) == expected, (dims, lam, n, i)
    # the degree-one piece of a wedge of two circles is two copies of the
    # permutation action, so the standard-shape multiplicity is 2 stably
    for n in range(2, 8):
        assert wreath_twisted_dim((1, 2), (1,), n, 1) == 2
