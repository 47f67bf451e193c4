import itertools
import random
from math import factorial

import pytest
from hypothesis import given, strategies as st

from fistab import partitions as partitions_module
from fistab.commands import WORK_BUDGET
from fistab.errors import DomainError
from fistab.partitions import (
    centralizer_order,
    check_partition,
    class_size,
    conjugate,
    cycle_counts,
    dimension,
    format_partition,
    parse_partition,
    partition_count,
    partition_counts,
    partitions,
)
from fi_oracles import binomial


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = []
    bound = n
    while n > 0:
        p = draw(st.integers(min_value=1, max_value=bound))
        parts.append(p)
        bound = min(p, n - p) if n - p else 1
        n -= p
    return tuple(sorted(parts, reverse=True))


# p(0)..p(12)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_partition_counts():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert len(partitions(n)) == expected


def test_partition_count_by_pentagonal_recurrence():
    for n in range(0, 26):
        assert partition_count(n) == len(partitions(n))
    assert partition_count(-1) == 0
    assert partition_count(100) == 190569292
    assert (partition_count(32), partition_count(33)) == (8349, 10143)
    # a cap stops at the first count above it
    assert partition_count(10**12, cap=10**4) == 10143
    assert partition_count(32, cap=10**4) == 8349
    assert partition_counts(25) == [len(partitions(n)) for n in range(26)]
    assert partition_counts(-1) == []
    assert partition_counts(10**12, cap=10) == [1, 1, 2, 3, 5, 7, 11]


def _recurrence(n, cap=None):
    # partition_counts as it was before the counts were kept: the whole
    # recurrence on every call
    p = [1] if n >= 0 else []
    for m in range(1, n + 1):
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
    return p


def test_partition_counts_are_kept_and_agree_with_the_recurrence(monkeypatch):
    # from a process that has counted nothing yet, in shuffled order, so
    # the kept counts are read, extended and stopped at caps in any order
    monkeypatch.setattr(partitions_module, "_COUNTS", (1,))
    caps = (None, 0, 1, 2, 10**9, WORK_BUDGET)
    calls = [(n, cap) for n in range(301) for cap in caps]
    random.Random(29).shuffle(calls)
    for n, cap in calls[: len(calls) // 2]:
        assert partition_counts(n, cap) == _recurrence(n, cap), (n, cap)
    # p(0) is always listed and never compared with the cap
    assert partition_counts(5, cap=0) == [1, 1] and partition_counts(0, cap=0) == [1]
    assert partition_counts(-1) == [] and partition_counts(-4, cap=3) == []
    huge = partition_counts(10**9, cap=WORK_BUDGET)
    assert huge == _recurrence(10**9, cap=WORK_BUDGET)
    assert huge[-2] <= WORK_BUDGET < huge[-1]
    for n, cap in calls[len(calls) // 2 :]:
        assert partition_counts(n, cap) == _recurrence(n, cap), (n, cap)
    # each call gets a list of its own
    partition_counts(5).append(0)
    assert partition_counts(5) == [1, 1, 2, 3, 5, 7]


def test_partitions_are_sorted_lexicographically():
    for n in range(9):
        ps = partitions(n)
        assert list(ps) == sorted(ps)
        assert all(p == check_partition(p) and sum(p) == n for p in ps)


def test_check_partition_rejects_bad_input():
    with pytest.raises(DomainError):
        check_partition((1, 2))
    with pytest.raises(DomainError):
        check_partition((2, 0))
    with pytest.raises(DomainError):
        check_partition((-1,))


def test_partition_string_round_trip():
    assert parse_partition("3+2+1") == (3, 2, 1)
    assert parse_partition("2+3+1") == (3, 2, 1)
    assert parse_partition("") == ()
    assert parse_partition("()") == ()
    assert format_partition((4, 1)) == "4+1"
    assert format_partition(()) == ""


def _brute_cycle_type(perm):
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


@pytest.mark.parametrize("n", range(1, 6))
def test_class_size_against_brute_force(n):
    # count permutations of each cycle type directly
    counts = {}
    for perm in itertools.permutations(range(1, n + 1)):
        mu = _brute_cycle_type(perm)
        counts[mu] = counts.get(mu, 0) + 1
    assert set(counts) == set(partitions(n))
    for mu, count in counts.items():
        assert class_size(mu) == count


def test_class_size_examples():
    assert class_size((1, 1, 1, 1, 1)) == 1
    assert class_size((2, 1, 1)) == 6
    assert class_size((3, 2)) == 20


@pytest.mark.parametrize("n", range(0, 11))
def test_class_sizes_sum_to_group_order(n):
    assert sum(class_size(mu) for mu in partitions(n)) == factorial(n)


def test_cycle_counts_and_centralizer():
    assert cycle_counts((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
    assert centralizer_order((2, 1, 1)) == 2 * 2
    assert class_size((2, 1, 1)) * centralizer_order((2, 1, 1)) == factorial(4)


def _standard_tableaux(shape):
    # brute-force count of standard Young tableaux, the dimension oracle
    if not shape:
        return 1
    total = 0
    for row in range(len(shape)):
        if shape[row] == 0:
            continue
        if row + 1 < len(shape) and shape[row + 1] == shape[row]:
            continue
        smaller = tuple(
            p - (1 if r == row else 0) for r, p in enumerate(shape) if p - (1 if r == row else 0) > 0
        )
        total += _standard_tableaux(smaller)
    return total


def test_dimension_examples():
    assert dimension((5,)) == 1
    assert dimension((1, 1, 1, 1)) == 1
    assert dimension((2, 1)) == 2
    assert dimension((2, 2)) == 2
    assert dimension((3, 2)) == 5


@pytest.mark.parametrize("n", range(1, 8))
def test_dimension_counts_standard_tableaux(n):
    for lam in partitions(n):
        assert dimension(lam) == _standard_tableaux(lam)


@pytest.mark.parametrize("n", range(1, 9))
def test_sum_of_squared_dimensions(n):
    assert sum(dimension(lam) ** 2 for lam in partitions(n)) == factorial(n)


@given(partition_strategy())
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


@given(partition_strategy())
def test_conjugate_preserves_dimension(lam):
    assert dimension(conjugate(lam)) == dimension(lam)


def test_binomial_on_negative_arguments():
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0
    # agrees with the falling-factorial definition everywhere
    for n in range(-6, 7):
        for k in range(0, 6):
            ff = 1
            for j in range(k):
                ff *= n - j
            assert binomial(n, k) * factorial(k) == ff
