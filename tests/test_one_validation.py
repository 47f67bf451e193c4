"""Partitions are checked once, where they enter the package.

The public constructors, the table readers of `fistab.tables`,
`parse_partition` and the public functions check what they are given.
What the package builds itself (tables keyed by `partitions(n)`,
character-table rows, `decompose` results, Pieri sums) goes through
`ClassFunction._unchecked` and `IrrDecomposition._unchecked` and never
reaches `check_partition` again.  The count covers every module
namespace that binds it.
"""

import sys
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

from fistab import characters, fi_analysis, induction, os_model
from fistab import partitions as PARTITIONS
from fistab.characters import ClassFunction, IrrDecomposition
from fistab.errors import DomainError
from fistab.tables import class_function, decomposition
from character_oracles import character_of
from fi_oracles import char_class_function
from os_oracles import betti


@contextmanager
def check_partition_calls():
    """Within the block, every partition checked: the argument of each
    check_partition call, and the parts of each parse_partition call,
    which reads and checks them in one pass."""
    calls = []
    check_partition, parse_partition = PARTITIONS.check_partition, PARTITIONS.parse_partition

    def counted(parts):
        calls.append(parts)
        return check_partition(parts)

    def counted_parse(text):
        parts = parse_partition(text)
        calls.append(list(parts))
        return parts

    patches = []
    for name, module in sorted(sys.modules.items()):
        if name.startswith("fistab."):
            if getattr(module, "check_partition", None) is check_partition:
                patches.append((module, "check_partition", counted))
            if getattr(module, "parse_partition", None) is parse_partition:
                patches.append((module, "parse_partition", counted_parse))
    modules = {module for module, _, _ in patches}
    assert {PARTITIONS, characters, induction} <= modules
    with ExitStack() as stack:
        for module, attr, fake in patches:
            stack.enter_context(mock.patch.object(module, attr, fake))
        yield calls


def test_kunneth_power_checks_no_partition():
    with check_partition_calls() as calls:
        induction.kunneth_power((1, 2), 12, 3)
        induction.kunneth_decomposition((1, 2), 12, 3)
    assert calls == []


def test_free_decomposition_checks_no_partition():
    # the W_m are decomposed from their characters, so a cold call, which
    # builds them, checks no partition either
    for f in vars(os_model).values():
        if getattr(f, "__module__", "") == os_model.__name__ and hasattr(f, "cache_clear"):
            f.cache_clear()
    with check_partition_calls() as calls:
        os_model.free_decompositions(9, 9, 3)[9]
        os_model.free_decompositions(9, 9, 3)[9]
        poly = os_model.character_polynomial(2, 9, 3)
    assert calls == []
    assert char_class_function(poly, 9).dimension() == betti(9, 3)


def test_decompose_of_a_table_built_character_checks_no_partition():
    rep = IrrDecomposition(6, {(3, 2, 1): 1, (4, 2): 2, (1,) * 6: 1})
    # rep plus the regular representation, each irreducible as often as
    # its dimension
    both = IrrDecomposition(6, {
        lam: rep.mult.get(lam, 0) + PARTITIONS.dimension(lam) for lam in PARTITIONS.partitions(6)
    })
    chi = character_of(both)
    with check_partition_calls() as calls:
        result = characters.decompose(characters.restrict_and_average(chi, 4))
        fi_analysis.unpadded_table(result)
    assert calls == []
    assert characters.decompose(character_of(rep)) == rep


def test_input_tables_are_checked_once():
    # parse_partition checks each key, and nothing checks it again
    values = {"1+1+1": 3, "2+1": 1, "3": 0}
    with check_partition_calls() as calls:
        f = class_function(3, values)
        d = decomposition(3, {"2+1": 1, "3": 2})
    assert sorted(calls) == [[1, 1, 1], [2, 1], [2, 1], [3], [3]]
    assert f == ClassFunction(3, {(1, 1, 1): 3, (2, 1): 1, (3,): 0})
    assert d == IrrDecomposition(3, {(2, 1): 1, (3,): 2})
    with pytest.raises(DomainError, match="must be defined on exactly the 3 cycle types"):
        class_function(3, {"3": 1})
    with pytest.raises(DomainError, match="is not a partition of 3"):
        decomposition(3, {"2": 1})
    with pytest.raises(DomainError, match="nonnegative integer"):
        decomposition(3, {"3": "1/2"})
