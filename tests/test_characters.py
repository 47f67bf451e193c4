"""Character theory tests.

The heavyweight oracle here rebuilds the full character table of S_n
(n <= 5) without the Murnaghan-Nakayama rule: permutation characters of
coset actions are counted by brute force, and irreducible characters are
peeled off top-down in lexicographic order, which refines dominance.  Up
to n = 12 the table is also checked against the recursive form of the
rule kept in character_oracles.py, and up to n = 14 and at n = 18 the
one depth-first walk of the table against each class walked alone.
"""

import itertools
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import example, given, settings, strategies as st

from fistab import characters
from fistab.characters import (
    ClassFunction,
    IrrDecomposition,
    as_multiplicity,
    character_table,
    class_sizes,
    decompose,
    exact_quotient,
    fixed_dimension,
    free_module_sum,
    irreducible_character,
    partial_products,
)
from fistab.errors import ConsistencyError, DomainError
from fistab.named_characters import inner_product
from fistab.partitions import class_size, dimension, partitions
from fistab.tables import class_function, decomposition
from character_oracles import (
    character_of,
    horizontal_strip_extensions,
    mn,
    mn_character,
    regular_character,
    restrict_and_average,
    restriction_inner_product,
    sign_character,
    table_columns,
    table_rows,
    trivial_character,
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


def _ordered_set_partitions(universe, sizes):
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for block in itertools.combinations(universe, first):
        remaining = tuple(x for x in universe if x not in block)
        for tail in _ordered_set_partitions(remaining, rest):
            yield (frozenset(block),) + tail


def _young_permutation_character(mu, n):
    """Character of S_n permuting ordered set partitions of block sizes mu,
    counted by brute force over one representative per class."""
    reps = {}
    for perm in itertools.permutations(range(1, n + 1)):
        reps.setdefault(_cycle_type(perm), perm)
    values = {}
    for ct, perm in reps.items():
        fixed = 0
        for blocks in _ordered_set_partitions(tuple(range(1, n + 1)), mu):
            if all(frozenset(perm[x - 1] for x in b) == b for b in blocks):
                fixed += 1
        values[ct] = fixed
    return ClassFunction(n, values)


@pytest.mark.parametrize("n", range(1, 6))
def test_character_table_against_coset_oracle(n):
    # peel irreducibles off the permutation characters, top lex first
    recovered = {}
    for mu in sorted(partitions(n), reverse=True):
        chi = _young_permutation_character(mu, n)
        for lam, known in recovered.items():
            mult = inner_product(chi, known)
            assert mult.denominator == 1 and mult >= 0
            chi = ClassFunction(n, {
                nu: value - int(mult) * known.values[nu] for nu, value in chi.values.items()
            })
        recovered[mu] = chi
    for lam, chi in recovered.items():
        for mu in partitions(n):
            assert chi.values[mu] == mn_character(lam, mu), (lam, mu)


@pytest.mark.parametrize("n", range(0, 13))
def test_character_table_against_recursive_oracle(n):
    # the upward pass of each class and the downward pass from one lam
    # both agree with the recursive rule
    table = table_rows(n)
    assert list(table) == list(partitions(n))
    assert class_sizes(n) == tuple(class_size(mu) for mu in partitions(n))
    for lam, row in table.items():
        assert row == tuple(mn(lam, mu) for mu in partitions(n)), lam
        assert irreducible_character(lam).values == dict(zip(partitions(n), row)), lam


def test_mn_character_examples():
    for n in range(1, 7):
        for mu in partitions(n):
            assert mn_character((n,), mu) == 1
    assert mn_character((1, 1, 1, 1), (2, 1, 1)) == -1
    assert mn_character((2, 1), (1, 1, 1)) == 2


def test_mn_character_size_mismatch():
    with pytest.raises(DomainError):
        mn_character((2, 1), (2, 2))


def test_mn_character_at_identity_is_dimension():
    for n in range(1, 8):
        e = (1,) * n
        for lam in partitions(n):
            assert mn_character(lam, e) == dimension(lam)


@pytest.mark.parametrize("n", [*range(0, 15), 18])
def test_one_walk_builds_the_columns_of_each_class_walked_alone(n):
    # the depth-first walk shares the classes' smallest parts; each
    # column holds exactly the nonzero values of its class
    table = character_table(n)
    assert type(table) is tuple and len(table) == len(partitions(n))
    for (shapes, values), column in zip(table, table_columns(n)):
        assert len(shapes) == len(values) == len(column)
        assert dict(zip(shapes, values)) == column


def test_single_characters_do_not_build_table_columns(monkeypatch):
    # a single character removes rim hooks from lam; the upward walk,
    # which grows every shape of S_n, is the character table's alone
    calls = []
    rim_hooks = characters._rim_hooks

    def counted(shapes, cycles, grow):
        if grow:
            calls.append(cycles)
        return rim_hooks(shapes, cycles, grow)

    monkeypatch.setattr(characters, "_rim_hooks", counted)
    irreducible_character.cache_clear()
    character_table.cache_clear()
    chi = irreducible_character((7, 6, 5, 4, 3, 2, 1))
    assert chi.dimension() == dimension((7, 6, 5, 4, 3, 2, 1))
    assert mn_character((999, 1), (1000,)) == -1
    assert mn_character((4, 3, 2, 1), (7, 3)) == mn((4, 3, 2, 1), (7, 3))
    assert calls == []


def test_sign_character_values():
    # sign of a class is (-1)**(n - number of cycles)
    for n in range(2, 7):
        chi = sign_character(n)
        for mu in partitions(n):
            assert chi.values[mu] == (-1) ** (n - len(mu))


@pytest.mark.parametrize("n", range(1, 11))
def test_row_orthogonality(n):
    sizes, table = class_sizes(n), table_rows(n)
    chars = {lam: irreducible_character(lam) for lam in partitions(n)}
    for lam, chi_a in chars.items():
        for nu, chi_b in chars.items():
            expected = 1 if lam == nu else 0
            assert inner_product(chi_a, chi_b) == expected
            integer = sum(s * x * y for s, x, y in zip(sizes, table[lam], table[nu]))
            assert integer == expected * factorial(n)


@pytest.mark.parametrize("n", range(0, 8))
def test_restrict_and_average_against_restriction_oracle(n):
    # multiplicity of nu in the S_{n-a}-average of chi_lam is the inner
    # product of the restriction with chi_nu (x) trivial
    for lam in partitions(n):
        chi = irreducible_character(lam)
        for a in range(0, n + 1):
            averaged = restrict_and_average(chi, a)
            triv = trivial_character(n - a)
            for nu in partitions(a):
                chi_nu = irreducible_character(nu)
                expected = restriction_inner_product(chi, chi_nu, triv)
                assert inner_product(averaged, chi_nu) == expected, (lam, a, nu)
    with pytest.raises(DomainError):
        restrict_and_average(trivial_character(n), n + 1)


def test_restrict_and_average_of_a_class_function_can_be_a_fraction():
    # the indicator of the identity of S_3 is no character: its averages
    # over S_2 and over S_3 are 1/2! and 1/3!
    delta = ClassFunction(3, {mu: int(mu == (1, 1, 1)) for mu in partitions(3)})
    assert restrict_and_average(delta, 1).values == {(1,): Fraction(1, 2)}
    assert restrict_and_average(delta, 0).values == {(): Fraction(1, 6)}


def _same_number(x, y) -> bool:
    # equal, and an int on both sides or a Fraction on both
    return x == y and type(x) is type(y)


@pytest.mark.parametrize("n", range(0, 9))
def test_fixed_dimension_is_the_whole_average_at_the_identity(n):
    for lam in partitions(n):
        chi = irreducible_character(lam)
        for a in range(0, n + 1):
            expected = restrict_and_average(chi, a).dimension()
            assert _same_number(fixed_dimension(chi, a), expected), (lam, a)
    for a in (n + 1, -1):
        with pytest.raises(DomainError, match=rf"^need 0 <= a <= {n}, got a={a}$"):
            fixed_dimension(trivial_character(n), a)


def test_fixed_dimension_of_a_class_function_can_be_a_fraction():
    # a value per class that no character takes, so the averages are
    # Fractions: at the identity of S_a each is the oracle's
    f = ClassFunction(6, {mu: Fraction(len(mu), mu[0] + 4) for mu in partitions(6)})
    found = [fixed_dimension(f, a) for a in range(7)]
    assert all(map(_same_number, found, (restrict_and_average(f, a).dimension() for a in range(7))))
    assert {type(v) for v in found} == {Fraction}
    delta = ClassFunction(3, {mu: int(mu == (1, 1, 1)) for mu in partitions(3)})
    assert [fixed_dimension(delta, a) for a in range(4)] == [
        Fraction(1, 6), Fraction(1, 2), 1, 1,
    ]


def test_as_multiplicity_accepts_only_nonnegative_integers():
    assert as_multiplicity(Fraction(3), "dimension came out as") == 3
    assert as_multiplicity(Fraction(0), "dimension came out as") == 0
    with pytest.raises(ConsistencyError, match="^dimension came out as -1$"):
        as_multiplicity(Fraction(-1), "dimension came out as")
    with pytest.raises(ConsistencyError, match="^dimension came out as 1/2$"):
        as_multiplicity(Fraction(1, 2), "dimension came out as")


@pytest.mark.parametrize("num, den, expected", [
    (12, 4, 3),  # an exact int division
    (7, 4, Fraction(7, 4)),  # an inexact one, in lowest terms
    (6, 4, Fraction(3, 2)),
    (-12, 4, -3),  # a negative numerator
    (-7, 2, Fraction(-7, 2)),
    (Fraction(6, 2), 1, 3),  # an integral Fraction
    (Fraction(3, 4), 1, Fraction(3, 4)),  # a non-integral one
    (Fraction(3, 4), 3, Fraction(1, 4)),
    ("-10/4", 1, Fraction(-5, 2)),  # a string, as Fraction() reads it
    ("8/4", 2, 1),
    (10**40, 10**20, 10**20),
])
def test_exact_quotient_is_an_int_exactly_where_the_division_is_exact(num, den, expected):
    q = exact_quotient(num, den)
    assert q == expected and type(q) is type(expected), (num, den, q)


def test_inner_product_requires_matching_group():
    with pytest.raises(DomainError):
        inner_product(trivial_character(3), trivial_character(4))


def test_regular_character_inner_products_are_dimensions():
    reg = regular_character(3)
    assert inner_product(reg, irreducible_character((2, 1))) == 2
    for n in range(1, 6):
        reg = regular_character(n)
        for lam in partitions(n):
            assert inner_product(reg, irreducible_character(lam)) == dimension(lam)


def test_decompose_trivial_and_regular():
    assert decompose(trivial_character(4)).to_mapping() == {"4": 1}
    reg = decompose(regular_character(3))
    assert reg.to_mapping() == {"1+1+1": 1, "2+1": 2, "3": 1}


def test_class_functions_and_decompositions_print_their_tables():
    chi = trivial_character(3)
    assert repr(chi) == "ClassFunction(S_3, {1+1+1: 1, 2+1: 1, 3: 1})"
    regular = decompose(regular_character(3))
    assert repr(regular) == "IrrDecomposition(S_3, {1+1+1: 1, 2+1: 2, 3: 1})"
    assert repr(IrrDecomposition(0, {(): 1})) == "IrrDecomposition(S_0, {(): 1})"


def test_free_module_sum_is_a_mapping_of_its_window():
    levels = free_module_sum({1: IrrDecomposition(1, {(1,): 1})}, 2, 5)
    assert list(levels) == [2, 3, 4, 5] and len(levels) == 4
    assert levels[4] == IrrDecomposition(4, {(3, 1): 1, (4,): 1})
    assert 6 not in levels


def test_decompose_natural_permutation_character():
    # fixed points of the action on 3 letters: values 3, 1, 0
    chi = ClassFunction(3, {(1, 1, 1): 3, (2, 1): 1, (3,): 0})
    assert decompose(chi).to_mapping() == {"2+1": 1, "3": 1}


def test_decompose_rejects_non_representation():
    bad = ClassFunction(3, {(1, 1, 1): 1, (2, 1): Fraction(1, 2), (3,): 0})
    with pytest.raises(ConsistencyError):
        decompose(bad)
    with pytest.raises(ConsistencyError):  # the trivial character less twice the sign
        decompose(ClassFunction(3, {(1, 1, 1): -1, (2, 1): 3, (3,): -1}))


@st.composite
def small_decomposition(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    mult = {
        lam: draw(st.integers(min_value=0, max_value=3)) for lam in partitions(n)
    }
    return IrrDecomposition(n, mult)


@given(small_decomposition(), small_decomposition())
@settings(max_examples=40, deadline=None)
def test_decompose_is_additive(u, v):
    if u.n != v.n:
        return
    f, g = character_of(u), character_of(v)
    total = decompose(ClassFunction(u.n, {mu: f.values[mu] + g.values[mu] for mu in f.values}))
    lams = partitions(u.n)
    assert total == IrrDecomposition(u.n, {lam: u.mult.get(lam, 0) + v.mult.get(lam, 0) for lam in lams})


def test_class_function_validates_domain():
    with pytest.raises(DomainError):
        ClassFunction(3, {(1, 1, 1): 1})  # missing classes
    with pytest.raises(DomainError):
        ClassFunction(3, {(1, 1, 1): 1, (2, 1): 0, (3,): 0, (4,): 0})


def test_class_function_mapping_round_trip():
    chi = irreducible_character((3, 1))
    again = class_function(4, chi.to_mapping())
    assert again == chi
    # non-integer rationals serialize as "p/q" strings
    half = ClassFunction(2, {(1, 1): Fraction(1, 2), (2,): 3})
    payload = half.to_mapping()
    assert payload == {"1+1": "1/2", "2": 3}
    assert class_function(2, payload) == half


def test_decomposition_dimension_and_character():
    dec = IrrDecomposition(4, {(3, 1): 2, (4,): 1})
    assert dec.dimension() == 2 * 3 + 1
    assert character_of(dec).dimension() == 7
    assert decompose(character_of(dec)) == dec


def test_decomposition_refuses_a_negative_group():
    # as a class function does: there is no S_n with n < 0
    for make in (
        lambda: IrrDecomposition(-3, {}),
        lambda: decomposition(-1, {}),
        lambda: ClassFunction(-3, {}),
    ):
        with pytest.raises(DomainError, match="cannot partition a negative integer"):
            make()


def test_symmetric_group_of_size_zero():
    assert partitions(0) == ((),)
    assert trivial_character(0).values == {(): 1}
    assert decompose(trivial_character(0)).to_mapping() == {"": 1}


def _one_level_pieri(generators, n):
    # the Pieri sum read one level at a time: each constituent rho of W_m
    # adds its multiplicity to every horizontal-strip extension with n boxes
    mult = {}
    for w in generators.values():
        for rho, c in w.mult.items():
            for lam in horizontal_strip_extensions(rho, n):
                mult[lam] = mult.get(lam, 0) + c
    return IrrDecomposition(n, mult)


def test_free_module_sum_against_one_level_pieri_loop():
    # every W = S^rho with |rho| <= 6 (rho = () the empty generator at
    # m = 0), and a two-generator sum; windows that start below every m
    # or past every threshold m + rho_1, and single levels
    cases = [{m: IrrDecomposition(m, {rho: 1})} for m in range(7) for rho in partitions(m)]
    cases.append({0: IrrDecomposition(0, {(): 2})})
    cases.append({
        2: IrrDecomposition(2, {(2,): 1, (1, 1): 2}),
        4: IrrDecomposition(4, {(3, 1): 3, (2, 2): 1, (1, 1, 1, 1): 1}),
    })
    for gens in cases:
        top = max(m + (rho[0] if rho else 0) for m, w in gens.items() for rho in w.mult)
        windows = [(0, top + 3), (top, top + 4), (top + 1, top + 2), (min(gens) + 1, top - 1)]
        windows += [(n, n) for n in range(top + 3)] + [(10**12, 10**12)]
        for lo, hi in windows:
            levels = free_module_sum(gens, lo, hi)
            assert list(levels) == list(range(lo, hi + 1)), (gens, lo, hi)
            for n, dec in levels.items():
                assert dec.n == n and dec == _one_level_pieri(gens, n), (gens, lo, hi, n)
                written = list(levels.to_mapping(n).items())
                assert written == list(dec.to_mapping().items()), (gens, lo, hi, n)


# sparse polynomials {degree: coefficient} in rising degree, from degree 0
_polynomials = st.dictionaries(
    st.integers(0, 6), st.integers(-3, 3).filter(bool), max_size=4
).map(lambda p: dict(sorted(p.items())))


@given(st.lists(_polynomials, max_size=5), st.integers(0, 12))
@example([{0: 1, 2: 1}, {0: 1, 3: 1}], 5)  # 1 + t^2 + t^3 + t^5, first seen unsorted
@settings(max_examples=60, deadline=None)
def test_partial_products_are_the_running_products_cut_at_cap(steps, cap):
    # each running product, against the full product expanded by
    # brute force: the same terms up to t^cap, listed in rising degree
    full = {0: 1}
    products = partial_products(steps, cap)
    assert len(products) == len(steps) + 1
    for j, product in enumerate(products):
        if j:
            expanded = {}
            for (a, x), (b, y) in itertools.product(full.items(), steps[j - 1].items()):
                expanded[a + b] = expanded.get(a + b, 0) + x * y
            full = expanded
        assert list(product) == sorted(product)
        kept = {d: c for d, c in product.items() if c}
        assert kept == {d: c for d, c in full.items() if c and d <= cap}
