"""Tests for the braid-arrangement cohomology model.

Independent oracles: the Poincare product prod_j (1 + j t) for Betti
numbers, the trace on the NBC basis and direct fixed-pair counting for
the characters, the quotient definition of coinvariants for the
coinvariant maps, the defining
relations of the algebra for the straightening map, and the
representation axiom for the action matrices.
"""

import contextlib
import io
import itertools
import json
import random
from types import SimpleNamespace

import pytest

from fistab import os_model, os_reference
from fistab.cli import main, render
from fistab.commands import os_scan
from fistab.errors import ConsistencyError, DomainError
from fistab.fi_analysis import (
    FISequence,
    detect_stability,
    fit_char_polynomial,
    unpadded_table,
)
from fistab.linalg import IntRowBasis
from fistab.os_model import character_polynomial, coinvariant_report, free_generator
from fistab.os_reference import (
    action_columns,
    action_matrix,
    character,
    decomposition,
    fi_map,
    invariant_dimension,
    nbc_basis,
    normalize_edge,
    straighten,
)
from fistab.characters import ClassFunction, IrrDecomposition, fixed_dimension
from fistab.partitions import partition_counts, partitions
from character_oracles import horizontal_strip_extensions, restrict_and_average
from fi_oracles import length_of, quotient_betti, weight_of
from linalg_helpers import mat_mul_columns
from os_oracles import (
    betti,
    class_representative,
    coinvariant_cases,
    free_route_mismatches,
    full_nbc_trace,
    nbc_trace_character,
    quotient_coinvariant_report,
    table_route_scan,
)


def poincare_coefficients(n):
    # prod_{j=1}^{n-1} (1 + j t)
    coeffs = [1]
    for j in range(1, n):
        coeffs = [c + (coeffs[idx - 1] * j if idx else 0) for idx, c in enumerate(coeffs)] + [
            coeffs[-1] * j
        ]
    return coeffs


def test_nbc_basis_counts():
    assert betti(4, 1) == 6
    assert betti(4, 2) == 11
    assert betti(5, 2) == 35
    assert betti(6, 0) == 1
    assert betti(3, 5) == 0
    assert nbc_basis(3, -1) == ()


@pytest.mark.parametrize("n", range(1, 11))
def test_nbc_dimension_matches_poincare_product(n):
    coeffs = poincare_coefficients(n)
    for k in range(0, n + 2):
        expected = coeffs[k] if k < len(coeffs) else 0
        assert betti(n, k) == expected
        # uncached: the 10! monomials of n = 10 need not outlive the check
        assert len(nbc_basis.__wrapped__(n, k)) == expected


def test_betti_is_the_poincare_product_at_every_level():
    for n in range(-1, 31):
        coeffs = poincare_coefficients(max(n, 0))
        for k in range(-1, 6):
            expected = coeffs[k] if 0 <= k < len(coeffs) else 0
            assert betti(n, k) == expected, (n, k)


def test_nbc_monomials_have_increasing_seconds():
    for mono in nbc_basis(5, 3):
        seconds = [b for _, b in mono]
        assert seconds == sorted(set(seconds))
        assert all(a < b for a, b in mono)


def test_straighten_fixes_nbc_input():
    el = straighten([(1, 2), (1, 3)], 3)
    assert el.coeffs == {((1, 2), (1, 3)): 1}


def test_straighten_square_zero_and_antisymmetry():
    assert straighten([(1, 2), (1, 2)], 4).coeffs == {}
    for e, f in itertools.combinations([(1, 2), (1, 3), (2, 4)], 2):
        fwd = straighten([e, f], 4).coeffs
        bwd = straighten([f, e], 4).coeffs
        assert fwd == {m: -c for m, c in bwd.items()}


def test_straighten_triple_point_relation():
    el = straighten([(1, 3), (2, 3)], 3)
    assert el.coeffs == {((1, 2), (2, 3)): 1, ((1, 2), (1, 3)): -1}


@pytest.mark.parametrize("n", range(3, 7))
def test_arnold_cyclic_identity(n):
    # w[ab]w[bc] + w[bc]w[ca] + w[ca]w[ab] = 0 for every triple
    for a, b, c in itertools.combinations(range(1, n + 1), 3):
        total = {}
        for e, f in (((a, b), (b, c)), ((b, c), (a, c)), ((a, c), (a, b))):
            for mono, coeff in straighten([e, f], n).coeffs.items():
                total[mono] = total.get(mono, 0) + coeff
        assert all(v == 0 for v in total.values()), (a, b, c)


@pytest.mark.parametrize("n", range(3, 7))
def test_degree_two_products_span_exactly_the_basis(n):
    # every pairwise product straightens into the NBC basis, and the
    # products span a space of exactly the NBC dimension
    basis = nbc_basis(n, 2)
    index = {m: i for i, m in enumerate(basis)}
    rows = IntRowBasis(len(basis))
    edges = list(itertools.combinations(range(1, n + 1), 2))
    for e, f in itertools.product(edges, repeat=2):
        el = straighten([e, f], n)
        dense = [0] * len(basis)
        for mono, coeff in el.coeffs.items():
            dense[index[mono]] = coeff
        rows.insert(dense)
    assert rows.rank == betti(n, 2)


@pytest.mark.parametrize("n", [4, 5])
def test_straighten_is_multiplicative_in_degree_three(n):
    # rewriting a triple product directly agrees with rewriting a pair
    # first and multiplying the expansion by the third factor
    rng = random.Random(13)
    edges = list(itertools.combinations(range(1, n + 1), 2))
    for _ in range(30):
        e, f, g = (edges[rng.randrange(len(edges))] for _ in range(3))
        direct = straighten([e, f, g], n).coeffs
        staged = {}
        for mono, coeff in straighten([e, f], n).coeffs.items():
            for full, c2 in straighten(list(mono) + [g], n).coeffs.items():
                val = staged.get(full, 0) + coeff * c2
                if val:
                    staged[full] = val
                else:
                    del staged[full]
        assert direct == staged, (e, f, g)


def test_straighten_validates_points():
    with pytest.raises(DomainError):
        straighten([(1, 5)], 4)
    with pytest.raises(DomainError):
        normalize_edge(2, 2)


def test_action_matrix_identity_and_monomial_shape():
    ident = action_matrix((1, 2, 3, 4), 1)
    assert ident == [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    # degree one: any permutation just relabels the generators
    swap = action_matrix((2, 1, 3, 4), 1)
    for col in zip(*swap):
        assert sorted(col) == [0] * 5 + [1]


def test_action_trace_of_transposition_on_pairs():
    mat = action_matrix((2, 1, 3, 4), 1)
    assert sum(mat[i][i] for i in range(6)) == 2


def test_action_matrix_validates_permutation():
    with pytest.raises(DomainError):
        action_matrix((1, 1, 2), 1)


@pytest.mark.parametrize("n,k", [(4, 1), (5, 2), (6, 2), (7, 2)])
def test_representation_axiom(n, k):
    rng = random.Random(2024)
    for _ in range(4):
        sigma = list(range(1, n + 1))
        tau = list(range(1, n + 1))
        rng.shuffle(sigma)
        rng.shuffle(tau)
        composed = tuple(sigma[tau[i] - 1] for i in range(n))
        lhs = mat_mul_columns(action_columns(sigma, k), action_columns(tau, k))
        rhs = action_columns(composed, k)
        assert lhs == rhs


@pytest.mark.parametrize("n,k", [(5, 1), (6, 2)])
def test_trace_is_a_class_function(n, k):
    rng = random.Random(11)
    chi = character(n, k)
    for mu in partitions(n):
        rep = class_representative(mu)
        g = list(range(1, n + 1))
        rng.shuffle(g)
        g_inv = [0] * n
        for i, img in enumerate(g):
            g_inv[img - 1] = i + 1
        conj = tuple(g[rep[g_inv[i - 1] - 1] - 1] for i in range(1, n + 1))
        cols = action_columns(conj, k)
        trace = sum(cols[j].get(j, 0) for j in range(len(cols)))
        assert trace == chi.values[mu]


# every degree up to n = 7; the top degrees at n = 8, 9 cost minutes of
# straightening (run `python tests/os_oracles.py 9` for them)
@pytest.mark.parametrize("n", range(0, 10))
def test_closed_form_character_matches_nbc_trace(n):
    for mu, values in nbc_trace_character(n, None if n <= 7 else 4).items():
        for k, v in enumerate(values):
            assert character(n, k).values[mu] == v, (n, k, mu)


@pytest.mark.parametrize("n", range(1, 7))
def test_stable_flat_trace_matches_whole_basis_trace(n):
    for mu, values in nbc_trace_character(n).items():
        assert values == [full_nbc_trace(n, k, mu) for k in range(n)], mu


def _untruncated_lehrer_traces(mu) -> list[int]:
    """(chi_0(g), chi_1(g), ...) for g of cycle type mu: Lehrer's product
    multiplied out in full, as dense coefficient lists, with the Moebius
    function from the primes dividing each d."""

    def moebius(d):
        primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]
        return 0 if any(d % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    series = [1]
    for r in set(mu):
        for j in range(mu.count(r)):
            factor = [0] * (r + 1)
            for d in range(1, r + 1):
                if r % d == 0:
                    factor[r - r // d] += moebius(d)
            factor[r] -= j * r
            product = [0] * (len(series) + r)
            for a, x in enumerate(series):
                for b, y in enumerate(factor):
                    product[a + b] += x * y
            series = product
    return [(-1) ** k * c for k, c in enumerate(series)]


@pytest.mark.parametrize("n", range(0, 11))
def test_truncated_lehrer_product_matches_the_full_one(n):
    for mu in partitions(n):
        full = _untruncated_lehrer_traces(mu)
        for k in range(n + 2):
            want = full[k] if k < len(full) else 0
            assert character(n, k).values[mu] == want, (n, k, mu)


def _fixed_pair_count(perm):
    n = len(perm)
    count = 0
    for a, b in itertools.combinations(range(1, n + 1), 2):
        if {perm[a - 1], perm[b - 1]} == {a, b}:
            count += 1
    return count


@pytest.mark.parametrize("n", range(2, 9))
def test_degree_one_character_counts_fixed_pairs(n):
    chi = character(n, 1)
    for mu in partitions(n):
        assert chi.values[mu] == _fixed_pair_count(class_representative(mu))


def test_character_examples():
    assert all(v == 1 for v in character(6, 0).values.values())
    assert character(4, 1).dimension() == 6
    assert character(5, 1).values[(5,)] == 0


def test_decomposition_examples():
    assert decomposition(5, 0).to_mapping() == {"5": 1}
    assert decomposition(4, 1).to_mapping() == {"2+2": 1, "3+1": 1, "4": 1}
    assert decomposition(3, 1).to_mapping() == {"2+1": 1, "3": 1}


@pytest.mark.parametrize("n", range(2, 10))
def test_decompositions_are_genuine_representations(n):
    for k in (1, 2):
        dec = decomposition(n, k)  # decompose() enforces integrality
        assert dec.dimension() == betti(n, k)


@pytest.mark.parametrize("n", range(2, 10))
def test_weight_and_length_bounds(n):
    for k in (1, 2):
        dec = decomposition(n, k)
        if dec.mult:
            assert weight_of(dec) <= 2 * k
            assert length_of(dec) <= 2 * k + 1


def test_quotient_betti_numbers():
    # unordered configurations of the plane: b_1 = 1 and b_2 = 0 stably
    for n in range(2, 10):
        assert quotient_betti(decomposition(n, 1)) == 1
        assert quotient_betti(decomposition(n, 2)) == 0


def test_stable_multiplicities_at_four_k():
    # unpadded tables of H^k freeze no later than n = 4k
    tables1 = [unpadded_table(decomposition(n, 1)) for n in range(4, 9)]
    assert all(t == tables1[0] for t in tables1)
    assert unpadded_table(decomposition(3, 1)) != tables1[0]
    tables2 = [unpadded_table(decomposition(n, 2)) for n in range(8, 11)]
    assert all(t == tables2[0] for t in tables2)


def test_fi_map_shapes_and_functoriality():
    assert fi_map(1, 0) == [[1]]
    mat = fi_map(3, 1)
    assert len(mat) == 6 and len(mat[0]) == 3
    assert all(sum(col) == 1 for col in zip(*mat))
    # two single steps match the double-step inclusion of monomials
    one = fi_map(3, 1)
    two = fi_map(4, 1)
    composite = [
        [sum(two[i][m] * one[m][j] for m in range(len(one))) for j in range(3)]
        for i in range(10)
    ]
    src = nbc_basis(3, 1)
    index5 = {m: i for i, m in enumerate(nbc_basis(5, 1))}
    for j, mono in enumerate(src):
        expected_col = [0] * 10
        expected_col[index5[mono]] = 1
        assert [composite[i][j] for i in range(10)] == expected_col


@pytest.mark.parametrize("n,k", [(3, 1), (4, 1), (5, 2), (6, 2)])
def test_fi_equivariance(n, k):
    rng = random.Random(5)
    src = nbc_basis(n, k)
    index_dst = {m: i for i, m in enumerate(nbc_basis(n + 1, k))}
    fi_cols = [{index_dst[mono]: 1} for mono in src]
    for _ in range(3):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        extended = tuple(sigma) + (n + 1,)
        lhs = mat_mul_columns(fi_cols, action_columns(sigma, k))
        rhs = mat_mul_columns(action_columns(extended, k), fi_cols)
        assert lhs == rhs


@pytest.mark.parametrize("k", range(0, 7))
def test_fixed_dimensions_of_each_w_m_are_the_whole_averages_at_the_identity(k):
    # every W_m up to the weight bound 2k, the zero ones below k + 1 too
    for m in range(2 * k + 1):
        chi = os_model._free_character(m, k)
        expected = tuple(restrict_and_average(chi, j).dimension() for j in range(m + 1))
        assert tuple(fixed_dimension(chi, j) for j in range(m + 1)) == expected, (m, k)
        assert os_model._free_fixed_dims(m, k) == expected, (m, k)


def test_invariant_dimension_examples():
    # full invariants of the degree-one piece: one orbit of pairs
    for n in range(2, 8):
        assert invariant_dimension(n, 0, 1) == 1
    # a = n means no averaging at all
    assert invariant_dimension(4, 4, 1) == betti(4, 1)
    with pytest.raises(DomainError):
        invariant_dimension(3, 4, 1)


def test_invariant_dimension_rejects_a_negative_average(monkeypatch):
    # a broken character whose invariants come out as -1 is an internal
    # failure, not a dimension
    minus_trivial = lambda n, k: ClassFunction(n, dict.fromkeys(partitions(n), -1))
    monkeypatch.setattr(os_reference, "character", minus_trivial)
    with pytest.raises(ConsistencyError, match="invariant dimension came out as -1"):
        invariant_dimension(4, 1, 1)


def test_coinvariant_report_degree_zero_is_bijective():
    for n in range(1, 6):
        for a in range(0, n + 1):
            r = coinvariant_report(n, a, 0)
            assert r.injective and r.surjective and r.dims == (1, 1)


def test_reports_and_elements_are_immutable_records():
    r = coinvariant_report(4, 1, 1)
    assert repr(r) == (
        "CoinvariantReport(n=4, a=1, degree=1, injective=True, surjective=True, dims=(2, 2))"
    )
    assert r == coinvariant_report(4, 1, 1) and hash(r) == hash(coinvariant_report(4, 1, 1))
    el = straighten([(1, 2), (2, 3)], 3)
    assert repr(el) == "OSElement(n=3, degree=2, coeffs={((1, 2), (2, 3)): Fraction(1, 1)})"
    for record, field in ((r, "n"), (el, "coeffs")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_coinvariant_report_full_average_degree_one():
    for n in range(2, 7):
        r = coinvariant_report(n, 0, 1)
        assert r.dims == (1, 1) and r.injective and r.surjective


def test_coinvariant_report_two_marked_points():
    for n in range(2, 7):
        r = coinvariant_report(n, 2, 1)
        assert r.injective
        # surjectivity degree 2 shifted by a = 2 marked points
        assert r.surjective == (n >= 4), (n, r)
        assert r.dims[0] == invariant_dimension(n, 2, 1)


def test_coinvariant_report_detects_growth():
    # with every point marked there is no averaging and the plain
    # inclusion of level n into level n+1 is injective but not surjective
    r = coinvariant_report(3, 3, 1)
    assert r.injective and not r.surjective
    assert r.dims == (betti(3, 1), invariant_dimension(4, 3, 1))


def test_measured_degrees_within_engine_bounds():
    # the bound engine promises stability type (0, 2k) for this family;
    # the measured maps must be at least that good
    from fistab.bounds import table1_row

    for k in (1, 2):
        bound = table1_row("config_surface_boundary", k).stability_type
        assert bound.inj == 0
        for a in range(0, 3):
            for n in range(max(2, a), 7):
                report = coinvariant_report(n, a, k)
                # injectivity degree 0: injective for every n >= a
                assert report.injective
                # surjectivity degree at most 2k: surjective from bound + a
                if n >= bound.surj + a:
                    assert report.surjective, (n, a, k)


def test_coinvariant_report_zero_spaces():
    r = coinvariant_report(2, 0, 2)  # both levels vanish in degree two
    assert r.dims == (0, 0) and r.injective and r.surjective
    r = coinvariant_report(2, 1, 3)
    assert r.dims == (0, 0)


# (k, a) -> (injective, surjective, d_src, d_dst) of coinvariant_report(n, a, k)
# for n = max(a, 1), ..., 7, recorded from the earlier implementation
# (dense echelon basis, action columns rebuilt for every orbit summer)
COINVARIANT_VERDICTS = {
    (0, 0): [
        (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1),
        (1, 1, 1, 1), (1, 1, 1, 1),
    ],
    (0, 1): [
        (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1),
        (1, 1, 1, 1), (1, 1, 1, 1),
    ],
    (0, 2): [
        (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1),
        (1, 1, 1, 1),
    ],
    (0, 3): [
        (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1),
    ],
    (1, 0): [
        (1, 0, 0, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1), (1, 1, 1, 1),
        (1, 1, 1, 1), (1, 1, 1, 1),
    ],
    (1, 1): [
        (1, 0, 0, 1), (1, 0, 1, 2), (1, 1, 2, 2), (1, 1, 2, 2), (1, 1, 2, 2),
        (1, 1, 2, 2), (1, 1, 2, 2),
    ],
    (1, 2): [
        (1, 0, 1, 3), (1, 0, 3, 4), (1, 1, 4, 4), (1, 1, 4, 4), (1, 1, 4, 4),
        (1, 1, 4, 4),
    ],
    (1, 3): [
        (1, 0, 3, 6), (1, 0, 6, 7), (1, 1, 7, 7), (1, 1, 7, 7), (1, 1, 7, 7),
    ],
    (2, 0): [
        (1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0),
        (1, 1, 0, 0), (1, 1, 0, 0),
    ],
    (2, 1): [
        (1, 1, 0, 0), (1, 0, 0, 1), (1, 0, 1, 2), (1, 1, 2, 2), (1, 1, 2, 2),
        (1, 1, 2, 2), (1, 1, 2, 2),
    ],
    (2, 2): [
        (1, 0, 0, 2), (1, 0, 2, 6), (1, 0, 6, 8), (1, 1, 8, 8), (1, 1, 8, 8),
        (1, 1, 8, 8),
    ],
    (2, 3): [
        (1, 0, 2, 11), (1, 0, 11, 20), (1, 0, 20, 23), (1, 1, 23, 23), (1, 1, 23, 23),
    ],
    (3, 0): [
        (1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0), (1, 1, 0, 0),
        (1, 1, 0, 0), (1, 1, 0, 0),
    ],
    (3, 1): [
        (1, 1, 0, 0), (1, 1, 0, 0), (1, 0, 0, 1), (1, 0, 1, 2), (1, 1, 2, 2),
        (1, 1, 2, 2), (1, 1, 2, 2),
    ],
    (3, 2): [
        (1, 1, 0, 0), (1, 0, 0, 3), (1, 0, 3, 9), (1, 0, 9, 12), (1, 1, 12, 12),
        (1, 1, 12, 12),
    ],
    (3, 3): [
        (1, 0, 0, 6), (1, 0, 6, 26), (1, 0, 26, 45), (1, 0, 45, 51), (1, 1, 51, 51),
    ],
}


def test_coinvariant_verdicts_match_recorded_table():
    for (k, a), rows in COINVARIANT_VERDICTS.items():
        for n, want in enumerate(rows, start=max(a, 1)):
            r = coinvariant_report(n, a, k)
            assert (r.injective, r.surjective, *r.dims) == want, (n, a, k)


# every k <= 4, a <= 5, n <= 6; `python tests/os_oracles.py` runs k <= 2 to
# n = 10, k = 3 to n = 9 and k = 4 to n = 8
@pytest.mark.parametrize("n,a,k", list(coinvariant_cases({k: 6 for k in range(5)}, 5)))
def test_coinvariant_report_matches_quotient_definition(n, a, k):
    r = coinvariant_report(n, a, k)
    assert quotient_coinvariant_report(n, a, k) == (r.injective, r.surjective, *r.dims)


# ---------------------------------------------------------------------------
# The free-module route of os-scan against the character tables of S_n


@pytest.mark.parametrize("k", range(5))
def test_free_generators_live_between_k_plus_one_and_2k(k):
    # Lehrer-Solomon: only the cycles of length >= 2 of a permutation with
    # n - k cycles carry W_m, so k + 1 <= m <= 2k (only W_0 when k = 0)
    nonzero = [m for m in range(12) if free_generator(m, k).mult]
    assert nonzero == ([0] if k == 0 else list(range(k + 1, 2 * k + 1)))


def test_os_scan_reads_and_prices_the_w_m_of_the_generator_sizes(monkeypatch):
    # Lehrer-Solomon's range, written once, is the set of nonzero W_m that a
    # Betti test per m and a nonzero filter found
    for k in range(9):
        for n in range(21):
            guarded = [m for m in range(min(n, 2 * k) + 1) if betti(m, k) and free_generator(m, k).mult]
            assert list(os_model._generator_sizes(n, k)) == guarded, (n, k)

    # patched to leave W_(k+1) out, it leaves it out of both the W_m that
    # os-scan reads and the tables of S_m that its estimate prices
    class Priced(Exception):
        pass

    def admit(args, estimate, n=0, alternative=""):
        estimate(partition_counts(n))
        raise Priced

    priced = []
    monkeypatch.setattr(os_scan, "_admit", admit)
    monkeypatch.setattr(os_scan, "_table_work", lambda p, levels: priced.append(list(levels)) or 0)
    monkeypatch.setattr(os_model, "_generator_sizes", lambda n, k: range(k + 2, min(n, 2 * k) + 1))
    for k, n_max in ((2, 5), (3, 9), (4, 30)):
        priced.clear()
        with pytest.raises(Priced):
            os_scan.run(SimpleNamespace(k=k, a_max=2, n_min=1, n_max=n_max))
        assert priced == [list(range(k + 2, min(n_max, 2 * k) + 1))], (k, n_max)
        assert list(os_model._generators_up_to.__wrapped__(min(n_max, 2 * k), k)) == priced[0]


@pytest.mark.parametrize("k", range(7))
def test_free_module_route_matches_the_character_tables(k):
    # decompositions, Betti numbers, every invariant dimension, and the
    # polynomial of the window 1..n; every W_m, m <= 2k, is checked at
    # its own level
    for n in range(max(12, 2 * k + 2)):
        assert free_route_mismatches(n, k) == [], n
    with pytest.raises(DomainError, match="need 0 <= a <= 4"):
        coinvariant_report(4, 5, k)


@pytest.mark.parametrize("k", range(5))
def test_closed_form_polynomial_is_the_fit_on_every_long_window(k):
    for n_min in range(1, 13):
        for n_max in range(n_min + 2 * k, 13):
            chars = FISequence({n: character(n, k) for n in range(n_min, n_max + 1)})
            want = fit_char_polynomial(chars, 2 * k)
            assert character_polynomial(n_min, n_max, k) == want, (n_min, n_max)


def _scan_output(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


# windows the fit cannot pin down although n_max >= 2k + 1
_UNFITTED_WINDOWS = [(2, 4, 5), (3, 5, 7), (3, 6, 7), (3, 7, 8)]


@pytest.mark.parametrize(
    "k,n_min,n_max",
    _UNFITTED_WINDOWS
    # shorter windows that it pins down
    + [(2, 2, 5), (3, 5, 8)]
    # and windows of 2k + 1 levels or more
    + [(1, 1, 3), (2, 3, 7), (3, 2, 9), (4, 1, 10)],
)
def test_os_scan_prints_the_bytes_of_the_table_route(k, n_min, n_max):
    payload = table_route_scan(n_min, n_max, k)
    assert ("error" in payload["character_polynomial"]) == ((k, n_min, n_max) in _UNFITTED_WINDOWS)
    for fmt in ("json", "text", "csv"):
        argv = ["os-scan", "--n-min", str(n_min), "--n-max", str(n_max), "--k", str(k)]
        assert _scan_output([*argv, "--format", fmt]) == render(payload, fmt), fmt


def _pieri_level(n: int, k: int) -> IrrDecomposition:
    # level n of the free modules, one level at a time, as os-scan once
    # read every level
    mult = {}
    for w in os_model._free_generators(n, k).values():
        for rho, c in w.mult.items():
            for lam in horizontal_strip_extensions(rho, n):
                mult[lam] = mult.get(lam, 0) + c
    return IrrDecomposition(n, mult)


def _old_coinvariant_row(report) -> dict:
    # CoinvariantReport.to_mapping as NamedTuple._asdict wrote it
    return {**report._asdict(), "dims": list(report.dims)}


def test_os_scan_window_is_written_from_its_thresholds():
    # every k <= 4, 1 <= n_min <= 4k + 1 and 1..2k + 2 levels: each
    # level's keys in IrrDecomposition.to_mapping() order, the stability
    # verdict of detect_stability, and the coinvariant rows of one
    # coinvariant_report per map, against the per-level route
    verdicts = set()
    for k in range(5):
        for n_min in range(1, 4 * k + 2):
            for n_max in range(n_min, n_min + 2 * k + 2):
                levels = os_model.free_decompositions(n_min, n_max, k)
                old = {n: _pieri_level(n, k) for n in range(n_min, n_max + 1)}
                argv = ["os-scan", "--n-min", str(n_min), "--n-max", str(n_max), "--k", str(k)]
                payload = json.loads(_scan_output([*argv, "--format", "json"]))
                window = (k, n_min, n_max)
                for n, dec in old.items():
                    assert levels[n] == dec, (window, n)
                    want = list(dec.to_mapping().items())
                    assert list(levels.to_mapping(n).items()) == want, (window, n)
                    assert list(payload["decompositions"][str(n)].items()) == want, (window, n)
                if n_max > n_min:
                    report = detect_stability(FISequence(old))
                    assert payload["stability"] == report.to_mapping(), window
                    assert levels.stability() == (report.stable_from, report.stable_table)
                    verdicts.add(report.stabilized)
                else:
                    assert "stability" not in payload
                rows = {
                    str(a): {
                        str(n): _old_coinvariant_row(coinvariant_report(n, a, k))
                        for n in range(max(n_min, a), n_max)
                    }
                    for a in range(min(3, n_max - 1) + 1)
                    if max(n_min, a) < n_max
                }
                assert payload["coinvariants"] == rows, window
                for by_level in payload["coinvariants"].values():
                    for row in by_level.values():
                        assert list(row) == ["n", "a", "degree", "injective", "surjective", "dims"]
    # windows that stabilize and windows whose last threshold is n_max
    assert verdicts == {True, False}
