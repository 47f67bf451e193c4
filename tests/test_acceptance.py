"""Acceptance suite: one test per flagship criterion, each printing a
PASS/FAIL line (run with -s to see them).  Every comparison is exact; the
stated runtime budgets are asserted as well.

Run: pytest tests/test_acceptance.py -v -s
"""

import random
import time
from math import factorial

from fistab.bounds import BoundParams, StabilityType, abutment_stability, table1_row
from fistab.characters import decompose, inner_product, irreducible_character, trivial_character
from fistab.fi_analysis import (
    FISequence,
    detect_stability,
    fit_char_polynomial,
    fit_dim_polynomial,
    length_of,
    unpadded_table,
    weight_of,
)
from fistab.induction import induced_character, m_module, wreath_invariant_dim
from fistab.os_model import action_columns, betti, character, coinvariant_report, decomposition
from fistab.partitions import dimension, partitions
from linalg_helpers import mat_mul_columns


def _check(label, budget_seconds, body):
    start = time.monotonic()
    try:
        body()
    except AssertionError:
        print(f"[FAIL] {label}")
        raise
    elapsed = time.monotonic() - start
    ok = elapsed < budget_seconds
    print(f"[{'PASS' if ok else 'FAIL'}] {label} ({elapsed:.2f}s / budget {budget_seconds:.0f}s)")
    assert ok, f"{label}: exceeded runtime budget ({elapsed:.2f}s)"


TABLE1_EXPECTED = {
    # row -> (N, length bound, char degree bound) as functions of i
    "config_surface_closed": lambda i: (5 * i, 2 * i + 1, 2 * i),
    "config_surface_boundary": lambda i: (4 * i, 2 * i + 1, 2 * i),
    "config_surface_open": lambda i: (5 * i, 2 * i + 1, 2 * i),
    "moduli": lambda i: (6 * i, 2 * i + 1, 2 * i),
    "pmod_surface_boundary": lambda i: (4 * i, 2 * i + 1, 2 * i),
    "pmod_highdim": lambda i: (3 * i, i + 1, i),
    "pmod_highdim_boundary": lambda i: (2 * i, i + 1, i),
    "bpdiff": lambda i: (3 * i, i + 1, i),
}


def test_criterion_1_table_reproduction():
    def body():
        for row, expected in TABLE1_EXPECTED.items():
            for i in range(0, 6):
                data = table1_row(row, i)
                assert (data.N, data.length_bound, data.char_degree_bound) == expected(i), (
                    row,
                    i,
                )

    _check("criterion 1: headline-bound table, i in [0,5], all rows", 1.0, body)


def test_criterion_2_bound_engine_formulas():
    def body():
        surfaces = BoundParams(1, 2)
        for i in range(0, 11):
            assert abutment_stability(surfaces, i) == StabilityType(
                max(0, 3 * i - 1), 2 * i
            )
            assert abutment_stability(surfaces, i, degenerates_at=3) == StabilityType(
                2 * i, 2 * i
            )

    _check("criterion 2: abutment formulas (3i-1, 2i) and degenerate (2i, 2i)", 1.0, body)


def _e2(n):
    return sum(i * j for i in range(1, n) for j in range(i + 1, n))


def test_criterion_3_betti_polynomiality():
    def body():
        for n in range(2, 11):
            assert betti(n, 1) == n * (n - 1) // 2
            assert betti(n, 2) == _e2(n)
        assert betti(4, 2) == 11 and betti(5, 2) == 35
        poly1 = fit_dim_polynomial({n: betti(n, 1) for n in range(2, 11)}, 2)
        assert poly1.degree == 2
        assert all(poly1.evaluate(n) == betti(n, 1) for n in range(2, 13))
        poly2 = fit_dim_polynomial({n: betti(n, 2) for n in range(2, 11)}, 4)
        assert poly2.degree == 4
        assert poly2.evaluate(11) == _e2(11)
        assert poly2.evaluate(12) == _e2(12)

    _check("criterion 3: Betti numbers and dimension polynomials", 10.0, body)


STABLE_TABLE_K1 = {(): 1, (1,): 1, (2,): 1}
STABLE_TABLE_K2 = {(1,): 2, (1, 1): 2, (2,): 2, (2, 1): 2, (3,): 1, (3, 1): 1}


def test_criterion_4_uniform_stability_window():
    def body():
        tables1 = {n: unpadded_table(decomposition(n, 1)) for n in range(2, 9)}
        assert all(tables1[n] == STABLE_TABLE_K1 for n in range(4, 9))
        assert tables1[3] != STABLE_TABLE_K1
        report = detect_stability(
            FISequence({n: decomposition(n, 1) for n in range(2, 9)})
        )
        assert report.stable_from == 4
        assert report.stable_table == STABLE_TABLE_K1

        tables2 = {n: unpadded_table(decomposition(n, 2)) for n in range(8, 11)}
        assert all(tables2[n] == STABLE_TABLE_K2 for n in range(8, 11))

    _check("criterion 4: stable multiplicity tables (k=1 from n=4, k=2 on [8,10])", 300.0, body)


def test_criterion_5_character_polynomial():
    def body():
        seq = FISequence({n: character(n, 1) for n in range(4, 9)})
        poly = fit_char_polynomial(seq, 2)
        assert poly.coeffs == {((1, 2),): 1, ((2, 1),): 1}  # C(Z1,2) + Z2
        assert poly.as_class_function(9) == character(9, 1)

    _check("criterion 5: character polynomial C(Z1,2) + Z2 predicts n=9", 30.0, body)


def test_criterion_6_coinvariant_maps():
    def body():
        for k in (1, 2):
            for a in range(0, 4):
                for n in range(max(2, a), 9):
                    report = coinvariant_report(n, a, k)
                    assert report.injective, (n, a, k, report)
                    if n >= 2 * k + a:
                        assert report.surjective, (n, a, k, report)

    _check("criterion 6: coinvariant maps injective, surjective from n = 2k+a", 300.0, body)


def test_criterion_7_weight_and_length_bounds():
    def body():
        windows = {1: range(2, 9), 2: range(2, 11)}
        for k, window in windows.items():
            for n in window:
                dec = decomposition(n, k)
                if dec:
                    assert weight_of(dec) <= 2 * k, (n, k)
                    assert length_of(dec) <= 2 * k + 1, (n, k)

    _check("criterion 7: weight <= 2k and length <= 2k+1 across the windows", 300.0, body)


WREATH_STABLE = {
    (1, 1): {0: 1, 1: 1, 2: 0},
    (1, 2): {0: 1, 1: 2, 2: 1},
    (1, 2, 1): {0: 1, 1: 2, 2: 2},
}


def test_criterion_8_wreath_stability():
    def body():
        for dims, stable in WREATH_STABLE.items():
            for i in range(0, 3):
                values = [
                    wreath_invariant_dim(dims, n, i) for n in range(2 * i, 9)
                ]
                assert all(v == stable[i] for v in values), (dims, i, values)

    _check("criterion 8: wreath invariants constant for n >= 2i", 60.0, body)


def test_criterion_9_kernel_property_suites():
    def body():
        # character orthogonality and the dimension identity
        for n in range(1, 9):
            chars = {lam: irreducible_character(lam) for lam in partitions(n)}
            for lam, chi_a in chars.items():
                for nu, chi_b in chars.items():
                    assert inner_product(chi_a, chi_b) == (1 if lam == nu else 0)
            assert sum(dimension(lam) ** 2 for lam in partitions(n)) == factorial(n)

        # Pieri rule against the induced-character route
        shapes = [lam for m in range(0, 5) for lam in partitions(m)]
        for lam in shapes:
            for n in range(sum(lam), 9):
                chi = induced_character(
                    irreducible_character(lam), trivial_character(n - sum(lam))
                )
                assert decompose(chi) == m_module(lam, n), (lam, n)

        # representation axiom for the configuration-space action
        rng = random.Random(20240229)
        for n in range(3, 8):
            for k in (1, 2):
                for _ in range(3):
                    sigma = list(range(1, n + 1))
                    tau = list(range(1, n + 1))
                    rng.shuffle(sigma)
                    rng.shuffle(tau)
                    composed = tuple(sigma[tau[i] - 1] for i in range(n))
                    assert mat_mul_columns(
                        action_columns(sigma, k), action_columns(tau, k)
                    ) == action_columns(composed, k)

    _check("criterion 9: orthogonality, dim identity, Pieri, representation axiom", 300.0, body)
