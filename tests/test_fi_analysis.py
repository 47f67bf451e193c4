import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from fistab.characters import ClassFunction, IrrDecomposition, trivial_character
from fistab.errors import DomainError
from fistab.fi_analysis import (
    CharPolynomial,
    FISequence,
    IntPolynomial,
    StabilityReport,
    detect_stability,
    fit_char_polynomial,
    fit_dim_polynomial,
    length_of,
    pad,
    quotient_betti,
    unpad,
    unpadded_table,
    weight_of,
    _monomial_count,
    _monomials,
)
from fistab.induction import m_module
from fistab.partitions import binomial, partitions
from linalg_helpers import fraction_solve


@st.composite
def paddable(draw):
    lam = draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=4).map(
            lambda xs: tuple(sorted(xs, reverse=True))
        )
    )
    slack = draw(st.integers(min_value=0, max_value=5))
    n = sum(lam) + (lam[0] if lam else 0) + slack
    return lam, n


def test_pad_examples():
    assert pad((), 5) == (5,)
    assert pad((1,), 4) == (3, 1)
    assert pad((2, 1), 7) == (4, 2, 1)
    assert pad((), 0) == ()


def test_pad_rejects_small_n():
    with pytest.raises(DomainError):
        pad((2, 1), 4)  # needs n >= 5
    with pytest.raises(DomainError):
        pad((3,), 5)  # needs n >= 6


def test_unpad_examples():
    assert unpad((5,)) == ()
    assert unpad((3, 1)) == (1,)
    assert unpad((4, 2, 1)) == (2, 1)
    assert unpad(()) == ()


@given(paddable())
def test_pad_unpad_round_trip(case):
    lam, n = case
    assert unpad(pad(lam, n)) == lam
    assert sum(pad(lam, n)) == n


def test_weight_and_length():
    triv = IrrDecomposition(6, {(6,): 1})
    assert weight_of(triv) == 0
    assert length_of(triv) == 1
    assert weight_of(IrrDecomposition(4, {(3, 1): 1})) == 1
    assert weight_of(m_module((2,), 6)) == 2
    sign = IrrDecomposition(5, {(1, 1, 1, 1, 1): 1})
    assert length_of(sign) == 5
    assert length_of(IrrDecomposition(7, {(4, 2, 1): 1})) == 3
    assert weight_of(IrrDecomposition(3, {})) == 0
    with pytest.raises(DomainError):
        length_of(IrrDecomposition(3, {}))


def test_quotient_betti():
    assert quotient_betti(IrrDecomposition(4, {(4,): 2, (3, 1): 5})) == 2
    assert quotient_betti(IrrDecomposition(4, {(1, 1, 1, 1): 1})) == 0
    assert quotient_betti(IrrDecomposition(0, {(): 3})) == 3


def test_unpadded_table():
    dec = IrrDecomposition(5, {(5,): 1, (4, 1): 2, (3, 2): 1})
    assert unpadded_table(dec) == {(): 1, (1,): 2, (2,): 1}


def test_fisequence_validation():
    entries = {n: m_module((1,), n) for n in (2, 3, 4)}
    seq = FISequence(entries)
    assert seq.window == (2, 4)
    with pytest.raises(DomainError):
        FISequence({2: m_module((1,), 2), 4: m_module((1,), 4)})  # gap
    with pytest.raises(DomainError):
        FISequence({2: m_module((1,), 3)})  # n mismatch
    with pytest.raises(DomainError):
        FISequence({})


def test_fisequence_mapping_round_trip():
    seq = FISequence({n: m_module((1,), n) for n in (2, 3, 4)})
    payload = seq.to_mapping()
    again = FISequence.decompositions_from_mapping(payload)
    assert again.window == seq.window
    assert all(again[n] == seq[n] for n in seq)


def test_detect_stability_constant_sequence():
    seq = FISequence({n: IrrDecomposition(n, {(n,): 1}) for n in range(1, 6)})
    report = detect_stability(seq)
    assert report.stabilized and report.stable_from == 1
    assert report.stable_table == {(): 1}


def test_detect_stability_of_free_module():
    seq = FISequence({n: m_module((1,), n) for n in range(1, 7)})
    report = detect_stability(seq)
    assert report.stable_from == 2
    assert report.stable_table == {(): 1, (1,): 1}


def test_detect_stability_matches_strip_table():
    lam = (2, 1)
    seq = FISequence({n: m_module(lam, n) for n in range(3, 10)})
    report = detect_stability(seq)
    assert report.stabilized
    expected = unpadded_table(m_module(lam, 9))
    assert report.stable_table == expected


def test_detect_stability_not_stabilized():
    entries = {
        2: IrrDecomposition(2, {(2,): 1}),
        3: IrrDecomposition(3, {(3,): 2}),
    }
    report = detect_stability(FISequence(entries))
    assert not report.stabilized
    assert report.stable_from is None
    assert report.to_mapping()["note"] == "not stabilized in window"


def test_stability_report_is_an_immutable_record():
    report = detect_stability(FISequence({n: m_module((1,), n) for n in range(1, 7)}))
    assert repr(report) == (
        "StabilityReport(window=(1, 6), stable_from=2, stable_table={(): 1, (1,): 1})"
    )
    assert report == StabilityReport((1, 6), 2, {(): 1, (1,): 1})
    assert report != StabilityReport((1, 6), None, {(): 1, (1,): 1})
    with pytest.raises(AttributeError):
        report.stable_from = None
    assert report._replace(stable_from=None).stabilized is False
    with pytest.raises(TypeError):  # its table is a dict
        hash(report)


def test_detect_stability_window_too_short():
    with pytest.raises(DomainError):
        detect_stability(FISequence({3: m_module((1,), 3)}))


def test_detect_stability_rejects_characters():
    seq = FISequence({n: trivial_character(n) for n in (2, 3)})
    with pytest.raises(DomainError):
        detect_stability(seq)


# ---------------------------------------------------------------------------
# character polynomials


def test_fit_constant_polynomial():
    seq = FISequence({n: trivial_character(n) for n in range(2, 6)})
    poly = fit_char_polynomial(seq, 0)
    assert poly == CharPolynomial({(): 1})
    assert poly.weighted_degree == 0


def test_fit_fixed_pair_counting():
    # trace of a permutation on unordered pairs: C(Z1, 2) + Z2
    def pair_character(n):
        values = {}
        for mu in partitions(n):
            z1 = sum(1 for part in mu if part == 1)
            z2 = sum(1 for part in mu if part == 2)
            values[mu] = z1 * (z1 - 1) // 2 + z2
        return ClassFunction(n, values)

    seq = FISequence({n: pair_character(n) for n in range(4, 8)})
    poly = fit_char_polynomial(seq, 2)
    assert poly == CharPolynomial({((1, 2),): 1, ((2, 1),): 1})
    assert poly.weighted_degree == 2
    # exact prediction outside the window
    predicted = poly.as_class_function(9)
    assert predicted == pair_character(9)


def test_fit_reproduces_every_window_value():
    seq = FISequence({n: m_module((1,), n).character() for n in range(3, 7)})
    poly = fit_char_polynomial(seq, 1)
    for n in seq:
        assert poly.as_class_function(n) == seq[n]
    # the fitted degree never exceeds the weight of the sequence
    assert poly.weighted_degree <= 1


def test_fit_reads_a_window_of_decompositions_through_their_characters():
    # M(S^(1)) at level n is the permutation representation on n points
    entries = {n: m_module((1,), n) for n in range(2, 7)}
    assert all(isinstance(entry, IrrDecomposition) for entry in entries.values())
    characters = {n: entry.character() for n, entry in entries.items()}
    poly = fit_char_polynomial(FISequence(entries), 2)
    assert poly == CharPolynomial({((1, 1),): 1}) == fit_char_polynomial(FISequence(characters), 2)


def test_fit_reports_inconsistent_degree_bound():
    seq = FISequence({n: m_module((2,), n).character() for n in range(4, 8)})
    with pytest.raises(DomainError, match="no character polynomial"):
        fit_char_polynomial(seq, 1)


def test_fit_reports_undetermined_monomials():
    # a single tiny group cannot pin down high-weight monomials
    seq = FISequence({1: trivial_character(1), 2: trivial_character(2)})
    with pytest.raises(DomainError, match="does not determine"):
        fit_char_polynomial(seq, 4)


def test_monomials_are_counted_without_enumerating_them():
    # the up-front refusal compares this count with the class values; the
    # enumeration lists each monomial once, by weighted degree and then
    # lexicographically
    for bound in range(13):
        monos = _monomials(bound)
        assert len(set(monos)) == len(monos) == _monomial_count(bound, cap=10**6)
        assert monos == sorted(monos, key=lambda m: (sum(l * e for l, e in m), m))
        assert all(sum(l * e for l, e in m) <= bound for m in monos)
    assert _monomial_count(10**9, cap=100) > 100


def test_char_polynomial_metadata():
    poly = CharPolynomial({((1, 2),): 1, ((2, 1),): 1})
    assert poly.weighted_degree == 2
    assert poly.max_cycle_length == 2
    payload = poly.to_mapping()
    assert [t["monomial"] for t in payload["terms"]] == ["C(Z1,2)", "Z2"]


# ---------------------------------------------------------------------------
# dimension polynomials


def test_fit_dim_constant():
    poly = fit_dim_polynomial({n: 1 for n in range(2, 6)}, 1)
    assert poly == IntPolynomial({0: 1})
    assert poly.degree == 0


def test_fit_dim_binomial():
    dims = {n: n * (n - 1) // 2 for n in range(2, 8)}
    poly = fit_dim_polynomial(dims, 3)
    assert poly == IntPolynomial({2: 1})
    assert poly.evaluate(12) == 66


def test_fit_dim_degree_four():
    def e2(n):
        return sum(i * j for i in range(1, n) for j in range(i + 1, n))

    dims = {n: e2(n) for n in range(2, 9)}
    assert dims[4] == 11 and dims[5] == 35
    poly = fit_dim_polynomial(dims, 4)
    assert poly.degree == 4
    assert poly.evaluate(10) == e2(10)
    for n, v in dims.items():
        assert poly.evaluate(n) == v


def _held_out_fit(dims, degree_bound):
    # the brute-force route, as the oracle: solve on the first d + 1
    # distinct levels over Fraction, then evaluate the polynomial at every
    # point (a level may be given twice, as 2 and "2")
    points = sorted((int(n), v) for n, v in dims.items())
    for d in range(degree_bound + 1):
        fit = list(dict(points).items())[: d + 1]
        rows = [[binomial(n, j) for j in range(d + 1)] for n, _ in fit]
        solution, free, consistent = fraction_solve(rows, [v for _, v in fit])
        if not consistent or free:
            continue
        poly = IntPolynomial(dict(enumerate(solution)))
        if all(poly.evaluate(n) == v for n, v in points):
            return poly
    return None


def test_fit_dim_matches_held_out_fit():
    rng = random.Random(16)
    for _ in range(600):
        shape = rng.choice(["exact", "last", "any", "low", "duplicate", "clash"])
        # a low-degree table under a bound of up to 8
        degree_bound = rng.randint(0, 8 if shape == "low" else 4)
        levels = sorted(rng.sample(range(-12, 16), rng.randint(degree_bound + 2, 11)))
        top = rng.randint(0, 2 if shape == "low" else 5)
        coeffs = {j: rng.randint(-5, 5) for j in range(top)}
        dims = {n: sum(c * binomial(n, j) for j, c in coeffs.items()) for n in levels}
        if shape == "last":  # only the last point breaks the fit
            dims[levels[-1]] += rng.choice([-2, -1, 1, 2])
        elif shape == "any":
            dims = {n: rng.randint(-20, 20) for n in levels}
        elif shape in ("duplicate", "clash"):  # levels given twice, as n and "n"
            for n in rng.sample(levels, rng.randint(1, len(levels))):
                dims[str(n)] = dims[n] + (rng.choice([-1, 1]) if shape == "clash" else 0)
        try:
            poly = fit_dim_polynomial(dims, degree_bound)
        except DomainError as exc:
            assert "no integer-valued polynomial" in str(exc)
            poly = None
        assert poly == _held_out_fit(dims, degree_bound), (dims, degree_bound)


def test_fit_dim_is_one_solve():
    # one exact solve per fit, whatever degree the fit has or whether it
    # is refused
    from fistab import linalg

    tables = [
        ({n: binomial(n, 4) + n for n in range(12)}, 6),
        ({n: 7 for n in range(12)}, 8),
        ({n: 2**n for n in range(12)}, 5),
        ({**{n: n for n in range(3)}, **{str(n): n for n in range(3)}}, 4),
    ]
    for dims, degree_bound in tables:
        with mock.patch.object(linalg, "solve_exact", wraps=linalg.solve_exact) as solve:
            try:
                fit_dim_polynomial(dims, degree_bound)
            except DomainError:
                pass
        assert solve.call_count == 1, (dims, degree_bound)


def test_fit_dim_needs_enough_points():
    with pytest.raises(DomainError, match="at least"):
        fit_dim_polynomial({2: 1, 3: 2, 4: 4}, 2)


def test_fit_dim_failure_is_explicit():
    dims = {n: 2**n for n in range(1, 8)}
    with pytest.raises(DomainError, match="no integer-valued polynomial"):
        fit_dim_polynomial(dims, 4)


def test_int_polynomial_integrality_on_window():
    dims = {n: binomial(n, 3) + n for n in range(1, 9)}
    poly = fit_dim_polynomial(dims, 4)
    for t in range(-3, 15):
        assert poly.evaluate(t).denominator == 1
