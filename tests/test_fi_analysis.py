import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import fistab
from fistab.characters import ClassFunction, IrrDecomposition
from fistab.errors import DomainError
from fistab.fi_analysis import (
    FISequence,
    IntPolynomial,
    detect_stability,
    fit_char_polynomial,
    fit_dim_polynomial,
    unpadded_table,
    _binomial_row,
    _class_rows,
    _monomial_count,
    _monomials,
)
from fistab.fi_reports import CharPolynomial, StabilityReport, _monomial_value
from fistab.induction import m_module
from fistab.partitions import cycle_counts, partitions
from fistab.tables import class_function, decomposition, sequence
from character_oracles import character_of, pad, trivial_character
from fi_oracles import (
    binomial,
    char_class_function,
    dim_value,
    length_of,
    quotient_betti,
    sequence_mapping,
    unpad,
    weight_of,
)
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


def test_fisequence_character_mapping_round_trip():
    seq = FISequence({n: trivial_character(n) for n in (2, 3, 4)})
    again = FISequence(sequence(sequence_mapping(seq), class_function))
    assert again.window == seq.window
    assert all(again[n] == seq[n] for n in seq)


def test_polynomials_print_their_terms():
    assert repr(CharPolynomial({((1, 2),): 1, ((2, 1),): -1})) == "CharPolynomial(C(Z1,2) + -1*Z2)"
    assert repr(CharPolynomial({(): 3})) == "CharPolynomial(3*1)"
    assert repr(CharPolynomial({})) == "CharPolynomial(0)"
    dims = {n: 1 + n * (n - 1) for n in range(2, 6)}
    assert repr(fit_dim_polynomial(dims, 2)) == "IntPolynomial(C(T,0) + 2*C(T,2))"


def test_fisequence_mapping_round_trip():
    seq = FISequence({n: m_module((1,), n) for n in (2, 3, 4)})
    again = FISequence(sequence(sequence_mapping(seq), decomposition))
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
    predicted = char_class_function(poly, 9)
    assert predicted == pair_character(9)


def test_fit_reproduces_every_window_value():
    seq = FISequence({n: character_of(m_module((1,), n)) for n in range(3, 7)})
    poly = fit_char_polynomial(seq, 1)
    for n in seq:
        assert char_class_function(poly, n) == seq[n]
    # the fitted degree never exceeds the weight of the sequence
    assert poly.weighted_degree <= 1


def test_fit_refuses_a_window_of_decompositions():
    # M(S^(1)) at level n is the permutation representation on n points:
    # its characters fit C(Z1, 1), its decompositions are refused
    entries = {n: m_module((1,), n) for n in range(2, 7)}
    characters = {n: character_of(entry) for n, entry in entries.items()}
    assert fit_char_polynomial(FISequence(characters), 2) == CharPolynomial({((1, 1),): 1})
    with pytest.raises(DomainError, match="needs characters, not decompositions"):
        fit_char_polynomial(FISequence(entries), 2)


def test_fit_reports_inconsistent_degree_bound():
    seq = FISequence({n: character_of(m_module((2,), n)) for n in range(4, 8)})
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
        assert list(monos) == sorted(monos, key=lambda m: (sum(l * e for l, e in m), m))
        assert all(sum(l * e for l, e in m) <= bound for m in monos)
    assert _monomial_count(10**9, cap=100) > 100


def test_class_rows_are_the_monomial_values_on_the_classes():
    for n in range(11):
        for bound in range(7):
            rows = _class_rows(n, bound)
            assert rows == tuple(
                tuple(_monomial_value(mono, cycle_counts(mu)) for mono in _monomials(bound))
                for mu in partitions(n)
            )
            # shared by every fit: no caller can change them
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
    assert type(_monomials(6)) is tuple


def _fit_or_message(values: dict, bound: int):
    seq = FISequence({n: ClassFunction(n, table) for n, table in values.items()})
    try:
        return fit_char_polynomial(seq, bound)
    except DomainError as exc:
        return str(exc)


def _fresh_fit_caches():
    # the fit's caches as a fresh process holds them
    _class_rows.cache_clear()
    _monomials.cache_clear()


@st.composite
def fits_on_one_window(draw):
    # two value tables on the classes of one window, each of them the
    # values of a polynomial (as fit-charpoly's requests in the
    # benchmark's mix are) or arbitrary integers
    lo = draw(st.integers(1, 4))
    window = range(lo, lo + draw(st.integers(1, 4)))
    bound = draw(st.integers(0, 3))
    small = st.integers(-3, 3)
    tables = []
    for _ in range(2):
        if draw(st.booleans()):
            poly = CharPolynomial({mono: draw(small) for mono in _monomials(bound)})
            tables.append({n: char_class_function(poly, n).values for n in window})
        else:
            tables.append({n: {mu: draw(small) for mu in partitions(n)} for n in window})
    return tables, bound


@settings(max_examples=60, deadline=None)
@given(fits_on_one_window())
def test_a_fit_is_the_same_after_another_on_its_window(case):
    tables, bound = case
    fresh = []
    for values in tables:
        _fresh_fit_caches()
        fresh.append(_fit_or_message(values, bound))
    for order in ((0, 1), (1, 0)):
        _fresh_fit_caches()
        assert [_fit_or_message(tables[i], bound) for i in order] == [fresh[i] for i in order]


def test_a_fit_after_others_is_the_fit_of_a_fresh_process():
    window = (2, 3, 4)
    constant = {n: {mu: 1 for mu in partitions(n)} for n in window}
    fixed_points = {n: {mu: mu.count(1) for mu in partitions(n)} for n in window}
    noise = {n: {mu: i for i, mu in enumerate(partitions(n))} for n in window}
    cases = [(constant, 2), (fixed_points, 2), (noise, 2), (fixed_points, 1), (noise, 0)]
    code = (
        "from fistab.characters import ClassFunction\n"
        "from fistab.errors import DomainError\n"
        "from fistab.fi_analysis import FISequence, fit_char_polynomial\n"
        "seq = FISequence({{n: ClassFunction(n, t) for n, t in {values!r}.items()}})\n"
        "try:\n"
        "    print(repr(fit_char_polynomial(seq, {bound!r})))\n"
        "except DomainError as exc:\n"
        "    print(repr(str(exc)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fistab.__file__).parents[1])}
    warm = [repr(_fit_or_message(values, bound)) for values, bound in cases]
    for (values, bound), got in zip(cases, warm):
        proc = subprocess.run(
            [sys.executable, "-c", code.format(values=values, bound=bound)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == got + "\n"


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
    assert dim_value(poly, 12) == 66


def test_fit_dim_degree_four():
    def e2(n):
        return sum(i * j for i in range(1, n) for j in range(i + 1, n))

    dims = {n: e2(n) for n in range(2, 9)}
    assert dims[4] == 11 and dims[5] == 35
    poly = fit_dim_polynomial(dims, 4)
    assert poly.degree == 4
    assert dim_value(poly, 10) == e2(10)
    for n, v in dims.items():
        assert dim_value(poly, n) == v


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
        if all(dim_value(poly, n) == v for n, v in points):
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


def _interpolated(points, degree_bound):
    # the oracle: Lagrange interpolation over Fraction through the points
    # of the first degree_bound + 1 levels; None if another point is off
    # that polynomial
    head = points[: degree_bound + 1]

    def value(t):
        total = Fraction(0)
        for n, v in head:
            term = Fraction(v)
            for m, _ in head:
                if m != n:
                    term *= Fraction(t - m, n - m)
            total += term
        return total

    return value if all(value(n) == v for n, v in points) else None


@st.composite
def dimension_tables(draw):
    """(dims, degree_bound): a polynomial at distinct levels n = r + s*k
    in -3..12, spaced by s = 1, 2 or 3, with integer coefficients in the
    binomial basis C(k, j) of k, so that it is integral on the levels and
    has rational coefficients in n once s > 1; of degree up to one past
    the bound, with some points moved off it."""
    degree_bound = draw(st.integers(0, 4))
    stride, start = draw(st.integers(1, 3)), draw(st.integers(-3, -1))
    grid = range(start, 13, stride)
    levels = draw(st.permutations(grid))[: draw(st.integers(degree_bound + 1, len(grid)))]
    degree = draw(st.integers(0, degree_bound + 1))
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=degree + 1, max_size=degree + 1))
    dims = {
        n: sum(c * binomial((n - start) // stride, j) for j, c in enumerate(coeffs))
        for n in levels
    }
    for n in draw(st.lists(st.sampled_from(levels), max_size=2)):
        dims[n] += draw(st.sampled_from((-2, -1, 1, 3)))
    return dims, degree_bound


@settings(max_examples=400, deadline=None)
@given(dimension_tables())
def test_fit_dim_matches_interpolation_oracle(table):
    dims, degree_bound = table
    points = sorted(dims.items())
    if len(points) < degree_bound + 2:
        with pytest.raises(DomainError, match="^need at least"):
            fit_dim_polynomial(dims, degree_bound)
        return
    expected = _interpolated(points, degree_bound)
    if expected is None:
        with pytest.raises(DomainError, match="^no integer-valued polynomial"):
            fit_dim_polynomial(dims, degree_bound)
        return
    poly = fit_dim_polynomial(dims, degree_bound)
    # two polynomials of degree <= 4 that agree at 16 points are one
    assert all(dim_value(poly, t) == expected(t) for t in range(-3, 13)), (dims, degree_bound)


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


def test_binomial_rows_follow_the_binomial_oracle():
    # fit_dim_polynomial's rows, built by the recurrence C(n, j + 1) =
    # C(n, j) (n - j) / (j + 1), on negative levels too
    rng = random.Random(26)
    cases = [(n, d) for n in (-2, -1, 0, 1, 2) for d in range(6)]
    cases += [(rng.randint(-300, 300), rng.randint(0, 40)) for _ in range(2000)]
    for n, degree_bound in cases:
        assert _binomial_row(n, degree_bound) == [
            binomial(n, j) for j in range(degree_bound + 1)
        ], (n, degree_bound)


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
        assert dim_value(poly, t).denominator == 1
