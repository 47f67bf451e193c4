import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies

from fistab.bounds import (
    TABLE1_ROWS,
    BoundParams,
    StabilityType,
    abutment_stability,
    fisharp_degree,
    page_stability,
    table1_row,
)
from fistab.errors import DomainError
from fi_oracles import einfty_stability


def test_bound_params_validation():
    BoundParams(0, 1)
    BoundParams(Fraction(1, 2), 1)
    with pytest.raises(DomainError, match="^constants must be nonnegative, got alpha=-1, beta=2$"):
        BoundParams(-1, 2)
    with pytest.raises(DomainError):
        page_stability(BoundParams(2, 3), (0, 0), 3)  # needs 2*alpha <= beta


def test_bound_params_is_an_immutable_value():
    params = BoundParams(Fraction(1, 2), 2)
    assert repr(params) == "BoundParams(alpha=Fraction(1, 2), beta=Fraction(2, 1))"
    assert params == BoundParams(0.5, 2) and hash(params) == hash(BoundParams(0.5, 2))
    assert params != BoundParams(1, 2) and params != (Fraction(1, 2), 2)
    with pytest.raises(AttributeError):
        params.alpha = Fraction(0)
    with pytest.raises(AttributeError):
        del params.beta
    with pytest.raises(DomainError, match="got alpha=-1/2, beta=2$"):
        BoundParams(Fraction(-1, 2), 2)
    row = table1_row("moduli", 2)
    assert repr(row) == (
        "Table1Row(example='moduli', i=2, N=12, length_bound=5, char_degree_bound=4, "
        "weight=4, stability_type=StabilityType(inj=8, surj=4), derived_N=12)"
    )
    assert row == table1_row("moduli", 2)
    with pytest.raises(AttributeError):
        row.i = 3


def test_page_stability_examples():
    assert page_stability(BoundParams(1, 2), (0, 0), 3) == StabilityType(0, 0)
    assert page_stability(BoundParams(0, 1), (2, 1), 4) == StabilityType(3, 1)
    assert page_stability(BoundParams(1, 2), (1, 1), 5) == StabilityType(5, 3)


def test_page_stability_requires_page_three():
    with pytest.raises(DomainError):
        page_stability(BoundParams(1, 2), (0, 0), 2)
    with pytest.raises(DomainError):
        page_stability(BoundParams(1, 2), (-1, 0), 3)


def test_page_injectivity_monotone_in_r_surjectivity_flat():
    params = BoundParams(1, 2)
    for p in range(0, 4):
        for q in range(0, 4):
            previous = None
            for r in range(3, 9):
                st = page_stability(params, (p, q), r)
                assert st.surj == page_stability(params, (p, q), 3).surj
                if previous is not None:
                    assert st.inj >= previous.inj
                previous = st


def test_einfty_examples():
    assert einfty_stability(BoundParams(1, 2), 1, 0) == StabilityType(2, 2)
    st = einfty_stability(BoundParams(0, 1), 2, 2)
    assert st.surj == 0
    assert st.inj <= (2 * 1 - 0) * 2 - 0
    assert einfty_stability(BoundParams(1, 2), 0, 0).surj == 0


def test_einfty_below_abutment_bound():
    for alpha, beta in [(0, 1), (1, 2), (0, 3), (1, 3)]:
        params = BoundParams(alpha, beta)
        for i in range(0, 8):
            bound = abutment_stability(params, i)
            for p in range(0, i + 1):
                st = einfty_stability(params, i, p)
                assert st.inj <= bound.inj
                assert st.surj <= bound.surj


GRID = [Fraction(x) for x in ("0", "1/3", "1/2", "1", "3/2", "2", "5/2", "3", "7/3", "4")]


def test_abutment_is_the_worst_quotient_and_a_page_entry():
    # every bound is one entry formula: the abutment is the E-infinity
    # quotient at p_filt = 0, the largest over p_filt, and with a
    # degeneration page r the (0, i) entry on page r
    for alpha in GRID:
        for beta in (b for b in GRID if 2 * alpha <= b):
            params = BoundParams(alpha, beta)
            for i in range(12):
                bound = abutment_stability(params, i)
                quotients = [einfty_stability(params, i, p) for p in range(i + 1)]
                assert bound == quotients[0], (alpha, beta, i)
                assert bound.inj == max(q.inj for q in quotients)
                assert bound.surj == max(q.surj for q in quotients)
                for r in range(3, 10):
                    assert abutment_stability(params, i, degenerates_at=r) == page_stability(
                        params, (0, i), r
                    ), (alpha, beta, i, r)


def test_einfty_validates_filtration():
    with pytest.raises(DomainError):
        einfty_stability(BoundParams(0, 1), 2, 3)


def test_abutment_formulas():
    for i in range(0, 11):
        assert abutment_stability(BoundParams(1, 2), i) == StabilityType(
            max(0, 3 * i - 1), 2 * i
        )
        assert abutment_stability(BoundParams(0, 1), i) == StabilityType(2 * i, i)
        assert abutment_stability(BoundParams(0, 2), i) == StabilityType(4 * i, 2 * i)


def test_abutment_with_degeneration():
    # degeneration at page 3 sharpens the surface bound to (2i, 2i)
    for i in range(0, 11):
        st = abutment_stability(BoundParams(1, 2), i, degenerates_at=3)
        assert st == StabilityType(2 * i, 2 * i)
    with pytest.raises(DomainError):
        abutment_stability(BoundParams(1, 2), 1, degenerates_at=2)


def test_fisharp_degree():
    assert fisharp_degree(BoundParams(1, 2), 3) == 6
    assert fisharp_degree(BoundParams(1, 1), 4) == 4
    assert fisharp_degree(BoundParams(0, 2), 0) == 0
    with pytest.raises(DomainError):
        fisharp_degree(BoundParams(2, 1), 1)


def test_rational_parameters_ceil():
    st = abutment_stability(BoundParams(Fraction(1, 2), Fraction(3, 2)), 1)
    # (2b - a) i - a = 5/2 - 1/2 = 2; b i = 3/2 -> ceil 2
    assert st == StabilityType(2, 2)


TABLE_N = {
    "config_surface_closed": lambda i: 5 * i,
    "config_surface_boundary": lambda i: 4 * i,
    "config_surface_open": lambda i: 5 * i,
    "moduli": lambda i: 6 * i,
    "pmod_surface_boundary": lambda i: 4 * i,
    "pmod_highdim": lambda i: 3 * i,
    "pmod_highdim_boundary": lambda i: 2 * i,
    "bpdiff": lambda i: 3 * i,
}

TABLE_LENGTH = {
    "config_surface_closed": lambda i: 2 * i + 1,
    "config_surface_boundary": lambda i: 2 * i + 1,
    "config_surface_open": lambda i: 2 * i + 1,
    "moduli": lambda i: 2 * i + 1,
    "pmod_surface_boundary": lambda i: 2 * i + 1,
    "pmod_highdim": lambda i: i + 1,
    "pmod_highdim_boundary": lambda i: i + 1,
    "bpdiff": lambda i: i + 1,
}


@pytest.mark.parametrize("row", TABLE1_ROWS)
def test_table1_rows(row):
    for i in range(0, 6):
        data = table1_row(row, i)
        assert data.N == TABLE_N[row](i)
        assert data.length_bound == TABLE_LENGTH[row](i)
        assert data.char_degree_bound == TABLE_LENGTH[row](i) - 1
        # generation rule behind the table
        assert data.derived_N == data.weight + data.stability_type.stability_degree
        assert data.length_bound == data.weight + 1
        assert data.char_degree_bound == data.weight


@pytest.mark.parametrize("row", TABLE1_ROWS)
def test_table1_derived_matches_printed_except_surface_rows(row):
    for i in range(0, 6):
        data = table1_row(row, i)
        if row in ("config_surface_closed", "config_surface_open"):
            # the printed 5i is coarser than the derivation; both emitted
            assert data.derived_N <= data.N
        else:
            assert data.derived_N == data.N


def test_table1_moduli_example():
    data = table1_row("moduli", 2)
    assert (data.N, data.length_bound, data.char_degree_bound) == (12, 5, 4)
    assert data.stability_type == StabilityType(8, 4)


def test_table1_unknown_row():
    with pytest.raises(DomainError):
        table1_row("mystery", 1)
    with pytest.raises(DomainError):
        table1_row("moduli", -1)


# ---------------------------------------------------------------------------
# The bounds work on integer numerators over a common denominator.  The
# Fraction formulas they replaced are the oracle: every bound and every
# refusal must agree with them exactly.


def _ceil0(x) -> int:
    return max(0, math.ceil(x))


def _entry(alpha, beta, p, q, r) -> StabilityType:
    surj = alpha * p + beta * q
    return StabilityType(_ceil0(surj + (beta - alpha) * r + (alpha - 2 * beta)), _ceil0(surj))


def _refusal(call) -> str:
    with pytest.raises(DomainError) as exc:
        call()
    return str(exc.value)


CONSTANTS = strategies.fractions(min_value=0, max_value=10**4, max_denominator=10**6)
DEGREES = strategies.integers(0, 10**4)


@settings(max_examples=400, deadline=None)
@given(CONSTANTS, CONSTANTS, DEGREES, DEGREES, strategies.integers(3, 10**4), DEGREES)
def test_integer_bounds_agree_with_the_fraction_formulas(alpha, beta, p, q, r, i):
    # beta as drawn, and beta + 2*alpha, which meets the page ratio
    for beta in (beta, beta + 2 * alpha):
        params = BoundParams(alpha, beta)
        assert (params.alpha, params.beta) == (alpha, beta)
        assert Fraction(params._a, params._d) == alpha and Fraction(params._b, params._d) == beta
        if 2 * alpha <= beta:
            assert page_stability(params, (p, q), r) == _entry(alpha, beta, p, q, r)
            assert abutment_stability(params, i) == _entry(alpha, beta, 0, i, i + 2)
            assert abutment_stability(params, i, degenerates_at=r) == _entry(alpha, beta, 0, i, r)
        else:
            want = f"page propagation requires 2*alpha <= beta, got alpha={alpha}, beta={beta}"
            assert _refusal(lambda: page_stability(params, (p, q), r)) == want
            assert _refusal(lambda: abutment_stability(params, i)) == want
        p_filt = min(p, i)
        assert einfty_stability(params, i, p_filt) == _entry(alpha, beta, p_filt, i - p_filt, i + 2)
        if alpha <= beta:
            assert fisharp_degree(params, i) == _ceil0(beta * i)
        else:
            assert _refusal(lambda: fisharp_degree(params, i)) == (
                f"generation-degree bound requires alpha <= beta, got alpha={alpha}, beta={beta}"
            )


# row -> (N per degree, weight per degree, alpha, beta, bound): "fisharp",
# or the abutment bound at the degeneration page (None: page i + 2)
TABLE1_ORACLE = {
    "config_surface_closed": (5, 2, 1, 2, 3),
    "config_surface_boundary": (4, 2, 1, 2, "fisharp"),
    "config_surface_open": (5, 2, 1, 2, None),
    "moduli": (6, 2, 0, 2, None),
    "pmod_surface_boundary": (4, 2, 0, 2, "fisharp"),
    "pmod_highdim": (3, 1, 0, 1, None),
    "pmod_highdim_boundary": (2, 1, 0, 1, "fisharp"),
    "bpdiff": (3, 1, 0, 1, None),
}


def test_table1_rows_agree_with_the_fraction_formulas():
    assert tuple(TABLE1_ORACLE) == TABLE1_ROWS
    for row, (n_per_degree, weight_per_degree, alpha, beta, bound) in TABLE1_ORACLE.items():
        alpha, beta = Fraction(alpha), Fraction(beta)
        for i in range(51):
            if bound == "fisharp":
                stype = StabilityType(0, _ceil0(beta * i))
            else:
                stype = _entry(alpha, beta, 0, i, bound or i + 2)
            weight = weight_per_degree * i
            assert table1_row(row, i) == (
                row, i, n_per_degree * i, weight + 1, weight, weight, stype,
                weight + max(stype),
            ), (row, i)
