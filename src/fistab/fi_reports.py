"""The two results of an FI-sequence analysis that os-scan reports as
well: where a window's unpadded multiplicity tables stop changing
(StabilityReport) and the character polynomial its characters agree with
(CharPolynomial).  fistab.fi_analysis computes them by detection and by
an exact fit, and re-exports both; os_model and the os-scan handler read
them off the free modules, so they import this module and not the fits.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .characters import exact_obj, exact_quotient
from .partitions import Partition, cycle_counts, format_partition


class StabilityReport(NamedTuple):
    """Where a window's unpadded multiplicity tables stop changing."""

    window: tuple[int, int]
    stable_from: int | None
    stable_table: dict[Partition, int]

    @property
    def stabilized(self) -> bool:
        return self.stable_from is not None

    def to_mapping(self) -> dict:
        return {
            "window": list(self.window),
            "stabilized": self.stabilized,
            "stable_from": self.stable_from,
            "note": (
                f"consistent with N = {self.stable_from}"
                if self.stabilized
                else "not stabilized in window"
            ),
            "stable_table": {
                format_partition(root): m for root, m in sorted(self.stable_table.items())
            },
        }


# ---------------------------------------------------------------------------
# Character polynomials: exact polynomials in the cycle-count statistics
# Z_l, expressed in the basis prod_l C(Z_l, m_l).  The weighted degree of a
# monomial is sum l*m_l.


def _monomial(mu: Partition) -> tuple[tuple[int, int], ...]:
    # prod_l C(Z_l, m_l), m_l the number of l-cycles of mu, as sorted (l, m_l)
    return tuple(sorted(cycle_counts(mu).items()))


def _monomial_key(mono) -> tuple:
    # weighted degree, then lexicographic
    return (sum(l * e for l, e in mono), mono)


def monomial_label(mono: tuple[tuple[int, int], ...]) -> str:
    if not mono:
        return "1"
    factors = []
    for length, exp in mono:
        if exp == 1:
            factors.append(f"Z{length}")
        else:
            factors.append(f"C(Z{length},{exp})")
    return "*".join(factors)


def _monomial_value(mono, counts: dict[int, int]) -> int:
    # prod_l C(Z_l, m_l) at the cycle counts Z_l, never negative
    val = 1
    for length, exp in mono:
        val *= comb(counts.get(length, 0), exp)
        if val == 0:
            return 0
    return val


class CharPolynomial:
    """A polynomial in the statistics Z_l = number of l-cycles, stored in
    the integer-valued basis prod_l C(Z_l, m_l); integral coefficients are
    ints (characters.exact_quotient), so an os-scan character polynomial
    never loads fractions."""

    def __init__(self, coeffs: dict):
        exact = {mono: exact_quotient(c) for mono, c in coeffs.items()}
        self.coeffs = {mono: c for mono, c in exact.items() if c != 0}

    @property
    def weighted_degree(self) -> int:
        """Degree with each Z_l counted with weight l."""
        if not self.coeffs:
            return 0
        return max(sum(l * e for l, e in mono) for mono in self.coeffs)

    @property
    def max_cycle_length(self) -> int:
        """Largest cycle length the polynomial actually reads; characters
        agreeing with it depend only on cycles up to this length."""
        if not any(self.coeffs):
            return 0
        return max((l for mono in self.coeffs for l, _ in mono), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, CharPolynomial) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        if not self.coeffs:
            return "CharPolynomial(0)"
        body = " + ".join(
            f"{c}*{monomial_label(m)}" if c != 1 or not m else monomial_label(m)
            for m, c in sorted(self.coeffs.items(), key=lambda kv: _monomial_key(kv[0]))
        )
        return f"CharPolynomial({body})"

    def to_mapping(self) -> dict:
        terms = [
            {
                "monomial": monomial_label(mono),
                "exponents": {str(l): e for l, e in mono},
                "coefficient": exact_obj(c),
            }
            for mono, c in sorted(self.coeffs.items(), key=lambda kv: _monomial_key(kv[0]))
        ]
        return {
            "terms": terms,
            "weighted_degree": self.weighted_degree,
            "max_cycle_length": self.max_cycle_length,
        }
