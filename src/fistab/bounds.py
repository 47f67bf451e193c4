"""Stability-bound arithmetic for first-quadrant spectral sequences of
finitely generated sequences of symmetric-group representations.

The inputs are two nonnegative rational constants controlling the
stability type of the starting page; the functions here propagate them
through later pages to the abutment, exactly, with a final ceiling to
integer degree bounds.  Negative intermediate values are clamped to zero
since degrees are nonnegative by definition.

The arithmetic is on integers: BoundParams holds alpha and beta as
integer numerators a and b over one common denominator d, so a bound
such as alpha*p + beta*q is the int a*p + b*q over d, and its ceiling one
floor division, -(-x // d).  Fraction is used only to read alpha and beta
and to print them.

Every bound is the page-entry bound of page_stability.  The filtration
quotient at p_filt in total degree i has frozen by page i + 2, where it is
the entry (p_filt, i - p_filt).  With 2*alpha <= beta both of its bounds
are non-increasing in p_filt (a step adds alpha - beta <= 0), so the
quotient at p_filt = 0 is the worst one and bounds the abutment.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import lcm
from typing import NamedTuple

from .errors import DomainError


class StabilityType(NamedTuple):
    """Injectivity and surjectivity degree bounds of a sequence."""

    inj: int
    surj: int

    @property
    def stability_degree(self) -> int:
        return max(self.inj, self.surj)


class BoundParams:
    """The page-level constants: injectivity degree <= beta*q and
    surjectivity degree <= alpha*p + beta*q on the starting page.
    Immutable; equal and hashed by (alpha, beta).  The bounds read the
    integers _a, _b and _d: alpha = _a/_d and beta = _b/_d."""

    __slots__ = ("alpha", "beta", "_a", "_b", "_d")

    def __init__(self, alpha, beta):
        alpha = alpha if type(alpha) is Fraction else Fraction(alpha)
        beta = beta if type(beta) is Fraction else Fraction(beta)
        if alpha.numerator < 0 or beta.numerator < 0:
            raise DomainError(f"constants must be nonnegative, got alpha={alpha}, beta={beta}")
        d = lcm(alpha.denominator, beta.denominator)
        a = alpha.numerator * (d // alpha.denominator)
        b = beta.numerator * (d // beta.denominator)
        for name, value in (("alpha", alpha), ("beta", beta), ("_a", a), ("_b", b), ("_d", d)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.alpha, self.beta) == (other.alpha, other.beta)

    def __hash__(self) -> int:
        return hash((self.alpha, self.beta))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(alpha={self.alpha!r}, beta={self.beta!r})"

    def require_ratio(self) -> None:
        # The page-propagation argument needs 2*alpha <= beta.
        if 2 * self._a > self._b:
            raise DomainError(
                f"page propagation requires 2*alpha <= beta, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )

    def require_weak_ratio(self) -> None:
        # The generation-degree variant only needs alpha <= beta.
        if self._a > self._b:
            raise DomainError(
                f"generation-degree bound requires alpha <= beta, got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


def _entry_bound(params: BoundParams, p: int, q: int, r: int) -> StabilityType:
    # the bounds over the denominator d, each ceiling -(-x // d), then clamped
    a, b, d = params._a, params._b, params._d
    surj = a * p + b * q
    inj = surj + (b - a) * r + (a - 2 * b)
    return StabilityType(max(0, -(-inj // d)), max(0, -(-surj // d)))


def page_stability(params: BoundParams, pq: tuple[int, int], r: int) -> StabilityType:
    """Stability type of the (p, q) entry on page r >= 3:
    injectivity <= alpha*p + beta*q + (beta-alpha)*r + (alpha-2*beta),
    surjectivity <= alpha*p + beta*q."""
    params.require_ratio()
    p, q = pq
    if p < 0 or q < 0:
        raise DomainError(f"first-quadrant position required, got {(p, q)}")
    if r < 3:
        raise DomainError(f"page bounds start at r = 3, got r = {r}")
    return _entry_bound(params, p, q, r)


def einfty_stability(params: BoundParams, i: int, p_filt: int) -> StabilityType:
    """Stability type of the filtration quotient in total degree i at
    filtration p_filt, read off the page where the entry freezes."""
    if not 0 <= p_filt <= i:
        raise DomainError(f"need 0 <= p_filt <= {i}, got {p_filt}")
    return _entry_bound(params, p_filt, i - p_filt, i + 2)


def abutment_stability(
    params: BoundParams, i: int, degenerates_at: int | None = None
) -> StabilityType:
    """Stability type of total degree i of the abutment:
    ((2*beta - alpha)*i - alpha, beta*i).

    When the spectral sequence is known to degenerate at page r (pass
    degenerates_at=r), the sharper page-r bound is used instead:
    injectivity <= beta*i + (beta-alpha)*r + (alpha-2*beta).
    """
    params.require_ratio()
    if i < 0:
        raise DomainError(f"cohomological degree must be nonnegative, got {i}")
    if degenerates_at is not None and degenerates_at < 3:
        raise DomainError("degeneration page must be at least 3")
    # 2*alpha <= beta makes both bounds non-increasing in p_filt, so the
    # quotient at p_filt = 0 is the worst; at r = i + 2: ((2b-a)i - a, b i)
    return _entry_bound(params, 0, i, degenerates_at or i + 2)


def fisharp_degree(params: BoundParams, i: int) -> int:
    """Generation-degree bound beta*i for the variant with injectivity
    degree forced to zero (partial-injection functoriality)."""
    params.require_weak_ratio()
    if i < 0:
        raise DomainError(f"cohomological degree must be nonnegative, got {i}")
    return max(0, -(-params._b * i // params._d))


# ---------------------------------------------------------------------------
# The summary table: one row per family of spaces/groups.  Each row stores
# the printed headline bound N and the weight, both per unit of the degree
# i, and the stability type at i that the derivation rests on;
# derived_N = weight + max(inj, surj) and length <= weight + 1, char
# degree <= weight.

_SURFACES = BoundParams(1, 2)
_FIBRATION_OVER_BASE = BoundParams(0, 2)
_HIGH_DIM = BoundParams(0, 1)


def _fisharp_type(params: BoundParams):
    return lambda i: StabilityType(0, fisharp_degree(params, i))


_TABLE1 = {
    # Degeneration at page 3 sharpens the injectivity bound.
    "config_surface_closed": (5, 2, partial(abutment_stability, _SURFACES, degenerates_at=3)),
    "config_surface_boundary": (4, 2, _fisharp_type(_SURFACES)),
    "config_surface_open": (5, 2, partial(abutment_stability, _SURFACES)),
    "moduli": (6, 2, partial(abutment_stability, _FIBRATION_OVER_BASE)),
    "pmod_surface_boundary": (4, 2, _fisharp_type(_FIBRATION_OVER_BASE)),
    "pmod_highdim": (3, 1, partial(abutment_stability, _HIGH_DIM)),
    "pmod_highdim_boundary": (2, 1, _fisharp_type(_HIGH_DIM)),
    "bpdiff": (3, 1, partial(abutment_stability, _HIGH_DIM)),
}
TABLE1_ROWS = tuple(_TABLE1)


class Table1Row(NamedTuple):
    example: str
    i: int
    N: int
    length_bound: int
    char_degree_bound: int
    weight: int
    stability_type: StabilityType
    derived_N: int

    def to_mapping(self) -> dict:
        return {
            "row": self.example,
            "i": self.i,
            "N": self.N,
            "length": self.length_bound,
            "char_degree": self.char_degree_bound,
            "derived": {
                "weight": self.weight,
                "stability_type": list(self.stability_type),
                "N": self.derived_N,
            },
        }


def table1_row(example: str, i: int) -> Table1Row:
    """Headline bounds for one example family at cohomological degree i.

    N is the printed stable range; the derived block records the weight
    and stability type behind it.  For configuration spaces of surfaces
    the printed N = 5i is coarser than the derived value, and both are
    reported.
    """
    if i < 0:
        raise DomainError(f"cohomological degree must be nonnegative, got {i}")
    if example not in _TABLE1:
        raise DomainError(f"unknown table row {example!r}; choose from {TABLE1_ROWS}")
    n_per_degree, weight_per_degree, stability = _TABLE1[example]
    weight, stype = weight_per_degree * i, stability(i)
    return Table1Row(
        example=example,
        i=i,
        N=n_per_degree * i,
        length_bound=weight + 1,
        char_degree_bound=weight,
        weight=weight,
        stability_type=stype,
        derived_N=weight + stype.stability_degree,
    )
