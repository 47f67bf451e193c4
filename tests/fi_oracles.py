"""Reference forms of what `fistab.fi_analysis`, `fistab.fi_reports` and
`fistab.bounds` compute, which no CLI request needs.

`binomial` is C(n, k) on every integer n, the oracle of the binomial rows
that `fit_dim_polynomial` builds by their recurrence; `dim_value` and
`char_value` evaluate the two fitted polynomials term by term;
`unpad`, `weight_of`, `length_of` and `quotient_betti` read statistics
off padded partitions and decompositions; `sequence_mapping` writes an
`FISequence` as the JSON that `fistab.tables.sequence` reads; and
`einfty_stability` is the page bound at the filtration quotient, where
`abutment_stability` takes the worst one.
"""

from fractions import Fraction
from math import comb, prod

from fistab.bounds import StabilityType, _entry_bound
from fistab.characters import ClassFunction
from fistab.errors import DomainError
from fistab.partitions import Partition, check_partition, cycle_counts, partitions


def binomial(n: int, k: int) -> int:
    """comb() extended to negative upper argument, so that binomial
    polynomials can be evaluated anywhere on the integers."""
    if k < 0:
        return 0
    if n < 0:
        return (-1) ** k * comb(-n + k - 1, k)
    return comb(n, k)


def dim_value(poly, t: int) -> Fraction:
    """The value at t of an fi_analysis.IntPolynomial, as a Fraction."""
    return sum((c * binomial(t, j) for j, c in poly.coeffs.items()), Fraction(0))


def char_value(poly, mu: Partition):
    """The value of an fi_reports.CharPolynomial at the class mu: an int,
    or a Fraction when a coefficient is one."""
    counts = cycle_counts(check_partition(mu))
    return sum(
        c * prod(comb(counts.get(length, 0), e) for length, e in mono)
        for mono, c in poly.coeffs.items()
    )


def char_class_function(poly, n: int) -> ClassFunction:
    """The class function of S_n that a character polynomial takes."""
    return ClassFunction(n, {mu: char_value(poly, mu) for mu in partitions(n)})


def unpad(mu: Partition) -> Partition:
    """Drop the first part; inverse of pad wherever pad is defined."""
    return check_partition(mu)[1:]


def weight_of(V) -> int:
    """Largest |unpad(mu)| over the constituents; 0 for the zero module."""
    if not V.mult:
        return 0
    return max(V.n - mu[0] for mu in V.mult)


def length_of(V) -> int:
    """Largest number of parts among the constituents."""
    if not V.mult:
        raise DomainError("the zero decomposition has no length")
    return max(len(mu) for mu in V.mult)


def quotient_betti(V) -> int:
    """Multiplicity of the trivial representation; by transfer, the Betti
    number of the quotient by the symmetric-group action."""
    return V.mult.get((V.n,) if V.n else (), 0)


def sequence_mapping(seq) -> dict:
    """An fi_analysis.FISequence as {"window": ..., "entries": {"<n>":
    table}}, each entry written by its own to_mapping."""
    return {
        "window": [seq.n_min, seq.n_max],
        "entries": {str(n): seq[n].to_mapping() for n in seq},
    }


def einfty_stability(params, i: int, p_filt: int) -> StabilityType:
    """Stability type of the filtration quotient in total degree i at
    filtration p_filt, read off the page where the entry freezes."""
    if not 0 <= p_filt <= i:
        raise DomainError(f"need 0 <= p_filt <= {i}, got {p_filt}")
    return _entry_bound(params, p_filt, i - p_filt, i + 2)
