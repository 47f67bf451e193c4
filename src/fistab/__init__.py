"""Exact calculus for sequences of symmetric-group representations.

Everything is computed over the rationals with exact arithmetic: partition
combinatorics and characters, induction products and graded tensor powers,
stability analysis of representation sequences, spectral-sequence bound
arithmetic, and a concrete configuration-space model realized by the
Orlik-Solomon algebra of the braid arrangement.
"""

from .bounds import (
    BoundParams,
    StabilityType,
    Table1Row,
    abutment_stability,
    einfty_stability,
    fisharp_degree,
    page_stability,
    table1_row,
)
from .characters import (
    ClassFunction,
    IrrDecomposition,
    decompose,
    inner_product,
    irreducible_character,
    mn_character,
    regular_character,
    sign_character,
    trivial_character,
)
from .errors import ConsistencyError, DomainError
from .fi_analysis import (
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
)
from .induction import (
    coinvariants_as_sa,
    induced_character,
    kunneth_decomposition,
    kunneth_power,
    m_module,
    m_regular,
    wreath_invariant_dim,
    wreath_invariant_series,
    wreath_twisted_dim,
)
from .os_model import (
    CoinvariantReport,
    action_matrix,
    betti,
    character,
    coinvariant_report,
    decomposition,
    fi_map,
    nbc_basis,
    straighten,
)
from .partitions import (
    Partition,
    class_size,
    dimension,
    format_partition,
    parse_partition,
    partitions,
)

__version__ = "0.1.0"
