"""Exact calculus for sequences of symmetric-group representations.

Everything is computed over the rationals with exact arithmetic: partition
combinatorics and characters, induction products and graded tensor powers,
stability analysis of representation sequences, spectral-sequence bound
arithmetic, and a concrete configuration-space model realized by the
Orlik-Solomon algebra of the braid arrangement.

A name exported from a submodule is imported on first use (PEP 562), so
`import fistab` loads only the partitions and errors modules.  Those two
are bound here at once: importing a submodule binds its name on the
package, and `fistab.partitions` must stay the function, not the module.
"""

from importlib import import_module as _import_module

from .errors import ConsistencyError, DomainError
from .partitions import (
    Partition,
    class_size,
    dimension,
    format_partition,
    pad,
    parse_partition,
    partitions,
)

__version__ = "0.1.0"

_EXPORTS = {
    "bounds": (
        "BoundParams",
        "StabilityType",
        "Table1Row",
        "abutment_stability",
        "einfty_stability",
        "fisharp_degree",
        "page_stability",
        "table1_row",
    ),
    "characters": (
        "ClassFunction",
        "IrrDecomposition",
        "decompose",
        "inner_product",
        "irreducible_character",
        "mn_character",
        "regular_character",
        "sign_character",
        "trivial_character",
    ),
    "fi_analysis": (
        "CharPolynomial",
        "FISequence",
        "IntPolynomial",
        "StabilityReport",
        "detect_stability",
        "fit_char_polynomial",
        "fit_dim_polynomial",
        "length_of",
        "quotient_betti",
        "unpad",
        "unpadded_table",
        "weight_of",
    ),
    "induction": (
        "coinvariants_as_sa",
        "induced_character",
        "kunneth_decomposition",
        "kunneth_power",
        "m_module",
        "m_regular",
        "wreath_invariant_dim",
        "wreath_invariant_series",
        "wreath_twisted_dim",
    ),
    "os_model": (
        "CoinvariantReport",
        "action_matrix",
        "betti",
        "character",
        "coinvariant_report",
        "decomposition",
        "fi_map",
        "nbc_basis",
        "straighten",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("bounds", "characters", "fi_analysis", "induction", "linalg", "os_model")

__all__ = sorted(
    [
        "ConsistencyError",
        "DomainError",
        "Partition",
        "class_size",
        "dimension",
        "errors",
        "format_partition",
        "pad",
        "parse_partition",
        "partitions",
        *_SOURCE,
        *_SUBMODULES,
    ]
)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(_import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
