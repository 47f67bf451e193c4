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

# each export under its home module, the one module that defines it
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
    "characters": ("ClassFunction", "IrrDecomposition", "decompose", "irreducible_character"),
    "named_characters": (
        "inner_product",
        "mn_character",
        "regular_character",
        "sign_character",
        "trivial_character",
    ),
    "fi_analysis": (
        "FISequence",
        "IntPolynomial",
        "detect_stability",
        "fit_char_polynomial",
        "fit_dim_polynomial",
        "length_of",
        "quotient_betti",
        "unpad",
        "unpadded_table",
        "weight_of",
    ),
    "fi_reports": ("CharPolynomial", "StabilityReport"),
    "induction": (
        "kunneth_decomposition",
        "kunneth_power",
        "m_module",
        "m_regular",
        "wreath_invariant_dim",
    ),
    "wreath": ("wreath_invariant_series",),
    "os_model": ("CoinvariantReport", "betti", "coinvariant_report"),
    "os_reference": (
        "action_matrix",
        "character",
        "decomposition",
        "fi_map",
        "nbc_basis",
        "straighten",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("bounds", "characters", "fi_analysis", "induction", "linalg", "os_model")

# the names bound above, and those imported on first use
__all__ = sorted({*(name for name in globals() if name[0] != "_"), *_SOURCE, *_SUBMODULES})


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


def _forward(owner: str, module: str, names):
    """The module-level __getattr__ (PEP 562) of the module owner, under
    which each of names is fistab.<module>'s, imported on first use and
    looked up on every access but never stored in owner: a process that
    never asks for one compiles no <module>, and a function rebound there
    (a tracer's wrapper, a test's patch) is what owner gives.  Only the
    names that the benchmark's tracer reads in owner are forwarded
    (perfbench/trace.py LAYERS, and cli.decompose for its self-test);
    every other name is reached at its home or as fistab.<name>."""

    def __getattr__(name: str):
        if name in names:
            return getattr(_import_module(f".{module}", __name__), name)
        raise AttributeError(f"module {owner!r} has no attribute {name!r}")

    return __getattr__
