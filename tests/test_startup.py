"""What a fresh interpreter imports to run each subcommand.

Each subcommand imports only the layers and standard modules it calls,
builds the parser of that subcommand alone, and the package resolves its
exports on first use.  These tests look at `sys.modules` in
a fresh `sys.executable` after each step; they time nothing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import fistab

SRC = str(Path(fistab.__file__).parents[1])
# what the character, kunneth and wreath paths never need
UNUSED_LAYERS = ("fistab.os_model", "fistab.fi_analysis", "fistab.linalg", "fistab.bounds")
# standard modules listed with the package's: only some subcommands load them
WATCHED = ("csv", "dataclasses", "fractions")
KUNNETH = ["kunneth", "--graded-dims", "1,2", "--n", "6", "--i", "3", "--decompose"]
WREATH = ["wreath-scan", "--graded-dims", "1,2", "--i", "2", "--n-max", "10"]
OS_SCAN = ["os-scan", "--n-min", "2", "--n-max", "4", "--k", "1"]
OS_SCAN_SHORT = ["os-scan", "--n-min", "2", "--n-max", "5", "--k", "2"]
# the names `import fistab` made public when it imported every submodule
PUBLIC_NAMES = [
    "BoundParams", "CharPolynomial", "ClassFunction", "CoinvariantReport",
    "ConsistencyError", "DomainError", "FISequence", "IntPolynomial",
    "IrrDecomposition", "Partition", "StabilityReport", "StabilityType",
    "Table1Row", "abutment_stability", "action_matrix", "betti", "bounds",
    "character", "characters", "class_size", "coinvariant_report",
    "coinvariants_as_sa", "decompose", "decomposition", "detect_stability",
    "dimension", "einfty_stability", "errors", "fi_analysis", "fi_map",
    "fisharp_degree", "fit_char_polynomial", "fit_dim_polynomial",
    "format_partition", "induced_character", "induction", "inner_product",
    "irreducible_character", "kunneth_decomposition", "kunneth_power",
    "length_of", "linalg", "m_module", "m_regular", "mn_character",
    "nbc_basis", "os_model", "pad", "page_stability", "parse_partition",
    "partitions", "quotient_betti", "regular_character", "sign_character",
    "straighten", "table1_row", "trivial_character", "unpad", "unpadded_table",
    "weight_of", "wreath_invariant_dim", "wreath_invariant_series",
    "wreath_twisted_dim",
]


def _fresh(code: str):
    """Run `code` in a fresh interpreter on this source tree; it prints
    one JSON value, which is returned."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _loaded_after(*runs, full_parser=False) -> list[str]:
    """The package modules and the WATCHED ones in sys.modules after
    `fistab.cli` is imported, the parser of every subcommand is built if
    `full_parser`, and each argv in `runs` has run through main."""
    return _fresh(
        "import json, os, sys\n"
        "import fistab.cli\n"
        f"if {full_parser!r}:\n"
        "    fistab.cli.build_parser()\n"
        f"for argv in {list(runs)!r}:\n"
        "    assert fistab.cli.main([*argv, '--out', os.devnull]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        f"                        if m.startswith('fistab') or m in {WATCHED!r})))\n"
    )


def test_importing_the_cli_loads_no_computation_layer():
    assert _loaded_after() == [
        "fistab", "fistab.characters", "fistab.cli", "fistab.errors", "fistab.partitions",
    ]


def test_building_the_parser_loads_no_computation_layer():
    # the choices of table1 --row are the rows of the bounds module
    assert _loaded_after(full_parser=True) == [
        "fistab", "fistab.bounds", "fistab.characters", "fistab.cli",
        "fistab.errors", "fistab.partitions", "fractions",
    ]


def test_kunneth_and_wreath_scan_load_only_their_layers():
    for runs in ([KUNNETH], [WREATH], [KUNNETH, WREATH]):
        loaded = _loaded_after(*runs)
        assert "fistab.induction" in loaded, runs
        assert not {*UNUSED_LAYERS, *WATCHED} & set(loaded), (runs, loaded)


def test_os_scan_loads_neither_bounds_nor_dataclasses():
    # a window of 2k + 1 levels or more reads its character polynomial off
    # the free modules, so only a shorter one loads linalg for the exact fit
    loaded = _loaded_after(OS_SCAN)
    assert {"fistab.os_model", "fistab.fi_analysis"} <= set(loaded)
    assert not {"fistab.linalg", "fistab.bounds", "dataclasses"} & set(loaded)
    loaded = _loaded_after(OS_SCAN_SHORT)
    assert "fistab.linalg" in loaded
    assert not {"fistab.bounds", "dataclasses"} & set(loaded)


def test_csv_is_loaded_for_a_csv_report_alone():
    assert "csv" not in _loaded_after(OS_SCAN, [*KUNNETH, "--format", "text"])
    assert "csv" in _loaded_after([*KUNNETH, "--format", "csv"])


def test_partitions_stays_the_function_after_a_cli_run():
    kinds = _fresh(
        "import json, os, fistab, fistab.cli\n"
        "before = type(fistab.partitions).__name__\n"
        f"fistab.cli.main([*{KUNNETH!r}, '--out', os.devnull])\n"
        f"fistab.cli.main([*{OS_SCAN!r}, '--out', os.devnull])\n"
        "print(json.dumps([before, type(fistab.partitions).__name__, fistab.partitions(3)]))\n"
    )
    assert kinds == ["_lru_cache_wrapper", "_lru_cache_wrapper", [[1, 1, 1], [2, 1], [3]]]


def test_public_names_are_unchanged():
    names = _fresh(
        "import json, fistab\n"
        "public = sorted(n for n in dir(fistab) if not n.startswith('_'))\n"
        "star = {}\n"
        "exec('from fistab import *', star)\n"
        "print(json.dumps([public, sorted(n for n in star if not n.startswith('_'))]))\n"
    )
    assert names == [PUBLIC_NAMES, PUBLIC_NAMES]


def test_exports_are_the_objects_of_their_modules():
    from fistab import fi_analysis, induction, os_model

    partitions_module = sys.modules["fistab.partitions"]
    assert fistab.pad is fi_analysis.pad is partitions_module.pad
    assert fistab.partitions is partitions_module.partitions
    assert fistab.kunneth_power is induction.kunneth_power
    assert fistab.CoinvariantReport is os_model.CoinvariantReport
    assert fistab.os_model is os_model
