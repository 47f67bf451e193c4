"""What a fresh interpreter imports to run each subcommand.

Each subcommand imports only its own handler module, the layers and the
standard modules it calls; every argv is read off the flag table, and no
request loads argparse; and `import fistab` loads no submodule.  These
tests look at `sys.modules` in a fresh `sys.executable` after each step;
they time nothing.  The library names that README lists are checked
against their home modules here too.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fistab
import reach

SRC = str(Path(fistab.__file__).parents[1])
# what the character, kunneth and wreath paths never need
UNUSED_LAYERS = ("fistab.os_model", "fistab.fi_analysis", "fistab.linalg", "fistab.bounds")
# standard modules listed with the package's: only some subcommands load them
WATCHED = ("argparse", "csv", "dataclasses", "decimal", "fractions", "gettext", "json", "locale")
# what no request loads, help and usage errors included
PARSING = {"argparse", "gettext", "locale"}
KUNNETH = ["kunneth", "--graded-dims", "1,2", "--n", "6", "--i", "3", "--decompose"]
WREATH = ["wreath-scan", "--graded-dims", "1,2", "--i", "2", "--n-max", "10"]
OS_SCAN = ["os-scan", "--n-min", "2", "--n-max", "4", "--k", "1"]
OS_SCAN_SHORT = ["os-scan", "--n-min", "2", "--n-max", "5", "--k", "2"]
BOUNDS = ["bounds", "--alpha", "1/2", "--beta", "1", "--i", "3"]
# README's library section, read by tests/reach.py: the home modules (a
# module named as `fistab.<module>.*` too), and the names they define
LIBRARY = reach.library_names()
LIBRARY_HOMES = sorted(n.removesuffix(".*") for n in LIBRARY if n.startswith("fistab."))
LIBRARY_NAMES = sorted(n for n in LIBRARY if not n.startswith("fistab."))


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
    `fistab.cli` is imported, the flag lookups of every subcommand are
    fetched if `full_parser`, and each argv in `runs` has run through main."""
    return _fresh(
        "import os, sys\n"
        "import fistab.cli\n"
        f"if {full_parser!r}:\n"
        "    fistab.cli.build_parser()\n"
        f"for argv in {list(runs)!r}:\n"
        "    assert fistab.cli.main([*argv, '--out', os.devnull]) == 0\n"
        "loaded = sorted(m for m in sys.modules\n"
        f"                if m.startswith('fistab') or m in {WATCHED!r})\n"
        "import json  # only now: json is WATCHED\n"
        "print(json.dumps(loaded))\n"
    )


def _handlers(loaded) -> list[str]:
    return [m for m in loaded if m.startswith("fistab.commands.")]


def _package_after(argv) -> list[str]:
    """The package modules in sys.modules after main(argv) has run in a
    fresh interpreter, its output and exit code discarded."""
    return _fresh(
        "import contextlib, io, sys\n"
        "import fistab.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        f"    fistab.cli.main({list(argv)!r})\n"
        "import json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fistab'))))\n"
    )


# what `import fistab.cli` loads: the front end, and no computation layer
CLI = ["fistab", "fistab.cli", "fistab.commands", "fistab.errors", "fistab.partitions"]
# argv -> the package modules a fresh interpreter holds after main(argv),
# beyond CLI: only the subcommands that compute characters load
# characters; help and usage errors load their writer (parsing), and
# those of table1 bounds, for the choices of --row; an os-scan that runs
# no fit loads the stability report and character polynomial
# (fi_reports) but not the fits (fi_analysis); a text or CSV report loads
# its own writer alone; kunneth loads no wreath series, and wreath-scan no
# characters
OS_SCAN_CORE = [
    "fistab.characters", "fistab.commands.os_scan", "fistab.fi_reports", "fistab.os_model",
]
LOADS = {
    ("-h",): ["fistab.parsing"],
    ("table1", "-h"): ["fistab.bounds", "fistab.parsing"],
    ("bounds", "--alpha"): ["fistab.parsing"],  # a usage error
    tuple(BOUNDS): ["fistab.bounds", "fistab.commands.bounds", "fistab.exact"],
    ("table1", "--row", "moduli", "--i", "2"): ["fistab.bounds", "fistab.commands.table1"],
    tuple(WREATH): ["fistab.commands.wreath_scan", "fistab.graded", "fistab.wreath"],
    tuple(OS_SCAN): OS_SCAN_CORE,
    (*OS_SCAN, "--format", "text"): [*OS_SCAN_CORE, "fistab.writers", "fistab.writers.text"],
    (*OS_SCAN, "--format", "csv"): [*OS_SCAN_CORE, "fistab.writers", "fistab.writers.csv"],
    tuple(OS_SCAN_SHORT): [*OS_SCAN_CORE, "fistab.fi_analysis", "fistab.linalg"],
    tuple(KUNNETH): [
        "fistab.characters", "fistab.commands.kunneth", "fistab.graded", "fistab.induction",
    ],
    ("decompose", "--n", "2", "--values", '{"1+1": 1, "2": 1}'): [
        "fistab.characters", "fistab.commands.decompose", "fistab.commands.inputs",
        "fistab.exact", "fistab.tables",
    ],
}
# argv -> the most lines of package source a fresh process may load for
# it.  Each bound sits between what the request runs and what it loaded
# while test oracles, fits, JSON readers, the text and CSV writers and the
# argparse parsers rode along (2,635 and 1,939 lines), so such code
# drifting back into these chains fails here.
SOURCE_LINES = {
    ("os-scan", "--n-min", "2", "--n-max", "9", "--k", "3", "--a-max", "3", "--allow-large"): 1900,
    ("kunneth", "--graded-dims", "1,2", "--n", "18", "--i", "3", "--decompose"): 1700,
}


def test_importing_the_cli_loads_no_computation_layer():
    assert _loaded_after() == CLI


@pytest.mark.parametrize("argv", list(LOADS), ids=" ".join)
def test_each_subcommand_loads_only_its_own_modules(argv):
    assert _package_after(argv) == sorted([*CLI, *LOADS[argv]])


@pytest.mark.parametrize("argv", list(SOURCE_LINES), ids=" ".join)
def test_a_request_loads_a_bounded_amount_of_package_source(argv):
    lines = _fresh(
        "import os, sys\n"
        "import fistab.cli\n"
        f"assert fistab.cli.main([*{list(argv)!r}, '--out', os.devnull]) == 0\n"
        "files = [m.__file__ for n, m in list(sys.modules.items()) if n.startswith('fistab')]\n"
        "import json\n"
        "print(json.dumps(sum(open(f, encoding='utf-8').read().count('\\n') for f in files)))\n"
    )
    assert lines <= SOURCE_LINES[argv]


def test_building_the_parser_loads_nothing():
    # the flag lookups are built with the CLI module
    assert _loaded_after(full_parser=True) == CLI


def test_no_request_loads_argparse():
    # every argv is read off the flag table, and fistab.parsing writes
    # help and usage errors without argparse, or the gettext and locale
    # it loads
    for argv in (OS_SCAN, KUNNETH, WREATH, BOUNDS, [*BOUNDS, "--alpha=1/2"]):
        loaded = _loaded_after(argv)
        assert not PARSING & set(loaded), (argv, loaded)
    from test_cli_usage import HELP, KINDS

    loaded = _fresh(
        "import contextlib, io, sys\n"
        "import fistab.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        f"    codes = {{fistab.cli.main(list(argv)) for argv in {[*HELP, *KINDS]!r}}}\n"
        "assert codes == {0, 64}, codes\n"
        f"loaded = sorted(m for m in sys.modules if m in {WATCHED!r})\n"
        "import json\n"
        "print(json.dumps(loaded))\n"
    )
    assert not PARSING & set(loaded), loaded


def test_help_and_usage_errors_keep_their_bytes_in_a_fresh_process():
    # `python -m fistab.cli` runs the CLI as __main__: some help screens
    # and every kind of usage error, at any width
    from test_cli_usage import ERRORS, HELP, KINDS, _digest

    cases = [*list(HELP.items())[::5], *((argv, ERRORS[argv]) for argv in KINDS)]
    for columns in ("40", "200"):
        env = dict(os.environ, PYTHONPATH=SRC, COLUMNS=columns)
        for argv, expected in cases:
            proc = subprocess.run(
                [sys.executable, "-m", "fistab.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            got = (proc.returncode, proc.stdout, proc.stderr)
            if argv in HELP:
                got = (proc.returncode, proc.stderr, _digest(proc.stdout))
                expected = (0, "", expected)
            assert got == expected, (columns, argv)


def test_kunneth_and_wreath_scan_load_only_their_layers():
    # kunneth compiles no wreath series, and wreath-scan no character layer
    assert "fistab.wreath" not in _loaded_after(KUNNETH)
    assert not {"fistab.characters", "fistab.induction"} & set(_loaded_after(WREATH))
    for runs in ([KUNNETH], [WREATH], [KUNNETH, WREATH]):
        loaded = _loaded_after(*runs)
        assert "fistab.graded" in loaded, runs
        # json only to read JSON input, which neither takes: a JSON report,
        # kunneth's default format, is written without it
        assert not {*UNUSED_LAYERS, *WATCHED} & set(loaded), (runs, loaded)
    assert _handlers(_loaded_after(KUNNETH)) == ["fistab.commands.kunneth"]


def test_os_scan_loads_neither_bounds_nor_dataclasses():
    # a window of 2k + 1 levels or more reads its character polynomial off
    # the free modules, so only a shorter one loads the fits and linalg
    loaded = _loaded_after(OS_SCAN)
    assert {"fistab.os_model", "fistab.fi_reports"} <= set(loaded)
    unused = {"fistab.fi_analysis", "fistab.linalg", "fistab.bounds", "dataclasses"}
    assert not unused & set(loaded)
    loaded = _loaded_after(OS_SCAN_SHORT)
    assert {"fistab.fi_analysis", "fistab.linalg"} <= set(loaded)
    assert not {"fistab.bounds", "dataclasses"} & set(loaded)


def test_a_text_os_scan_loads_only_its_own_code():
    # a window of 2k + 1 levels: integer characters and averages, so no
    # fractions (nor decimal, which fractions imports); json is loaded only
    # to read JSON input; os_model reads the Pieri sums off characters
    loaded = _loaded_after([*OS_SCAN, "--format", "text"])
    assert not {"fractions", "decimal", "json", "fistab.induction"} & set(loaded), loaded
    assert _handlers(loaded) == ["fistab.commands.os_scan"]


def test_a_json_report_loads_no_json():
    # the report's strings are quoted by the C encoder json.encoder
    # re-exports, taken without the json package
    for argv in (OS_SCAN, OS_SCAN_SHORT, KUNNETH):
        loaded = _loaded_after([*argv, "--format", "json"])
        assert "json" not in loaded, (argv, loaded)


def test_a_short_text_os_scan_fits_in_integers():
    # a window shorter than 2k + 1 levels fits its character polynomial
    # through linalg.solve_exact, whose integer system has an integer
    # solution, so no Fraction is ever built
    loaded = _loaded_after([*OS_SCAN_SHORT, "--format", "text"])
    assert "fistab.linalg" in loaded
    assert not {"fractions", "decimal", "json"} & set(loaded), loaded


def test_an_integral_dimension_fit_loads_no_fractions():
    # README's fit-dimpoly example fits C(T, 2): its coefficients are ints
    # (characters.exact_quotient), so neither fractions nor the decimal it
    # imports is loaded; a table that fits C(T, 1) / 2 still loads fractions
    fit = ["fit-dimpoly", "--degree-bound", "2", "--dims"]
    loaded = _loaded_after([*fit, '{"2":1,"3":3,"4":6,"5":10,"6":15}'])
    assert not {"fractions", "decimal"} & set(loaded), loaded
    assert "fractions" in _loaded_after([*fit, '{"0":0,"2":1,"4":2,"6":3}'])


def test_running_the_cli_as_a_script_compiles_it_once():
    # `python -m fistab.cli` runs the module as __main__; a handler module
    # that imported fistab.cli would compile and load it a second time
    loaded = _fresh(
        "import json, os, runpy, sys\n"
        f"sys.argv = ['fistab', *{OS_SCAN!r}, '--out', os.devnull]\n"
        "try:\n"
        "    runpy.run_module('fistab.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('fistab'))))\n"
    )
    assert "fistab.commands.os_scan" in loaded
    assert "fistab.cli" not in loaded


def test_no_report_loads_csv():
    # fistab.writers.csv writes its rows itself
    runs = [[*argv, "--format", fmt] for argv in (OS_SCAN, KUNNETH) for fmt in ("json", "text", "csv")]
    assert "csv" not in _loaded_after(*runs)


def test_importing_the_package_loads_no_submodule():
    # a submodule is bound on the package by its own import, and only then
    loaded, bound = _fresh(
        "import json, sys, fistab\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('fistab.'))\n"
        "import fistab.partitions\n"
        "print(json.dumps([loaded, fistab.partitions is sys.modules['fistab.partitions']]))\n"
    )
    assert loaded == [] and bound


@pytest.mark.parametrize("name", LIBRARY_NAMES)
def test_each_library_name_is_defined_in_one_listed_home(name):
    # README's library section lists home modules and the names each
    # defines, a class member after its class: the name is vars(home)[name],
    # with home as its __module__, in exactly one of them
    first, *members = name.split(".")
    homes = [
        home for home in map(importlib.import_module, LIBRARY_HOMES)
        if getattr(vars(home).get(first), "__module__", None) == home.__name__
    ]
    assert len(homes) == 1, (name, homes)
    value = vars(homes[0])[first]
    for member in members:
        value = vars(value)[member]  # the class's own, not inherited
