"""What the benchmark's tracer needs of the package.

`perfbench/trace.py` wraps the functions its LAYERS table names in every
module that binds them, and `perfbench/selftest.py` checks that
`decompose` is wrapped in characters, induction, os_model and cli.  A
refactor that renames or moves one of them breaks the benchmark, so the
table is read here (parsed, not imported) and checked against the
package.
"""

import ast
import importlib
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _constant(name: str):
    for node in ast.parse(TRACE.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACE} assigns no {name}")


def _module(short: str):
    return importlib.import_module(f"fistab.{short}")


def test_every_traced_function_exists():
    layers = _constant("LAYERS")
    assert set(layers) <= set(_constant("PACKAGE_MODULES"))
    missing = [
        f"{short}.{name}"
        for short, names in layers.items()
        for name in names
        if not callable(getattr(_module(short), name, None))
    ]
    assert not missing
    owner, cls, method = _constant("INSERT").split(".")
    assert callable(getattr(getattr(_module(owner), cls), method))


def test_decompose_is_bound_where_the_selftest_looks_for_it():
    decompose = _module("characters").decompose
    for short in ("induction", "os_model", "cli"):
        assert getattr(_module(short), "decompose", None) is decompose, short


def test_cli_has_subcommand_handlers():
    cli = _module("cli")
    handlers = {name for name in vars(cli) if name.startswith("cmd_")}
    assert handlers == {f"cmd_{name.replace('-', '_')}" for name in cli.SUBCOMMANDS}
