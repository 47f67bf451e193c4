"""What the benchmark's tracer needs of the package.

`perfbench/trace.py` wraps the functions its LAYERS table names in every
module that binds them, and `perfbench/selftest.py` checks that
`decompose` is wrapped in characters, induction, os_model and cli.  A
refactor that renames or moves one of them breaks the benchmark, so the
table is read here (parsed, not imported) and checked against the
package.  A name the tracer reads in a module other than its home is
forwarded there (`fistab._forward`, a module-level `__getattr__`), and
no other name is.
"""

import ast
import importlib
from pathlib import Path

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fistab"


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


def _top_level(short: str) -> tuple[set[str], set[str]]:
    """The names fistab.<short> binds at module level, and those its
    `__getattr__ = _forward(__name__, home, names)` forwards; a module
    __getattr__ written any other way fails here."""
    tree = ast.parse((PACKAGE / f"{short.replace('.', '/')}.py").read_text())
    bound, forwarded = set(), set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            assert node.name != "__getattr__", short
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
            if "__getattr__" in targets:
                call = node.value
                assert isinstance(call, ast.Call) and call.func.id == "_forward", short
                forwarded.update(ast.literal_eval(call.args[2]))
            bound |= targets
    return bound, forwarded


def test_only_the_names_the_tracer_reads_are_forwarded():
    # the LAYERS names a module does not define, and the decompose of cli
    # and of induction, which the self-test reads there
    wanted = {("cli", "decompose"), ("induction", "decompose")}
    for short, names in _constant("LAYERS").items():
        bound, _ = _top_level(short)
        wanted |= {(short, name) for name in names if name not in bound}
    forwarded = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        if path != PACKAGE / "__init__.py":
            short = path.relative_to(PACKAGE).with_suffix("").as_posix().replace("/", ".")
            forwarded |= {(short, name) for name in _top_level(short)[1]}
    assert forwarded == wanted
    for short, name in forwarded:
        assert callable(getattr(_module(short), name)), (short, name)
