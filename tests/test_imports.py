"""No module of the package imports a name it never uses, and no private
function or class is left that nothing in the package calls.

No linter ships with the test dependencies, so these are the checks for
imports and helpers that a refactor leaves behind.  They read the
package's modules and those of its `commands` subpackage.  For imports
the top-level package __init__ is exempt: its imports are the public
API.  So is `from m import x as x`, the usual spelling of a deliberate
re-export.  Two more checks keep a concept written once: the Pieri sum
of free modules, and the CLI's list of subcommands.
"""

import ast
from pathlib import Path

import pytest

import fistab

PACKAGE = Path(fistab.__file__).parent
MODULES = sorted(
    path
    for path in [*PACKAGE.glob("*.py"), *PACKAGE.glob("commands/*.py")]
    if path != PACKAGE / "__init__.py"
)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.asname != a.name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    names = {path.relative_to(PACKAGE).as_posix() for path in MODULES}
    assert names >= {"bounds.py", "cli.py", "commands/__init__.py", "commands/os_scan.py"}
    source = (
        "import os.path\nimport sys as system\nfrom math import comb, perm, pi as pi\n"
        "comb(system.maxsize, 2)\n"
    )
    assert _unused_imports(source) == ["os", "perm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def _unreferenced_private(sources: dict[str, str]) -> list[str]:
    # "module.name" of each module-level function or class whose name
    # starts with one underscore and is read nowhere in the sources, as a
    # name, an attribute or an imported name, outside its own definition
    trees = {name: ast.parse(source) for name, source in sources.items()}

    def reads(node) -> list[str]:
        out = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.append(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.append(sub.attr)
            elif isinstance(sub, ast.alias):
                out.append(sub.name)
        return out

    everywhere: dict[str, int] = {}
    for tree in trees.values():
        for name in reads(tree):
            everywhere[name] = everywhere.get(name, 0) + 1
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_")
                and not node.name.startswith("__")
                and everywhere.get(node.name, 0) == reads(node).count(node.name)
            ):
                found.append(f"{module}.{node.name}")
    return sorted(found)


def test_unreferenced_private_helpers_are_found():
    sources = {
        "a": "def _used():\n    return 1\n\ndef _left(n):\n    return _left(n - 1)\n"
             "class _Gone:\n    pass\n\ndef public():\n    return _used()\n",
        "b": "from .a import _imported\nimport a\na._by_attribute()\n",
        "c": "def _imported():\n    pass\n\ndef _by_attribute():\n    pass\n",
    }
    assert _unreferenced_private(sources) == ["a._Gone", "a._left"]


def test_every_private_helper_is_referenced():
    sources = {
        path.relative_to(PACKAGE).as_posix(): path.read_text()
        for path in [*PACKAGE.glob("*.py"), *PACKAGE.glob("commands/*.py")]
    }
    assert _unreferenced_private(sources) == []


def _strip_callers(sources: dict[str, str]) -> list[str]:
    # "module.function" of each top-level function or class that calls
    # _strip_extensions, by name or as an attribute ("module" for a call
    # outside any of them)
    found = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = module
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{module}.{node.name}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and "_strip_extensions" in (
                    getattr(sub.func, "id", None), getattr(sub.func, "attr", None)
                ):
                    found.add(owner)
    return sorted(found)


def test_strip_callers_are_found():
    sources = {
        "a": "from .p import _strip_extensions\n"
             "def f(r, n):\n    return _strip_extensions(r, n)\n",
        "b": "from . import p\n"
             "class C:\n    def g(self):\n        return p._strip_extensions((), 0)\n"
             "p._strip_extensions((1,), 2)\n"
             "def h():\n    return p._strip_extensions\n",
    }
    assert _strip_callers(sources) == ["a.f", "b", "b.C"]


def test_one_pieri_kernel():
    # the Pieri sum of free modules is written once, in
    # characters.free_module_sum: every level or window of it goes there
    sources = {
        path.relative_to(PACKAGE).with_suffix("").as_posix(): path.read_text()
        for path in [*PACKAGE.glob("*.py"), *PACKAGE.glob("commands/*.py")]
    }
    assert _strip_callers(sources) == [
        "characters.free_module_sum", "partitions.horizontal_strip_extensions",
    ]


def test_cli_handlers_come_from_the_subcommand_table():
    # the subcommands are listed once, in cli.SUBCOMMANDS: no cmd_<name>
    # handler is written by hand, and one is generated for every name
    from fistab import cli

    written = [
        node.name
        for node in ast.parse((PACKAGE / "cli.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("cmd_")
    ]
    assert written == []
    handlers = {name for name in vars(cli) if name.startswith("cmd_")}
    assert handlers == {f"cmd_{name.replace('-', '_')}" for name in cli.SUBCOMMANDS}
