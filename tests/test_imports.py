"""No module of the package imports a name it never uses.

No linter ships with the test dependencies, so this is the check for
imports that a refactor leaves behind.  The package __init__ is exempt:
its imports are the public API.  So is `from m import x as x`, the usual
spelling of a deliberate re-export.
"""

import ast
from pathlib import Path

import pytest

import fistab

MODULES = sorted(
    path for path in Path(fistab.__file__).parent.glob("*.py") if path.name != "__init__.py"
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
    assert {path.name for path in MODULES} >= {"bounds.py", "cli.py", "induction.py"}
    source = (
        "import os.path\nimport sys as system\nfrom math import comb, perm, pi as pi\n"
        "comb(system.maxsize, 2)\n"
    )
    assert _unused_imports(source) == ["os", "perm"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []
