"""No module of the package imports a name it never uses.

No linter ships with the test dependencies, so this is the check for
imports that a refactor leaves behind.  It reads the package's modules
and those of its `commands` subpackage.  The top-level package __init__
is exempt: its imports are the public API.  So is `from m import x as x`,
the usual spelling of a deliberate re-export.
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
