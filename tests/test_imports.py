"""No module of the package imports a name it never uses, and no private
function or class is left that nothing in the package calls.

No linter ships with the test dependencies, so these are the checks for
imports and helpers that a refactor leaves behind.  They read the
package's modules and those of its subpackages (`commands`,
`writers`), the package's __init__ among them.  No module re-exports a
name with `from m import x as x`: each name has one home, and is reached
there, as `fistab.<module>.<name>`.  More checks keep a
concept written once: the Pieri sum of free modules, the truncated
product of polynomials in t, the monomial of a cycle type, the exact
quotient (an int where a division is exact, else a Fraction), the CLI's
list of subcommands, and the grammar of its argv, which one reader reads
off that table: no module imports argparse.
"""

import ast
from pathlib import Path

import pytest

import fistab

PACKAGE = Path(fistab.__file__).parent
MODULES = sorted([*PACKAGE.glob("*.py"), *PACKAGE.glob("*/*.py")])


def _package_sources() -> dict[str, str]:
    # {"module" or "subpackage/module": source} of every module
    return {
        path.relative_to(PACKAGE).with_suffix("").as_posix(): path.read_text()
        for path in MODULES
    }


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    names = {path.relative_to(PACKAGE).as_posix() for path in MODULES}
    assert names >= {
        "__init__.py", "bounds.py", "cli.py", "commands/__init__.py", "commands/os_scan.py",
    }
    source = (
        "import os.path\nimport sys as system\nfrom math import comb, perm, pi as pi\n"
        "comb(system.maxsize, 2)\n"
    )
    assert _unused_imports(source) == ["os", "perm", "pi"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.relative_to(PACKAGE).as_posix())
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_no_module_spells_a_re_export():
    for path in MODULES:
        spelled = [
            a.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname == a.name
        ]
        assert spelled == [], path.relative_to(PACKAGE).as_posix()


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
        for path in MODULES
    }
    assert _unreferenced_private(sources) == []


def _callers(sources: dict[str, str], name: str) -> list[str]:
    # "module.function" of each top-level function or class that calls
    # name, by name or as an attribute ("module" for a call outside any
    # of them)
    found = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            owner = module
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = f"{module}.{node.name}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and name in (
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
    assert _callers(sources, "_strip_extensions") == ["a.f", "b", "b.C"]


def test_one_pieri_kernel():
    # the Pieri sum of free modules is written once, in
    # characters.free_module_sum: every level or window of it goes there
    assert _callers(_package_sources(), "_strip_extensions") == ["characters.free_module_sum"]


def test_rim_hook_callers_are_found():
    # a call from a def nested in a top-level def is that def's
    sources = {
        "a": "def table(n):\n    def walk(s):\n        return _rim_hooks(s, (1,), grow=True)\n"
             "    return walk({})\n"
             "def value(lam):\n    return _rim_hooks({}, lam, grow=False)\n",
        "b": "def column(mu):\n    return _rim_hooks\n",
    }
    assert _callers(sources, "_rim_hooks") == ["a.table", "a.value"]


def test_one_murnaghan_nakayama_walk():
    # rim hooks are removed for a single value, and added to Schur
    # expansions by decompose's Horner walk over the class trie and by
    # the Newton identity of the Kunneth generators: no other def walks
    # them, such as a character table or a column of one class
    assert _callers(_package_sources(), "_rim_hooks") == [
        "characters._mn_value", "characters.decompose", "induction.kunneth_decomposition",
    ]


def test_one_truncated_product():
    # the product of two polynomials cut at t^cap is taken by the cycle
    # product and by the partial product that builds its factors, and by
    # nothing else
    assert _callers(_package_sources(), "_poly_mul") == [
        "characters.cycle_product", "characters.partial_products",
    ]


def _monomial_spellings(sources: dict[str, str]) -> list[str]:
    # "module.function" of each top-level def that sorts the items of a
    # cycle_counts call: a spelling of the monomial of a cycle type
    found = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and getattr(sub.func, "id", None) == "sorted"
                    and "cycle_counts(" in ast.unparse(sub)
                    and ".items()" in ast.unparse(sub)
                ):
                    found.add(f"{module}.{node.name}")
    return sorted(found)


def test_monomial_spellings_are_found():
    sources = {
        "a": "def m(mu):\n    return tuple(sorted(cycle_counts(mu).items()))\n",
        "b": "def f(mu):\n    return sorted(p.cycle_counts(mu).items(), key=len)\n"
             "def g(mu):\n    return sorted(cycle_counts(mu))\n",
    }
    assert _monomial_spellings(sources) == ["a.m", "b.f"]


def test_one_monomial_of_a_cycle_type():
    # the monomial prod_l C(Z_l, m_l) of a cycle type, which keys every
    # character polynomial, is spelled once, in fi_reports._monomial
    assert _monomial_spellings(_package_sources()) == ["fi_reports._monomial"]


def _exact_quotients(sources: dict[str, str]) -> list[str]:
    # "module.function" of each def, at any depth, that both calls divmod
    # and names Fraction: a spelling of the rule that a value stays an int
    # where the division is exact and is a Fraction only where it is not
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
                names |= {sub.name for sub in ast.walk(node) if isinstance(sub, ast.alias)}
                if {"divmod", "Fraction"} <= names:
                    found.append(f"{module}.{node.name}")
    return sorted(found)


def test_exact_quotients_are_found():
    sources = {
        "a": "def q(x, d):\n    r, s = divmod(x, d)\n    if s:\n"
             "        from fractions import Fraction\n        return Fraction(x, d)\n    return r\n",
        "b": "from fractions import Fraction\n"
             "class C:\n    def f(self, x):\n        return divmod(x, 2), Fraction(x)\n"
             "def g(x):\n    return divmod(x, 3)\n",
    }
    assert _exact_quotients(sources) == ["a.q", "b.f"]


def test_one_exact_quotient():
    # the rule is written once, in characters.exact_quotient: every other
    # division whose result may not be integral calls it
    assert _exact_quotients(_package_sources()) == ["characters.exact_quotient"]


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


def _imported(source: str) -> set[str]:
    # the top-level names of every module the source imports, at any depth
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.partition(".")[0])
    return found


def test_imports_are_found():
    source = (
        "import os.path, re\nfrom . import cli\nfrom .writers import text\n"
        "def f():\n    import argparse\n    from json.decoder import JSONDecoder\n"
    )
    assert _imported(source) == {"os", "re", "argparse", "json"}


def test_no_module_imports_argparse():
    # every argv is read off cli.SUBCOMMANDS by cli._read, and fistab.parsing
    # writes help and usage errors from the same rows
    for path in MODULES:
        assert "argparse" not in _imported(path.read_text()), path.name
