"""Which functions of the package no CLI request reaches.

Runs every request of the byte grids (`tests/byte_grids.py`), the help,
the three `bounds` modes, one `--config` request and one `--input`
request in process under a call hook, then prints each `def` under
`src/fistab` that none of them called, with its line count:

    PYTHONPATH=src python tests/reach.py [--check]

With --check it exits 1 if one of them is not named in the library
section of README.md (the "## Library" heading up to the next "## "):
by its qualified name (a method with its class, `ClassFunction.__eq__`),
that name after its module, or `<module>.*`; naming a class does not
name its methods.  Standard
library only; it takes about as long as the byte grids, so it is not a
tier-1 test.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fistab"
README = ROOT / "README.md"


def requests(scratch: Path):
    """The argvs run under the hook: every byte-grid request, then what
    no grid requests."""
    sys.path.insert(0, str(Path(__file__).parent))
    import byte_grids

    for grid in byte_grids.GRIDS.values():
        yield from grid()
    yield ["-h"]
    bounds = ["bounds", "--alpha", "1/2", "--beta", "1", "--i", "3"]
    yield [*bounds, "--fisharp"]
    yield [*bounds, "--page", "3", "--p", "1", "--q", "1"]
    yield [*bounds, "--degenerates-at", "4"]
    config = scratch / "scan.cfg"
    config.write_text("graded-dims = 1,2\ni = 2\nn-max = 6\nformat = text\n")
    yield ["wreath-scan", "--config", str(config)]
    # not a character: a multiplicity past the int-to-str digit cap is
    # shown by its number of digits
    values = scratch / "values.json"
    values.write_text(f'{{"2": "1/{7**4000}", "1+1": "1e-4000"}}')
    yield ["decompose", "--n", "2", "--input", str(values)]


def reached_code() -> set[tuple[str, int]]:
    """(file, first line) of every code object the requests called,
    from the import of the CLI on."""
    seen: set = set()

    def hook(frame, event, arg):
        seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as scratch:
        sink = io.StringIO()
        sys.settrace(hook)
        try:
            from fistab.cli import main

            for argv in requests(Path(scratch)):
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    main(list(argv))
                sink.seek(0)
                sink.truncate()
        finally:
            sys.settrace(None)
    return {(code.co_filename, code.co_firstlineno) for code in seen}


def defs():
    """(module, qualified name, file, first line, line count) of every
    def in the package; the first line is a decorator's, if it has one,
    as a code object counts it."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        module = module.removesuffix(".__init__")

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    name = prefix + child.name
                    yield module, name, str(path), first, child.end_lineno - first + 1
                    yield from walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + child.name + ".")
                else:
                    yield from walk(child, prefix)

        yield from walk(ast.parse(path.read_text()), "")


def library_names() -> set[str]:
    """The names in backquotes in README's library section, a module's
    with the ".*" that names all of it."""
    text = README.read_text()
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    section = text[start : end if end >= 0 else len(text)]
    return set(re.findall(r"`([A-Za-z_][\w.]*(?:\.\*)?)`", section))


def unreached():
    reached = reached_code()
    return [d for d in defs() if (d[2], d[3]) not in reached]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if an unreached def is not named in README's library section")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    rows = unreached()
    named = library_names() if args.check else set()
    missing = []
    for module, name, _, _, lines in rows:
        listed = {name, f"{module}.{name}", f"{module}.*"} & named
        flag = "" if not args.check or listed else "  (not in README's library section)"
        if args.check and not listed:
            missing.append(f"{module}.{name}")
        print(f"{lines:4d}  {module}.{name}{flag}")
    print(f"{sum(r[4] for r in rows)} lines in {len(rows)} defs no request reaches")
    if missing:
        print(f"{len(missing)} of them not named in README's library section", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
