"""Spans around calls into fistab's layers, recorded from outside the program.

`install` wraps the public functions named in LAYERS in every module
namespace of the package that binds them (`decompose`, for example, is
bound in characters, induction, os_model and cli), so a call is timed
whichever module makes it.  Spans stay in memory until `Recorder.dump`
hands them over once the traced work is over; the script below writes
them to a file at exit.

Run as a script, this file is the traced CLI:

    python3 perfbench/trace.py RECORD.json fistab-argument...

Like timed_cli.py, but with every wrapper installed; RECORD.json gets the
spans and cache counters next to the speed probes.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from pathlib import Path

import speed

PACKAGE_MODULES = (
    "partitions", "characters", "induction", "fi_analysis",
    "bounds", "linalg", "os_model", "cli",
)

# module -> public functions timed as "<module>.<function>"
LAYERS = {
    "os_model": (
        "nbc_basis", "character", "decomposition", "invariant_dimension",
        "coinvariant_report", "action_columns",
    ),
    "linalg": ("solve_exact",),
    "characters": ("decompose", "inner_product", "irreducible_character"),
    "partitions": ("partitions", "class_size", "dimension"),
    "induction": ("kunneth_power", "wreath_invariant_dim", "m_regular"),
    "fi_analysis": ("detect_stability", "fit_char_polynomial", "fit_dim_polynomial"),
    "bounds": ("abutment_stability", "page_stability", "table1_row"),
    "cli": ("build_parser", "render"),
}
INSERT = "linalg.IntRowBasis.insert"  # a method: its True results are counted too
HANDLER = "cli.handler"  # every cli.cmd_* subcommand handler


def modules() -> dict[str, object]:
    """The package's modules by short name, plus the package itself.

    `import fistab.partitions as P` yields the re-exported *function*, so
    modules are resolved with importlib.
    """
    mods = {m: importlib.import_module(f"fistab.{m}") for m in PACKAGE_MODULES}
    mods["fistab"] = importlib.import_module("fistab")
    return mods


def find_caches(mods) -> dict[str, object]:
    """Every functools.lru_cache defined in the package, keyed
    "<module>.<function without leading underscore>_cache"."""
    caches = {}
    for short, mod in mods.items():
        for attr, val in vars(mod).items():
            if hasattr(val, "cache_info") and getattr(val, "__module__", None) == mod.__name__:
                caches[f"{short}.{attr.lstrip('_')}_cache"] = val
    return caches


def cache_counts(caches) -> dict[str, dict[str, int]]:
    out = {}
    for name, fn in sorted(caches.items()):
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
    return out


class Recorder:
    """Spans as parallel arrays: name id, start, end, parent span index."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._open: list[int] = []
        self.true_results: dict[str, int] = {}

    def wrap(self, name: str, fn, count_true: bool = False):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        names, starts, ends, parents, stack = self.name, self.start, self.end, self.parent, self._open
        clock = time.perf_counter
        true_results = self.true_results
        true_results.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if count_true and result:
                true_results[name] += 1
            return result

        return wrapper

    def dump(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "true_results": self.true_results,
        }


def install(rec: Recorder, mods) -> tuple[list, list[str]]:
    """Wrap every LAYERS function, the subcommand handlers and
    IntRowBasis.insert.  Returns (undo list, names that were not found)."""
    plan, missing = [], []
    for short, names in LAYERS.items():
        for name in names:
            fn = getattr(mods[short], name, None)
            if fn is None:
                missing.append(f"{short}.{name}")
            else:
                plan.append((f"{short}.{name}", fn))
    cli = mods["cli"]
    plan += [(HANDLER, fn) for attr, fn in vars(cli).items() if attr.startswith("cmd_")]
    wrappers = {id(fn): (fn, rec.wrap(name, fn)) for name, fn in plan}

    undo = []
    for mod in mods.values():
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))
    cls = getattr(mods["linalg"], "IntRowBasis", None)
    if cls is None or not hasattr(cls, "insert"):
        missing.append(INSERT)
    else:
        undo.append((cls, "insert", cls.insert))
        cls.insert = rec.wrap(INSERT, cls.insert, count_true=True)
    return undo, missing


def uninstall(undo) -> None:
    for owner, attr, val in reversed(undo):
        setattr(owner, attr, val)


def stale_bindings(mods, undo) -> list[str]:
    """Module attributes still bound to an unwrapped original; empty when
    every module that binds a wrapped function sees the wrapper."""
    originals = {id(val) for _, _, val in undo}
    return [
        f"{mod.__name__}.{attr}"
        for mod in mods.values()
        for attr, val in vars(mod).items()
        if id(val) in originals
    ]


def aggregate(dump: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds (duration
    minus the time its child spans cover)."""
    names, name, start, end, parent = (
        dump["names"], dump["name"], dump["start"], dump["end"], dump["parent"]
    )
    child = [0.0] * len(start)
    for idx, p in enumerate(parent):
        if p >= 0:
            child[p] += end[idx] - start[idx]
    out = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for n in names}
    for idx, nid in enumerate(name):
        dur = end[idx] - start[idx]
        row = out[names[nid]]
        row["calls"] += 1
        row["self_s"] += dur - child[idx]
        if parent[idx] < 0 or name[parent[idx]] != nid:  # recursion counted once
            row["total_s"] += dur
    return out


def main(argv: list[str]) -> int:
    out_path, cli_argv = Path(argv[0]), argv[1:]
    mods = modules()
    caches = find_caches(mods)
    rec = Recorder()
    undo, missing = install(rec, mods)
    stale = stale_bindings(mods, undo)
    sampler = speed.Sampler()
    t0 = time.perf_counter()
    try:
        with sampler:
            return mods["cli"].main(cli_argv)
    finally:
        main_s = time.perf_counter() - t0
        sys.stdout.flush()
        out_path.write_text(json.dumps({
            "samples": sampler.samples,
            "spans": rec.dump(),
            "caches": cache_counts(caches),
            "main_s": main_s,
            "missing": missing,
            "stale": stale,
        }))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
