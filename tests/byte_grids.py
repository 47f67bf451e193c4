"""Byte-identity grids: named sets of fistab requests whose output is
pinned by one SHA-256 per grid.

"Same bytes" for a change that must not alter output is one command: each
grid below is a list of argvs, every one run in process through
`fistab.cli.main`, and its digest is taken over (argv, exit code, stdout,
stderr) of each request in order.  `tests/byte_grids.json` keeps the
digests; `tests/test_byte_grids.py` checks them.  A deliberate change of
a report updates the file, with a CHANGES line that names the grid and
says why.  Print the current digests with

    PYTHONPATH=src python tests/byte_grids.py

Grids:
- os-scan: every window with k <= 4, 1 <= n_min <= 11 and 1..2k + 2
  levels, with --a-max 2, in json, text and csv;
- request_mix: the benchmark's seeded request lists (perfbench/mix.py),
  seeds 1-3, 1000 requests each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("byte_grids.json")


def os_scan_grid():
    for k in range(5):
        for n_min in range(1, 12):
            for n_max in range(n_min, n_min + 2 * k + 2):
                for fmt in ("json", "text", "csv"):
                    yield [
                        "os-scan", "--n-min", str(n_min), "--n-max", str(n_max),
                        "--k", str(k), "--a-max", "2", "--format", fmt,
                    ]


def request_mix_grid():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import mix
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    for seed in (1, 2, 3):
        for req in mix.build(seed):
            yield list(req.argv)


GRIDS = {"os-scan": os_scan_grid, "request_mix": request_mix_grid}


def digest(argvs) -> str:
    """SHA-256 over (argv, exit code, stdout, stderr) of each request,
    each written as one line of JSON."""
    from fistab.cli import main

    sha = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        line = json.dumps([argv, code, out.getvalue(), err.getvalue()], ensure_ascii=False)
        sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def digests() -> dict[str, str]:
    return {name: digest(grid()) for name, grid in GRIDS.items()}


if __name__ == "__main__":
    print(json.dumps(digests(), indent=2))
