"""Byte-identity grids: named sets of fistab requests whose output is
pinned by one SHA-256 per grid.

"Same bytes" for a change that must not alter output is one command: each
grid below is a list of argvs, every one run in process through
`fistab.cli.main`, and its digest is taken over (argv, exit code, stdout,
stderr) of each request in order.  Consecutive requests that differ only
in --format run their handler once and render its payload in each format
(`one_run_for_the_formats`); a handler that refuses runs every time.
`tests/byte_grids.json` keeps the digests; `tests/test_byte_grids.py`
checks them.  A deliberate change of a report updates the file, with a
CHANGES line that names the grid and says why.  Print the current
digests with

    PYTHONPATH=src python tests/byte_grids.py

and one line per request of a grid, its argv and the SHA-256 of its exit
code, stdout and stderr, with

    PYTHONPATH=src python tests/byte_grids.py --requests NAME

so that diffing the listings of two checkouts names the requests whose
bytes changed.  With

    PYTHONPATH=src python tests/byte_grids.py --edges

each request of the refusals grid that is just under the work budget runs
in a fresh process, and one JSON line each gives its work estimate, wall
time, the ratio of the two and peak RSS; the exit status is 1 if one of
them fails or takes more than 4 x its own estimate (so more than 4 x the
budget).

Grids, each request in json, text and csv unless said otherwise:
- os-scan: every window with k <= 4, 1 <= n_min <= 11 and 1..2k + 2
  levels, with --a-max 2;
- request_mix: the benchmark's seeded request lists (perfbench/mix.py),
  seeds 1-3, 1000 requests each, as they are;
- m-module: every --lam with |lam| <= 6 and every --regular m <= 6, at
  each level n from |lam| (or m) to 13;
- kunneth: --decompose on five graded-dimension vectors, n <= 9, i <= 7;
- wreath-scan: the same five vectors, i <= 4, n_max <= 12, and one
  window with n_min > 0;
- character: every whole irreducible character of S_n, n <= 10, and the
  decomposition of each, its values given by `character_oracles.mn`;
- refusals: for each subcommand with a work budget, a request just under
  the budget and one just over it (decompose has only the one over: its
  last admitted size, S_24, takes seconds to run; os-scan has a short
  window priced mostly by its check and a long one priced by its
  report); then, once each and in
  json alone, usage errors: a missing required flag, an unknown flag, a
  bad choice and a bad int, where the subcommand has such a flag.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).with_name("byte_grids.json")
FORMATS = ("json", "text", "csv")
# the graded dimensions of the kunneth and wreath-scan grids
VECTORS = ("1,2", "1,1,1", "1,2,1", "1,0,3,1", "1,3,2")


def _partitions(n: int, largest: int | None = None):
    """The partitions of n with parts <= largest, parts in decreasing
    order, in reverse lexicographic order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _shape(lam) -> str:
    return "+".join(map(str, lam)) or "()"


def _table(values: dict) -> str:
    return json.dumps(values, separators=(",", ":"))


def _in_each_format(argvs):
    for argv in argvs:
        for fmt in FORMATS:
            yield [*argv, "--format", fmt]


def os_scan_grid():
    for k in range(5):
        for n_min in range(1, 12):
            for n_max in range(n_min, n_min + 2 * k + 2):
                for fmt in FORMATS:
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


def m_module_grid():
    def argvs():
        for size in range(7):
            for lam in _partitions(size):
                for n in range(size, 14):
                    yield ["m-module", "--lam", _shape(lam), "--n", str(n)]
        for m in range(7):
            for n in range(m, 14):
                yield ["m-module", "--regular", str(m), "--n", str(n)]

    return _in_each_format(argvs())


def kunneth_grid():
    return _in_each_format(
        ["kunneth", "--graded-dims", dims, "--n", str(n), "--i", str(i), "--decompose"]
        for dims in VECTORS
        for n in range(10)
        for i in range(8)
    )


def wreath_scan_grid():
    def argvs():
        for dims in VECTORS:
            for i in range(5):
                for n_max in range(13):
                    yield ["wreath-scan", "--graded-dims", dims, "--i", str(i), "--n-max", str(n_max)]
        yield ["wreath-scan", "--graded-dims", "1,3,2", "--i", "3", "--n-min", "5", "--n-max", "12"]

    return _in_each_format(argvs())


def character_grid():
    from character_oracles import mn

    def argvs():
        for n in range(11):
            for lam in _partitions(n):
                yield ["character", "--lam", _shape(lam)]
        for n in range(11):
            for lam in _partitions(n):
                values = {"+".join(map(str, mu)): mn(lam, mu) for mu in _partitions(n)}
                yield ["decompose", "--n", str(n), "--values", _table(values)]

    return _in_each_format(argvs())


# a valid argv of each subcommand, its required flag left out for the
# missing-flag request (None: it has none), its int flag given "x" for the
# bad-int request (None: it has none), and a choice flag with a bad value
USAGE = {
    "character": (["--lam", "2+1", "--mu", "1+1+1"], "--lam", None, "--format"),
    "decompose": (["--n", "3", "--values", '{"1+1+1": 3, "2+1": 1, "3": 0}'], "--n", "--n", "--format"),
    "m-module": (["--lam", "2", "--n", "4"], "--n", "--n", "--format"),
    "stability-scan": (["--entries", '{"entries": {"2": {"2": 1}}}'], None, None, "--format"),
    "fit-charpoly": (
        ["--entries", '{"entries": {"2": {"1+1": 1, "2": 1}}}', "--degree-bound", "0"],
        "--degree-bound", "--degree-bound", "--format",
    ),
    "fit-dimpoly": (["--dims", '{"2": 1, "3": 1}', "--degree-bound", "0"], "--degree-bound",
                    "--degree-bound", "--format"),
    "bounds": (["--alpha", "1", "--beta", "2", "--i", "3"], "--alpha", "--i", "--format"),
    "table1": (["--row", "moduli", "--i", "2"], "--row", "--i", "--row"),
    "os-scan": (["--n-min", "2", "--n-max", "4", "--k", "1"], "--k", "--n-max", "--format"),
    "wreath-scan": (["--graded-dims", "1,2", "--i", "1", "--n-max", "4"], "--graded-dims", "--i",
                    "--format"),
    "kunneth": (["--graded-dims", "1,2", "--n", "3", "--i", "1"], "--i", "--n", "--format"),
}


def _without(argv: list[str], flag: str) -> list[str]:
    at = argv.index(flag)
    return argv[:at] + argv[at + 2 :]


def _with_value(argv: list[str], flag: str, value: str) -> list[str]:
    if flag not in argv:
        return [*argv, flag, value]
    at = argv.index(flag)
    return [*argv[: at + 1], value, *argv[at + 2 :]]


def _trivial(ns) -> str:
    # the trivial character of S_n at each n in ns
    return _table({"entries": {
        str(n): {"+".join(map(str, mu)): 1 for mu in _partitions(n)} for n in ns
    }})


def _dims(points: int) -> str:
    return _table({str(n): 1 for n in range(points)})


def budget_edges():
    """(just under the budget, just over it) for each subcommand with a
    work budget: the last admitted and the first refused request along
    one flag (decompose has only the one over: its last admitted size,
    S_24, takes seconds to run; os-scan has two pairs, one along
    --n-max of a short window and one of a long window)."""
    zeros_25 = _table({"+".join(map(str, mu)): 0 for mu in _partitions(25)})
    return [
        (["character", "--lam", "1578+1578", "--mu", "3156"],
         ["character", "--lam", "1579+1579", "--mu", "3158"]),
        (None, ["decompose", "--n", "25", "--values", zeros_25]),
        (["m-module", "--regular", "31", "--n", "31"], ["m-module", "--regular", "32", "--n", "32"]),
        (["fit-charpoly", "--entries", _trivial(range(1, 22)), "--degree-bound", "11"],
         ["fit-charpoly", "--entries", _trivial(range(1, 23)), "--degree-bound", "11"]),
        (["fit-dimpoly", "--dims", _dims(9646), "--degree-bound", "103"],
         ["fit-dimpoly", "--dims", _dims(9647), "--degree-bound", "103"]),
        (["os-scan", "--n-min", "17", "--n-max", "20", "--k", "6", "--a-max", "0"],
         ["os-scan", "--n-min", "17", "--n-max", "21", "--k", "6", "--a-max", "0"]),
        (["os-scan", "--n-min", "2", "--n-max", "1299", "--k", "8"],
         ["os-scan", "--n-min", "2", "--n-max", "1300", "--k", "8"]),
        (["wreath-scan", "--graded-dims", "1,2", "--i", "2", "--n-min", "0", "--n-max", "1499998"],
         ["wreath-scan", "--graded-dims", "1,2", "--i", "2", "--n-min", "0", "--n-max", "1499999"]),
        (["kunneth", "--graded-dims", "1,1,1", "--n", "20", "--i", "20", "--decompose"],
         ["kunneth", "--graded-dims", "1,1,1", "--n", "21", "--i", "21", "--decompose"]),
    ]


def refusals_grid():
    yield from _in_each_format(argv for pair in budget_edges() for argv in pair if argv is not None)
    yield []
    yield ["no-such-command"]
    for name, (argv, required, int_flag, choice) in USAGE.items():
        if required is not None:
            yield [name, *_without(argv, required)]
        yield [name, *argv, "--no-such-flag", "1"]
        yield [name, *_with_value(argv, choice, "xml")]
        if int_flag is not None:
            yield [name, *_with_value(argv, int_flag, "x")]


GRIDS = {
    "os-scan": os_scan_grid,
    "request_mix": request_mix_grid,
    "m-module": m_module_grid,
    "kunneth": kunneth_grid,
    "wreath-scan": wreath_scan_grid,
    "character": character_grid,
    "refusals": refusals_grid,
}


@contextlib.contextmanager
def one_run_for_the_formats():
    """Within the block, a request whose flags but --format are those of
    the last request a handler (`cli.cmd_<name>`) returned from renders
    that payload again, without running the handler: the json, text and
    csv of one request run its kernel once.  A handler that raises keeps
    nothing, so each refusal runs in full in every format."""
    from fistab import cli

    last: list = []  # [(flags but --format, payload)], one entry at most

    def once(handler):
        def run(args):
            flags = {k: v for k, v in vars(args).items() if k != "format"}
            if last and last[0][0] == flags:
                return last[0][1]
            last.clear()
            payload = handler(args)
            last.append((flags, payload))
            return payload

        return run

    handlers = {name: h for name, h in vars(cli).items() if name.startswith("cmd_")}
    try:
        for name, handler in handlers.items():
            setattr(cli, name, once(handler))
        yield
    finally:
        for name, handler in handlers.items():
            setattr(cli, name, handler)


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one request, run in process."""
    from fistab.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# run as `python -c _PROBE ARGV...`: the request ARGV in a fresh process,
# each work estimate it is admitted on written to stderr.  A fresh process
# has imported no handler module, so each binds the recording _admit.
_PROBE = """\
import sys
from fistab import cli, commands
from fistab.partitions import partition_counts

admit = commands._admit


def recorded(args, estimate, n=0, alternative=""):
    admit(args, estimate, n, alternative)
    print(estimate(partition_counts(n)), file=sys.stderr)


commands._admit = recorded
sys.exit(cli.main(sys.argv[1:]))
"""


# run as `python -S -c _WRAPPER PROGRAM ARGS...`: PROGRAM ARGS as a child,
# its stdout to /dev/null and its stderr this process's, and its exit
# code, its wall time from spawn to exit and its peak RSS in KB written
# to stdout as one JSON list.  A spawned child's ru_maxrss starts at its
# spawner's peak RSS, so the spawner is this small interpreter, not the
# process that imported the grids.
_WRAPPER = """\
import json, os, sys, time
start = time.perf_counter()
pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ,
                     file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
print(json.dumps([os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss]))
"""


def edges() -> bool:
    """Run each just-under request of budget_edges() in a fresh process
    and print, one JSON line each, its largest work estimate, its wall
    time, the ratio of the two and its peak RSS; True when each was
    admitted and ran within 4 x its estimate, which admission holds under
    the work budget."""
    import os
    import subprocess

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ok = True
    for argv, _ in budget_edges():
        if argv is None:
            continue
        proc = subprocess.run(
            [sys.executable, "-S", "-c", _WRAPPER, sys.executable, "-c", _PROBE, *argv],
            env=env, capture_output=True, text=True, check=True,
        )
        code, wall, peak_kb = json.loads(proc.stdout)
        estimate = max(map(int, proc.stderr.split()), default=0)
        ok &= code == 0 and wall * 10**9 <= 4 * estimate
        print(json.dumps({
            "command": argv[0],
            "exit": code,
            "estimate_s": estimate / 10**9,
            "wall_s": round(wall, 3),
            "run_over_estimate": round(wall * 10**9 / estimate, 3) if estimate else None,
            "peak_mb": round(peak_kb / 1024, 1),
        }))
    return ok


def digest(argvs) -> str:
    """SHA-256 over (argv, exit code, stdout, stderr) of each request,
    each written as one line of JSON."""
    sha = hashlib.sha256()
    with one_run_for_the_formats():
        for argv in argvs:
            line = json.dumps([argv, *run(argv)], ensure_ascii=False)
            sha.update(line.encode() + b"\n")
    return sha.hexdigest()


def digests() -> dict[str, str]:
    return {name: digest(grid()) for name, grid in GRIDS.items()}


def requests(name: str) -> None:
    """Print each request of the grid: its argv, a tab, and the SHA-256 of
    its exit code, stdout and stderr as one line of JSON."""
    with one_run_for_the_formats():
        for argv in GRIDS[name]():
            line = json.dumps(list(run(argv)), ensure_ascii=False)
            print(f"{shlex.join(argv)}\t{hashlib.sha256(line.encode()).hexdigest()}")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Print the digests of the byte-identity grids.")
    parser.add_argument("--requests", choices=GRIDS, metavar="NAME",
                        help=f"list one grid request by request instead ({', '.join(GRIDS)})")
    parser.add_argument("--edges", action="store_true",
                        help="time each request just under the work budget in a fresh process")
    args = parser.parse_args()
    if args.edges:
        sys.exit(not edges())
    elif args.requests:
        requests(args.requests)
    else:
        print(json.dumps(digests(), indent=2))
