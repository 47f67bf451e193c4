"""The subcommand handlers of the CLI, one module per subcommand, and
what they share: the work budget, and the readers of their input files
and JSON (inputs, which only the requests that read them import).

`fistab.cli` imports a handler module only when its subcommand runs, so
a process compiles the code of its own subcommand alone; `run(args)`
reads its flags, rows of `cli.SUBCOMMANDS`, as attributes of `args`.  A
handler module never imports `fistab.cli`, and it calls the layers
through their modules (`characters.decompose(...)`), so a function
rebound on its module after the import (a profiler, a tracer) still
takes effect.  This module imports no computation layer, as
`import fistab.cli` loads it.
"""

from __future__ import annotations

from operator import mul

from ..errors import DomainError
from ..partitions import partition_counts

# the most estimated work a request may take without --allow-large, in ns
# of a 2-vCPU x86-64 host (see _admit)
WORK_BUDGET = 3 * 10**9


class UsageError(Exception):
    """Flags that parse but cannot be used together (exit 64)."""


# --------------------------------------------------------------------------
# the work budget
#
# Each subcommand whose work grows without bound estimates it before it
# starts, from counts alone: no partition is enumerated to decide whether
# to start.  An estimate is a sum of counts, each times the measured cost
# of one of its units, in ns.  _PAIR_NS is one (class, shape) pair of the
# Murnaghan-Nakayama loops, in a whole character or in a character table
# with one decomposition against it (decompose's price, an upper bound).
_PAIR_NS = 1200
_WORD_NS = 30  # one 64-bit word of a bead mask, per rim hook a single character value tries
_BYTE_NS = 60  # one byte of JSON input: read, parsed and checked by its handler
_CELL_NS = 150  # one 64-bit word of an entry of a solve's row: built, read and checked
_PIVOT_NS = 21  # one 64-bit word of a pivot row's entry, applied to a row the solve inserts
_POINT_NS = 4000  # one point of a fit-dimpoly table: read, checked and reported
_CYCLE_NS = 150  # one (class, cycle, stored degree, graded dimension) step of kunneth
_STRIP_NS = 3000  # one horizontal strip (one constituent) of a Pieri sum
_TERM_NS = 2000  # one (W_m, j) term of a free-module invariant dimension
_ROW_NS = 500  # one row of lam per strip of m-module --lam
_HOOK_NS = 3  # one of the (|lam| + 1)^2 steps of the hook-length dimension of lam
_FOLD_NS = 50  # one (cell, binomial weight) step of the wreath series
_ENTRY_NS = 2000  # one reported value of a wreath scan or an os-scan


def _seconds(ns: int) -> str:
    # three significant digits, or the fewest past them at which an
    # estimate over the budget reads as over it: "3.0004 s", not "3 s".
    # The rounded value is at most 1000, so printed with four or more
    # digits :g keeps its digits and never takes exponent form ("1e+03")
    if ns > 10**12:
        return "more than 1000 s"
    digits = 3
    while ns > WORK_BUDGET >= float(f"{ns / 10**9:.{digits}g}") * 10**9:
        digits += 1
    rounded = float(f"{ns / 10**9:.{digits}g}")
    return f"about {rounded:.{max(digits, 4)}g} s"


def _admit(args, estimate, n: int = 0, alternative: str = "") -> None:
    """Refuse the request with a DomainError when its estimated work is
    over WORK_BUDGET, unless --allow-large is given.

    p(0), ..., p(n) are counted first, and only up to the budget, so a
    request on a huge S_n is refused before anything else is counted;
    estimate(p) then turns the list of counts into nanoseconds.  A
    negative n is refused by the computation itself.
    """
    if args.allow_large or n < 0:
        return
    p = partition_counts(n, cap=WORK_BUDGET)
    if len(p) <= n:
        why = f"S_{n} has more than {WORK_BUDGET} conjugacy classes"
    else:
        work = estimate(p)
        if work <= WORK_BUDGET:
            return
        why = f"estimated work {_seconds(work)}"
    raise DomainError(
        f"{args.command}: {why}, over the work budget of {WORK_BUDGET / 10**9:g} s; "
        f"pass {alternative}--allow-large to run it anyway"
    )


def _solve_work(rows: int, cols: int, inserted: int, level: int, degree: int, rhs=0, den=0) -> int:
    """The estimated ns of linalg.solve_exact on `rows` rows of `cols`
    unknowns, at most `inserted` rows reduced against at most `cols` pivot
    rows and every other checked (none if cols > rows: the fit refuses).
    An unknown's entry, binomials C(a, e) with sum a <= level and sum e <=
    degree, is under 2^level and (e level / s)^s, s = min(degree, level),
    times a denominator of `den` bits; a right-hand side has `rhs` bits."""
    s = min(max(degree, 0), level)
    bits = min(level, s * (level.bit_length() - s.bit_length() + 3)) + den
    words = cols * (1 + bits // 64) + 1 + rhs // 64  # of a row
    return 0 if cols > rows else words * (rows * _CELL_NS + inserted * cols * _PIVOT_NS)


def _table_work(p, levels) -> int:
    return _PAIR_NS * sum(p[n] ** 2 for n in levels)


def _strip_pairs(p, m: int) -> int:
    """Pairs (lam of m, horizontal strip on lam) at any level: the strips
    of one lam grow with the level up to their number at level 2m, and
    over all lam of m those number sum_{a+b=m} p(a) p(b)."""
    return sum(map(mul, p[: m + 1], reversed(p[: m + 1])))
