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
# together with one decomposition against it.
_PAIR_NS = 1200
_WORD_NS = 30  # one 64-bit word of a bead mask, per rim hook a single character value tries
_BYTE_NS = 60  # one byte of JSON input: read, parsed and checked by its handler
_FIT_NS = 250  # one (row, monomial, pivot) step of a character-polynomial fit
_FIT_ROW_NS = 20000  # one row of that fit: its monomial values and its denominators
_SOLVE_NS = 80  # one (row, column, pivot) step of the fit-dimpoly solves
_DIM_ROW_NS = 3500  # one point in one fit-dimpoly solve: its row of binomials and its check
_DIM_COL_NS = 700  # one (point, column) entry of such a row
_POINT_NS = 4000  # one point of a fit-dimpoly table: read, checked and reported
_CYCLE_NS = 150  # one (class, cycle, stored degree, graded dimension) step of kunneth
_STRIP_NS = 3000  # one horizontal strip (one constituent) of a Pieri sum
_LEVEL_NS = 60000  # one level of an os-scan report: Betti number, stability, rendering
_READ_NS = 1000  # one shape of an os-scan level read off the window's strips, rendering included
_REPORT_NS = 30000  # one coinvariant verdict of os-scan, rendering included
_TERM_NS = 2000  # one (W_m, j) term of a free-module invariant dimension
_ROW_NS = 500  # one row of lam per strip of m-module --lam
_HOOK_NS = 3  # one of the (|lam| + 1)^2 steps of the hook-length dimension of lam
_FOLD_NS = 50  # one (cell, binomial weight) step of the wreath series
_ENTRY_NS = 2000  # one reported value of a wreath scan


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


def _fit_work(rows: int, degree_bound: int) -> int:
    # building the rows, then a dense Gauss-Jordan elimination, a pivot per
    # monomial clearing every row: an upper bound on solve_exact, which
    # stops at full column rank; a fit with more monomials than rows is
    # refused before it starts
    from ..fi_analysis import _monomial_count

    monomials = _monomial_count(degree_bound, cap=rows)
    return 0 if monomials > rows else rows * (_FIT_NS * monomials**2 + _FIT_ROW_NS)


def _table_work(p, levels) -> int:
    return _PAIR_NS * sum(p[n] ** 2 for n in levels)


def _strip_pairs(p, m: int) -> int:
    """Pairs (lam of m, horizontal strip on lam) at any level: the strips
    of one lam grow with the level up to their number at level 2m, and
    over all lam of m those number sum_{a+b=m} p(a) p(b)."""
    return sum(map(mul, p[: m + 1], reversed(p[: m + 1])))
