"""The subcommand handlers of the CLI, one module per subcommand, and
what they share: the work budget and the readers of their inputs.

`fistab.cli` imports a handler module only when its subcommand runs, so
a process compiles the code of its own subcommand alone.  A handler
module never imports `fistab.cli`, and it calls the layers through their
modules (`characters.decompose(...)`), so a function rebound on its
module after the import (a profiler, a tracer) still takes effect.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from operator import mul

from ..characters import unique_keys
from ..errors import DomainError
from ..partitions import partition_counts

# the most estimated work a request may take without --allow-large, in ns
# of a 2-vCPU x86-64 host (see _admit)
WORK_BUDGET = 3 * 10**9


class UsageError(Exception):
    """Flags that parse but cannot be used together (exit 64)."""


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def _unique_object(pairs: list) -> dict:
    table = dict(pairs)
    if len(table) < len(pairs):
        unique_keys([(k, k, v) for k, v in pairs], "JSON object")  # refuses the first repeat
    return table


@lru_cache(maxsize=None)
def _json_decoder():
    # json.loads(text, object_pairs_hook=...) builds a decoder per call
    import json

    return json.JSONDecoder(object_pairs_hook=_unique_object)


def _load_json(args, inline_attr: str):
    # an empty --input (a config file's bare "input=") names no file
    inline = getattr(args, inline_attr, None)
    if (inline is None) == (not args.input):
        raise DomainError(f"give exactly one of --{inline_attr} or --input")
    size = len(inline) if inline is not None else os.stat(args.input).st_size
    if hasattr(args, "allow_large"):  # stability-scan has no override, so no budget
        _admit(args, lambda p: size * _BYTE_NS)
    text = inline if inline is not None else _read_text(args.input)
    import json

    try:
        if text.startswith("\ufeff"):
            json.loads(text)  # refuses a leading byte-order mark, which decode() reads as bad JSON
        return _json_decoder().decode(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON input: {exc}") from exc
    except RecursionError:
        raise DomainError("malformed JSON input: nested too deeply") from None
    except DomainError:
        raise
    except ValueError:
        # the interpreter's cap on int-from-str conversion (CPython 3.10.7+)
        # bounds parse time; it is kept, and a longer literal refused
        raise DomainError(
            f"JSON input has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _graded_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad graded dimension list {text!r}") from exc


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
    return "more than 1000 s" if ns > 10**12 else f"about {ns / 10**9:.3g} s"


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
