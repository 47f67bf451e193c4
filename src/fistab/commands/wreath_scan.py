"""`fistab wreath-scan`: wreath-product Betti numbers over a window."""

from __future__ import annotations

from .. import induction
from ..errors import DomainError
from . import _ENTRY_NS, _FOLD_NS, _admit, _graded_dims


def _series_work(dims, n_max: int, i: int) -> int:
    # the series folds each degree g <= i with d_g > 0 into a table of
    # min(n_max, i) + 1 rows by i + 1 columns, one binomial weight per class
    # count j <= min(n_max, i // g) (and j <= d_g for odd g); then it
    # reports n_max + 1 values
    s_max = min(n_max, i)
    weights = sum(
        min(s_max, i // g, d if g % 2 else s_max) + 1
        for g, d in enumerate(dims[1 : i + 1], 1)
        if d
    )
    return _FOLD_NS * (s_max + 1) * (i + 1) * max(weights, 1) + _ENTRY_NS * (n_max + 1)


def run(args):
    dims = _graded_dims(args.graded_dims)
    if args.n_min < 0 or args.n_max < args.n_min:
        raise DomainError("need 0 <= n-min <= n-max")
    _admit(args, lambda p: _series_work(dims, args.n_max, args.i))
    series = induction.wreath_invariant_series(dims, args.n_max, args.i)
    values = {n: series[n] for n in range(args.n_min, args.n_max + 1)}
    start = max(args.n_min, 2 * args.i)
    tail = [values[n] for n in range(start, args.n_max + 1)]
    return {
        "graded_dims": list(dims),
        "i": args.i,
        "window": [args.n_min, args.n_max],
        "invariant_dims": {str(n): v for n, v in values.items()},
        "expected_constant_from": 2 * args.i,
        "constant_on_tail": len(set(tail)) <= 1,
    }
