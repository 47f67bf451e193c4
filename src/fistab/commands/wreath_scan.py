"""`fistab wreath-scan`: wreath-product Betti numbers over a window, from
the graded-symmetric power series of fistab.wreath, with no character."""

from __future__ import annotations

from .. import wreath
from ..errors import DomainError
from ..graded import read_graded_dims
from . import _ENTRY_NS, _FOLD_NS, _admit


def _series_work(dims, n_max: int, i: int) -> int:
    # the series folds each degree g <= i with d_g > 0 into a table of
    # min(n_max, i) + 1 rows by i + 1 columns, one binomial weight per class
    # count j <= min(n_max, i // g) (and j <= d_g for odd g), unless no
    # product of classes reaches degree i; then it reports n_max + 1 values
    s_max = min(n_max, i)
    if wreath._top_degree(dims, s_max, i) < i:
        return _ENTRY_NS * (n_max + 1)
    weights = sum(
        min(s_max, i // g, d if g % 2 else s_max) + 1
        for g, d in enumerate(dims[1 : i + 1], 1)
        if d
    )
    return _FOLD_NS * (s_max + 1) * (i + 1) * max(weights, 1) + _ENTRY_NS * (n_max + 1)


def run(args):
    dims = read_graded_dims(args.graded_dims)
    if args.n_min < 0 or args.n_max < args.n_min:
        raise DomainError("need 0 <= n-min <= n-max")
    _admit(args, lambda p: _series_work(dims, args.n_max, args.i))
    series = wreath.wreath_invariant_series(dims, args.n_max, args.i)
    start = max(args.n_min, 2 * args.i)
    return {
        "graded_dims": list(dims),
        "i": args.i,
        "window": [args.n_min, args.n_max],
        "invariant_dims": {str(n): series[n] for n in range(args.n_min, args.n_max + 1)},
        "expected_constant_from": 2 * args.i,
        "constant_on_tail": all(
            series[n] == series[n - 1] for n in range(start + 1, args.n_max + 1)
        ),
    }
