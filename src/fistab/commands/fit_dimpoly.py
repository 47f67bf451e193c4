"""`fistab fit-dimpoly`: the dimension polynomial of a table."""

from __future__ import annotations

from .. import fi_analysis
from ..errors import DomainError
from ..tables import unique_keys
from . import _POINT_NS, _admit, _solve_work
from .inputs import load_json


def run(args):
    payload = load_json(args, "dims")
    try:
        points = [(k, int(k), v) for k, v in payload.items()]
    except (ValueError, TypeError, AttributeError) as exc:
        raise DomainError(f"dimension table must map integers to integers: {exc}") from exc
    dims = unique_keys(points, "dimension table")
    for v in dims.values():
        if type(v) is not int:  # JSON integers only: no floats, strings or true/false
            raise DomainError(f"dimension table must map integers to integers, got {v!r}")
    d = args.degree_bound
    if 0 <= d <= len(dims) - 2:  # otherwise the fit refuses before its solve
        # the solve inserts the rows of the first d + 1 levels, distinct and
        # so independent, and checks the other points; every point is read
        # and reported.  At a level m < 0, C(m, j) = +-C(j - m - 1, j)
        level = max(max(dims), d - min(dims))
        rhs = max(v.bit_length() for v in dims.values())
        work = _solve_work(len(dims), d + 1, d + 1, level, d, rhs) + len(dims) * _POINT_NS
        _admit(args, lambda p: work)
    poly = fi_analysis.fit_dim_polynomial(dims, d)
    return {
        "points": {str(n): dims[n] for n in sorted(dims)},
        "degree_bound": args.degree_bound,
        "polynomial": poly.to_mapping(),
    }
