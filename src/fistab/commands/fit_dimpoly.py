"""`fistab fit-dimpoly`: the dimension polynomial of a table."""

from __future__ import annotations

from .. import fi_analysis
from ..characters import unique_keys
from ..errors import DomainError
from . import _DIM_COL_NS, _DIM_ROW_NS, _POINT_NS, _SOLVE_NS, _admit, _load_json


def run(args):
    payload = _load_json(args, "dims")
    try:
        points = [(k, int(k), v) for k, v in payload.items()]
    except (ValueError, TypeError, AttributeError) as exc:
        raise DomainError(f"dimension table must map integers to integers: {exc}") from exc
    dims = unique_keys(points, "dimension table")
    for v in dims.values():
        if type(v) is not int:  # JSON integers only: no floats, strings or true/false
            raise DomainError(f"dimension table must map integers to integers, got {v!r}")
    d = args.degree_bound
    _admit(args, lambda p: _work(len(dims), d))
    poly = fi_analysis.fit_dim_polynomial(dims, d)
    return {
        "points": {str(n): dims[n] for n in sorted(dims)},
        "degree_bound": args.degree_bound,
        "polynomial": poly.to_mapping(),
    }


def _work(points: int, d: int) -> int:
    """The estimated ns of fitting a table of `points` points with degree
    bound d and reporting it: a solve at every candidate degree e <= d,
    each reading every point, an upper bound on the one solve the fit
    runs.  A solve of degree e builds and checks a row of e + 1 binomials
    per point, and takes (e + 1)^3 pivot steps at most.  A negative d, or
    fewer than d + 2 points, is refused before any solve."""
    if d < 0 or points < d + 2:
        return 0
    columns = (d + 1) * (d + 2) // 2  # e + 1 summed over the degrees e <= d
    rows = points * ((d + 1) * _DIM_ROW_NS + columns * _DIM_COL_NS)
    return rows + _SOLVE_NS * columns**2 + points * _POINT_NS
