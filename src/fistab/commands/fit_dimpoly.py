"""`fistab fit-dimpoly`: the dimension polynomial of a table."""

from __future__ import annotations

from .. import fi_analysis
from ..characters import unique_keys
from ..errors import DomainError
from . import _SOLVE_NS, _admit, _load_json


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
    # one solve per candidate degree e <= d, (e + 1)^3 steps each; fewer than
    # d + 2 points are refused before any
    _admit(args, lambda p: 0 if len(dims) < d + 2 else _SOLVE_NS * ((d + 1) * (d + 2) // 2) ** 2)
    poly = fi_analysis.fit_dim_polynomial(dims, d)
    return {
        "points": {str(n): dims[n] for n in sorted(dims)},
        "degree_bound": args.degree_bound,
        "polynomial": poly.to_mapping(),
    }
