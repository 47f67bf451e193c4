"""`fistab character`: one value, or the whole irreducible character."""

from __future__ import annotations

from itertools import accumulate

from .. import characters
from ..partitions import parse_partition
from . import _PAIR_NS, _admit


def _shapes_inside(lam) -> int:
    """Number of partitions nu inside lam (nu_i <= lam_i), row by row."""
    if not lam:
        return 1
    ends = [1] * (lam[0] + 1)  # ends[v]: choices of the rows so far, the last of length v
    for row in lam[1:]:
        ends = list(accumulate(reversed(ends)))[::-1][: row + 1]
    return sum(ends)


def run(args):
    lam = parse_partition(args.lam)
    n = sum(lam)
    if args.mu is not None:
        mu = parse_partition(args.mu)
        return {
            "lam": list(lam),
            "n": n,
            "mu": list(mu),
            "value": characters._mn_value(lam, mu),
        }
    _admit(
        args, lambda p: _PAIR_NS * p[n] * _shapes_inside(lam), n, "--mu for a single value or "
    )
    chi = characters.irreducible_character(lam)
    return {"lam": list(lam), "n": n, "values": chi.to_mapping()}
