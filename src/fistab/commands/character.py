"""`fistab character`: one value, or the whole irreducible character."""

from __future__ import annotations

from itertools import accumulate

from .. import characters
from ..partitions import parse_partition
from . import _PAIR_NS, _WORD_NS, WORK_BUDGET, _admit


def _shapes_inside(lam) -> int:
    """Number of partitions nu inside lam (nu_i <= lam_i), row by row."""
    if not lam:
        return 1
    ends = [1] * (lam[0] + 1)  # ends[v]: choices of the rows so far, the last of length v
    for row in lam[1:]:
        ends = list(accumulate(reversed(ends)))[::-1][: row + 1]
    return sum(ends)


def _value_work(lam, mu) -> int:
    """Work of one value by the downward rule (characters._mn_value).
    Each shape inside lam is met at most once and tries at most len(lam)
    rim hooks, each on a bead mask of (lam_1 + len(lam)) / 64 words.  A
    cycle meets shapes of one size, each fixed by its rows below the
    first, so at most (lam_1 + 1)^(len(lam) - 1) of them.  As s(lam) >=
    lam_1 + len(lam), counting the shapes (j) and (1^i) inside lam, a
    lam too large for the budget is refused before its shapes are
    counted."""
    if not lam:
        return 0
    moves = _PAIR_NS * len(lam)
    if moves * (lam[0] + len(lam)) > WORK_BUDGET:
        return moves * (lam[0] + len(lam))
    shapes = _shapes_inside(lam)
    met = min(shapes, (len(mu) + 1) * (lam[0] + 1) ** (len(lam) - 1))
    words = (lam[0] + len(lam)) // 64 + 1
    return moves * shapes + _WORD_NS * len(lam) * words * met


def run(args):
    lam = parse_partition(args.lam)
    n = sum(lam)
    if args.mu is not None:
        mu = parse_partition(args.mu)
        _admit(args, lambda p: _value_work(lam, mu))
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
