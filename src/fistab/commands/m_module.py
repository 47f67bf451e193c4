"""`fistab m-module`: a level of the free module M(lam) or M(m)."""

from __future__ import annotations

from math import comb, perm, prod

from .. import induction
from ..errors import DomainError
from ..partitions import parse_partition
from . import _HOOK_NS, _ROW_NS, _STRIP_NS, _admit, _strip_pairs


def _strips(lam, n: int) -> int:
    """Number of horizontal strips of n - |lam| boxes on lam, or more: each
    row below a longer one grows by at most the difference (the last row
    is new), so exactly this many once the first row can take the rest.
    Fewer boxes than such rows bound the count by C(boxes + rows, boxes)."""
    boxes = n - sum(lam)
    if boxes < 0:
        return 0
    rows = (*lam, 0)
    widths = [rows[i - 1] - rows[i] for i in range(1, len(rows)) if rows[i - 1] > rows[i]]
    count = prod(w + 1 for w in widths)
    return min(count, comb(boxes + len(widths), boxes)) if boxes < len(widths) else count


def run(args):
    if (args.lam is None) == (args.regular is None):
        raise DomainError("give exactly one of --lam or --regular")
    if args.lam is not None:
        lam = parse_partition(args.lam)
        _admit(
            args,
            lambda p: _strips(lam, args.n) * (_STRIP_NS + _ROW_NS * len(lam))
            + _HOOK_NS * (sum(lam) + 1) ** 2,
        )
        dec = induction.m_module(lam, args.n)
        head = {"lam": list(lam)}
        # the hook-length dimension, read off the module that binds it
        dim = comb(args.n, sum(lam)) * induction.dimension(lam)
    else:
        m = args.regular
        _admit(args, lambda p: _STRIP_NS * _strip_pairs(p, m), m)
        dec = induction.m_regular(m, args.n)
        head = {"m": args.regular}
        dim = perm(args.n, m)
    return {
        **head,
        "n": args.n,
        "decomposition": dec.to_mapping(),
        "dimension": dim,
    }
