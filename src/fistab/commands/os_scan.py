"""`fistab os-scan`: the cohomology of Conf_n(C) over a window of levels,
from its free-module decomposition (see fistab.os_model)."""

from __future__ import annotations

from math import isqrt

from .. import fi_reports, os_model
from ..errors import DomainError
from . import (
    _ENTRY_NS,
    _STRIP_NS,
    _TERM_NS,
    _admit,
    _solve_work,
    _strip_pairs,
    _table_work,
)


def _maps(n_min: int, n_max: int, a_top: int) -> int:
    """Number of coinvariant maps os-scan reports: at each level n of
    n_min..n_max-1, one per a <= min(a_top, n)."""
    c = min(max(a_top, n_min), n_max)  # levels below c have n + 1 of them
    return (c * (c + 1) - n_min * (n_min + 1)) // 2 + (n_max - c) * (a_top + 1)


def _entries(p, levels: int, top: int, maps: int) -> int:
    """At most the values os-scan reports: k and the window; per level a
    Betti number and the shapes lam[n], |lam| <= top = min(2k, n_max) as
    the W_m have m <= 2k, so at most S = p(0) + ... + p(top) of them; 7
    per coinvariant map (1 for none); and on two levels or more 7, and for
    each of at most S shapes and monomials of weight <= top, a stable
    multiplicity, a label, a coefficient and the exponents: at most d
    cycle lengths, d(d + 1)/2 <= top, or an empty map."""
    shapes = sum(p[: top + 1])
    total = 3 + levels * (1 + shapes) + max(1, 7 * maps)
    lengths = (isqrt(8 * top + 1) - 1) // 2
    return total + (7 + shapes * (4 + lengths) if levels > 1 else 0)


def run(args):
    k = args.k
    if k < 0 or args.a_max < 0:
        raise DomainError("--k and --a-max must be nonnegative")
    if args.n_min < 1 or args.n_max < args.n_min:
        raise DomainError("need 1 <= n-min <= n-max")
    window = range(args.n_min, args.n_max + 1)
    a_top = min(args.a_max, args.n_max - 1)  # no coinvariant map starts at a >= n-max
    top = min(2 * k, args.n_max)
    fit = args.n_max > args.n_min and os_model._needs_check(args.n_min, args.n_max, k)

    def work(p):
        # the tables of S_m, decompose's price, for the nonzero W_m, and the averages
        # of their characters; the Pieri strips of their constituents, once
        # for the window; the entries of the report, as wreath-scan prices
        # its own; the terms of one free-module count per (level, a), the
        # source of each map and the target of the last map of each a; and
        # the fit that checks the polynomial where the window may leave it
        # open (os_model.character_polynomial)
        ms = os_model._generator_sizes(args.n_max, k)
        maps = _maps(args.n_min, args.n_max, a_top)
        counts = maps + a_top + 1 if maps else 0
        total = (
            _table_work(p, ms)
            + _STRIP_NS * sum(_strip_pairs(p, m) for m in ms)
            + _ENTRY_NS * _entries(p, len(window), top, maps)
            + counts * _TERM_NS * sum(min(a_top, m) + 1 for m in ms)
        )
        if fit:  # zero on the window's classes; M is cut at p(n_max) only where M > R
            rows = sum(p[n] for n in window)
            total += _solve_work(rows, sum(p[: 2 * k + 1]), rows, args.n_max, 2 * k)
        return total

    _admit(args, work, args.n_max if fit else top)
    decs = os_model.free_decompositions(args.n_min, args.n_max, k)
    # sum_m C(n, m) dim W_m: the invariants of the trivial subgroup
    betti = {n: os_model._free_invariant_dimension(n, n, k) for n in window}
    payload = {
        "k": k,
        "window": [args.n_min, args.n_max],
        "betti": {str(n): betti[n] for n in window},
        "decompositions": {str(n): decs.to_mapping(n) for n in window},
    }
    if args.n_max > args.n_min:
        # detect_stability's report, read off the thresholds
        stability = fi_reports.StabilityReport((args.n_min, args.n_max), *decs.stability())
        payload["stability"] = stability.to_mapping()
        try:
            poly = os_model.character_polynomial(args.n_min, args.n_max, k)
            payload["character_polynomial"] = poly.to_mapping()
        except DomainError as exc:
            payload["character_polynomial"] = {"error": str(exc)}
    coinv = {}
    for a in range(0, a_top + 1):
        rows = {}
        # each map's target dimension is the next map's source; at level
        # a the subgroup is trivial, so the source is the Betti number
        d_src = betti.get(a)
        for n in range(max(args.n_min, a), args.n_max):
            report = os_model.coinvariant_report(n, a, k, d_src)
            rows[str(n)] = report.to_mapping()
            d_src = report.dims[1]
        if rows:
            coinv[str(a)] = rows
    payload["coinvariants"] = coinv
    return payload
