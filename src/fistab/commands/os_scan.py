"""`fistab os-scan`: the cohomology of Conf_n(C) over a window of levels,
from its free-module decomposition (see fistab.os_model)."""

from __future__ import annotations

from .. import fi_analysis, os_model
from ..errors import DomainError
from . import (
    _LEHRER_NS,
    _LEVEL_NS,
    _REPORT_NS,
    _STRIP_NS,
    _TERM_NS,
    _admit,
    _fit_work,
    _strip_pairs,
    _table_work,
)


def _maps(n_min: int, n_max: int, a_top: int) -> int:
    """Number of coinvariant maps os-scan reports: at each level n of
    n_min..n_max-1, one per a <= min(a_top, n)."""
    c = min(max(a_top, n_min), n_max)  # levels below c have n + 1 of them
    return (c * (c + 1) - n_min * (n_min + 1)) // 2 + (n_max - c) * (a_top + 1)


def _lehrer_steps(p, n: int, k: int) -> int:
    """Steps of Lehrer's product over the classes of S_n, expanded up to
    degree k (os_model._trace_in_degree): each distinct cycle length r of
    a class is scanned for its divisors, r steps, and each cycle multiplies
    a series of at most k + 1 terms.  p(n - r) classes have a cycle of
    length r, and p(n - jc) have c or more cycles of length j."""
    lengths = sum(r * p[n - r] for r in range(1, n + 1))
    cycles = sum(p[n - j * c] for j in range(1, n + 1) for c in range(1, n // j + 1))
    return lengths + (k + 1) * cycles


def run(args):
    k = args.k
    if k < 0 or args.a_max < 0:
        raise DomainError("--k and --a-max must be nonnegative")
    if args.n_min < 1 or args.n_max < args.n_min:
        raise DomainError("need 1 <= n-min <= n-max")
    window = range(args.n_min, args.n_max + 1)
    a_top = min(args.a_max, args.n_max - 1)  # no coinvariant map starts at a >= n-max
    top = min(2 * k, args.n_max)
    fit = 0 < args.n_max - args.n_min < 2 * k  # see os_model.character_polynomial

    def work(p):
        # the tables of S_m for the W_m, k < m <= 2k, with their characters
        # and averages; the Pieri strips of their constituents at each level
        # of the peel and of the window; a report per level and per
        # coinvariant map, each map with the terms of two free-module
        # counts; and on a short window the characters and their fit
        ms = range(k + 1, top + 1)
        total = (
            _table_work(p, ms)
            + _STRIP_NS * (len(ms) + len(window)) * sum(_strip_pairs(p, m) for m in ms)
            + _LEVEL_NS * len(window)
            + _maps(args.n_min, args.n_max, a_top)
            * (_REPORT_NS + 2 * _TERM_NS * sum(min(a_top, m) + 1 for m in ms))
        )
        if fit:
            total += _LEHRER_NS * sum(_lehrer_steps(p, n, k) for n in window)
            total += _fit_work(sum(p[n] for n in window), 2 * k)
        return total

    _admit(args, work, args.n_max if fit else top)
    decs = {n: os_model.free_decomposition(n, k) for n in window}
    payload = {
        "k": k,
        "window": [args.n_min, args.n_max],
        "betti": {str(n): os_model.free_betti(n, k) for n in window},
        "decompositions": {str(n): decs[n].to_mapping() for n in window},
    }
    if args.n_max > args.n_min:
        seq = fi_analysis.FISequence(decs)
        payload["stability"] = fi_analysis.detect_stability(seq).to_mapping()
        try:
            poly = os_model.character_polynomial(args.n_min, args.n_max, k)
            payload["character_polynomial"] = poly.to_mapping()
        except DomainError as exc:
            payload["character_polynomial"] = {"error": str(exc)}
    coinv = {}
    for a in range(0, a_top + 1):
        rows = {}
        for n in range(max(args.n_min, a), args.n_max):
            rows[str(n)] = os_model.coinvariant_report(n, a, k).to_mapping()
        if rows:
            coinv[str(a)] = rows
    payload["coinvariants"] = coinv
    return payload
