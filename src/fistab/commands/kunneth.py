"""`fistab kunneth`: the character of a graded tensor power, and its
decomposition."""

from __future__ import annotations

from .. import induction
from ..graded import _check_graded_dims, _degrees, read_graded_dims
from . import _CYCLE_NS, _STRIP_NS, _admit, _strip_pairs, _table_work


def run(args):
    n, i = args.n, args.i
    dims = _check_graded_dims(read_graded_dims(args.graded_dims), n, i)

    # the nonzero graded dimensions up to degree i: after j cycles the
    # trace polynomial of a class stores at most min(i + 1, terms^j) degrees
    terms = 1 + len(_degrees(dims, i))

    def traces(p, m):
        # the trace polynomial of each cycle length, then per class of S_m
        # one sparse polynomial product per cycle
        return _CYCLE_NS * m * (min(len(dims), i + 1) + p[m] * min(i + 1, terms**m) * terms)

    def work(p):
        if not args.decompose:
            return traces(p, n)
        # the degree-i part of V_+^m for each m kunneth_decomposition reads: its
        # traces and the table of S_m (an upper bound), and the Pieri strips
        small = induction._generator_sizes(dims, n, i)
        return traces(p, n) + _table_work(p, small) + sum(
            traces(p, m) + _STRIP_NS * _strip_pairs(p, m) for m in small
        )

    _admit(args, work, n)
    chi = induction.kunneth_power(dims, n, i)
    payload = {
        "graded_dims": list(dims),
        "n": n,
        "i": i,
        "character": chi.to_mapping(),
    }
    if args.decompose:
        payload["decomposition"] = induction.kunneth_decomposition(dims, n, i).to_mapping()
    return payload
