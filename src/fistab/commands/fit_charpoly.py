"""`fistab fit-charpoly`: the character polynomial of a window."""

from __future__ import annotations

from .. import fi_analysis, tables
from . import _admit, _solve_work
from .inputs import load_json


def run(args):
    entries = tables.sequence(load_json(args, "entries"), tables.class_function)
    seq = fi_analysis.FISequence(entries)
    d, rows, num, den = args.degree_bound, 0, 0, 0
    for n in seq:  # a row per class, cleared of its value's denominator
        for v in seq[n].values.values():
            rows += 1
            num, den = max(num, v.numerator.bit_length()), max(den, v.denominator.bit_length())
    monomials = fi_analysis._monomial_count(d, cap=rows)
    _admit(args, lambda p: _solve_work(rows, monomials, rows, seq.n_max, d, num, den))
    poly = fi_analysis.fit_char_polynomial(seq, d)
    return {
        "window": list(seq.window),
        "degree_bound": args.degree_bound,
        "polynomial": poly.to_mapping(),
    }
