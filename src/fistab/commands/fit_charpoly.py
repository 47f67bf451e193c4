"""`fistab fit-charpoly`: the character polynomial of a window."""

from __future__ import annotations

from .. import fi_analysis, tables
from . import _admit, _fit_work
from .inputs import load_json


def run(args):
    entries = tables.sequence(load_json(args, "entries"), tables.class_function)
    seq = fi_analysis.FISequence(entries)
    rows = sum(len(seq[n].values) for n in seq)
    _admit(args, lambda p: _fit_work(rows, args.degree_bound))
    poly = fi_analysis.fit_char_polynomial(seq, args.degree_bound)
    return {
        "window": list(seq.window),
        "degree_bound": args.degree_bound,
        "polynomial": poly.to_mapping(),
    }
