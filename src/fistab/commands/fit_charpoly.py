"""`fistab fit-charpoly`: the character polynomial of a window."""

from __future__ import annotations

from .. import fi_analysis
from . import _admit, _fit_work, _load_json


def run(args):
    payload = _load_json(args, "entries")
    seq = fi_analysis.FISequence.characters_from_mapping(payload)
    rows = sum(len(seq[n].values) for n in seq)
    _admit(args, lambda p: _fit_work(rows, args.degree_bound))
    poly = fi_analysis.fit_char_polynomial(seq, args.degree_bound)
    return {
        "window": list(seq.window),
        "degree_bound": args.degree_bound,
        "polynomial": poly.to_mapping(),
    }
