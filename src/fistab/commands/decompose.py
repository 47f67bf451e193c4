"""`fistab decompose`: a class function into irreducible multiplicities."""

from __future__ import annotations

from .. import characters
from . import _admit, _load_json, _table_work


def run(args):
    payload = _load_json(args, "values")
    chi = characters.ClassFunction.from_mapping(args.n, payload)
    _admit(args, lambda p: _table_work(p, [args.n]), args.n)
    dec = characters.decompose(chi)
    return {
        "n": args.n,
        "decomposition": dec.to_mapping(),
        "dimension": dec.dimension(),
    }
