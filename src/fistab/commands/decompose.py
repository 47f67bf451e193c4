"""`fistab decompose`: a class function into irreducible multiplicities."""

from __future__ import annotations

from .. import characters
from ..errors import ConsistencyError, DomainError
from . import _admit, _load_json, _table_work


def run(args):
    payload = _load_json(args, "values")
    chi = characters.ClassFunction.from_mapping(args.n, payload)
    _admit(args, lambda p: _table_work(p, [args.n]), args.n)
    try:
        dec = characters.decompose(chi)
    except ConsistencyError as exc:
        # the table is the user's, so one that is not a character is bad
        # input (exit 1), not a failed check of the library's own (exit 2)
        raise DomainError(str(exc)) from None
    return {
        "n": args.n,
        "decomposition": dec.to_mapping(),
        "dimension": dec.dimension(),
    }
