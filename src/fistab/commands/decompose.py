"""`fistab decompose`: a class function into irreducible multiplicities."""

from __future__ import annotations

from .. import characters, tables
from ..errors import ConsistencyError, DomainError
from . import _admit, _table_work
from .inputs import load_json


def run(args):
    chi = tables.class_function(args.n, load_json(args, "values"))
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
