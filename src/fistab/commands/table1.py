"""`fistab table1`: the headline bounds of one example family."""

from __future__ import annotations

from .. import bounds


def run(args):
    return bounds.table1_row(args.row, args.i).to_mapping()
