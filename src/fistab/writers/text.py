"""The aligned text report: one line per scalar or list of scalars,
keys padded to a column, and nested values indented below their key."""

from __future__ import annotations

from . import _is_scalar_list, _scalar


def write(payload, out) -> None:
    if type(payload) in (dict, list) and not payload:
        out("\n")  # an empty report is one empty line
    else:
        _text(payload, "", out)


def _text(payload, pad: str, out) -> None:
    # one type dispatch per value; ints, most of a report's leaves, and
    # strs first, and bools written inline, as cli._json writes them
    kind = type(payload)
    if kind is dict:
        width = max(map(len, payload), default=0)
        if width < 2 and "" in payload:
            width = 2  # the empty partition, written as ()
        inner = pad + "  "
        for key, v in payload.items():
            if not key:
                key = "()"
            kind = type(v)
            if kind is int or kind is str:
                out(f"{pad}{key.ljust(width)}  {v}\n")
            elif kind is dict or (kind is list and not _is_scalar_list(v)):
                out(f"{pad}{key}:\n")
                _text(v, inner, out)
            elif kind is list:
                out(f"{pad}{key.ljust(width)}  {' '.join(map(_scalar, v))}\n")
            elif kind is bool:
                out(f"{pad}{key.ljust(width)}  {'true' if v else 'false'}\n")
            else:
                out(f"{pad}{key.ljust(width)}  -\n")
    elif kind is list:
        inner = pad + "  "
        for item in payload:
            if type(item) in (dict, list):
                out(f"{pad}-\n")
                _text(item, inner, out)
            else:
                out(f"{pad}- {_scalar(item)}\n")
    else:
        out(f"{pad}{_scalar(payload)}\n")
