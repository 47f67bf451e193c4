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
    # one type dispatch per value; ints, most of a report's leaves, first
    kind = type(payload)
    if kind is dict:
        keys = ["()" if k == "" else k for k in payload]  # the empty partition
        width = max(map(len, keys), default=0)
        inner = pad + "  "
        for key, v in zip(keys, payload.values()):
            kind = type(v)
            if kind is int:
                out(f"{pad}{key.ljust(width)}  {v}\n")
            elif kind is dict or (kind is list and not _is_scalar_list(v)):
                out(f"{pad}{key}:\n")
                _text(v, inner, out)
            elif kind is list:
                out(f"{pad}{key.ljust(width)}  {' '.join(map(_scalar, v))}\n")
            else:
                out(f"{pad}{key.ljust(width)}  {_scalar(v)}\n")
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
