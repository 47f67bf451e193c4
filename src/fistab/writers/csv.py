"""The CSV report: one row per scalar or list of scalars, keyed by its
dotted path.  The walk writes each row itself, as the key, a comma, the
value and a line feed, under the quoting rule of RFC 4180: a field is
quoted, each double quote in it doubled, if and only if it holds a comma,
a double quote, a line feed or a carriage return.  CPython 3.13's csv
module writes the same bytes, and these are the same on every CPython:
no module of the package loads csv."""

from __future__ import annotations

from . import _is_scalar_list, _scalar


def write(payload, out) -> None:
    _csv(payload, "", out)


def _field(text: str) -> str:
    # text as one CSV field
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv(payload, prefix: str, out) -> None:
    # prefix is "" at the top and ends with "." below it
    kind = type(payload)
    if kind is dict:
        # one type dispatch per value, as in writers.text: a scalar leaf
        # is a row at once, and only dicts and lists of non-scalars recurse
        for k, v in payload.items():
            key = f"{prefix}{'()' if k == '' else k}"
            kind = type(v)
            if kind is int:
                out(f"{_field(key)},{v}\n")
            elif kind is str:
                out(f"{_field(key)},{_field(v)}\n")
            elif kind is dict or (kind is list and not _is_scalar_list(v)):
                _csv(v, f"{key}.", out)
            elif kind is list:
                out(f"{_field(key)},{_field(' '.join(map(_scalar, v)))}\n")
            elif kind is bool:
                out(f"{_field(key)},{'true' if v else 'false'}\n")
            else:
                out(f"{_field(key)},-\n")
    elif kind is list and not _is_scalar_list(payload):
        for idx, v in enumerate(payload):
            _csv(v, f"{prefix}{idx}.", out)
    else:
        value = " ".join(map(_scalar, payload)) if kind is list else _scalar(payload)
        out(f"{_field(prefix[:-1])},{_field(value)}\n")
