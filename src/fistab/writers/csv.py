"""The CSV report: one row per scalar or list of scalars, keyed by its
dotted path."""

from __future__ import annotations

import csv
from types import SimpleNamespace

from . import _is_scalar_list, _scalar


def write(payload, out) -> None:
    _csv(payload, "", csv.writer(SimpleNamespace(write=out), lineterminator="\n").writerow)


def _csv(payload, prefix: str, row) -> None:
    # row(fields) writes one CSV row; prefix is "" at the top and ends
    # with "." below it
    kind = type(payload)
    if kind is dict:
        # one type dispatch per value, as in writers.text: a scalar leaf
        # is a row at once, and only dicts and lists of non-scalars recurse
        for k, v in payload.items():
            key = f"{prefix}{'()' if k == '' else k}"
            kind = type(v)
            if kind is int or kind is str:
                row((key, v))
            elif kind is dict or (kind is list and not _is_scalar_list(v)):
                _csv(v, f"{key}.", row)
            elif kind is list:
                row((key, " ".join(map(_scalar, v))))
            else:
                row((key, _scalar(v)))
    elif kind is list and not _is_scalar_list(payload):
        for idx, v in enumerate(payload):
            _csv(v, f"{prefix}{idx}.", row)
    else:
        row((prefix[:-1], " ".join(map(_scalar, payload)) if kind is list else _scalar(payload)))
