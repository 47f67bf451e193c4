"""Input tables given as JSON, read and checked: the {partition: exact
value} tables of class functions and decompositions, the sequences of
them that stability-scan and fit-charpoly take, and the keys of every
table, none of which may be given twice.  Only the subcommands that read
JSON input import this module (ClassFunction.from_mapping and the other
library readers import it when called), so no other process compiles it.
"""

from __future__ import annotations

import sys

from .characters import ClassFunction, IrrDecomposition
from .errors import DomainError
from .exact import read_exact
from .partitions import parse_partition


def unique_keys(triples: list, what: str) -> dict:
    """{key: value} from a list of (raw key, key, value) triples, refusing
    two raw keys that read as one key ("1+2" and "2+1", or "2" and "02"):
    with a plain dict the last value would silently win.  The dict is
    built first; only one that came out short is walked key by key."""
    table = {key: value for _, key, value in triples}
    if len(table) < len(triples):
        _refuse_first(triples, what)
    return table


def _refuse_first(triples, what: str) -> None:
    # the first raw key that reads as an earlier one, walking (raw key,
    # key, value) triples in order as they are made, so a triple that
    # cannot be made raises only if no repeat comes before it
    raw_of = {}
    for raw, key, _ in triples:
        if key in raw_of:
            raise DomainError(f"{what} gives one key twice: {raw_of[key]!r} and {raw!r}")
        raw_of[key] = raw


def _parse_table(mapping, what: str) -> dict:
    if not isinstance(mapping, dict):
        raise DomainError(
            f"a {what} must be a {{partition: value}} table, not {type(mapping).__name__}"
        )
    try:
        table = {parse_partition(k): parse_exact(v, k) for k, v in mapping.items()}
    except DomainError:
        table = {}
    if len(table) < len(mapping):
        # a bad or a repeated key: read again one entry at a time, so
        # the first fault is the one refused
        _refuse_first(
            ((k, parse_partition(k), parse_exact(v, k)) for k, v in mapping.items()), what
        )
    return table


def parse_exact(v, key):
    # the JSON value v, given at key, as an int or a Fraction
    if type(v) is int:
        return v
    if isinstance(v, bool):  # JSON true/false, which Fraction reads as 1/0
        raise DomainError(f"not an exact rational: {v!r}")
    try:
        f = read_exact(v)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        # OverflowError: JSON Infinity and 1e999 read as an infinite float
        raise DomainError(f"not an exact rational: {v!r}") from exc
    if f is None:
        raise DomainError(
            f"the value at {key!r} has a numerator or denominator of more than "
            f"{sys.get_int_max_str_digits()} digits"
        )
    return int(f) if f.denominator == 1 else f


def class_function(n: int, mapping) -> ClassFunction:
    """ClassFunction.from_mapping: a {cycle type: value} table on S_n."""
    vals = _parse_table(mapping, "class function")  # parse_partition checked the keys
    f = object.__new__(ClassFunction)
    f._take(int(n), vals)
    return f


def decomposition(n: int, mapping) -> IrrDecomposition:
    """IrrDecomposition.from_mapping: a {shape: multiplicity} table on S_n."""
    mult = _parse_table(mapping, "decomposition")  # parse_partition checked the keys
    d = object.__new__(IrrDecomposition)
    d._take(int(n), mult.items())
    return d


def sequence(payload, read) -> dict:
    """{n: read(n, table)} of a JSON sequence {"entries": {"<n>": table}},
    read by class_function or decomposition: the entries of an
    fi_analysis.FISequence."""
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, dict):
        raise DomainError('a sequence must be a mapping {"entries": {"<n>": table}}')
    try:
        levels = [(n, int(n), table) for n, table in entries.items()]
    except ValueError as exc:
        raise DomainError(f"sequence levels must be integers: {exc}") from exc
    return {n: read(n, table) for n, table in unique_keys(levels, "sequence").items()}
