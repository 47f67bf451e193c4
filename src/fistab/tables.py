"""Input tables given as JSON, read and checked: the {partition: exact
value} tables of class functions and decompositions, the sequences of
them that stability-scan and fit-charpoly take, and the keys of every
table, none of which may be given twice.  Only the subcommands that read
JSON input import this module, so no other process compiles it.
"""

from __future__ import annotations

import sys

from .characters import ClassFunction, IrrDecomposition, exact_quotient
from .errors import DomainError
from .exact import read_exact
from .partitions import parse_partition


def unique_keys(triples, what: str) -> dict:
    """{key: value} from (raw key, key, value) triples, read once and in
    order, so that a generator may make each triple as it is reached: the
    first fault in table order is the one refused, a triple that cannot
    be made or a raw key that reads as an earlier one ("1+2" and "2+1",
    or "2" and "02"), with which a plain dict would let the last value
    silently win."""
    table, raw_of = {}, {}
    for raw, key, value in triples:
        if key in raw_of:
            raise DomainError(f"{what} gives one key twice: {raw_of[key]!r} and {raw!r}")
        raw_of[key] = raw
        table[key] = value
    return table


def _parse_table(mapping, what: str) -> dict:
    if not isinstance(mapping, dict):
        raise DomainError(
            f"a {what} must be a {{partition: value}} table, not {type(mapping).__name__}"
        )
    return unique_keys(
        ((k, parse_partition(k), parse_exact(v, k)) for k, v in mapping.items()), what
    )


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
    return exact_quotient(f)


def class_function(n: int, mapping) -> ClassFunction:
    """The ClassFunction of a {cycle type: value} table on S_n."""
    vals = _parse_table(mapping, "class function")  # parse_partition checked the keys
    f = object.__new__(ClassFunction)
    f._take(int(n), vals)
    return f


def decomposition(n: int, mapping) -> IrrDecomposition:
    """The IrrDecomposition of a {shape: multiplicity} table on S_n."""
    mult = _parse_table(mapping, "decomposition")  # parse_partition checked the keys
    d = object.__new__(IrrDecomposition)
    d._take(int(n), mult.items())
    return d


def sequence(payload, read) -> dict:
    """{n: read(n, table)} of a JSON sequence {"entries": {"<n>": table}},
    read by class_function or decomposition: the entries of an
    fi_analysis.FISequence, as FISequence(sequence(payload, read))."""
    entries = payload.get("entries") if isinstance(payload, dict) else None
    if not isinstance(entries, dict):
        raise DomainError('a sequence must be a mapping {"entries": {"<n>": table}}')
    try:
        levels = [(n, int(n), table) for n, table in entries.items()]
    except ValueError as exc:
        raise DomainError(f"sequence levels must be integers: {exc}") from exc
    return {n: read(n, table) for n, table in unique_keys(levels, "sequence").items()}
