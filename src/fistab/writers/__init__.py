"""The text and CSV writers of a report, one module each, and the form
of a scalar that both write.  `cli.render` writes JSON itself, and
imports a writer here with the first report in its format, so a process
compiles no writer of a format it does not print.

Each writer's `write(payload, out)` hands out(piece) the finished pieces
of the report in order: text lines, and CSV rows that the walk writes
itself, each with its line feed.  A CSV field is quoted, each double
quote in it doubled, if and only if it holds a comma, a double quote, a
line feed or a carriage return (RFC 4180, and CPython 3.13's csv); no
module of the package loads csv.  A report holds dicts with str keys,
lists, strs, ints, bools and None, each of exactly that type, so the
walks dispatch on type().
"""


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    return str(v)


# the types of a report that nest; a list of neither is one line or row
_NESTED = frozenset((dict, list))


def _is_scalar_list(v) -> bool:
    return type(v) is list and _NESTED.isdisjoint(map(type, v))
