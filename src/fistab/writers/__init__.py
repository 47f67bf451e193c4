"""The text and CSV writers of a report, one module each, and the form
of a scalar that both write.  `cli.render` writes JSON itself, and
imports a writer here with the first report in its format, so a process
compiles no writer of a format it does not print.

Each writer's `write(payload, out)` hands out(piece) the finished pieces
of the report in order: text lines with their "\n", CSV rows as
csv.writer writes them.  A report holds dicts with str keys, lists,
strs, ints, bools and None, each of exactly that type, so the walks
dispatch on type().
"""


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    return str(v)


def _is_scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)
