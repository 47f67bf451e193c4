"""Oracles of the routes `fistab.cli` takes: argparse's own nested parse
and the report renderers as first written.

`main` hands an argv that starts with a subcommand name straight to that
subcommand's own parser: a plain one (exact `--flag value` tokens) is
read off the subcommand's flags in `cli.SUBCOMMANDS` by `cli._read_plain`
without argparse, and any other is parsed once by argparse.  The full parser,
`build_parser()`, scans the argv at the top and then passes everything
after the name to the subcommand's parser, which parses it again;
`parse_twice` is that route, argparse alone.  The tests run `main` both
ways and compare the exit code, stdout and stderr.

`render_text` and `flatten` are the recursive text and CSV walks that
`cli.render` once made, each returning its lines or rows; the render
tests compare `cli.render` with them, and the JSON report with
`json.dumps(payload, indent=2)`.
"""

import argparse
from contextlib import contextmanager
from unittest import mock

from fistab import cli


# the leaf helpers of the first renderers, kept here so that the render
# tests check `cli.render` against none of its own code
def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    return str(v)


def _key(k) -> str:
    # the empty partition serializes as ""; show it as () in human output
    return "()" if k == "" else str(k)


def _is_scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


def parse_twice(argv: list[str]):
    """argv parsed by the full parser; a usage error exits 64 from the
    parser that finds it."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.error("a subcommand is required")
    return args


@contextmanager
def parsed_twice():
    """Within the block `main` parses with parse_twice."""
    with mock.patch.object(cli, "_parse", parse_twice):
        yield


@contextmanager
def parse_args_calls(method: str = "parse_args"):
    """Within the block, the prog of every parser whose `method` (of
    `argparse.ArgumentParser`) runs, in order: "fistab" for the top of a
    parser, "fistab <name>" for a subcommand's own."""
    progs = []
    parse = getattr(argparse.ArgumentParser, method)

    def recorded(parser, *args, **kwargs):
        progs.append(parser.prog)
        return parse(parser, *args, **kwargs)

    with mock.patch.object(argparse.ArgumentParser, method, recorded):
        yield progs


def render_text(payload, indent: int = 0) -> list[str]:
    """The text report's lines, without the final newline."""
    lines = []
    pad = " " * indent
    if isinstance(payload, dict):
        width = max((len(_key(k)) for k in payload), default=0)
        for k, v in payload.items():
            if isinstance(v, dict) or (isinstance(v, list) and not _is_scalar_list(v)):
                lines.append(f"{pad}{_key(k)}:")
                lines.extend(render_text(v, indent + 2))
            elif _is_scalar_list(v):
                joined = " ".join(_scalar(x) for x in v)
                lines.append(f"{pad}{_key(k):<{width}}  {joined}")
            else:
                lines.append(f"{pad}{_key(k):<{width}}  {_scalar(v)}")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(render_text(item, indent + 2))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(payload)}")
    return lines


def flatten(payload, prefix: str = ""):
    """The CSV report's (key, value) rows."""
    rows = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            rows.extend(flatten(v, f"{prefix}{_key(k)}."))
    elif isinstance(payload, list) and not _is_scalar_list(payload):
        for idx, v in enumerate(payload):
            rows.extend(flatten(v, f"{prefix}{idx}."))
    else:
        key = prefix[:-1] if prefix.endswith(".") else prefix
        value = " ".join(_scalar(x) for x in payload) if isinstance(payload, list) else _scalar(payload)
        rows.append((key, value))
    return rows
