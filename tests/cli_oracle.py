"""Oracles of `fistab.cli`: argparse, reading argv by the grammar
`cli._read` shares with it, and the report renderers as first written.

`cli._parse` reads every argv off the flag table `cli.SUBCOMMANDS`, and
`fistab.parsing` writes the help and usage errors.  `parse_twice` reads
argv with argparse instead: parsers built from the same table, the full
parser at the top handing everything after a subcommand's name to that
subcommand's parser.  A help request or usage error it finds is raised as
`cli._Usage` for the parser that found it, so fistab writes the bytes of
both routes, and the tests compare what each route decides.  The two
grammars read an argv alike only where `alike` says so: argparse also
takes abbreviations of flags, reads `-hx` and `-h=x` as -h, refuses a
value that starts with one "-" unless it reads as a negative number,
takes one that starts with "--" if it holds a space, and reads
`--flag=--` as no value at all; before the subcommand's name it reads
`--help=x` as -h and `-1` or `--` as a name.  Later CPython releases
(3.13.13 among them) list an invalid choice's choices unquoted;
`parse_twice` quotes them as 3.11 does.

`render_text` and `flatten` are the recursive text and CSV walks that
`cli.render` once made, each returning its lines or rows; the render
tests compare `cli.render` with them, and the JSON report with
`json.dumps(payload, indent=2)`.
"""

import argparse
import re
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

from fistab import cli


def _type(flag):
    # the flag's type as argparse calls it: _fraction's ValueError carries
    # the usage error's reason, which argparse takes from ArgumentTypeError
    if flag.type is not cli._fraction:
        return flag.type

    def fraction(text):
        try:
            return cli._fraction(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return fraction


def _quoted(message: str) -> str:
    # an invalid choice's choices as 3.11 lists them, each repr()'d
    head, sep, listed = message.partition(" (choose from ")
    if not sep or listed.startswith("'"):
        return message
    return f"{head}{sep}{', '.join(map(repr, listed[:-1].split(', ')))})"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise cli._Usage(self.prog.partition(" ")[2] or None, _quoted(message))

    def print_help(self, file=None):
        raise cli._Usage(self.prog.partition(" ")[2] or None, None)


@lru_cache(maxsize=None)
def full_parser() -> _Parser:
    """argparse's parser of every subcommand, built from cli.SUBCOMMANDS."""
    parser = _Parser(prog="fistab")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, prog="fistab")
    for name, (_, flags) in cli.SUBCOMMANDS.items():
        own = sub.add_parser(name)
        for flag in flags:
            kind = {"action": "store_true"} if flag.type is bool else dict(
                type=_type(flag), required=flag.required, choices=cli.choices(flag),
                default=flag.default,
            )
            own.add_argument(flag.option, **kind)
    return parser


def parse_twice(argv: list[str]):
    """argv read by argparse's full parser, which parses the argv after a
    subcommand's name again with that subcommand's parser."""
    args = full_parser().parse_args(argv)
    if not args.command:
        raise cli._Usage(None, "a subcommand is required")
    return args


@contextmanager
def parsed_twice():
    """Within the block `main` reads with parse_twice every argv that
    argparse reads alike, and with its own reader any other.  Yields the
    list of whether each argv read was alike."""
    read, seen = cli._parse, []

    def parse(argv):
        seen.append(alike(argv))
        return (parse_twice if seen[-1] else read)(argv)

    with mock.patch.object(cli, "_parse", parse):
        yield seen


# what argparse 3.11 reads as a negative number, and so as a value
NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _abbreviates(token: str, options) -> bool:
    # argparse takes token for a flag it is not: a prefix of one, or -h
    # with more in the same token
    if token.startswith("--"):
        prefix = token.partition("=")[0]
        return prefix not in options and any(o.startswith(prefix) for o in options)
    return token.startswith("-h") and token != "-h"


def _value(token: str, options) -> bool:
    # argparse 3.11 takes token for a value rather than an option
    if token[:1] != "-" or token == "-":
        return True
    if token in options or token.partition("=")[0] in options or _abbreviates(token, options):
        return False
    return bool(NEGATIVE.match(token)) or " " in token


def alike(argv) -> bool:
    """Whether argparse reads argv as `cli._parse` does: the same
    namespace, or the same help request or usage error."""
    top = ("-h", "--help")
    tokens = iter(argv)
    for token in tokens:
        if token in cli.SUBCOMMANDS:
            break
        if token in top or not token.startswith("-"):
            return True  # help, or an invalid choice of subcommand
        # argparse reads --help=x as help, -1 as a name, and -- otherwise
        if token.partition("=")[0] in top or _value(token, top) or _abbreviates(token, top):
            return False
    else:
        return True
    flags = {flag.option: flag for flag in cli.SUBCOMMANDS[token][1]}
    options = (*flags, *top)
    for token in tokens:
        if token == "--":
            return True
        if _abbreviates(token, options) or token.endswith("=--"):
            return False
        flag = flags.get(token)
        if flag is None or flag.type is bool:
            continue
        value = next(tokens, "--")
        if value == "--":
            return True  # expected one argument, whatever follows
        if _abbreviates(value, options):
            return False
        if _value(value, options) == (value == "-h" or value.startswith("--")):
            return False
    return True


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
