"""argparse's own nested parse, kept as the oracle of the route
`fistab.cli.main` takes.

`main` hands an argv that starts with a subcommand name straight to that
subcommand's own parser, so argparse parses it once.  The full parser,
`build_parser()`, scans the argv at the top and then passes everything
after the name to the subcommand's parser, which parses it again;
`parse_twice` is that route.  The tests run `main` both ways and compare
the exit code, stdout and stderr.
"""

from contextlib import contextmanager
from unittest import mock

from fistab import cli


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
def parse_args_calls():
    """Within the block, the prog of every parser whose parse_args runs,
    in order: "fistab" for the top of a parser, "fistab <name>" for a
    subcommand's own."""
    progs = []
    parse_args = cli._Parser.parse_args

    def recorded(parser, *args, **kwargs):
        progs.append(parser.prog)
        return parse_args(parser, *args, **kwargs)

    with mock.patch.object(cli._Parser, "parse_args", recorded):
        yield progs
