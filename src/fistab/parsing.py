"""What reading argv takes beyond a plain one (cli._read_plain): the
argparse parsers, for help, usage errors and any other argv, and the
flags of a --config file.  cli imports this module only for those, so a
plain request compiles none of it, nor argparse.
"""

from __future__ import annotations

import sys

from .errors import DomainError


def apply_config(argv: list[str]) -> list[str]:
    """Pull --config out of argv and splice the file's key=value pairs in
    as flags right after the subcommand, so explicit flags win."""
    from .commands.inputs import _read_text  # help and usage errors read no file

    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise DomainError("--config needs a path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    flags: list[str] = []
    for raw in _read_text(path).split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (want key=value): {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if value.lower() in ("true", "false"):
            if value.lower() == "true":
                flags.append(f"--{key}")
        else:
            flags.extend((f"--{key}", value))
    if not rest:
        raise DomainError("--config given without a subcommand")
    return rest[:1] + flags + rest[1:]


def _usage(prog: str, options: list[str]) -> str:
    """The usage line of prog, less its "usage: ", wrapped at 80 columns as
    CPython 3.11's argparse wraps it (later ones keep a flag and its value
    together): each line filled in turn, the next under the first option."""
    lines = [prog]
    for part in options:
        if len(lines[-1]) + len(part) >= 78 - len("usage: ") * (len(lines) == 1):
            lines.append(" " * (len(prog) + 7))
        lines[-1] += " " + part
    return "\n".join(lines)


def build(command: str | None, cli):
    """cli.build_parser: the argparse parser, built from cli.SUBCOMMANDS.
    With a subcommand name, that subcommand's own parser (prog `fistab
    <name>`), all `main` needs for an argv that starts with the name;
    without one, the parser with every subcommand, for help, unknown names
    and callers that want it whole.  cli.build_parser shares each parser
    with every later caller; reuse is safe as `parse_args` returns a fresh
    namespace and no default is mutable.  Help is 80 columns wide whatever
    the terminal, and fistab writes the usage lines, so help and usage
    errors have the same bytes on every interpreter.  Subcommands carry no
    handler: `main` looks `cmd_<name>` up on every call, so a handler
    rebound after the first call (a profiler, a tracer) still takes
    effect.  cli is the front end's module, passed in rather than
    imported, as `python -m fistab.cli` runs it as __main__."""
    import argparse
    from functools import partial

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(64, f"{self.prog}: error: {message}\n")

    # argparse keeps two of the 80 columns as a margin
    formatter = partial(argparse.HelpFormatter, width=78)

    def fill(parser, name):
        options = ["[-h]"]
        for flag, dest in cli._PLAIN[name][0].values():
            values = cli.choices(flag)
            kind = {"action": "store_true"} if flag.type is bool else dict(
                type=flag.type, required=flag.required, choices=values, default=flag.default
            )
            parser.add_argument(flag.option, help=flag.help, **kind)
            # in the usage line, a required flag splits from its value
            shown = [flag.option] if flag.type is bool else [
                flag.option, "{%s}" % ",".join(values) if values else dest.upper()
            ]
            options += shown if flag.required else [f"[{' '.join(shown)}]"]
        parser.usage = _usage(parser.prog, options)
        return parser

    if command is not None:
        return fill(_Parser(prog=f"fistab {command}", formatter_class=formatter), command)
    # too long for one line, so 3.11 puts the positionals on lines of their own
    pad = "\n" + " " * len("usage: fistab ")
    parser = _Parser(
        prog="fistab",
        usage=f"fistab [-h]{pad}{{{','.join(cli.SUBCOMMANDS)}}}{pad}...",
        description=cli.__doc__,
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, prog="fistab")
    for name, (help_text, _) in cli.SUBCOMMANDS.items():
        fill(sub.add_parser(name, help=help_text, formatter_class=formatter), name)
    return parser
