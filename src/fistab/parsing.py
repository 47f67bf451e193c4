"""The help screens and usage errors, written from cli.SUBCOMMANDS, and
the flags of a --config file: cli imports this module for those alone.
"""

from __future__ import annotations

import sys
import textwrap

from .errors import DomainError


def apply_config(argv: list[str], plain: dict) -> list[str]:
    """Pull --config PATH or --config=PATH out of argv and splice each of
    the file's key=value lines in right after the subcommand, as the token
    --key=value that cli._read reads: explicit flags win.  Where plain
    (cli._PLAIN) gives --key of the subcommand as a switch, true adds the
    bare flag and false leaves it out."""
    argv = [p for t in argv for p in (t.split("=", 1) if t.startswith("--config=") else [t])]
    if "--config" not in argv:  # a token that only holds it
        return argv
    from .commands.inputs import _read_text  # help and usage errors read no file

    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise DomainError("--config needs a path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2 :]
    own = plain[rest[0]][0] if rest and rest[0] in plain else {}
    flags: list[str] = []
    for raw in _read_text(path).split("\n"):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line (want key=value): {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        option = f"--{key}"
        if option in own and own[option][0].type is bool and value.lower() in ("true", "false"):
            flags += [option] if value.lower() == "true" else []
        else:
            flags.append(f"{option}={value}")
    if not rest:
        raise DomainError("--config given without a subcommand")
    return rest[:1] + flags + rest[1:]


def _row(indent: int, invocation: str, text: str | None) -> str:
    # a help entry: its help in columns 24 to 78, under the invocation if that is long
    row = " " * indent + invocation
    if text:
        row = row.ljust(24) if len(row) <= 22 else row + "\n" + " " * 24
        row += ("\n" + " " * 24).join(textwrap.wrap(" ".join(text.split()), 54))
    return row + "\n"


def answer(cli, command: str | None, message: str | None) -> int:
    """The help of the parser of command (None: the top one) on stdout and
    exit code 0 if message is None, else its usage error on stderr and 64,
    with the bytes CPython 3.11's standard parser gives at 80 columns.
    cli is the front end's module, passed in as `python -m fistab.cli`
    runs it as __main__."""
    short, long = cli.HELP.option.split("/")
    if command is None:
        prog, names = "fistab", "{%s}" % ",".join(cli.SUBCOMMANDS)
        # too long for one line, so 3.11 puts the positionals on lines of their own
        pad = "\n" + " " * len("usage: fistab ")
        usage = f"fistab [{short}]{pad}{names}{pad}..."
    else:
        prog, shown = f"fistab {command}", []
        lines = [f"{prog} [{short}]"]  # the usage line
        for flag, dest in cli._PLAIN[command][0].values():
            if flag is cli.HELP:
                continue
            values = cli.choices(flag)
            meta = "{%s}" % ",".join(values) if values else dest.upper()
            parts = [flag.option] if flag.type is bool else [flag.option, meta]
            shown.append((" ".join(parts), flag.help))
            # wrapped as CPython 3.11 wraps it (later ones keep a flag and its
            # value together): a required flag splits from its value, and each
            # line is filled in turn, the next under the first option
            for part in parts if flag.required else [f"[{' '.join(parts)}]"]:
                if len(lines[-1]) + len(part) >= 78 - len("usage: ") * (len(lines) == 1):
                    lines.append(" " * (len(prog) + 7))
                lines[-1] += " " + part
        usage = "\n".join(lines)
    if message is not None:
        sys.stderr.write(f"usage: {usage}\n{prog}: error: {message}\n")
        return 64
    rows = _row(2, f"{short}, {long}", cli.HELP.help)
    if command is None:
        subcommands = "".join(_row(4, name, text) for name, (text, _) in cli.SUBCOMMANDS.items())
        description = textwrap.fill(" ".join(cli.__doc__.split()), 78)
        page = f"{description}\n\npositional arguments:\n  {names}\n{subcommands}\noptions:\n{rows}"
    else:
        page = "options:\n" + rows + "".join(_row(2, *row) for row in shown)
    sys.stdout.write(f"usage: {usage}\n\n{page}")
    return 0
