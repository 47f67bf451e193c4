"""Batch command-line front end.

Subcommands wire the computational modules together and emit JSON
(machine), aligned text (human), or flattened CSV reports.  Output is
fully deterministic: identical invocations produce identical bytes.

Exit codes: 0 success, 1 domain error, 2 internal-consistency failure,
64 usage error.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache
from importlib import import_module
from types import SimpleNamespace

# The docstring above is the description `fistab -h` prints.  This module
# and fistab.commands import no computation layer: each handler imports
# the layers it calls when its subcommand runs, so help, usage errors,
# `bounds`, `table1` and `wreath-scan` never compile `characters`.
from .commands import WORK_BUDGET, UsageError, _read_text
from .errors import ConsistencyError, DomainError
from .partitions import read_exact


def __getattr__(name: str):
    # cli.decompose is characters.decompose as that module binds it now,
    # wrapped or not: the benchmark's tracer looks for it here.  It is
    # looked up on each access and never stored (PEP 562), so importing the
    # CLI compiles no characters, and a wrapper leaves nothing behind.
    if name == "decompose":
        return import_module(f"{__package__}.characters").decompose
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "-"
    return str(v)


def _is_scalar_list(v) -> bool:
    return isinstance(v, list) and all(not isinstance(x, (dict, list)) for x in v)


# Each walk hands out(piece) the finished pieces of the report in order:
# JSON tokens, text lines with their "\n", CSV rows as csv.writer writes
# them.  A report holds dicts with str keys, lists, strs, ints, bools and
# None, each of exactly that type, so the walks dispatch on type().


def _text(payload, pad: str, out) -> None:
    # one type dispatch per value; ints, most of a report's leaves, first
    kind = type(payload)
    if kind is dict:
        keys = ["()" if k == "" else k for k in payload]  # the empty partition
        width = max(map(len, keys), default=0)
        inner = pad + "  "
        for key, v in zip(keys, payload.values()):
            kind = type(v)
            if kind is int:
                out(f"{pad}{key.ljust(width)}  {v}\n")
            elif kind is dict or (kind is list and not _is_scalar_list(v)):
                out(f"{pad}{key}:\n")
                _text(v, inner, out)
            elif kind is list:
                out(f"{pad}{key.ljust(width)}  {' '.join(map(_scalar, v))}\n")
            else:
                out(f"{pad}{key.ljust(width)}  {_scalar(v)}\n")
    elif kind is list:
        inner = pad + "  "
        for item in payload:
            if type(item) in (dict, list):
                out(f"{pad}-\n")
                _text(item, inner, out)
            else:
                out(f"{pad}- {_scalar(item)}\n")
    else:
        out(f"{pad}{_scalar(payload)}\n")


def _csv(payload, prefix: str, row) -> None:
    # row(fields) writes one CSV row; prefix is "" at the top and ends
    # with "." below it
    kind = type(payload)
    if kind is dict:
        # one type dispatch per value, as in _text: a scalar leaf is a row
        # at once, and only dicts and lists of non-scalars recurse
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


def _json(payload, pad: str, out, quote) -> None:
    # json.dumps(payload, indent=2) for the types a report holds
    kind = type(payload)
    if kind is str:
        out(quote(payload))
    elif kind is int:
        out(str(payload))
    elif kind is dict:
        if not payload:
            out("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in payload.items():
            if type(v) is int:
                out(f"{sep}{quote(k)}: {v}")
            else:
                out(f"{sep}{quote(k)}: ")
                _json(v, inner, out, quote)
            sep = ",\n" + inner
        out(f"\n{pad}}}")
    elif kind is list:
        if not payload:
            out("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for v in payload:
            if type(v) is int:
                out(f"{sep}{v}")
            else:
                out(sep)
                _json(v, inner, out, quote)
            sep = ",\n" + inner
        out(f"\n{pad}]")
    elif kind is bool:
        out("true" if payload else "false")
    elif payload is None:
        out("null")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def render(payload, fmt: str) -> str:
    """The report in fmt: JSON as json.dumps(payload, indent=2) writes
    it, aligned text, or one CSV row per scalar or list of scalars, keyed
    by its dotted path.  The format's walk appends the report's pieces to
    one list, joined once: where a report is held is decided here alone."""
    pieces: list[str] = []
    out = pieces.append
    if fmt == "json":
        # the C function json.encoder re-exports, without loading json
        try:
            from _json import encode_basestring_ascii
        except ImportError:
            from json.encoder import encode_basestring_ascii

        _json(payload, "", out, encode_basestring_ascii)
        out("\n")
    elif fmt == "text":
        _text(payload, "", out)
        if not pieces:  # an empty report is one empty line
            out("\n")
    elif fmt == "csv":
        import csv

        _csv(payload, "", csv.writer(SimpleNamespace(write=out), lineterminator="\n").writerow)
    else:
        raise DomainError(f"unknown format {fmt!r}")
    return "".join(pieces)


def _emit(payload, args) -> None:
    # a reported integer may have any number of digits; the cap is meant
    # for parsed input
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        report = render(payload, args.format)
    finally:
        sys.set_int_max_str_digits(cap)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


def _fraction(text: str):
    """text as a Fraction (`partitions.read_exact`), or argparse's usage
    error, imported on that path alone: argparse turns only TypeError and
    ValueError into one, and Fraction("1/0") raises ZeroDivisionError."""
    try:
        value = read_exact(text)
        if value is not None:
            return value
        cap = sys.get_int_max_str_digits()
        note = f" (its numerator or denominator has more than {cap} digits)"
    except (ValueError, ZeroDivisionError):
        note = ""
    import argparse

    raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}{note}")


# --------------------------------------------------------------------------
# the flags: each subcommand's are written here alone, and argparse, the
# plain reader and the tests all read them here

# option string; type of the value, None for a string and bool for a
# switch, which takes no value; the values it may take, or a function that
# returns them, so that their module is imported only where they are needed
Flag = namedtuple(
    "Flag", "option type required choices default help", defaults=(None, False, None, None, None)
)


# the two groups of flags that subcommands share
OUTPUT = (
    Flag("--out", help="write the report to this path instead of stdout"),
    Flag("--format", choices=("json", "text", "csv"), default="json", help="report format"),
)
LARGE = (Flag("--allow-large", bool, help=(
    f"run past the work budget ({WORK_BUDGET / 10**9:g} s of estimated work)"
)),)
# name -> (help, flags), in the order the help lists them
SUBCOMMANDS = {
    "character": ("irreducible character values", (*OUTPUT, *LARGE,
        Flag("--lam", required=True, help="shape, e.g. 3+2"),
        Flag("--mu", help="cycle type; omit for the whole class function"))),
    "decompose": ("decompose a class function", (*OUTPUT, *LARGE,
        Flag("--n", int, required=True),
        Flag("--values", help="inline JSON {cycle type: value}"),
        Flag("--input", help="path to the JSON class function"))),
    "m-module": ("free-module level decomposition", (*OUTPUT, *LARGE,
        Flag("--n", int, required=True),
        Flag("--lam", help="inducing shape, e.g. 2+1"),
        Flag("--regular", int, help="induce from the full group algebra of S_m"))),
    "stability-scan": ("detect uniform stability", (*OUTPUT,
        Flag("--entries", help="inline JSON sequence of decompositions"),
        Flag("--input", help="path to the JSON sequence"))),
    "fit-charpoly": ("fit a character polynomial", (*OUTPUT, *LARGE,
        Flag("--entries", help="inline JSON sequence of class functions"),
        Flag("--input", help="path to the JSON sequence"),
        Flag("--degree-bound", int, required=True))),
    "fit-dimpoly": ("fit a dimension polynomial", (*OUTPUT, *LARGE,
        Flag("--dims", help="inline JSON {n: dimension}"),
        Flag("--input", help="path to the JSON dimensions"),
        Flag("--degree-bound", int, required=True))),
    "bounds": ("stability-bound arithmetic", (*OUTPUT,
        Flag("--alpha", _fraction, required=True), Flag("--beta", _fraction, required=True),
        Flag("--i", int, required=True),
        Flag("--page", int, help="page number r >= 3 for entry bounds"),
        Flag("--p", int), Flag("--q", int),
        Flag("--fisharp", bool, help="generation-degree variant"),
        Flag("--degenerates-at", int, help="known degeneration page"))),
    "table1": ("headline bounds per example family", (*OUTPUT,
        Flag("--row", required=True,
             choices=lambda: import_module(f"{__package__}.bounds").TABLE1_ROWS),
        Flag("--i", int, required=True))),
    "os-scan": ("configuration-space model scan", (*OUTPUT, *LARGE,
        Flag("--n-min", int, required=True), Flag("--n-max", int, required=True),
        Flag("--k", int, required=True), Flag("--a-max", int, default=3))),
    "wreath-scan": ("wreath-product Betti scan", (*OUTPUT, *LARGE,
        Flag("--graded-dims", required=True, help="comma list, e.g. 1,2"),
        Flag("--i", int, required=True), Flag("--n-min", int, default=0),
        Flag("--n-max", int, required=True))),
    "kunneth": ("graded tensor-power character", (*OUTPUT, *LARGE,
        Flag("--graded-dims", required=True, help="comma list, e.g. 1,2"),
        Flag("--n", int, required=True), Flag("--i", int, required=True),
        Flag("--decompose", bool))),
}


def choices(flag: Flag):
    return flag.choices() if callable(flag.choices) else flag.choices


def _plain(flags) -> tuple:
    # a subcommand's flags as the parsers and _read_plain read them, worked
    # out once: by option string, each with its namespace attribute as
    # argparse names it; the namespace of its defaults; its required options
    by_option = {flag.option: (flag, flag.option[2:].replace("-", "_")) for flag in flags}
    defaults = {dest: False if f.type is bool else f.default for f, dest in by_option.values()}
    return by_option, defaults, {flag.option for flag in flags if flag.required}


_PLAIN = {name: _plain(flags) for name, (_, flags) in SUBCOMMANDS.items()}


def _handler(module: str):
    # runs fistab.commands.<module>, imported on its first call, so a
    # process compiles the handler of its own subcommand alone
    def handler(args):
        return import_module(f"{__package__}.commands.{module}").run(args)

    handler.__name__ = handler.__qualname__ = f"cmd_{module}"
    return handler


# the subcommand handlers, cmd_<name> with "-" as "_"
globals().update({f"cmd_{m}": _handler(m) for m in (n.replace("-", "_") for n in SUBCOMMANDS)})


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


@lru_cache(maxsize=None)
def build_parser(command: str | None = None):
    """The argparse parser, built from SUBCOMMANDS, and argparse imported
    here alone: with a subcommand name, that subcommand's own parser (prog
    `fistab <name>`), all `main` needs for an argv that starts with the
    name; without one, the parser with every subcommand, for help, unknown
    names and callers that want it whole.  Each is built on the first call
    and shared by every later one, so callers must not mutate it; reuse is
    safe as `parse_args` returns a fresh namespace and no default is
    mutable.  Help is 80 columns wide whatever the terminal, and fistab
    writes the usage lines, so help and usage errors have the same bytes
    on every interpreter.  Subcommands carry no handler: `main` looks
    `cmd_<name>` up on every call, so a handler rebound after the first
    call (a profiler, a tracer) still takes effect."""
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
        for flag, dest in _PLAIN[name][0].values():
            values = choices(flag)
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
        usage=f"fistab [-h]{pad}{{{','.join(SUBCOMMANDS)}}}{pad}...",
        description=__doc__,
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, prog="fistab")
    for name, (help_text, _) in SUBCOMMANDS.items():
        fill(sub.add_parser(name, help=help_text, formatter_class=formatter), name)
    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Pull --config out of argv and splice the file's key=value pairs in
    as flags right after the subcommand, so explicit flags win."""
    if "--config" not in argv:
        return argv
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


def _read_plain(command: str, argv: list[str]) -> SimpleNamespace | None:
    """The namespace the parser of command gives for argv, read off its
    flags in SUBCOMMANDS without argparse, where argv is plain: each token
    an exact option string, each value passing its type and choices and
    not starting with "-" (argparse has its own rules for negative numbers
    there), and every required flag given.  None for any other argv, which
    argparse then parses itself, so it alone prints help and errors."""
    flags, defaults, required = _PLAIN[command]
    args, given = dict(defaults), set()
    tokens = iter(argv)
    for token in tokens:
        flag, dest = flags.get(token, (None, None))
        if flag is None:
            return None
        given.add(token)
        if flag.type is bool:
            args[dest] = True
            continue
        text = next(tokens, "-")
        if text.startswith("-"):
            return None
        try:
            value = text if flag.type is None else flag.type(text)
        # its ValueError, or _fraction's ArgumentTypeError, which only
        # argparse can name: argparse runs the type again and reports it
        except Exception:
            return None
        if flag.choices is not None and value not in choices(flag):
            return None
        args[dest] = value
    return SimpleNamespace(**args) if required <= given else None


def _parse(argv: list[str]):
    """argv as parsed by the full parser, which hands everything after
    the subcommand name to that subcommand's parser and refuses what it
    leaves over.  An argv that starts with a name goes straight to that
    parser: a plain one (`_read_plain`) is read off the flag table
    without argparse, any other is parsed once.  The rest (help, no or an
    unknown name, a leading flag) goes through the full parser."""
    if argv and argv[0] in SUBCOMMANDS:
        args = _read_plain(argv[0], argv[1:])
        if args is None:
            args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
            if extras:
                build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
        args.command = argv[0]
        return args
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.error("a subcommand is required")
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        args = _parse(argv)
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        payload = handler(args)
        _emit(payload, args)
        return 0
    except (DomainError, OSError) as exc:
        print(f"fistab: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"fistab: internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"fistab: error: {exc}", file=sys.stderr)
        return 64
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 64


if __name__ == "__main__":
    sys.exit(main())
