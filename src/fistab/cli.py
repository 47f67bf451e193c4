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
from . import _forward
from .commands import WORK_BUDGET, UsageError
from .errors import ConsistencyError, DomainError

# cli.decompose is characters.decompose as that module binds it now,
# wrapped or not: the benchmark's self-test looks for it here.  It is
# looked up on each access and never stored, so importing the CLI compiles
# no characters, and a wrapper leaves nothing behind.
__getattr__ = _forward(__name__, "characters", ("decompose",))


# The JSON walk hands out(piece) the report's tokens in order.  A report
# holds dicts with str keys, lists, strs, ints, bools and None, each of
# exactly that type, so the walks here and in fistab.writers dispatch on
# type().


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


@lru_cache(maxsize=None)
def _module(name: str):
    # fistab.<name>, imported on its first use and kept: a process compiles
    # the subcommand handlers (commands.<name>), the report writers
    # (writers.text, writers.csv) and the reader of exact numbers (exact)
    # only if its request uses them
    return import_module(f"{__package__}.{name}")


def render(payload, fmt: str) -> str:
    """The report in fmt: JSON as json.dumps(payload, indent=2) writes
    it, aligned text, or one CSV row per scalar or list of scalars, keyed
    by its dotted path (fistab.writers).  The format's walk appends the
    report's pieces to one list, joined once: where a report is held is
    decided here alone."""
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
    elif fmt in ("text", "csv"):
        _module(f"writers.{fmt}").write(payload, out)
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
    return _module("exact").fraction(text)


# --------------------------------------------------------------------------
# the flags: each subcommand's are written here alone, and the reader, the
# help screens, the usage errors and the tests all read them here

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
# -h and --help, which every parser reads
HELP = Flag("-h/--help", bool, help="show this help message and exit")
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
        Flag("--row", required=True, choices=lambda: _module("bounds").TABLE1_ROWS),
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
    # a subcommand's flags by option string, each with the attribute that
    # holds its value; the attributes' defaults; its required options
    by_option = {"-h": (HELP, None), "--help": (HELP, None)}
    by_option.update((flag.option, (flag, flag.option[2:].replace("-", "_"))) for flag in flags)
    defaults = {d: False if f.type is bool else f.default for f, d in by_option.values() if d}
    return by_option, defaults, tuple(flag.option for flag in flags if flag.required)


_PLAIN = {name: _plain(flags) for name, (_, flags) in SUBCOMMANDS.items()}


def _handler(module: str):
    # runs fistab.commands.<module>, imported on its first call (_module),
    # so a process compiles the handler of its own subcommand alone
    def handler(args):
        return _module(f"commands.{module}").run(args)

    handler.__name__ = handler.__qualname__ = f"cmd_{module}"
    return handler


# the subcommand handlers, cmd_<name> with "-" as "_"
globals().update({f"cmd_{m}": _handler(m) for m in (n.replace("-", "_") for n in SUBCOMMANDS)})


def build_parser(command: str | None = None):
    """The flag lookups of command (`_plain`), or of every subcommand by name."""
    return _PLAIN if command is None else _PLAIN[command]


class _Usage(Exception):
    """_Usage(command, message): the usage error of the parser of command
    (None: the top one), or its help if message is None (fistab.parsing)."""


def _choice(value, values) -> str:
    return f"invalid choice: {value!r} (choose from {', '.join(map(repr, values))})"


def _read(command: str, tokens, over: list[str]) -> SimpleNamespace:
    """command's request, read off its flags from tokens, the argv after its
    name, by the grammar README's "CLI" states; over: tokens left before it."""
    flags, defaults, required = _PLAIN[command]
    args, given = dict(defaults), set()
    for token in tokens:
        entry, text = flags.get(token), None
        if entry is None and token[:2] == "--" and "=" in token:
            option, text = token.split("=", 1)
            entry = flags.get(option)
        if entry is None:  # -- leaves itself and all that follows
            over += [token, *tokens] if token == "--" else [token]
            continue
        flag, dest = entry
        if flag.type is bool:
            if text is not None:
                raise _Usage(command, f"argument {flag.option}: ignored explicit argument {text!r}")
            if flag is HELP:
                raise _Usage(command, None)
            args[dest] = True
        else:
            if text is None and ((text := next(tokens, "--")) == "-h" or text[:2] == "--"):
                raise _Usage(command, f"argument {flag.option}: expected one argument")
            try:
                value = text if flag.type is None else flag.type(text)
            except ValueError as exc:  # _fraction's reason is the usage error's own
                reason = str(exc) if flag.type is _fraction else f"invalid int value: {text!r}"
                raise _Usage(command, f"argument {flag.option}: {reason}") from None
            if flag.choices is not None and value not in choices(flag):
                raise _Usage(command, f"argument {flag.option}: {_choice(value, choices(flag))}")
            args[dest] = value
        given.add(flag.option)
    if not given.issuperset(required):
        missing = ", ".join(option for option in required if option not in given)
        raise _Usage(command, f"the following arguments are required: {missing}")
    if over:
        raise _Usage(None, f"unrecognized arguments: {' '.join(over)}")
    return SimpleNamespace(**args, command=command)


def _parse(argv: list[str]) -> SimpleNamespace:
    """argv's request: before the subcommand's name, -h and --help ask for
    help and any other token that starts with - is left over, -- with all
    that follows; the first that does not must be the name (`_read`)."""
    over: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        if token in SUBCOMMANDS:
            return _read(token, tokens, over)
        if token in ("-h", "--help"):
            raise _Usage(None, None)
        if token[:1] != "-":
            raise _Usage(None, f"argument command: {_choice(token, SUBCOMMANDS)}")
        over += [token, *tokens] if token == "--" else [token]
    message = f"unrecognized arguments: {' '.join(over)}" if over else "a subcommand is required"
    raise _Usage(None, message)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if "--config" in "\0".join(argv):  # --config PATH or --config=PATH: fistab.parsing
            argv = _module("parsing").apply_config(argv, _PLAIN)
        args = _parse(argv)
        handler = globals()["cmd_" + args.command.replace("-", "_")]
        payload = handler(args)
        _emit(payload, args)
        return 0
    except _Usage as exc:
        return _module("parsing").answer(sys.modules[__name__], *exc.args)
    except (DomainError, OSError) as exc:
        print(f"fistab: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"fistab: internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"fistab: error: {exc}", file=sys.stderr)
        return 64


if __name__ == "__main__":
    sys.exit(main())
