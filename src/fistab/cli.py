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
    """text as a Fraction (`exact.read_exact`), or argparse's usage
    error, imported on that path alone: argparse turns only TypeError and
    ValueError into one, and Fraction("1/0") raises ZeroDivisionError."""
    try:
        value = _module("exact").read_exact(text)
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
    # a subcommand's flags as the parsers and _read_plain read them, worked
    # out once: by option string, each with its namespace attribute as
    # argparse names it; the namespace of its defaults; its required options
    by_option = {flag.option: (flag, flag.option[2:].replace("-", "_")) for flag in flags}
    defaults = {dest: False if f.type is bool else f.default for f, dest in by_option.values()}
    return by_option, defaults, {flag.option for flag in flags if flag.required}


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


@lru_cache(maxsize=None)
def build_parser(command: str | None = None):
    """The argparse parser of command, or with every subcommand when
    command is None, built from SUBCOMMANDS by fistab.parsing, where
    argparse is imported, so a plain argv compiles neither.  Each is built
    on the first call and shared by every later one, so callers must not
    mutate it."""
    return _module("parsing").build(command, sys.modules[__name__])


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
        if "--config" in argv:  # the file's flags, spliced in by fistab.parsing
            argv = _module("parsing").apply_config(argv)
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
