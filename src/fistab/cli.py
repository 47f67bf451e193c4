"""Batch command-line front end.

Subcommands wire the computational modules together and emit JSON
(machine), aligned text (human), or flattened CSV reports.  Output is
fully deterministic: identical invocations produce identical bytes.

Exit codes: 0 success, 1 domain error, 2 internal-consistency failure,
64 usage error.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from functools import lru_cache
from importlib import import_module

from .characters import decompose as decompose  # bound here for the benchmark's tracer
from .commands import WORK_BUDGET, UsageError, _read_text
from .errors import ConsistencyError, DomainError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


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


def _text(payload, pad: str, lines: list[str]) -> None:
    # ints, most of a report's leaves, skip the type tests of the rest
    if isinstance(payload, dict):
        keys = [_key(k) for k in payload]
        width = max(map(len, keys), default=0)
        inner = pad + "  "
        for key, v in zip(keys, payload.values()):
            if type(v) is int:
                lines.append(f"{pad}{key:<{width}}  {v}")
            elif isinstance(v, dict) or (isinstance(v, list) and not _is_scalar_list(v)):
                lines.append(f"{pad}{key}:")
                _text(v, inner, lines)
            elif isinstance(v, list):
                lines.append(f"{pad}{key:<{width}}  {' '.join(map(_scalar, v))}")
            else:
                lines.append(f"{pad}{key:<{width}}  {_scalar(v)}")
    elif isinstance(payload, list):
        inner = pad + "  "
        for item in payload:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                _text(item, inner, lines)
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(payload)}")


def _csv_rows(payload, prefix: str, rows: list[tuple[str, str]]) -> None:
    # prefix is "" at the top and ends with "." below it
    if isinstance(payload, dict):
        for k, v in payload.items():
            if type(v) is int:
                rows.append((f"{prefix}{_key(k)}", str(v)))
            else:
                _csv_rows(v, f"{prefix}{_key(k)}.", rows)
    elif isinstance(payload, list) and not _is_scalar_list(payload):
        for idx, v in enumerate(payload):
            _csv_rows(v, f"{prefix}{idx}.", rows)
    else:
        value = " ".join(map(_scalar, payload)) if isinstance(payload, list) else _scalar(payload)
        rows.append((prefix[:-1], value))


def _json(payload, pad: str, out: list[str], quote) -> None:
    # json.dumps(payload, indent=2) for the types a report holds
    if isinstance(payload, str):
        out.append(quote(payload))
    elif payload is None:
        out.append("null")
    elif payload is True:
        out.append("true")
    elif payload is False:
        out.append("false")
    elif isinstance(payload, int):
        out.append(int.__repr__(payload))
    elif isinstance(payload, dict):
        if not payload:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for k, v in payload.items():
            if type(v) is int:
                out.append(f"{sep}{quote(k)}: {v}")
            else:
                out.append(f"{sep}{quote(k)}: ")
                _json(v, inner, out, quote)
            sep = ",\n" + inner
        out.append(f"\n{pad}}}")
    elif isinstance(payload, list):
        if not payload:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for v in payload:
            if type(v) is int:
                out.append(f"{sep}{v}")
            else:
                out.append(sep)
                _json(v, inner, out, quote)
            sep = ",\n" + inner
        out.append(f"\n{pad}]")
    else:
        raise TypeError(f"Object of type {type(payload).__name__} is not JSON serializable")


def render(payload, fmt: str) -> str:
    """The report in fmt: JSON as json.dumps(payload, indent=2) writes
    it, aligned text, or one CSV row per scalar or list of scalars, keyed
    by its dotted path."""
    if fmt == "json":
        # the C function json.encoder re-exports, without loading json
        try:
            from _json import encode_basestring_ascii
        except ImportError:
            from json.encoder import encode_basestring_ascii

        out: list[str] = []
        _json(payload, "", out, encode_basestring_ascii)
        out.append("\n")
        return "".join(out)
    if fmt == "text":
        lines: list[str] = []
        _text(payload, "", lines)
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        import csv

        rows: list[tuple[str, str]] = []
        _csv_rows(payload, "", rows)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return buf.getvalue()
    raise DomainError(f"unknown format {fmt!r}")


def _digit_cap() -> int:
    # the interpreter's cap on int-to-str conversion (CPython 3.10.7+), 0 for none
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


def _emit(payload, args) -> None:
    # a reported integer may have any number of digits; the cap is meant
    # for parsed input
    cap = _digit_cap()
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        report = render(payload, args.format)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
    else:
        sys.stdout.write(report)


# the exponent of a decimal literal, as Fraction's grammar writes it; a
# pattern string, compiled on first use (re caches it), so that only a
# process that reads a fraction compiles it
_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"


def _fraction(text: str):
    """text as a Fraction, or argparse's usage error: for a literal that
    Fraction refuses, and for one whose numerator or denominator in lowest
    terms has more digits than the interpreter's int-to-str cap, as it
    could not be printed.  Fraction expands an exponent into a power of
    ten, seconds for a long one, so a literal whose exponent is over three
    caps is judged from its text: its mantissa has at most two caps of
    digits (int() refuses more), so it is zero or over the cap, and the
    mantissa read with exponent 0 tells which."""
    from fractions import Fraction

    cap = _digit_cap()
    exp = re.search(_EXPONENT, text) if cap else None
    # argparse turns only TypeError/ValueError into a usage error, and
    # Fraction("1/0") raises ZeroDivisionError
    try:
        if exp and abs(int(exp[1])) > 3 * cap:
            value = Fraction(text[: exp.start(1)] + "0")
            over = value != 0
        else:
            value = Fraction(text)
            top = max(abs(value.numerator), value.denominator)
            # more than 3 * cap bits first: 8**cap < 10**cap
            over = cap and top.bit_length() > 3 * cap and top >= 10**cap
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None
    if over:
        raise argparse.ArgumentTypeError(
            f"invalid Fraction value: {text!r} (its numerator or denominator "
            f"has more than {cap} digits)"
        )
    return value


# --------------------------------------------------------------------------
# parser assembly


def _character_flags(p):
    p.add_argument("--lam", required=True, help="shape, e.g. 3+2")
    p.add_argument("--mu", help="cycle type; omit for the whole class function")


def _decompose_flags(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--values", help="inline JSON {cycle type: value}")
    p.add_argument("--input", help="path to the JSON class function")


def _m_module_flags(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", help="inducing shape, e.g. 2+1")
    p.add_argument("--regular", type=int, help="induce from the full group algebra of S_m")


def _stability_scan_flags(p):
    p.add_argument("--entries", help="inline JSON sequence of decompositions")
    p.add_argument("--input", help="path to the JSON sequence")


def _fit_charpoly_flags(p):
    p.add_argument("--entries", help="inline JSON sequence of class functions")
    p.add_argument("--input", help="path to the JSON sequence")
    p.add_argument("--degree-bound", type=int, required=True)


def _fit_dimpoly_flags(p):
    p.add_argument("--dims", help="inline JSON {n: dimension}")
    p.add_argument("--input", help="path to the JSON dimensions")
    p.add_argument("--degree-bound", type=int, required=True)


def _bounds_flags(p):
    p.add_argument("--alpha", type=_fraction, required=True)
    p.add_argument("--beta", type=_fraction, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--page", type=int, help="page number r >= 3 for entry bounds")
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--fisharp", action="store_true", help="generation-degree variant")
    p.add_argument("--degenerates-at", type=int, help="known degeneration page")


def _table1_flags(p):
    from .bounds import TABLE1_ROWS

    p.add_argument("--row", required=True, choices=TABLE1_ROWS)
    p.add_argument("--i", type=int, required=True)


def _os_scan_flags(p):
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--a-max", type=int, default=3)


def _wreath_scan_flags(p):
    p.add_argument("--graded-dims", required=True, help="comma list, e.g. 1,2")
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--n-min", type=int, default=0)
    p.add_argument("--n-max", type=int, required=True)


def _kunneth_flags(p):
    p.add_argument("--graded-dims", required=True, help="comma list, e.g. 1,2")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--decompose", action="store_true")


# name -> (help, whether it takes --allow-large, adds its own flags), in
# the order the help lists them
SUBCOMMANDS = {
    "character": ("irreducible character values", True, _character_flags),
    "decompose": ("decompose a class function", True, _decompose_flags),
    "m-module": ("free-module level decomposition", True, _m_module_flags),
    "stability-scan": ("detect uniform stability", False, _stability_scan_flags),
    "fit-charpoly": ("fit a character polynomial", True, _fit_charpoly_flags),
    "fit-dimpoly": ("fit a dimension polynomial", True, _fit_dimpoly_flags),
    "bounds": ("stability-bound arithmetic", False, _bounds_flags),
    "table1": ("headline bounds per example family", False, _table1_flags),
    "os-scan": ("configuration-space model scan", True, _os_scan_flags),
    "wreath-scan": ("wreath-product Betti scan", True, _wreath_scan_flags),
    "kunneth": ("graded tensor-power character", True, _kunneth_flags),
}


def _handler(module: str):
    # runs fistab.commands.<module>, imported on its first call, so a
    # process compiles the handler of its own subcommand alone; later
    # calls reuse the run that call found
    run = None

    def handler(args):
        nonlocal run
        if run is None:
            run = import_module(f"{__package__}.commands.{module}").run
        return run(args)

    handler.__name__ = handler.__qualname__ = f"cmd_{module}"
    return handler


# the subcommand handlers, cmd_<name> with "-" as "_"
globals().update({f"cmd_{m}": _handler(m) for m in (n.replace("-", "_") for n in SUBCOMMANDS)})


@lru_cache(maxsize=None)
def build_parser(command: str | None = None) -> _Parser:
    """The argument parser: with a subcommand name, that subcommand's
    own parser (prog `fistab <name>`), which is all `main` needs for an
    argv that starts with the name; without one, the parser with every
    subcommand, for help, unknown names and callers that want it whole.
    Each is built on the first call and shared by every later one:
    callers must not mutate it.  Reuse is safe because `parse_args`
    returns a fresh namespace and no argument has a mutable default.
    Subcommands carry no handler: the `cmd_<name>` handlers are
    generated from SUBCOMMANDS, and `main` looks `cmd_<name>` up on
    every call, so a handler rebound after the first call (a profiler,
    a tracer) still takes effect."""
    common = _Parser(add_help=False)
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument(
        "--format", choices=("json", "text", "csv"), default="json", help="report format"
    )
    large = _Parser(add_help=False)
    large.add_argument(
        "--allow-large",
        action="store_true",
        help=f"run past the work budget ({WORK_BUDGET / 10**9:g} s of estimated work)",
    )

    def parents(name):
        return [common, large] if SUBCOMMANDS[name][1] else [common]

    if command is not None:
        parser = _Parser(prog=f"fistab {command}", parents=parents(command))
        SUBCOMMANDS[command][2](parser)
        return parser
    parser = _Parser(prog="fistab", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (help_text, _, add_flags) in SUBCOMMANDS.items():
        add_flags(sub.add_parser(name, parents=parents(name), help=help_text))
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


def _read_plain(parser: _Parser, argv: list[str]) -> argparse.Namespace | None:
    """The namespace parser.parse_known_args(argv) returns with no extras,
    read straight off the parser's actions, where argv is plain: each
    token an exact option string, each store option followed by a value
    that does not start with "-" (argparse has its own rules for negative
    numbers there) and that passes its type and choices, and every
    required flag given.  None for any other argv, which argparse then
    parses itself, so it alone prints help and usage errors."""
    given = {}
    tokens = iter(argv)
    try:
        for token in tokens:
            action = parser._option_string_actions.get(token)
            if type(action) is argparse._StoreTrueAction:
                given[action] = True
            elif type(action) is argparse._StoreAction and action.nargs is None:
                text = next(tokens, "-")
                if text.startswith("-"):
                    return None
                value = text if action.type is None else action.type(text)
                if action.choices is not None and value not in action.choices:
                    return None
                given[action] = value
            else:
                return None
        args = argparse.Namespace()
        for action in parser._actions:
            if action in given:
                value = given[action]
            elif action.required:
                return None
            elif action.default is argparse.SUPPRESS:
                continue
            elif isinstance(action.default, str) and action.type is not None:
                value = action.type(action.default)
            else:
                value = action.default
            setattr(args, action.dest, value)
    except (TypeError, ValueError, argparse.ArgumentTypeError):
        return None
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv as parsed by the full parser, which hands everything after
    the subcommand name to that subcommand's parser and refuses what it
    leaves over.  An argv that starts with a name goes straight to that
    parser: a plain one (`_read_plain`) is read off its actions without
    a parse, any other is parsed once.  The rest (help, no or an unknown
    name, a leading flag) goes through the full parser."""
    if argv and argv[0] in SUBCOMMANDS:
        parser = build_parser(argv[0])
        args = _read_plain(parser, argv[1:])
        if args is None:
            args, extras = parser.parse_known_args(argv[1:])
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
