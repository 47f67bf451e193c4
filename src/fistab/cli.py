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


def render_text(payload, indent: int = 0) -> list[str]:
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


def _flatten(payload, prefix: str = ""):
    rows = []
    if isinstance(payload, dict):
        for k, v in payload.items():
            rows.extend(_flatten(v, f"{prefix}{_key(k)}."))
    elif isinstance(payload, list) and not _is_scalar_list(payload):
        for idx, v in enumerate(payload):
            rows.extend(_flatten(v, f"{prefix}{idx}."))
    else:
        key = prefix[:-1] if prefix.endswith(".") else prefix
        value = " ".join(_scalar(x) for x in payload) if isinstance(payload, list) else _scalar(payload)
        rows.append((key, value))
    return rows


def render(payload, fmt: str) -> str:
    if fmt == "json":
        import json

        return json.dumps(payload, indent=2) + "\n"
    if fmt == "text":
        return "\n".join(render_text(payload)) + "\n"
    if fmt == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, value in _flatten(payload):
            writer.writerow([key, value])
        return buf.getvalue()
    raise DomainError(f"unknown format {fmt!r}")


def _emit(payload, args) -> None:
    # a reported integer may have any number of digits; the interpreter's
    # cap on int-to-str conversion (CPython 3.10.7+) is meant for parsed input
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
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


def _fraction(text: str):
    # argparse turns only TypeError/ValueError into a usage error, and
    # Fraction("1/0") raises ZeroDivisionError
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


# --------------------------------------------------------------------------
# subcommand handlers: each runs fistab.commands.<name>, imported on its
# first call, so a process compiles the handler of its own subcommand alone


def _run(name: str, args):
    return import_module(f"{__package__}.commands.{name}").run(args)


def cmd_character(args):
    return _run("character", args)


def cmd_decompose(args):
    return _run("decompose", args)


def cmd_m_module(args):
    return _run("m_module", args)


def cmd_stability_scan(args):
    return _run("stability_scan", args)


def cmd_fit_charpoly(args):
    return _run("fit_charpoly", args)


def cmd_fit_dimpoly(args):
    return _run("fit_dimpoly", args)


def cmd_bounds(args):
    return _run("bounds", args)


def cmd_table1(args):
    return _run("table1", args)


def cmd_os_scan(args):
    return _run("os_scan", args)


def cmd_wreath_scan(args):
    return _run("wreath_scan", args)


def cmd_kunneth(args):
    return _run("kunneth", args)


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


@lru_cache(maxsize=None)
def build_parser(command: str | None = None) -> _Parser:
    """The argument parser.  With a subcommand name it holds that
    subcommand's parser alone, which is all `main` needs for an argv
    that starts with the name; without one it holds every subcommand's,
    for help, unknown names and callers that want it whole.  Each is
    built on the first call and shared by every later one: callers must
    not mutate it.  Reuse is safe because `parse_args` returns a fresh
    namespace and no argument has a mutable default.  Subcommands carry
    no handler: `main` looks `cmd_<name>` up on every call, so a handler
    rebound after the first call (a profiler, a tracer) still takes
    effect."""
    parser = _Parser(prog="fistab", description=__doc__)
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
    if command is None:
        names, shown = SUBCOMMANDS, {}
    else:
        # argparse shows the subcommand argument by its metavar in the
        # usage line and in an invalid-choice error.  Listing every name
        # keeps the full parser's usage line; that error needs an unknown
        # name, which never gets this parser.
        names, shown = (command,), {"metavar": "{" + ",".join(SUBCOMMANDS) + "}"}
    sub = parser.add_subparsers(dest="command", parser_class=_Parser, **shown)
    for name in names:
        help_text, takes_large, add_flags = SUBCOMMANDS[name]
        parents = [common, large] if takes_large else [common]
        add_flags(sub.add_parser(name, parents=parents, help=help_text))
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


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _apply_config(argv)
        if argv and argv[0] in SUBCOMMANDS:
            parser = build_parser(argv[0])
        else:
            parser = build_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.error("a subcommand is required")
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
