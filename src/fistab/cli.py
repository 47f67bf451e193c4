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
import json
import sys
from functools import lru_cache
from itertools import accumulate
from math import comb, perm, prod
from operator import mul

from .characters import (
    ClassFunction,
    decompose,
    irreducible_character,
    mn_character,
    unique_keys,
)
from .errors import ConsistencyError, DomainError
from .partitions import dimension, parse_partition, partition_counts

# the most estimated work a request may take without --allow-large, in ns
# of a 2-vCPU x86-64 host (see _admit)
WORK_BUDGET = 3 * 10**9


class UsageError(Exception):
    """Flags that parse but cannot be used together (exit 64)."""


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


def _unique_object(pairs) -> dict:
    return unique_keys(((k, k, v) for k, v in pairs), "JSON object")


def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise DomainError(f"{path} is not UTF-8 text: {exc}") from None


def _load_json(args, inline_attr: str):
    inline = getattr(args, inline_attr, None)
    if inline is not None:
        text = inline
    elif getattr(args, "input", None):
        text = _read_text(args.input)
    else:
        raise DomainError(f"provide --{inline_attr.replace('_', '-')} or --input")
    try:
        return json.loads(text, object_pairs_hook=_unique_object)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed JSON input: {exc}") from exc
    except RecursionError:
        raise DomainError("malformed JSON input: nested too deeply") from None
    except DomainError:
        raise
    except ValueError:
        # the interpreter's cap on int-from-str conversion (CPython 3.10.7+)
        # bounds parse time; it is kept, and a longer literal refused
        raise DomainError(
            f"JSON input has an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _fraction(text: str):
    # argparse turns only TypeError/ValueError into a usage error, and
    # Fraction("1/0") raises ZeroDivisionError
    from fractions import Fraction

    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _graded_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise DomainError(f"bad graded dimension list {text!r}") from exc


# --------------------------------------------------------------------------
# the work budget
#
# Each subcommand whose work grows without bound estimates it before it
# starts, from counts alone: no partition is enumerated to decide whether
# to start.  An estimate is a sum of counts, each times the measured cost
# of one of its units, in ns.  _PAIR_NS is one (class, shape) pair of the
# Murnaghan-Nakayama loops, in a whole character or in a character table
# together with one decomposition against it.
_PAIR_NS = 1200
_FIT_NS = 125  # one (row, monomial, pivot) step of a character-polynomial fit
_SOLVE_NS = 80  # one (row, column, pivot) step of the fit-dimpoly solves
_CYCLE_NS = 150  # one (class, cycle, stored degree, graded dimension) step of kunneth
_AVERAGE_NS = 1000  # one (class of S_a, class of S_b) term of an S_b-average
_STRIP_NS = 3000  # one horizontal strip (one constituent) of a Pieri sum
_LEVEL_NS = 60000  # one level of an os-scan report: Betti number, stability, rendering
_REPORT_NS = 30000  # one coinvariant verdict of os-scan, rendering included
_TERM_NS = 2000  # one (W_m, j) term of a free-module invariant dimension
_LEHRER_NS = 6000  # one (class, point) step of Lehrer's product for a character
_ROW_NS = 500  # one row of lam per strip of m-module --lam
_HOOK_NS = 3  # one of the (|lam| + 1)^2 steps of the hook-length dimension of lam
_FOLD_NS = 50  # one (cell, binomial weight) step of the wreath series
_ENTRY_NS = 2000  # one reported value of a wreath scan


def _seconds(ns: int) -> str:
    return "more than 1000 s" if ns > 10**12 else f"about {ns / 10**9:.3g} s"


def _admit(args, estimate, n: int = 0, alternative: str = "") -> None:
    """Refuse the request with a DomainError when its estimated work is
    over WORK_BUDGET, unless --allow-large is given.

    p(0), ..., p(n) are counted first, and only up to the budget, so a
    request on a huge S_n is refused before anything else is counted;
    estimate(p) then turns the list of counts into nanoseconds.  A
    negative n is refused by the computation itself.
    """
    if args.allow_large or n < 0:
        return
    p = partition_counts(n, cap=WORK_BUDGET)
    if len(p) <= n:
        why = f"S_{n} has more than {WORK_BUDGET} conjugacy classes"
    else:
        work = estimate(p)
        if work <= WORK_BUDGET:
            return
        why = f"estimated work {_seconds(work)}"
    raise DomainError(
        f"{args.command}: {why}, over the work budget of {WORK_BUDGET / 10**9:g} s; "
        f"pass {alternative}--allow-large to run it anyway"
    )


def _shapes_inside(lam) -> int:
    """Number of partitions nu inside lam (nu_i <= lam_i), row by row."""
    if not lam:
        return 1
    ends = [1] * (lam[0] + 1)  # ends[v]: choices of the rows so far, the last of length v
    for row in lam[1:]:
        ends = list(accumulate(reversed(ends)))[::-1][: row + 1]
    return sum(ends)


def _fit_work(rows: int, degree_bound: int) -> int:
    # Gauss-Jordan elimination: a pivot per monomial, each clearing every
    # row; a fit with more monomials than rows is refused before it starts
    from .fi_analysis import _monomial_count

    monomials = _monomial_count(degree_bound, cap=rows)
    return 0 if monomials > rows else _FIT_NS * rows * monomials**2


def _table_work(p, levels) -> int:
    return _PAIR_NS * sum(p[n] ** 2 for n in levels)


def _maps(n_min: int, n_max: int, a_top: int) -> int:
    """Number of coinvariant maps os-scan reports: at each level n of
    n_min..n_max-1, one per a <= min(a_top, n)."""
    c = min(max(a_top, n_min), n_max)  # levels below c have n + 1 of them
    return (c * (c + 1) - n_min * (n_min + 1)) // 2 + (n_max - c) * (a_top + 1)


def _strips(lam, n: int) -> int:
    """Number of horizontal strips of n - |lam| boxes on lam, or more: each
    row below a longer one grows by at most the difference (the last row
    is new), so exactly this many once the first row can take the rest.
    Fewer boxes than such rows bound the count by C(boxes + rows, boxes)."""
    boxes = n - sum(lam)
    if boxes < 0:
        return 0
    rows = (*lam, 0)
    widths = [rows[i - 1] - rows[i] for i in range(1, len(rows)) if rows[i - 1] > rows[i]]
    count = prod(w + 1 for w in widths)
    return min(count, comb(boxes + len(widths), boxes)) if boxes < len(widths) else count


def _strip_pairs(p, m: int) -> int:
    """Pairs (lam of m, horizontal strip on lam) at any level: the strips
    of one lam grow with the level up to their number at level 2m, and
    over all lam of m those number sum_{a+b=m} p(a) p(b)."""
    return sum(map(mul, p[: m + 1], reversed(p[: m + 1])))


def _series_work(dims, n_max: int, i: int) -> int:
    # the series folds each degree g <= i with d_g > 0 into a table of
    # min(n_max, i) + 1 rows by i + 1 columns, one binomial weight per class
    # count j <= min(n_max, i // g) (and j <= d_g for odd g); then it
    # reports n_max + 1 values
    s_max = min(n_max, i)
    weights = sum(
        min(s_max, i // g, d if g % 2 else s_max) + 1
        for g, d in enumerate(dims[1 : i + 1], 1)
        if d
    )
    return _FOLD_NS * (s_max + 1) * (i + 1) * max(weights, 1) + _ENTRY_NS * (n_max + 1)


# --------------------------------------------------------------------------
# subcommand handlers


def cmd_character(args):
    lam = parse_partition(args.lam)
    n = sum(lam)
    if args.mu is not None:
        mu = parse_partition(args.mu)
        return {
            "lam": list(lam),
            "n": n,
            "mu": list(mu),
            "value": mn_character(lam, mu),
        }
    _admit(
        args, lambda p: _PAIR_NS * p[n] * _shapes_inside(lam), n, "--mu for a single value or "
    )
    chi = irreducible_character(lam)
    return {"lam": list(lam), "n": n, "values": chi.to_mapping()}


def cmd_decompose(args):
    payload = _load_json(args, "values")
    chi = ClassFunction.from_mapping(args.n, payload)
    _admit(args, lambda p: _table_work(p, [args.n]), args.n)
    dec = decompose(chi)
    return {
        "n": args.n,
        "decomposition": dec.to_mapping(),
        "dimension": dec.dimension(),
    }


def cmd_m_module(args):
    from . import induction

    if (args.lam is None) == (args.regular is None):
        raise DomainError("give exactly one of --lam or --regular")
    if args.lam is not None:
        lam = parse_partition(args.lam)
        _admit(
            args,
            lambda p: _strips(lam, args.n) * (_STRIP_NS + _ROW_NS * len(lam))
            + _HOOK_NS * (sum(lam) + 1) ** 2,
        )
        dec = induction.m_module(lam, args.n)
        head = {"lam": list(lam)}
        dim = comb(args.n, sum(lam)) * dimension(lam)
    else:
        m = args.regular
        _admit(args, lambda p: _STRIP_NS * _strip_pairs(p, m), m)
        dec = induction.m_regular(m, args.n)
        head = {"m": args.regular}
        dim = perm(args.n, m)
    return {
        **head,
        "n": args.n,
        "decomposition": dec.to_mapping(),
        "dimension": dim,
    }


def cmd_stability_scan(args):
    from . import fi_analysis

    payload = _load_json(args, "entries")
    seq = fi_analysis.FISequence.decompositions_from_mapping(payload)
    report = fi_analysis.detect_stability(seq)
    return report.to_mapping()


def cmd_fit_charpoly(args):
    from . import fi_analysis

    payload = _load_json(args, "entries")
    seq = fi_analysis.FISequence.characters_from_mapping(payload)
    rows = sum(len(seq[n].values) for n in seq)
    _admit(args, lambda p: _fit_work(rows, args.degree_bound))
    poly = fi_analysis.fit_char_polynomial(seq, args.degree_bound)
    return {
        "window": list(seq.window),
        "degree_bound": args.degree_bound,
        "polynomial": poly.to_mapping(),
    }


def cmd_fit_dimpoly(args):
    from . import fi_analysis

    payload = _load_json(args, "dims")
    try:
        points = [(k, int(k), v) for k, v in payload.items()]
    except (ValueError, TypeError, AttributeError) as exc:
        raise DomainError(f"dimension table must map integers to integers: {exc}") from exc
    dims = unique_keys(points, "dimension table")
    for v in dims.values():
        if type(v) is not int:  # JSON integers only: no floats, strings or true/false
            raise DomainError(f"dimension table must map integers to integers, got {v!r}")
    d = args.degree_bound
    # one solve per candidate degree e <= d, (e + 1)^3 steps each; fewer than
    # d + 2 points are refused before any
    _admit(args, lambda p: 0 if len(dims) < d + 2 else _SOLVE_NS * ((d + 1) * (d + 2) // 2) ** 2)
    poly = fi_analysis.fit_dim_polynomial(dims, d)
    return {
        "points": {str(n): dims[n] for n in sorted(dims)},
        "degree_bound": args.degree_bound,
        "polynomial": poly.to_mapping(),
    }


def _reject_foreign_bounds_flags(args) -> None:
    # each mode reads only its own flags; any other would be silently ignored
    if args.fisharp:
        mode, own = "--fisharp", ()
    elif args.page is not None:
        mode, own = "--page", ("page", "p", "q")
    else:
        mode, own = "the abutment bound (no --page or --fisharp)", ("degenerates_at",)
    foreign = [
        "--" + flag.replace("_", "-")
        for flag in ("page", "p", "q", "degenerates_at")
        if flag not in own and getattr(args, flag) is not None
    ]
    if foreign:
        raise UsageError(f"{mode} does not use {', '.join(foreign)}")
    if args.page is not None and (args.p is None or args.q is None):
        raise UsageError("--page needs --p and --q")


def cmd_bounds(args):
    from . import bounds

    _reject_foreign_bounds_flags(args)
    params = bounds.BoundParams(args.alpha, args.beta)
    head = {"alpha": str(params.alpha), "beta": str(params.beta), "i": args.i}
    if args.fisharp:
        return {**head, "fisharp_degree": bounds.fisharp_degree(params, args.i)}
    if args.page is not None:
        st = bounds.page_stability(params, (args.p, args.q), args.page)
        head.update({"page": args.page, "p": args.p, "q": args.q})
    else:
        st = bounds.abutment_stability(
            params, args.i, degenerates_at=args.degenerates_at
        )
        if args.degenerates_at is not None:
            head["degenerates_at"] = args.degenerates_at
    return {
        **head,
        "injectivity": st.inj,
        "surjectivity": st.surj,
        "stability_degree": st.stability_degree,
    }


def cmd_table1(args):
    from . import bounds

    return bounds.table1_row(args.row, args.i).to_mapping()


def cmd_os_scan(args):
    from . import fi_analysis, os_model

    k = args.k
    if k < 0 or args.a_max < 0:
        raise DomainError("--k and --a-max must be nonnegative")
    if args.n_min < 1 or args.n_max < args.n_min:
        raise DomainError("need 1 <= n-min <= n-max")
    window = range(args.n_min, args.n_max + 1)
    a_top = min(args.a_max, args.n_max - 1)  # no coinvariant map starts at a >= n-max
    top = min(2 * k, args.n_max)
    fit = 0 < args.n_max - args.n_min < 2 * k  # see os_model.character_polynomial

    def work(p):
        # the tables of S_m for the W_m, k < m <= 2k, with their characters
        # and averages; the Pieri strips of their constituents at each level
        # of the peel and of the window; a report per level and per
        # coinvariant map, each map with the terms of two free-module
        # counts; and on a short window the characters and their fit
        ms = range(k + 1, top + 1)
        total = (
            _table_work(p, ms)
            + _STRIP_NS * (len(ms) + len(window)) * sum(_strip_pairs(p, m) for m in ms)
            + _LEVEL_NS * len(window)
            + _maps(args.n_min, args.n_max, a_top)
            * (_REPORT_NS + 2 * _TERM_NS * sum(min(a_top, m) + 1 for m in ms))
        )
        if fit:
            total += _LEHRER_NS * sum(n * p[n] for n in window)
            total += _fit_work(sum(p[n] for n in window), 2 * k)
        return total

    _admit(args, work, args.n_max if fit else top)
    decs = {n: os_model.free_decomposition(n, k) for n in window}
    payload = {
        "k": k,
        "window": [args.n_min, args.n_max],
        "betti": {str(n): os_model.free_betti(n, k) for n in window},
        "decompositions": {str(n): decs[n].to_mapping() for n in window},
    }
    if args.n_max > args.n_min:
        seq = fi_analysis.FISequence(decs)
        payload["stability"] = fi_analysis.detect_stability(seq).to_mapping()
        try:
            poly = os_model.character_polynomial(args.n_min, args.n_max, k)
            payload["character_polynomial"] = poly.to_mapping()
        except DomainError as exc:
            payload["character_polynomial"] = {"error": str(exc)}
    coinv = {}
    for a in range(0, a_top + 1):
        rows = {}
        for n in range(max(args.n_min, a), args.n_max):
            rows[str(n)] = os_model.coinvariant_report(n, a, k).to_mapping()
        if rows:
            coinv[str(a)] = rows
    payload["coinvariants"] = coinv
    return payload


def cmd_wreath_scan(args):
    from . import induction

    dims = _graded_dims(args.graded_dims)
    if args.n_min < 0 or args.n_max < args.n_min:
        raise DomainError("need 0 <= n-min <= n-max")
    _admit(args, lambda p: _series_work(dims, args.n_max, args.i))
    series = induction.wreath_invariant_series(dims, args.n_max, args.i)
    values = {n: series[n] for n in range(args.n_min, args.n_max + 1)}
    start = max(args.n_min, 2 * args.i)
    tail = [values[n] for n in range(start, args.n_max + 1)]
    return {
        "graded_dims": list(dims),
        "i": args.i,
        "window": [args.n_min, args.n_max],
        "invariant_dims": {str(n): v for n, v in values.items()},
        "expected_constant_from": 2 * args.i,
        "constant_on_tail": len(set(tail)) <= 1,
    }


def cmd_kunneth(args):
    from . import induction

    dims = _graded_dims(args.graded_dims)
    n, i = args.n, args.i

    # the nonzero graded dimensions up to degree i: after j cycles the
    # trace polynomial of a class stores at most min(i + 1, terms^j) degrees
    terms = sum(1 for d in dims[: i + 1] if d)

    def traces(p, m):
        # the trace polynomial of each cycle length, then per class of S_m
        # one sparse polynomial product per cycle
        return _CYCLE_NS * m * (min(len(dims), i + 1) + p[m] * min(i + 1, terms**m) * terms)

    def work(p):
        if not args.decompose:
            return traces(p, n)
        # the degree-i part of V_+^m for each m <= min(n, i): its traces,
        # the table of S_m, and the Pieri strips of its constituents
        small = range(min(n, i) + 1)
        return traces(p, n) + _table_work(p, small) + sum(
            traces(p, m) + _STRIP_NS * _strip_pairs(p, m) for m in small
        )

    _admit(args, work, n)
    chi = induction.kunneth_power(dims, n, i)
    payload = {
        "graded_dims": list(dims),
        "n": n,
        "i": i,
        "character": chi.to_mapping(),
    }
    if args.decompose:
        payload["decomposition"] = induction.kunneth_decomposition(dims, n, i).to_mapping()
    return payload


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
