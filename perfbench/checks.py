"""Reference arithmetic and output parsing for the benchmark.

Nothing here imports fistab.  Every expected value is computed from first
principles, so a defect in the program cannot hide inside its own checker.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from functools import lru_cache
from math import ceil, factorial


# ---------------------------------------------------------------------------
# symmetric-group combinatorics


@lru_cache(maxsize=None)
def partitions(n: int, bound: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts at most bound (any fixed order)."""
    bound = n if bound is None else bound
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, bound), 0, -1)
        for rest in partitions(n - first, first)
    )


def fmt(p) -> str:
    return "+".join(str(x) for x in p)


def class_size(mu) -> int:
    z = 1
    for length in set(mu):
        count = mu.count(length)
        z *= length**count * factorial(count)
    return factorial(sum(mu)) // z


def hook_dim(lam) -> int:
    """Hook length formula."""
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j) + (cols[j] - i) - 1
    return factorial(sum(lam)) // hooks


@lru_cache(maxsize=None)
def mn(lam: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama: strip a border strip of length mu[0] from lam,
    found as a bead moving mu[0] places down on the abacus."""
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    m = len(lam)
    beads = [lam[i] + m - 1 - i for i in range(m)]
    occupied = set(beads)
    total = 0
    for idx, b in enumerate(beads):
        t = b - r
        if t < 0 or t in occupied:
            continue
        height = sum(1 for c in beads if t < c < b)
        moved = sorted(beads[:idx] + [t] + beads[idx + 1 :], reverse=True)
        shape = tuple(x for x in (moved[i] - (m - 1 - i) for i in range(m)) if x)
        total += (-1) ** height * mn(shape, rest)
    return total


def elementary(k: int, values) -> int:
    """k-th elementary symmetric polynomial of the given integers."""
    e = [1] + [0] * k
    for v in values:
        for j in range(k, 0, -1):
            e[j] += v * e[j - 1]
    return e[k] if k >= 0 else 0


def tensor_power_dim(dims, n: int, i: int) -> int:
    """Degree-i dimension of the n-fold tensor power of a graded space."""
    poly = [1]
    for _ in range(n):
        out = [0] * min(len(poly) + len(dims) - 1, i + 1)
        for a, x in enumerate(poly):
            for b, y in enumerate(dims):
                if a + b <= i:
                    out[a + b] += x * y
        poly = out
    return poly[i] if i < len(poly) else 0


def graded_sym_dim(dims, n: int, i: int) -> int:
    """Degree-i dimension of the n-th graded-symmetric power: even classes
    commute, odd classes anticommute (the S_n-invariants of the tensor
    power under the Koszul sign rule)."""
    # coefficient table c[s][t] of s^n t^i
    c = [[0] * (i + 1) for _ in range(n + 1)]
    c[0][0] = 1
    for g, d in enumerate(dims):
        for _ in range(d):
            if g % 2:  # one odd class: (1 + s t^g), each used at most once
                for s in range(n, 0, -1):
                    for t in range(g, i + 1):
                        c[s][t] += c[s - 1][t - g]
            else:  # one even class: 1 / (1 - s t^g)
                for s in range(1, n + 1):
                    for t in range(g, i + 1):
                        c[s][t] += c[s - 1][t - g]
    return c[n][i]


# ---------------------------------------------------------------------------
# bound arithmetic as stated in the source paper


def _cl(x) -> int:
    return max(0, ceil(x))


def abutment(alpha, beta, i, r=None) -> tuple[int, int]:
    a, b = Fraction(alpha), Fraction(beta)
    inj = (2 * b - a) * i - a if r is None else b * i + (b - a) * r + (a - 2 * b)
    return _cl(inj), _cl(b * i)


def page(alpha, beta, r, p, q) -> tuple[int, int]:
    a, b = Fraction(alpha), Fraction(beta)
    return _cl(a * p + b * q + (b - a) * r + (a - 2 * b)), _cl(a * p + b * q)


# Headline stable range N = factor * i per example family (Table 1).
TABLE1_FACTOR = {
    "config_surface_closed": 5,
    "config_surface_boundary": 4,
    "config_surface_open": 5,
    "moduli": 6,
    "pmod_surface_boundary": 4,
    "pmod_highdim": 3,
    "pmod_highdim_boundary": 2,
    "bpdiff": 3,
}


# ---------------------------------------------------------------------------
# reading reports in any of the three formats into one flat form


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return "-" if v is None else str(v)


def _flatten_json(obj, prefix: str, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten_json(v, f"{prefix}{k or '()'}.", out)
    elif isinstance(obj, list) and any(isinstance(x, (dict, list)) for x in obj):
        for idx, v in enumerate(obj):
            _flatten_json(v, f"{prefix}{idx}.", out)
    elif isinstance(obj, list):
        out[prefix[:-1]] = " ".join(_scalar(x) for x in obj)
    else:
        out[prefix[:-1]] = _scalar(obj)


def _parse_text(text: str) -> dict:
    out: dict[str, str] = {}
    stack = [[-1, "", 0]]  # indent, key prefix, next list index
    for line in text.splitlines():
        body = line.lstrip(" ")
        indent = len(line) - len(body)
        while stack[-1][0] >= indent:
            stack.pop()
        top = stack[-1]
        if body == "-" or body.startswith("- "):
            idx, top[2] = top[2], top[2] + 1
            if body == "-":
                stack.append([indent, f"{top[1]}{idx}.", 0])
            else:
                out[f"{top[1]}{idx}"] = body[2:]
        elif body.endswith(":") and " " not in body:
            stack.append([indent, f"{top[1]}{body[:-1]}.", 0])
        else:
            key, _, value = body.partition(" ")
            out[top[1] + key] = value.strip()
    return out


def flatten(fmt_name: str, text: str) -> dict[str, str]:
    """Dotted key -> scalar string, identical for json, text and csv."""
    if fmt_name == "json":
        out: dict[str, str] = {}
        _flatten_json(json.loads(text), "", out)
        return out
    if fmt_name == "csv":
        return {row[0]: row[1] for row in csv.reader(io.StringIO(text))}
    return _parse_text(text)


def section(flat: dict, name: str) -> dict[str, str]:
    """Entries under one top-level key, with the prefix stripped."""
    head = name + "."
    return {k[len(head) :]: v for k, v in flat.items() if k.startswith(head)}


def part(key: str) -> tuple[int, ...]:
    return () if key == "()" else tuple(int(x) for x in key.split("+"))


def decomposition_dim(table: dict[str, str]) -> int:
    return sum(int(m) * hook_dim(part(lam)) for lam, m in table.items())


# ---------------------------------------------------------------------------
# invariants of the heavy invocations


def check_os_scan(flat: dict, k: int, n_min: int, n_max: int) -> str | None:
    betti = section(flat, "betti")
    decs = section(flat, "decompositions")
    for n in range(n_min, n_max + 1):
        want = elementary(k, range(1, n))
        if int(betti.get(str(n), -1)) != want:
            return f"betti({n},{k}) != e_{k}(1..{n - 1}) = {want}"
        if decomposition_dim(section(decs, str(n))) != want:
            return f"decomposition dimension at n={n} != betti {want}"
    return None


def check_kunneth(flat: dict, dims, n: int, i: int) -> str | None:
    want = tensor_power_dim(dims, n, i)
    if int(flat.get("character." + fmt((1,) * n), -1)) != want:
        return f"character at the identity != tensor-power dimension {want}"
    if decomposition_dim(section(flat, "decomposition")) != want:
        return f"decomposition dimension != tensor-power dimension {want}"
    return None


def check_wreath(flat: dict, dims, i: int, n_min: int, n_max: int) -> str | None:
    got = {int(n): int(v) for n, v in section(flat, "invariant_dims").items()}
    for n in range(n_min, n_max + 1):
        if got.get(n) != graded_sym_dim(dims, n, i):
            return f"wreath invariant dimension at n={n} is {got.get(n)}"
    tail = {got[n] for n in range(max(n_min, 2 * i), n_max + 1)}
    if len(tail) > 1:
        return f"wreath dimensions not constant from n={2 * i}"
    return None
