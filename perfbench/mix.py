"""The seeded request list of the request_mix workload.

Each request is a fistab argv with the outcome it must produce: a valid
request expects exit 0 and carries a check over its flattened report; a
malformed one expects the documented exit code, 1 for a domain error and
64 for a usage error.  Shares are fixed, so every seed puts the same load
on each subcommand: VALID_SHARE gives each subcommand's share of the list,
a REPEAT_SHARE of every subcommand's requests repeat its earlier argvs
exactly (spread evenly over them), and MALFORMED_SHARE of the list is
malformed.  The seed picks parameters, formats and order.  The costly small scans (kunneth,
os-scan) cycle through fixed parameter sets, so the tail latency does not
depend on which of them a seed happens to draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable

from checks import (
    TABLE1_FACTOR,
    abutment,
    check_kunneth,
    check_os_scan,
    class_size,
    decomposition_dim,
    fmt,
    hook_dim,
    mn,
    page,
    part,
    partitions,
    section,
)

FORMATS = ("json", "text", "csv")
LIST_SIZE = 1000
MALFORMED_SHARE = 0.10
REPEAT_SHARE = 0.20
VALID_SHARE = {
    "character": 13,
    "decompose": 9,
    "m-module": 9,
    "stability-scan": 8,
    "fit-charpoly": 7,
    "fit-dimpoly": 8,
    "bounds": 13,
    "table1": 8,
    "kunneth": 7,
    "os-scan": 8,
}

KUNNETH_PARAMS = [
    (dims, n, i)
    for dims in ((1, 2), (1, 1, 1), (1, 2, 1))
    for n in (4, 6)
    for i in (1, 2)
]
OS_SCAN_PARAMS = [(1, 5, 1), (1, 6, 2), (1, 7, 1), (2, 5, 1), (2, 6, 0)]  # k, n_max, a_max

# (argv, expected exit code); at the seed commit the two stability-scan
# schema errors escape as raw TypeError/ValueError and count as failed.
MALFORMED = {
    "bad_partition": [
        (["character", "--lam", "3+x"], 1),
        (["character", "--lam", "0+2"], 1),
        (["m-module", "--lam", "2+-1", "--n", "5"], 1),
        (["decompose", "--n", "2", "--values", '{"1+y": 1, "2": 0}'], 1),
    ],
    "bad_json": [
        (["decompose", "--n", "3", "--values", '{"1+1+1": 3,'], 1),
        (["fit-dimpoly", "--dims", "{2: 1}", "--degree-bound", "1"], 1),
        (["stability-scan", "--entries", "{entries"], 1),
    ],
    "unknown_flag": [
        (["table1", "--row", "moduli", "--i", "2", "--verbose"], 64),
        (["bounds", "--alpha", "1", "--beta", "2", "--i", "3", "--gamma", "1"], 64),
        (["character", "--lam", "2+1", "--shape", "3"], 64),
        (["character", "--lam", "2+1", "--format", "xml"], 64),
    ],
    "schema": [
        (["stability-scan", "--entries", "[]"], 1),
        (["stability-scan", "--entries", '{"entries": {"2": {"2": "x"}}}'], 1),
        (["fit-dimpoly", "--dims", "[1, 2]", "--degree-bound", "1"], 1),
        (["decompose", "--n", "3", "--values", '{"1+1+1": 3}'], 1),
    ],
}


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    fmt: str
    expect: int
    check: Callable[[dict], str | None] | None = None


def _equal(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# one generator per subcommand: (argv without --format, check)


def _character(rng):
    n = rng.randint(3, 8)
    lam = rng.choice(partitions(n))
    if rng.random() < 0.5:
        mu = rng.choice(partitions(n))
        want = str(mn(lam, mu))
        return ["character", "--lam", fmt(lam), "--mu", fmt(mu)], lambda f: _equal(
            f.get("value"), want, f"chi^{lam}({mu})"
        )

    def check(flat):
        values = {part(k): int(v) for k, v in section(flat, "values").items()}
        if sum(class_size(mu) * v * v for mu, v in values.items()) != factorial(n):
            return f"sum of class_size * chi^2 != {n}!"
        return _equal(values, {mu: mn(lam, mu) for mu in partitions(n)}, f"chi^{lam}")

    return ["character", "--lam", fmt(lam)], check


def _decompose(rng):
    n = rng.randint(3, 6)
    shapes = partitions(n)
    mult = {lam: rng.randint(1, 2) for lam in rng.sample(shapes, rng.randint(1, 3))}
    values = {fmt(mu): sum(m * mn(lam, mu) for lam, m in mult.items()) for mu in shapes}
    want = {fmt(lam): str(m) for lam, m in mult.items()}
    dim = str(sum(m * hook_dim(lam) for lam, m in mult.items()))

    def check(flat):
        return _equal(section(flat, "decomposition"), want, "decomposition") or _equal(
            flat.get("dimension"), dim, "dimension"
        )

    return ["decompose", "--n", str(n), "--values", json.dumps(values)], check


def _m_module(rng):
    if rng.random() < 0.5:
        lam = rng.choice(partitions(rng.randint(1, 3)))
        n = rng.randint(sum(lam), 8)
        want = comb(n, sum(lam)) * hook_dim(lam)
        argv = ["m-module", "--lam", fmt(lam), "--n", str(n)]
    else:
        m = rng.randint(1, 3)
        n = rng.randint(m, 8)
        want = factorial(n) // factorial(n - m)
        argv = ["m-module", "--regular", str(m), "--n", str(n)]

    def check(flat):
        return _equal(flat.get("dimension"), str(want), "dimension") or _equal(
            decomposition_dim(section(flat, "decomposition")), want, "decomposition dimension"
        )

    return argv, check


def _stability_scan(rng):
    lo = rng.randint(4, 6)
    hi = lo + rng.randint(2, 4)
    roots = [(), (1,), (2,), (1, 1)]
    final = {r: rng.randint(1, 3) for r in rng.sample(roots, rng.randint(1, 3))}
    start = rng.randint(lo, hi)  # the tables agree from here on
    entries = {}
    for n in range(lo, hi + 1):
        table = dict(final)
        if n < start:
            table[(1,)] = table.get((1,), 0) + hi - n  # differs at every earlier n
        entries[str(n)] = {fmt((n - sum(r),) + r): m for r, m in table.items()}
    stable = start < hi

    def check(flat):
        want = {fmt(r) or "()": str(m) for r, m in final.items()}
        return (
            _equal(flat.get("stabilized"), "true" if stable else "false", "stabilized")
            or _equal(flat.get("stable_from"), str(start) if stable else "-", "stable_from")
            or _equal(section(flat, "stable_table"), want, "stable_table")
        )

    return ["stability-scan", "--entries", json.dumps({"entries": entries})], check


# monomials of weighted degree <= 2 in the basis prod C(Z_l, m_l)
_CHARPOLY_MONOMIALS = {
    "1": lambda z: 1,
    "Z1": lambda z: z.get(1, 0),
    "C(Z1,2)": lambda z: comb(z.get(1, 0), 2),
    "Z2": lambda z: z.get(2, 0),
}


def _fit_charpoly(rng):
    d = rng.choice((1, 2))
    monos = list(_CHARPOLY_MONOMIALS)[: 2 if d == 1 else 4]
    coeffs = {m: rng.randint(-2, 3) for m in monos}
    coeffs[monos[-1]] = rng.choice((-1, 1, 2))
    lo = rng.randint(2, 3)
    entries = {}
    for n in range(lo, lo + 3):
        entries[str(n)] = {}
        for mu in partitions(n):
            z = {length: mu.count(length) for length in set(mu)}
            entries[str(n)][fmt(mu)] = sum(
                c * _CHARPOLY_MONOMIALS[m](z) for m, c in coeffs.items()
            )
    want = {m: str(c) for m, c in coeffs.items() if c}

    def check(flat):
        terms = section(flat, "polynomial.terms")
        got = {
            terms[f"{j}.monomial"]: terms[f"{j}.coefficient"]
            for j in range(len(terms))
            if f"{j}.monomial" in terms
        }
        return _equal(got, want, "character polynomial")

    argv = ["fit-charpoly", "--entries", json.dumps({"entries": entries})]
    return argv + ["--degree-bound", str(d)], check


def _fit_dimpoly(rng):
    d = rng.randint(1, 3)
    coeffs = [rng.randint(0, 3) for _ in range(d)] + [rng.randint(1, 3)]
    lo = rng.randint(1, 4)
    points = range(lo, lo + d + 2 + rng.randint(0, 2))
    dims = {str(n): sum(c * comb(n, j) for j, c in enumerate(coeffs)) for n in points}
    want = {str(j): str(c) for j, c in enumerate(coeffs) if c}

    def check(flat):
        return _equal(
            section(flat, "polynomial.binomial_coeffs"), want, "binomial coefficients"
        ) or _equal(flat.get("polynomial.degree"), str(d), "degree")

    return ["fit-dimpoly", "--dims", json.dumps(dims), "--degree-bound", str(d)], check


def _bounds(rng):
    alpha = Fraction(rng.randint(0, 2), 2)
    beta = 2 * alpha + Fraction(rng.randint(0, 4), 2)
    i = rng.randint(0, 6)
    argv = ["bounds", "--alpha", str(alpha), "--beta", str(beta), "--i", str(i)]
    style = rng.randrange(4)
    if style == 0:
        want = {"fisharp_degree": str(max(0, -(-beta * i // 1)))}
        argv.append("--fisharp")
    else:
        if style == 1:
            inj, surj = abutment(alpha, beta, i)
        elif style == 2:
            r = rng.randint(3, 5)
            inj, surj = abutment(alpha, beta, i, r)
            argv += ["--degenerates-at", str(r)]
        else:
            r, p, q = rng.randint(3, 5), rng.randint(0, 4), rng.randint(0, 4)
            inj, surj = page(alpha, beta, r, p, q)
            argv += ["--page", str(r), "--p", str(p), "--q", str(q)]
        want = {
            "injectivity": str(inj),
            "surjectivity": str(surj),
            "stability_degree": str(max(inj, surj)),
        }

    def check(flat):
        return _equal({k: flat.get(k) for k in want}, want, "bounds")

    return argv, check


def _table1(rng):
    row = rng.choice(sorted(TABLE1_FACTOR))
    i = rng.randint(0, 6)

    def check(flat):
        weight = int(flat["derived.weight"])
        inj, surj = (int(x) for x in flat["derived.stability_type"].split())
        want = {
            "N": str(TABLE1_FACTOR[row] * i),
            "length": str(weight + 1),
            "char_degree": str(weight),
            "derived.N": str(weight + max(inj, surj)),
        }
        return _equal({k: flat.get(k) for k in want}, want, f"table1 {row}")

    return ["table1", "--row", row, "--i", str(i)], check


def _kunneth(params):
    dims, n, i = params
    argv = ["kunneth", "--graded-dims", ",".join(map(str, dims)), "--n", str(n), "--i", str(i)]
    return argv + ["--decompose"], lambda flat: check_kunneth(flat, dims, n, i)


def _os_scan(params):
    k, n_max, a_max = params
    argv = ["os-scan", "--n-min", "2", "--n-max", str(n_max), "--k", str(k), "--a-max", str(a_max)]
    return argv, lambda flat: check_os_scan(flat, k, 2, n_max)


GENERATORS = {
    "character": _character,
    "decompose": _decompose,
    "m-module": _m_module,
    "stability-scan": _stability_scan,
    "fit-charpoly": _fit_charpoly,
    "fit-dimpoly": _fit_dimpoly,
    "bounds": _bounds,
    "table1": _table1,
}
CYCLED = {"kunneth": (_kunneth, KUNNETH_PARAMS), "os-scan": (_os_scan, OS_SCAN_PARAMS)}


def build(seed: int) -> list[Request]:
    """The request list for one seed, in the order the client sends it."""
    rng = random.Random(seed)
    n_valid = round(LIST_SIZE * (1 - MALFORMED_SHARE))
    total_share = sum(VALID_SHARE.values())
    out: list[Request] = []
    for kind, share in VALID_SHARE.items():
        quota = round(n_valid * share / total_share)
        fresh: list[Request] = []
        for idx in range(quota - round(quota * REPEAT_SHARE)):
            if kind in CYCLED:
                gen, params = CYCLED[kind]
                argv, check = gen(params[idx % len(params)])
            else:
                argv, check = GENERATORS[kind](rng)
            f = rng.choice(FORMATS)
            fresh.append(Request(tuple(argv + ["--format", f]), f, 0, check))
        repeats = quota - len(fresh)
        out += fresh + [fresh[j * len(fresh) // repeats] for j in range(repeats)]
    variants = [variant for group in MALFORMED.values() for variant in group]
    for idx in range(LIST_SIZE - len(out)):
        argv, code = variants[idx % len(variants)]
        out.append(Request(tuple(argv), "json", code))
    rng.shuffle(out)
    return out
