"""Betti numbers of wreath products with symmetric quotient.

The wreath-product Betti numbers need no characters.  S_n permutes the
tensor factors of the n-fold graded tensor power with the Koszul sign
rule: even-degree classes commute and odd-degree classes anticommute.
The invariants are therefore the graded-symmetric power, spanned by
multisets of even classes times sets of odd classes, and with d_g the
g-th Betti number their dimensions are the coefficients of x^n t^i in

    prod_{g even} (1 - x t^g)^(-d_g) * prod_{g odd} (1 + x t^g)^(d_g)

(Macdonald, *The Poincare polynomial of a symmetric product*, 1962).
That series gives every n at once (wreath_invariant_series), so this
module imports no character layer and `fistab wreath-scan` runs on it
alone.  induction defines wreath_invariant_dim on it; the twisted
multiplicities, which need characters, are read off its Kunneth
decomposition.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb

from .graded import _check_graded_dims


def _top_degree(dims, s_max: int, i: int) -> int:
    # the highest degree that a product of at most s_max classes of degree
    # 1..i reaches: s_max times the largest such degree g with d_g > 0
    return s_max * max((g for g, d in enumerate(dims[1 : i + 1], 1) if d > 0), default=0)


def _graded_symmetric_counts(graded_dims, n: int, i: int) -> list[int]:
    # Entry s: dimension of the span of the products of s classes of
    # positive degree in total degree i, for s <= min(n, i) (a product of
    # more than i such classes has degree above i), all zero when no
    # such product reaches degree i (_top_degree).  Each degree g is
    # folded into the table c[s][t] in one step: j of its d_g classes add
    # x^j t^(g j) in C(d_g, j) ways when g is odd (sets) and in
    # C(d_g + j - 1, j) ways when g is even (multisets).
    dims = _check_graded_dims(graded_dims, n, i)
    s_max = min(n, i)
    if _top_degree(dims, s_max, i) < i:
        return [0] * (s_max + 1)
    c = [[0] * (i + 1) for _ in range(s_max + 1)]
    c[0][0] = 1
    for g in range(1, min(len(dims) - 1, i) + 1):
        d = dims[g]
        if not d:
            continue
        top = min(s_max, i // g, d if g % 2 else s_max)  # C(d, j) = 0 for j > d
        ways = [comb(d, j) if g % 2 else comb(d + j - 1, j) for j in range(top + 1)]
        folded = [[0] * (i + 1) for _ in range(s_max + 1)]
        for s, row in enumerate(c):
            for t, x in enumerate(row):
                if x:
                    for j, w in enumerate(ways):
                        if s + j > s_max or t + g * j > i:
                            break
                        folded[s + j][t + g * j] += x * w
        c = folded
    return [row[i] for row in c]


def wreath_invariant_series(graded_dims, n_max: int, i: int) -> list[int]:
    """wreath_invariant_dim(graded_dims, n, i) for n = 0..n_max, from one
    pass over the graded-symmetric power series (see the module
    docstring).  The single degree-0 class contributes 1/(1 - x), so
    entry n is the running sum of the products of at most n classes of
    positive degree; it is constant from n = i on."""
    head = list(accumulate(_graded_symmetric_counts(graded_dims, n_max, i)))
    return head + head[-1:] * (n_max + 1 - len(head))
