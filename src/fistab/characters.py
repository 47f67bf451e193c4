"""Exact character theory of symmetric groups over the rationals.

Irreducible characters are evaluated by one Murnaghan-Nakayama walk,
read upwards from the empty shape for a column of the character table
and downwards from lam for a single character.  The class sizes and the
integer character table of each S_n are cached; inner products and
multiplicities are integer dot products with one exact division by n!,
so integrality checks are meaningful.  exact_quotient is the package's
one such division: an int where it is exact, else a Fraction.  induction and os_model share the
Pieri sum (free_module_sum, a window of levels or one) and the product
over cycles (cycle_product) of running products (partial_products).
All functions here are pure and the caches are safe to share across
threads.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from functools import lru_cache
from math import factorial, log10
from operator import mul

from . import _forward
from .errors import ConsistencyError, DomainError
from .partitions import (
    Partition,
    centralizer_order,
    check_partition,
    cycle_counts,
    dimension,
    format_partition,
    _strip_extensions,
    partition_count,
    partitions,
)

# named_characters' inner product, looked up there on each access: the
# benchmark's tracer times it under this name
__getattr__ = _forward(__name__, "named_characters", ("inner_product",))


def _beads(lam: Partition, count: int) -> int:
    """The beta-set of lam on `count` beads as a bit mask: row i, padding
    with empty rows, puts a bead at lam_i + count - 1 - i."""
    lam = lam + (0,) * (count - len(lam))
    return sum(1 << (part + count - 1 - i) for i, part in enumerate(lam))


def _rim_hooks(shapes: dict[int, int], cycles, grow: bool) -> dict[int, int]:
    """The Murnaghan-Nakayama rule on bead masks: per cycle length l, each
    shape of {mask: value} gains (grow) or loses a rim hook of length l,
    which joins bead positions t and t + l of which one holds a bead (t
    to add, t + l to remove); the bead moves to the other end, with sign
    (-1)**(beads jumped).  A loop, so thousands of cycles are fine."""
    for length in cycles:
        moved: dict[int, int] = {}
        for mask, value in shapes.items():
            ends = (mask ^ (mask >> length)) & (mask if grow else ~mask)
            while ends:
                low = ends & -ends
                ends ^= low
                new = mask ^ low ^ (low << length)
                jumped = (mask & ((low << length) - (low << 1))).bit_count()
                moved[new] = moved.get(new, 0) + (-value if jumped % 2 else value)
        shapes = {m: v for m, v in moved.items() if v}
    return shapes


def _mn_column(mu: Partition) -> dict[int, int]:
    """chi_lam(mu) for every shape lam of |mu|, as {_beads(lam, |mu|):
    value}, the character table's column at mu: the rim hooks are added
    upwards from the empty shape, last cycle first."""
    count = sum(mu)
    return _rim_hooks({(1 << count) - 1: 1}, reversed(mu), grow=True)


def _mn_value(lam: Partition, mu: Partition) -> int:
    """mn_character of two checked partitions, such as parse_partition
    returns: the rim hooks are removed downwards from lam's beads, longest
    first, so every shape on the way lies inside lam, and the value is
    what reaches the empty shape."""
    if sum(lam) != sum(mu):
        raise DomainError(
            f"shape {lam!r} and cycle type {mu!r} index different symmetric groups"
        )
    count = len(lam)
    return _rim_hooks({_beads(lam, count): 1}, mu, grow=False).get((1 << count) - 1, 0)


@lru_cache(maxsize=None)
def class_sizes(n: int) -> tuple[int, ...]:
    """Sizes of the conjugacy classes of S_n, in partitions(n) order."""
    order = factorial(n)
    return tuple(order // centralizer_order(mu) for mu in partitions(n))


@lru_cache(maxsize=None)
def character_table(n: int) -> dict[Partition, tuple[int, ...]]:
    """Integer character table of S_n: each irreducible's values on the
    classes in partitions(n) order, one Murnaghan-Nakayama pass per class.
    The dict is shared by every caller and must not be mutated."""
    columns = [_mn_column(mu) for mu in partitions(n)]
    table = {}
    for lam in partitions(n):
        key = _beads(lam, n)
        table[lam] = tuple(col.get(key, 0) for col in columns)
    return table


def as_multiplicity(value, what: str) -> int:
    """value, an int or a Fraction, as a nonnegative int.  Anything else
    means an averaged function was not the character of a representation,
    an upstream bug, reported as ConsistencyError("<what> <value>"), with
    a numerator or denominator past the int-to-str cap shown by its
    number of digits."""
    if value.denominator != 1 or value < 0:
        terms = (value.numerator, value.denominator)[: 1 + (value.denominator != 1)]
        raise ConsistencyError(f"{what} {'/'.join(map(_shown, terms))}")
    return int(value)


def _shown(n: int) -> str:
    try:
        return str(n)
    except ValueError:  # past the int-to-str cap
        digits = int(log10(abs(n)))  # floor(log10 |n|), or one off near a power of ten
        digits += (abs(n) >= 10 ** (digits + 1)) - (abs(n) < 10**digits)
        return f"{'-' * (n < 0)}<{digits + 1} digits>"


class ClassFunction:
    """Exact rational-valued function on the conjugacy classes of S_n."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        self._take(int(n), {check_partition(k): v for k, v in values.items()})

    def _take(self, n: int, vals: dict) -> None:
        # the constructor's checks on a table whose keys are partition
        # tuples already, then the table becomes this function's
        self.n = n
        if self.n < 0:
            partitions(self.n)  # refuses a negative n
        # count the classes before enumerating them: a table of the wrong
        # size is refused without building p(n) partitions
        if partition_count(self.n, cap=len(vals)) != len(vals) or not all(
            map(vals.__contains__, partitions(self.n))
        ):
            # the message counts the classes only up to a cap: the exact
            # p(n) of a large n costs seconds and has hundreds of digits
            count = partition_count(self.n, cap=10**9)
            which = f"exactly the {count}" if count <= 10**9 else "all of its more than 10^9"
            raise DomainError(
                f"class function on S_{self.n} must be defined on {which} cycle types"
            )
        self.values = vals

    @classmethod
    def _unchecked(cls, n: int, values: dict) -> "ClassFunction":
        """A class function the package built itself, keyed by exactly
        the partitions of n: taken as it is, with none of the checks of
        the constructor.  The dict becomes the new table, so the caller
        must not keep it."""
        f = object.__new__(cls)
        f.n, f.values = n, values
        return f

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ClassFunction)
            and self.n == other.n
            and self.values == other.values
        )

    def __repr__(self) -> str:
        vals = ", ".join(
            f"{format_partition(mu) or '()'}: {self.values[mu]}"
            for mu in partitions(self.n)
        )
        return f"ClassFunction(S_{self.n}, {{{vals}}})"

    def dimension(self):
        """Value at the identity class."""
        return self.values[(1,) * self.n if self.n else ()]

    def to_mapping(self) -> dict[str, object]:
        return {
            format_partition(mu): exact_obj(self.values[mu])
            for mu in partitions(self.n)
        }


def exact_obj(v):
    """An exact number as JSON: an int, or "p/q" in lowest terms."""
    if type(v) is int:
        return v
    p, q = v.as_integer_ratio()
    return p if q == 1 else f"{p}/{q}"


def exact_quotient(num, den: int = 1):
    """num / den, num anything Fraction() reads and den a nonzero int: an
    int where the division is exact, else the Fraction in lowest terms.
    The package's one spelling of that rule; fractions is imported on the
    Fraction path alone."""
    if type(num) is int:
        q, r = divmod(num, den)
        if not r:
            return q
    from fractions import Fraction

    value = Fraction(num) / den
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=None)
def irreducible_character(lam: Partition) -> ClassFunction:
    lam = check_partition(lam)
    n = sum(lam)
    return ClassFunction._unchecked(n, {mu: _mn_value(lam, mu) for mu in partitions(n)})


class IrrDecomposition:
    """An S_n-representation recorded as irreducible multiplicities."""

    __slots__ = ("n", "mult")

    def __init__(self, n: int, mult: dict | None = None):
        self._take(int(n), ((check_partition(lam), m) for lam, m in (mult or {}).items()))

    def _take(self, n: int, items) -> None:
        # the constructor's checks on (partition tuple, multiplicity)
        # pairs, one pair at a time, then the nonzero ones become this
        # decomposition's
        self.n = n
        if n < 0:
            partitions(n)  # refuses a negative n, as ClassFunction does
        clean: dict[Partition, int] = {}
        for lam, m in items:
            if sum(lam) != self.n:
                raise DomainError(f"{lam!r} is not a partition of {self.n}")
            if m != int(m) or m < 0:
                raise DomainError(f"multiplicity of {lam!r} must be a nonnegative integer")
            if m:
                clean[lam] = int(m)
        self.mult = clean

    @classmethod
    def _unchecked(cls, n: int, mult: dict) -> "IrrDecomposition":
        """A decomposition the package built itself, {partition of n:
        positive int}: taken as it is, with none of the checks of the
        constructor.  The dict becomes the new table, so the caller must
        not keep it."""
        d = object.__new__(cls)
        d.n, d.mult = n, mult
        return d

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IrrDecomposition)
            and self.n == other.n
            and self.mult == other.mult
        )

    def __repr__(self) -> str:
        body = ", ".join(
            f"{format_partition(lam) or '()'}: {m}" for lam, m in self.items()
        )
        return f"IrrDecomposition(S_{self.n}, {{{body}}})"

    def items(self):
        """Constituents in lexicographic partition order."""
        return sorted(self.mult.items())

    def dimension(self) -> int:
        return sum(m * dimension(lam) for lam, m in self.mult.items())

    def to_mapping(self) -> dict[str, int]:
        return {format_partition(lam): m for lam, m in self.items()}


def decompose(f: ClassFunction) -> IrrDecomposition:
    """Decompose the character of a representation into irreducibles.

    Multiplicities are the inner products with the irreducible characters;
    a negative or non-integer multiplicity means f was not the character
    of an actual representation and signals an upstream bug.
    """
    n, order = f.n, factorial(f.n)
    weighted = [size * f.values[mu] for size, mu in zip(class_sizes(n), partitions(n))]
    mult = {}
    for lam, row in character_table(n).items():
        m = exact_quotient(sum(map(mul, weighted, row)), order)
        if type(m) is not int or m < 0:  # refused, with the exact value in the message
            as_multiplicity(
                m,
                f"not a representation character: multiplicity of "
                f"{format_partition(lam) or '()'} is",
            )
        if m:
            mult[lam] = m
    return IrrDecomposition._unchecked(n, mult)


def free_module_sum(
    generators: dict[int, IrrDecomposition], n_min: int, n_max: int
) -> "FreeLevels":
    """Levels n_min..n_max of the sum of free modules M(W_m) over {m: W_m}:
    by the Pieri rule each constituent rho of W_m adds its multiplicity to
    every horizontal-strip extension of rho with n boxes (none when n < m).
    A single level n is the window (n, n).

    In padded form lam[n]/rho is a horizontal strip iff n - |lam| >= rho_1
    >= lam_1 >= rho_2 >= lam_2 >= ..., so the shapes lam that rho reaches
    do not depend on n: each enters at level |lam| + rho_1 and stays.  The
    strips of rho at a level N <= m + rho_1 are the shapes that have
    entered by N; past m + rho_1 the first row takes every extra box.  So
    the strips of rho are enumerated once, at level min(n_max, m + rho_1),
    with the first row dropped, and a single level, however large, costs
    its strips alone.  Every multiplicity of lam[n] is a step function of
    n, and each level reads the shapes whose threshold it has passed.

    The levels are a read-only mapping kept as those thresholds
    (FreeLevels), and a window is written from them.  A padded shape
    lam[n] sorts by (-|lam|, lam) at every level, so the shapes are
    sorted once per window; a report key is the first row n - |lam|
    followed by a "+..." suffix formatted once per shape; and since each
    threshold adds to the unpadded table {lam: multiplicity} and nothing
    takes from it, the table is fixed from the last threshold in (n_min,
    n_max] on: the stability verdict.
    """
    entering: dict[int, list] = {}  # threshold -> [((|lam|, lam), multiplicity)]
    for m, w in generators.items():
        for rho, c in w.mult.items():
            first = rho[0] if rho else 0
            top = min(n_max, m + first)
            for mu in _strip_extensions(rho, top):
                size = top - mu[0] if mu else 0
                entering.setdefault(size + first, []).append(((size, mu[1:]), c))
    return FreeLevels(n_min, n_max, entering)


class FreeLevels(Mapping):
    """The read-only mapping {n: IrrDecomposition} of free_module_sum over
    n_min..n_max, kept as its thresholds: the levels between two
    thresholds hold the same shapes lam with the same multiplicities, as
    lam[n] = (n - |lam|, lam).  to_mapping(n) writes a level's report
    and stability() the window's verdict, as free_module_sum says."""

    __slots__ = ("n_min", "n_max", "_starts", "_tables", "_rows")

    def __init__(self, n_min: int, n_max: int, entering: dict[int, list]):
        self.n_min, self.n_max = n_min, n_max
        # one segment per threshold in (n_min, n_max], and one at n_min
        # for those at or below it: its first level, and its table
        # {(|lam|, lam): multiplicity}
        self._starts, self._tables = [n_min], []
        self._rows: list[list[tuple]] | None = None  # written on first use
        active: dict[tuple, int] = {}
        for threshold, adds in sorted(entering.items()):
            if threshold > self._starts[-1]:
                self._tables.append(active)
                self._starts.append(threshold)
                active = dict(active)
            for shape, c in adds:
                active[shape] = active.get(shape, 0) + c
        self._tables.append(active)

    def _segment(self, n: int) -> int:
        if not (type(n) is int and self.n_min <= n <= self.n_max):
            raise KeyError(n)
        return bisect_right(self._starts, n) - 1

    def __getitem__(self, n: int) -> IrrDecomposition:
        table = self._tables[self._segment(n)]
        # n - |lam| >= rho_1 > 0 unless rho and lam are both empty
        return IrrDecomposition._unchecked(
            n, {((n - size,) + lam if n > size else lam): c for (size, lam), c in table.items()}
        )

    def __iter__(self):
        return iter(range(self.n_min, self.n_max + 1))

    def __len__(self) -> int:
        return max(0, self.n_max - self.n_min + 1)

    def to_mapping(self, n: int) -> dict[str, int]:
        """self[n].to_mapping(), without a sort or a format_partition."""
        i = self._segment(n)
        if not n:  # the empty shape at level 0 has no first row to write
            return self[n].to_mapping()
        if self._rows is None:
            # every shape of the window is active at n_max
            order = sorted(self._tables[-1], key=lambda shape: (-shape[0], shape[1]))
            suffix = {shape: "".join(f"+{part}" for part in shape[1]) for shape in order}
            self._rows = [
                [(shape[0], suffix[shape], table[shape]) for shape in order if shape in table]
                for table in self._tables
            ]
        return {f"{n - size}{tail}": c for size, tail, c in self._rows[i]}

    def stability(self) -> tuple[int | None, dict[Partition, int]]:
        """The stable_from and stable_table of fi_analysis.detect_stability
        on the window, which must hold two levels or more: the last
        threshold in (n_min, n_max], or n_min if there is none, and None
        where it is n_max, since the last two levels then differ; and the
        unpadded table at n_max."""
        last = self._starts[-1]
        table = {lam: c for (_, lam), c in self._tables[-1].items()}
        return (None if last == self.n_max else last), table


def _poly_mul(p: dict[int, int], q: dict[int, int], cap: int) -> dict[int, int]:
    """Product of two sparse polynomials {degree: coefficient} up to degree
    cap.  Only the terms stored in either factor are visited; q must list
    its degrees in increasing order."""
    out: dict[int, int] = {}
    for a, x in p.items():
        for b, y in q.items():
            if a + b > cap:
                break
            out[a + b] = out.get(a + b, 0) + x * y
    return out


def partial_products(steps, cap: int) -> list[dict[int, int]]:
    """[1, s_1, s_1 s_2, ...] for the polynomials {degree: coefficient}
    that steps yields, each in rising degree, none negative.  Each product
    is cut at t^cap and kept in rising degree, as _poly_mul and
    cycle_product read their factors."""
    out = [{0: 1}]
    for step in steps:
        out.append(dict(sorted(_poly_mul(out[-1], step, cap).items())))
    return out


def cycle_product(n: int, cap: int, factors) -> ClassFunction:
    """The class function mu -> [t^cap] prod_r factors[r][z_r] of S_n, z_r
    the number of r-cycles of mu: a trace that factors over the cycles.
    factors[r][z] (z <= n // r) is a polynomial {degree: coefficient}, in
    rising degree as partial_products keeps it, so terms past t^cap are
    dropped as they arise."""
    values = {}
    for mu in partitions(n):
        series = {0: 1}
        for r, z in cycle_counts(mu).items():
            series = _poly_mul(series, factors[r][z], cap)
        values[mu] = series.get(cap, 0)
    return ClassFunction._unchecked(n, values)


def fixed_dimension(f: ClassFunction, a: int):
    """The average of f over the S_b that permutes the last b = n - a
    points, at the identity of S_a: sum over mu of b of |C_mu| f(mu + 1^a),
    divided by b!.  For a character, the dimension of the vectors that
    S_b fixes; a = 0 averages over the whole of S_n."""
    n = f.n
    if not 0 <= a <= n:
        raise DomainError(f"need 0 <= a <= {n}, got a={a}")
    b, ones = n - a, (1,) * a
    total = sum(size * f.values[mu + ones] for size, mu in zip(class_sizes(b), partitions(b)))
    return exact_quotient(total, factorial(b))
