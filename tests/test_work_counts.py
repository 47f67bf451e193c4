"""The exact solve, and the reports of os-scan and wreath-scan, do no
more work than their prices count.

fit-charpoly, fit-dimpoly and os-scan's window check price their one
`linalg.solve_exact` with `commands._solve_work(rows, cols, inserted,
level, degree, rhs, den)`.  Each request below runs in process, under the
work budget, and the test records what it priced and counts what the
solve did: the rows it built, the rows `IntRowBasis.insert` received, the
pivot rows `IntRowBasis.reduce` applied to each and their entries, and the
bits of every entry.  No count may exceed the priced one.

os-scan and wreath-scan price their reports at `commands._ENTRY_NS` a
reported value: the scalars of an os-scan payload number at most
`os_scan._entries(...)`, and wreath-scan prices exactly its
`invariant_dims` entries.

kunneth, m-module, decompose and character are priced by the steps of
their kernels: the term pairs `characters._poly_mul` visits, the
(class, shape) pairs of a decomposition, the horizontal strips of a
Pieri sum and the shapes and rim hooks of a Murnaghan-Nakayama walk.
Each test counts those steps and reads what the handler priced for each
kind with that kind's unit cost at 1 and every other at 0.  decompose
and kunneth's W_m grow Schur expansions instead (Horner's rule on the
class trie, Newton's identity) and are still priced by the (class,
shape) pairs of a character table: the states they grow are counted
and held to that price, or to a closed bound of their own.  Nothing is
timed, so nothing can flake.
"""

import json
from math import factorial

import pytest

from byte_grids import VECTORS, _trivial
from fistab import characters, cli, commands, induction, linalg, os_model
from fistab.cli import main
from fistab.commands import (
    character,
    decompose,
    fit_charpoly,
    fit_dimpoly,
    kunneth,
    m_module,
    os_scan,
    wreath_scan,
)
from fistab.errors import ConsistencyError
from fistab.partitions import format_partition, partition_counts, partitions


def _dims(table) -> str:
    return json.dumps({str(n): v for n, v in table.items()})


# (argv, whether it fits a polynomial): windows that pin it down, and
# windows and tables that do not or that no polynomial fits
GRID = [
    (["os-scan", "--n-min", "2", "--n-max", "5", "--k", "2", "--a-max", "0"], True),
    (["os-scan", "--n-min", "4", "--n-max", "5", "--k", "2", "--a-max", "0"], False),
    (["os-scan", "--n-min", "5", "--n-max", "7", "--k", "3", "--a-max", "0"], False),
    (["os-scan", "--n-min", "6", "--n-max", "10", "--k", "4", "--a-max", "0"], True),
    (["fit-charpoly", "--entries", _trivial(range(1, 9)), "--degree-bound", "5"], True),
    (["fit-charpoly", "--entries", _trivial(range(4, 6)), "--degree-bound", "4"], False),
    # (1 + X_1) / 3^50: each row cleared of a denominator of more than 64 bits
    (["fit-charpoly", "--entries", json.dumps({"entries": {
        str(n): {"+".join(map(str, mu)): f"{1 + mu.count(1)}/{3**50}" for mu in mus}
        for n, mus in ((2, [(1, 1), (2,)]), (3, [(1, 1, 1), (2, 1), (3,)]))}}),
      "--degree-bound", "1"], True),
    (["fit-dimpoly", "--dims", _dims({n: n * n + 1 for n in range(21)}), "--degree-bound", "5"], True),
    (["fit-dimpoly", "--dims", _dims({n: 7 for n in range(100, 131)}), "--degree-bound", "20"], True),
    (["fit-dimpoly", "--dims", _dims({n: n**3 for n in range(-10, 11)}), "--degree-bound", "6"], True),
    (["fit-dimpoly", "--dims", _dims({n: factorial(n) for n in range(40)}), "--degree-bound", "30"],
     False),
]


@pytest.mark.parametrize("argv, fits", GRID, ids=[" ".join(argv)[:50] for argv, _ in GRID])
def test_the_solve_does_no_more_than_it_was_priced_for(argv, fits, monkeypatch, capsys):
    priced, built, inserted, applied = [], [], [], []

    def price(*counts):
        priced.append(counts)
        return commands._solve_work(*counts)

    for handler in (fit_charpoly, fit_dimpoly, os_scan):
        monkeypatch.setattr(handler, "_solve_work", price)

    class CountedRows(list):
        # IntRowBasis.sparse_rows: reduce reads a pivot row by index only
        # when it applies it
        def __getitem__(self, r):
            row = super().__getitem__(r)
            applied[-1].append(len(row))
            return row

    init, insert = linalg.IntRowBasis.__init__, linalg.IntRowBasis.insert
    integer_row = linalg._integer_row

    def counted_init(self, width):
        init(self, width)
        self.sparse_rows = CountedRows()

    def counted_insert(self, vector):
        inserted.append(vector)
        applied.append([])
        return insert(self, vector)

    def counted_row(values):
        built.append(integer_row(values))
        return built[-1]

    monkeypatch.setattr(linalg.IntRowBasis, "__init__", counted_init)
    monkeypatch.setattr(linalg.IntRowBasis, "insert", counted_insert)
    monkeypatch.setattr(linalg, "_integer_row", counted_row)
    os_model._fit_refusal.cache_clear()  # os-scan keeps each window's verdict
    code = main(argv)
    out, err = capsys.readouterr()
    assert "work budget" not in err
    if argv[0] == "os-scan":  # the window check's verdict, in the report
        assert code == 0 and ("error" not in json.loads(out)["character_polynomial"]) == fits
    else:
        assert (code == 0) == fits, err
    assert len(priced) == 1 and built, priced
    rows, cols, n_inserted, level, degree, *rhs_den = priced[0]
    rhs, den = (*rhs_den, 0, 0)[:2]
    # the bits an unknown's entry may have, as priced: _solve_work of one
    # row of one column, inserted nowhere, is its words (and one for the
    # right-hand side) times _CELL_NS
    words = commands._solve_work(1, 1, 0, level, degree, 0, den) // commands._CELL_NS - 1
    assert len(built) <= rows
    assert len(inserted) <= n_inserted
    for row in built:
        assert len(row) == cols + 1
        assert max(map(int.bit_length, row[:-1])) <= 64 * words
        assert row[-1].bit_length() <= rhs
    for pivots in applied:
        assert len(pivots) <= cols
        assert all(entries <= cols + 1 for entries in pivots)


def test_a_table_too_short_to_fit_gets_the_fits_own_refusal(capsys):
    # no solve runs, so none is priced, however large the degree bound
    dims = _dims({n: 1 for n in range(10)})
    assert main(["fit-dimpoly", "--dims", dims, "--degree-bound", "1000000"]) == 1
    assert "need at least 1000002 points" in capsys.readouterr().err


def _scalars(node) -> int:
    # the values a report writes, an empty section counted as one
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return sum(map(_scalars, node)) or 1
    return 1


# (n_min, n_max) at each k: one level, two levels that the check must
# fit for k >= 1, and a long window past level 4k that pins it down
OS_WINDOWS = [
    (k, n_min, n_max)
    for k in range(10)
    for n_min, n_max in ((2 * k + 1, 2 * k + 1), (2 * k + 1, 2 * k + 2), (1, 4 * k + 12))
]


@pytest.mark.parametrize("k, n_min, n_max", OS_WINDOWS)
def test_an_os_scan_report_writes_no_more_entries_than_it_was_priced_for(k, n_min, n_max):
    top = min(2 * k, n_max)
    for a_max in range(4):
        argv = ["os-scan", "--n-min", str(n_min), "--n-max", str(n_max), "--k", str(k),
                "--a-max", str(a_max)]
        payload = os_scan.run(cli._parse(argv))
        maps = os_scan._maps(n_min, n_max, min(a_max, n_max - 1))
        priced = os_scan._entries(partition_counts(top), n_max - n_min + 1, top, maps)
        assert _scalars(payload) <= priced, (argv, _scalars(payload), priced)


@pytest.mark.parametrize("argv", [
    ["--graded-dims", "1,2", "--i", "3", "--n-max", "12"],
    ["--graded-dims", "1,3,2", "--i", "3", "--n-min", "5", "--n-max", "12"],
    ["--graded-dims", "1,0,3,1", "--i", "4", "--n-min", "7", "--n-max", "7"],
    # one odd class: nothing past degree 1, so no table is built
    ["--graded-dims", "1,1", "--i", "40", "--n-max", "40"],
])
def test_wreath_scan_prices_each_value_it_reports(argv, monkeypatch):
    priced = []

    def record(args, estimate, n=0, alternative=""):
        priced.append(estimate(partition_counts(n)))

    monkeypatch.setattr(wreath_scan, "_admit", record)
    monkeypatch.setattr(wreath_scan, "_ENTRY_NS", 1)
    monkeypatch.setattr(wreath_scan, "_FOLD_NS", 0)
    payload = wreath_scan.run(cli._parse(["wreath-scan", *argv]))
    assert priced == [len(payload["invariant_dims"])]


class _Priced(Exception):
    pass


def _price(handler, argv, monkeypatch, **units) -> int:
    """What handler.run prices argv at, each unit cost named in `units`
    set as given there, on the handler module and on fistab.commands
    (whose _table_work reads _PAIR_NS): its estimate, read at its
    _admit, which then stops the request before any kernel runs."""

    def admit(args, estimate, n=0, alternative=""):
        raise _Priced(estimate(partition_counts(n)))

    with monkeypatch.context() as patch:
        for name, value in units.items():
            for module in (handler, commands):
                if hasattr(module, name):
                    patch.setattr(module, name, value)
        patch.setattr(handler, "_admit", admit)
        with pytest.raises(_Priced) as priced:
            handler.run(cli._parse(argv))
    return priced.value.args[0]


def _pairs_visited(p: dict, q: dict, cap: int) -> int:
    # the (term of p, term of q) pairs _poly_mul's loops visit: for each
    # term of p, q's terms in rising degree, up to the first past cap
    return sum(min(len(q), sum(a + b <= cap for b in q) + 1) for a in p)


def _count_strips(monkeypatch) -> list[int]:
    # the horizontal strips each call of _strip_extensions returns
    strips, extensions = [], characters._strip_extensions

    def counted(lam, n):
        out = extensions(lam, n)
        strips.append(len(out))
        return out

    monkeypatch.setattr(characters, "_strip_extensions", counted)
    return strips


def _count_grown_states(monkeypatch) -> list[int]:
    # the shapes each Murnaghan-Nakayama grow starts from, summed: the
    # states of decompose's Horner walk and of kunneth's Newton identity
    states, rim_hooks = [0], characters._rim_hooks

    def counted(shapes, cycles, grow):
        if grow:
            states[0] += len(shapes)
        return rim_hooks(shapes, cycles, grow)

    for module in (characters, induction):
        monkeypatch.setattr(module, "_rim_hooks", counted)
    return states


# kunneth: the byte grid's vectors; three whose degrees with a class
# have a gcd above 1, so each class stores few of the degrees its trace
# term prices; and one with a gap
KUNNETH_VECTORS = [*VECTORS, "1,0,0,0,1", "1,0,2", "1,0,0,7", "1,1,0,1"]


@pytest.mark.parametrize("dims", KUNNETH_VECTORS)
def test_kunneth_visits_no_more_term_pairs_than_it_was_priced_for(dims, monkeypatch):
    graded = tuple(map(int, dims.split(",")))
    traces, decomposed = [], []  # [n, pairs visited] per trace; n per decomposition
    poly_mul, class_traces, decompose = characters._poly_mul, induction._class_traces, characters.decompose

    def counted_mul(p, q, cap):
        traces[-1][1] += _pairs_visited(p, q, cap)
        return poly_mul(p, q, cap)

    def counted_traces(dims, n, i):
        traces.append([n, 0])
        return class_traces(dims, n, i)

    monkeypatch.setattr(characters, "_poly_mul", counted_mul)
    monkeypatch.setattr(induction, "_class_traces", counted_traces)
    monkeypatch.setattr(characters, "decompose", lambda f: decomposed.append(f.n) or decompose(f))
    strips, states = _count_strips(monkeypatch), _count_grown_states(monkeypatch)
    steps = {"_CYCLE_NS": 0, "_PAIR_NS": 0, "_STRIP_NS": 0}
    for n in range(11):
        p = partition_counts(n)
        for i in range(16):
            argv = ["kunneth", "--graded-dims", dims, "--i", str(i), "--n", str(n), "--decompose"]
            traces.clear()
            decomposed.clear()
            strips.clear()
            states[0] = 0
            kunneth.run(cli._parse(argv))
            # the traces of V^(x)n alone, within their price; the W_m come
            # from Newton's identity, with no class function to decompose
            assert [m for m, _ in traces] == [n] and decomposed == [], argv
            priced = _price(kunneth, argv[:-1], monkeypatch, **{**steps, "_CYCLE_NS": 1})
            assert traces[0][1] <= priced, (argv, traces[0][1], priced)
            # H_m for m up to the largest generator size M: m grows, one per
            # l, of H_(m-l), at most p(m - l) shapes in each of i + 1 degrees
            top = max(induction._generator_sizes(graded, n, i), default=0)
            bound = (i + 1) * sum(p[m - l] for m in range(1, top + 1) for l in range(1, m + 1))
            assert states[0] <= bound, (argv, states[0], bound)
            priced = _price(kunneth, argv, monkeypatch, **{**steps, "_STRIP_NS": 1})
            assert sum(strips) <= priced, (argv, sum(strips), priced)


def test_m_module_returns_no_more_strips_than_it_was_priced_for(monkeypatch):
    strips = _count_strips(monkeypatch)
    steps = {"_STRIP_NS": 1, "_ROW_NS": 0, "_HOOK_NS": 0}
    for size in range(7):
        for lam in partitions(size):
            for n in range(max(size - 1, 0), size + 9):
                argv = ["m-module", "--n", str(n), "--lam", format_partition(lam) or "()"]
                strips.clear()
                m_module.run(cli._parse(argv))
                assert sum(strips) <= m_module._strips(lam, n), (argv, strips)
                assert sum(strips) <= _price(m_module, argv, monkeypatch, **steps), argv
    for m in range(8):
        p = partition_counts(m)
        for n in range(m + 10):
            argv = ["m-module", "--n", str(n), "--regular", str(m)]
            strips.clear()
            m_module.run(cli._parse(argv))
            assert sum(strips) <= commands._strip_pairs(p, m), (argv, strips)
            assert sum(strips) <= _price(m_module, argv, monkeypatch, **steps), argv


def test_decompose_grows_no_more_states_than_it_was_priced_for(monkeypatch):
    states = _count_grown_states(monkeypatch)
    for n in range(11):
        for dims, i in (("1,2", n), ("1,0,3,1", 3), ("1,3,2", 2)):
            # a representation's character: degree i of a Kunneth power
            values = induction.kunneth_power(tuple(map(int, dims.split(","))), n, i)
            argv = ["decompose", "--n", str(n), "--values", json.dumps(values.to_mapping())]
            states[0] = 0
            decompose.run(cli._parse(argv))
            # a trie node whose prefix is a partition of s holds at most
            # p(n - s) shapes: at most sum_s p(s) p(n - s) states in all
            p = partition_counts(n)
            priced = _price(decompose, argv, monkeypatch, _PAIR_NS=1)
            assert states[0] <= min(commands._strip_pairs(p, n), p[n] ** 2), (argv, states[0])
            assert p[n] ** 2 == priced, argv


@pytest.mark.parametrize("n", range(9))
def test_decompose_grows_only_the_classes_where_the_function_is_nonzero(n, monkeypatch):
    # a subtree of the class trie with no class where f is nonzero grows
    # nothing: the zero function grows no state, and one nonzero on the
    # class mu alone grows mu's own walk, its parts largest first from
    # the empty shape, whatever its decomposition turns out to be
    states = _count_grown_states(monkeypatch)
    characters.decompose(characters.ClassFunction(n, dict.fromkeys(partitions(n), 0)))
    assert states[0] == 0
    for mu in partitions(n):
        walk = [len(characters._rim_hooks({(1 << n) - 1: 1}, mu[:k], True)) for k in range(len(mu))]
        states[0] = 0
        try:
            characters.decompose(characters.ClassFunction(n, {nu: int(nu == mu) for nu in partitions(n)}))
        except ConsistencyError:  # not a character: the totals are grown first
            pass
        assert states[0] == sum(walk), (mu, states[0], walk)


def _removable(mask: int, length: int) -> int:
    # the rim hooks of `length` boxes that the shape of a bead mask can
    # lose: one per bead at b >= length with no bead at b - length
    beads = [b for b in range(length, mask.bit_length()) if mask >> b & 1]
    return sum(not mask >> (b - length) & 1 for b in beads)


def test_character_meets_no_more_shapes_and_hooks_than_it_was_priced_for(monkeypatch):
    walks = []  # per value: [shapes met, rim hooks tried]
    rim_hooks = characters._rim_hooks

    def counted(shapes, cycles, grow):
        # the downward walk one cycle at a time: the shapes it holds
        # before each cycle and after the last, and the hooks they try
        assert not grow
        walks.append([0, 0])
        for length in cycles:
            walks[-1][0] += len(shapes)
            walks[-1][1] += sum(_removable(mask, length) for mask in shapes)
            shapes = rim_hooks(shapes, [length], grow)
        walks[-1][0] += len(shapes)
        return shapes

    monkeypatch.setattr(characters, "_rim_hooks", counted)
    steps = {"_PAIR_NS": 1, "_WORD_NS": 0}
    for n in range(9):
        for lam in partitions(n):
            inside, shape = character._shapes_inside(lam), format_partition(lam) or "()"
            for mu in partitions(n):
                argv = ["character", "--lam", shape, "--mu", format_partition(mu) or "()"]
                walks.clear()
                character.run(cli._parse(argv))
                [(met, hooks)] = walks
                assert met <= inside and hooks <= len(lam) * met, (argv, met, hooks)
                assert hooks <= _price(character, argv, monkeypatch, **steps), argv
            argv = ["character", "--lam", shape]
            characters.irreducible_character.cache_clear()
            walks.clear()
            character.run(cli._parse(argv))
            # one walk per value, p(n) of them
            assert len(walks) == len(partitions(n)), argv
            assert all(met <= inside for met, _ in walks), argv
            priced = _price(character, argv, monkeypatch, **steps)
            assert sum(met for met, _ in walks) <= priced, (argv, walks, priced)
