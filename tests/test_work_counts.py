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
`invariant_dims` entries.  Nothing is timed, so nothing can flake.
"""

import json
from math import factorial

import pytest

from byte_grids import _trivial
from fistab import cli, commands, linalg, os_model
from fistab.cli import main
from fistab.commands import fit_charpoly, fit_dimpoly, os_scan, wreath_scan
from fistab.partitions import partition_counts


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
