import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import comb, factorial
from pathlib import Path

import pytest

import fistab
from fistab import fi_analysis
from fistab.cli import SUBCOMMANDS, build_parser, main
from fistab.commands import WORK_BUDGET, _BYTE_NS, _CELL_NS, _seconds, _solve_work, _strip_pairs
from fistab.commands.character import _shapes_inside
from fistab.commands.m_module import _strips
from fistab.commands.os_scan import _maps
from fistab.partitions import dimension, parse_partition, partition_counts, partitions
from character_oracles import horizontal_strip_extensions
from os_oracles import betti


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_a_second_request_of_a_subcommand_imports_nothing(capsys, monkeypatch):
    # cli._module imports a handler module, a writer or the reader of
    # exact numbers on its first use and keeps it for the process
    from fistab import cli

    requests = [
        ["bounds", "--alpha", "1/2", "--beta", "1", "--i", "3"],
        ["os-scan", "--n-min", "2", "--n-max", "4", "--k", "1", "--format", "text"],
    ]
    for argv in requests:
        assert run(capsys, *argv)[0] == 0
    imported = []
    monkeypatch.setattr(cli, "import_module", imported.append)
    for argv in requests:
        assert run(capsys, *argv)[0] == 0
    assert imported == []


def test_table1_moduli(capsys):
    payload = run_json(capsys, "table1", "--row", "moduli", "--i", "2")
    assert payload["N"] == 12
    assert payload["length"] == 5
    assert payload["char_degree"] == 4


def test_bounds_abutment(capsys):
    payload = run_json(capsys, "bounds", "--alpha", "0", "--beta", "1", "--i", "3")
    assert (payload["injectivity"], payload["surjectivity"]) == (6, 3)


def test_bounds_page_and_fisharp(capsys):
    payload = run_json(
        capsys, "bounds", "--alpha", "0", "--beta", "1", "--i", "0",
        "--page", "4", "--p", "2", "--q", "1",
    )
    assert (payload["injectivity"], payload["surjectivity"]) == (3, 1)
    payload = run_json(
        capsys, "bounds", "--alpha", "1", "--beta", "2", "--i", "3", "--fisharp"
    )
    assert payload["fisharp_degree"] == 6


def test_character_single_value(capsys):
    payload = run_json(capsys, "character", "--lam", "2+1", "--mu", "1+1+1")
    assert payload["value"] == 2


def test_character_of_a_class_with_many_cycles(capsys):
    identity = "+".join(["1"] * 1200)
    for lam, value in (("1200", 1), ("1199+1", 1199)):
        code, out, err = run(capsys, "character", "--lam", lam, "--mu", identity)
        assert code == 0 and not err
        assert json.loads(out)["value"] == value


def test_character_of_a_long_cycle_in_a_fresh_process():
    # one rim hook of a million boxes, removed in a fresh interpreter so
    # that a hang fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fistab.cli", "character", "--lam", "1000000", "--mu", "1000000"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and not proc.stderr
    assert json.loads(proc.stdout)["value"] == 1
    assert elapsed < 2.0, elapsed


def test_character_whole_class_function(capsys):
    payload = run_json(capsys, "character", "--lam", "2+1")
    assert payload["values"] == {"1+1+1": 2, "2+1": 0, "3": -1}


def test_decompose_inline(capsys):
    values = json.dumps({"1+1+1": 3, "2+1": 1, "3": 0})
    payload = run_json(capsys, "decompose", "--n", "3", "--values", values)
    assert payload["decomposition"] == {"2+1": 1, "3": 1}
    assert payload["dimension"] == 3


def test_decompose_non_representation_exits_1(capsys):
    # the table is the user's input, so a domain error, not an internal one
    values = json.dumps({"1+1+1": 1, "2+1": 1, "3": 0})
    code, out, err = run(capsys, "decompose", "--n", "3", "--values", values)
    assert (code, out) == (1, "")
    assert err == "fistab: not a representation character: multiplicity of 1+1+1 is -1/3\n"


def test_m_module(capsys):
    payload = run_json(capsys, "m-module", "--lam", "2", "--n", "4")
    assert payload["decomposition"] == {"2+2": 1, "3+1": 1, "4": 1}
    payload = run_json(capsys, "m-module", "--regular", "2", "--n", "3")
    assert payload["dimension"] == 6


def test_m_module_dimension_is_the_sum_over_constituents(capsys):
    # the reported closed forms C(n, |lam|) dim(lam) and n!/(n-m)!
    def summed(payload):
        dec = payload["decomposition"]
        return sum(m * dimension(parse_partition(lam)) for lam, m in dec.items())

    for n in range(0, 9):
        for size in range(0, 6):
            for lam in partitions(size):
                flag = "+".join(map(str, lam)) or "()"
                payload = run_json(capsys, "m-module", "--lam", flag, "--n", str(n))
                assert payload["dimension"] == summed(payload), (lam, n)
            payload = run_json(capsys, "m-module", "--regular", str(size), "--n", str(n))
            assert payload["dimension"] == summed(payload), (size, n)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str cap")
def test_m_module_dimension_past_the_int_to_str_digit_cap(capsys):
    # dim of the 60 x 60 square has more digits than the default cap on
    # int-to-str conversion (4300); every format prints it in full
    square = "+".join(["60"] * 60)
    runs = [run(capsys, "m-module", "--lam", square, "--n", "3600", "--format", fmt)
            for fmt in ("json", "text", "csv")]
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = str(dimension((60,) * 60))
    finally:
        sys.set_int_max_str_digits(cap)
    assert len(digits) > 4300
    for code, out, err in runs:
        assert code == 0 and digits in out, err


def test_m_module_flag_exclusivity(capsys):
    code, _, err = run(capsys, "m-module", "--n", "4")
    assert code == 1
    code, _, err = run(capsys, "m-module", "--n", "4", "--lam", "1", "--regular", "1")
    assert code == 1


def test_stability_scan_roundtrip(capsys, tmp_path):
    seq = {
        "window": [2, 5],
        "entries": {
            "2": {"2": 1},
            "3": {"3": 1, "2+1": 1},
            "4": {"4": 1, "3+1": 1},
            "5": {"5": 1, "4+1": 1},
        },
    }
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(seq))
    payload = run_json(capsys, "stability-scan", "--input", str(path))
    assert payload["stabilized"] is True
    assert payload["stable_from"] == 3
    assert payload["stable_table"] == {"": 1, "1": 1}


def test_fit_dimpoly(capsys):
    dims = json.dumps({str(n): n * (n - 1) // 2 for n in range(2, 8)})
    payload = run_json(capsys, "fit-dimpoly", "--dims", dims, "--degree-bound", "3")
    assert payload["polynomial"]["binomial_coeffs"] == {"2": 1}
    assert payload["polynomial"]["degree"] == 2


def test_fit_charpoly(capsys):
    entries = {"window": [4, 6], "entries": {}}
    from fistab.os_reference import character

    for n in (4, 5, 6):
        entries["entries"][str(n)] = character(n, 1).to_mapping()
    payload = run_json(
        capsys, "fit-charpoly", "--entries", json.dumps(entries), "--degree-bound", "2"
    )
    labels = [t["monomial"] for t in payload["polynomial"]["terms"]]
    assert labels == ["C(Z1,2)", "Z2"]


def test_os_scan_small_window(capsys):
    payload = run_json(
        capsys, "os-scan", "--n-min", "2", "--n-max", "5", "--k", "1", "--a-max", "1"
    )
    assert payload["betti"] == {"2": 1, "3": 3, "4": 6, "5": 10}
    assert payload["stability"]["stable_from"] == 4
    assert payload["stability"]["stable_table"] == {"": 1, "1": 1, "2": 1}
    assert payload["coinvariants"]["0"]["3"]["injective"] is True


def test_os_scan_respects_the_work_budget(capsys, monkeypatch):
    # the fit of 272 monomials over the 2042 classes of S_8..S_19 is
    # estimated over the budget; --allow-large runs it
    scan = ("os-scan", "--n-min", "8", "--n-max", "19", "--k", "6", "--a-max", "0")
    monkeypatch.setenv("FISTAB_MAX_N", "100")  # no longer read
    code, out, err = run(capsys, *scan)
    assert code == 1 and not out and _one_line_error(err)
    assert "work budget" in err and "--allow-large" in err
    payload = run_json(capsys, *scan, "--allow-large")
    assert payload["character_polynomial"]["weighted_degree"] == 12
    monkeypatch.setenv("FISTAB_MAX_N", "1")
    assert run(capsys, "os-scan", "--n-min", "9", "--n-max", "11", "--k", "0")[0] == 0


def test_os_scan_a_max_past_the_window(capsys):
    # no coinvariant map starts at a >= n-max: a huge --a-max costs nothing
    scan = ("os-scan", "--n-min", "2", "--n-max", "4", "--k", "1", "--a-max")
    assert run(capsys, *scan, "1000000000") == run(capsys, *scan, "3")


def test_work_estimate_counts():
    # the counts behind the work budget, against enumeration
    for n in range(0, 9):
        for lam in partitions(n):
            inside = sum(
                1 for k in range(n + 1) for nu in partitions(k)
                if len(nu) <= len(lam) and all(a <= b for a, b in zip(nu, lam))
            )
            assert _shapes_inside(lam) == inside, lam
            for level in range(n - 1, 2 * n + 2):
                strips = len(horizontal_strip_extensions(lam, level))
                # exact once the first row can take every box left over
                if level - n >= (lam[0] if lam else 0):
                    assert _strips(lam, level) == strips, (lam, level)
                else:
                    assert _strips(lam, level) >= strips, (lam, level)
    # few boxes on many rows: C(boxes + rows, boxes), not 2^31
    staircase = tuple(range(30, 0, -1))
    assert [_strips(staircase, 465 + b) for b in range(3)] == [1, 31, 496]
    assert [len(horizontal_strip_extensions(staircase, 465 + b)) for b in range(3)] == [1, 31, 466]
    for m in range(0, 9):
        p = partition_counts(m + 3)  # longer than needed, as in kunneth
        for level in range(m, 2 * m + 1):
            every = sum(len(horizontal_strip_extensions(lam, level)) for lam in partitions(m))
            if level == 2 * m:
                assert _strip_pairs(p, m) == every, m
            else:
                assert _strip_pairs(p, m) >= every, (m, level)
    # the coinvariant maps (a, n) of an os-scan, a <= a_top < n_max
    for n_min in range(1, 8):
        for n_max in range(n_min, 12):
            for a_top in range(n_max):
                maps = [(a, n) for a in range(a_top + 1) for n in range(max(n_min, a), n_max)]
                assert _maps(n_min, n_max, a_top) == len(maps), (n_min, n_max, a_top)
    # the exact solve prices each entry of a row by its 64-bit words; they
    # bound every binomial C(n, j) with |n| <= level, j <= degree (those of
    # fit-dimpoly, whose rows at n < 0 are +-C(j - n - 1, j)), and every
    # monomial on the classes of S_n, n <= level (those of the class fits).
    # One row of one unknown, inserted nowhere, costs its entry's words and
    # one word of right-hand side, each _CELL_NS
    for level in (*range(12), 63, 64, 65, 70, 200):
        for degree in (*range(min(level, 9) + 1), level // 2, level, level + 5):
            words = _solve_work(1, 1, 0, level, degree) // _CELL_NS - 1
            top = max(comb(n, j) for n in range(level + 1) for j in range(degree + 1))
            assert top.bit_length() <= 64 * words, (level, degree)
            if level <= 11:
                top = max(map(max, fi_analysis._class_rows(level, degree)))
                assert top.bit_length() <= 64 * words, (level, degree)
    # a fit with more unknowns than rows is refused before its solve
    assert _solve_work(5, 6, 5, 10, 3) == 0 < _solve_work(6, 6, 6, 10, 3)


def test_os_scan_degree_three(capsys):
    payload = run_json(
        capsys, "os-scan", "--n-min", "4", "--n-max", "6", "--k", "3", "--a-max", "0"
    )
    assert payload["betti"] == {"4": 6, "5": 50, "6": 225}
    # past level 4k a short window pins the polynomial down with no fit
    # (os_model.character_polynomial), so it is admitted; these are the
    # bytes it printed with --allow-large when it was still fitted over
    # every class of S_39 and S_40
    code, out, err = run(capsys, "os-scan", "--n-min", "39", "--n-max", "40", "--k", "3")
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2b53f1692e3784fc1de5a35ff6a4243eaa05b9be61f26c77bf9654b5f4b895f1"
    )
    # twenty thousand levels, each with its report and coinvariant maps
    code, _, err = run(capsys, "os-scan", "--n-min", "2", "--n-max", "20000", "--k", "3")
    assert code == 1 and "work budget" in err


def test_os_scan_stays_within_table1_config_surface_open(capsys):
    # the paper's bounds for the configuration spaces of an open surface,
    # against computed data: weight <= 2i, character degree <= 2i and
    # stability from N = 5i, on a window that reaches past 5i
    for k in range(1, 7):
        row = run_json(capsys, "table1", "--row", "config_surface_open", "--i", str(k))
        scan = run_json(
            capsys, "os-scan", "--n-min", "2", "--n-max", str(5 * k + 2), "--k", str(k),
            "--a-max", "0",
        )
        stable = scan["stability"]
        weight = max(sum(parse_partition(root)) for root in stable["stable_table"])
        assert weight <= row["derived"]["weight"] == 2 * k, k
        degree = scan["character_polynomial"]["weighted_degree"]
        assert degree <= row["char_degree"] == 2 * k, k
        assert stable["stabilized"] and stable["stable_from"] <= row["N"] == 5 * k, k


def test_wreath_scan(capsys):
    payload = run_json(
        capsys, "wreath-scan", "--graded-dims", "1,2", "--i", "1",
        "--n-min", "1", "--n-max", "6",
    )
    assert payload["invariant_dims"]["3"] == 2
    assert payload["constant_on_tail"] is True


def test_kunneth(capsys):
    payload = run_json(
        capsys, "kunneth", "--graded-dims", "1,1", "--n", "2", "--i", "1", "--decompose"
    )
    assert payload["character"] == {"1+1": 2, "2": 0}
    assert payload["decomposition"] == {"1+1": 1, "2": 1}


def test_usage_errors_exit_64(capsys):
    code, _, err = run(capsys, "no-such-command")
    assert code == 64
    code, _, err = run(capsys, "bounds", "--alpha", "0")
    assert code == 64
    code, _, err = run(capsys)
    assert code == 64
    # Fraction("2/0") raises ZeroDivisionError, which _fraction reads as a bad value
    for alpha, beta, bad in (("x", "2", "--alpha"), ("1/0", "2", "--alpha"),
                             ("1", "x", "--beta"), ("1", "2/0", "--beta")):
        code, out, err = run(capsys, "bounds", "--alpha", alpha, "--beta", beta, "--i", "3")
        assert code == 64 and not out and "Traceback" not in err, (alpha, beta)
        value = alpha if bad == "--alpha" else beta
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [f"fistab bounds: error: argument {bad}: invalid Fraction value: {value!r}"]


def test_domain_error_exits_1(capsys):
    code, _, err = run(capsys, "table1", "--row", "moduli", "--i", "-1")
    assert code == 1
    assert "nonnegative" in err


def test_negative_bound_constants_name_their_values(capsys):
    code, out, err = run(capsys, "bounds", "--alpha", "-1", "--beta", "1", "--i", "2")
    assert (code, out) == (1, "")
    assert err == "fistab: constants must be nonnegative, got alpha=-1, beta=1\n"
    assert "Fraction(" not in err and "BoundParams(" not in err


def test_inline_table_and_input_are_refused_together(capsys, monkeypatch, tmp_path):
    # an inline table never silently wins over --input: both at once, like
    # neither, is refused before any file is read or any budget priced
    missing = str(tmp_path / "missing.json")
    touched = []
    real_open, real_stat = open, os.stat
    monkeypatch.setattr("builtins.open", lambda path, *a, **kw: (
        touched.append(path) or real_open(path, *a, **kw)))
    monkeypatch.setattr(os, "stat", lambda path, *a, **kw: (
        touched.append(path) or real_stat(path, *a, **kw)))
    cases = [
        (["decompose", "--n", "100000", "--values", '{"1+1+1": 3, "2+1": 1, "3": 0}'], "values"),
        (["stability-scan", "--entries", "[]"], "entries"),
        (["fit-charpoly", "--entries", "[]", "--degree-bound", "1"], "entries"),
        (["fit-dimpoly", "--dims", '{"2": 1}', "--degree-bound", "1"], "dims"),
    ]
    for argv, flag in cases:
        at = argv.index(f"--{flag}")
        for request in ([*argv, "--input", missing], argv[:at] + argv[at + 2:]):
            code, out, err = run(capsys, *request)
            assert code == 1 and not out and _one_line_error(err), (request, err)
            assert err == f"fistab: give exactly one of --{flag} or --input\n"
    assert missing not in touched


def test_bad_user_input_exits_1(capsys):
    code, _, err = run(capsys, "character", "--lam", "2+x")
    assert code == 1 and "partition" in err
    code, _, err = run(capsys, "stability-scan", "--input", "/no/such/file.json")
    assert code == 1
    code, _, err = run(capsys, "decompose", "--n", "2", "--values", '{"1+1": "x", "2": 0}')
    assert code == 1 and "rational" in err
    code, _, err = run(capsys, "decompose", "--n", "2", "--values", "not json")
    assert code == 1 and "JSON" in err
    code, _, err = run(capsys, "fit-dimpoly", "--dims", '{"a": 1}', "--degree-bound", "1")
    assert code == 1
    dims = '{"2": true, "3": 2, "4": 3}'  # read as 1, a line would fit
    code, out, err = run(capsys, "fit-dimpoly", "--dims", dims, "--degree-bound", "1")
    assert code == 1 and not out and _one_line_error(err)
    dims = '{"2": 2.9, "3": "3", "4": 4}'  # read as 2 and 3, a line would fit
    code, out, err = run(capsys, "fit-dimpoly", "--dims", dims, "--degree-bound", "1")
    assert code == 1 and not out and _one_line_error(err)
    dims = '{"2": 1, "3": 2, "4": 3}'
    code, out, err = run(capsys, "fit-dimpoly", "--dims", dims, "--degree-bound", "-5")
    assert code == 1 and not out and "degree bound must be nonnegative" in err
    code, _, err = run(capsys, "kunneth", "--graded-dims", "1,x", "--n", "2", "--i", "1")
    assert code == 1


def test_output_to_file_and_formats(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "table1", "--row", "bpdiff", "--i", "1", "--out", str(out)
    )
    assert code == 0 and stdout == ""
    assert json.loads(out.read_text())["N"] == 3

    code, text, _ = run(capsys, "table1", "--row", "bpdiff", "--i", "1", "--format", "text")
    assert code == 0
    assert "N            3" in text

    code, csv_out, _ = run(capsys, "table1", "--row", "bpdiff", "--i", "1", "--format", "csv")
    assert code == 0
    assert "N,3" in csv_out.splitlines()


def test_byte_identical_reruns(capsys):
    first = run(capsys, "os-scan", "--n-min", "2", "--n-max", "4", "--k", "1")
    second = run(capsys, "os-scan", "--n-min", "2", "--n-max", "4", "--k", "1")
    assert first == second


def test_config_file_defaults_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("# defaults\nrow=moduli\ni=1\n")
    payload = run_json(capsys, "table1", "--config", str(cfg))
    assert payload["N"] == 6
    # explicit flags beat the config
    payload = run_json(capsys, "table1", "--config", str(cfg), "--i", "2")
    assert payload["N"] == 12


def test_config_joined_to_its_path_is_spliced_too(capsys, tmp_path):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("row=moduli\ni=1\n")
    joined = run_json(capsys, "table1", f"--config={cfg}")
    assert joined == run_json(capsys, "table1", "--config", str(cfg))
    assert run_json(capsys, "table1", "--i", "2", f"--config={cfg}")["N"] == 12
    # a flag that only starts like it is left over, as any unknown flag
    code, out, err = run(capsys, "table1", "--row", "moduli", "--i", "1", f"--configx={cfg}")
    assert (code, out) == (64, "") and err.endswith(f"unrecognized arguments: --configx={cfg}\n")


def test_config_file_boolean(capsys, tmp_path):
    cfg = tmp_path / "w.cfg"
    cfg.write_text("graded-dims=1,1\ni=0\nn-max=3\n")
    payload = run_json(capsys, "wreath-scan", "--config", str(cfg))
    assert payload["invariant_dims"] == {"0": 1, "1": 1, "2": 1, "3": 1}


# a small request of each subcommand that runs, so that the flag under
# test is what decides the answer
CONFIG_BASE = {
    "character": {"--lam": "2+1"},
    "decompose": {"--n": "2", "--values": '{"1+1": 1, "2": 1}'},
    "m-module": {"--n": "3", "--lam": "1"},
    "stability-scan": {"--entries": '{"entries": {"2": {"2": 1}, "3": {"3": 1}}}'},
    "fit-charpoly": {
        "--entries": '{"entries": {"2": {"1+1": 1, "2": 1}, "3": {"1+1+1": 1, "2+1": 1, "3": 1}}}',
        "--degree-bound": "0",
    },
    "fit-dimpoly": {"--dims": '{"2": 1, "3": 2, "4": 3}', "--degree-bound": "1"},
    "bounds": {"--alpha": "1", "--beta": "2", "--i": "3"},
    "table1": {"--row": "moduli", "--i": "1"},
    "os-scan": {"--n-min": "2", "--n-max": "3", "--k": "1"},
    "wreath-scan": {"--graded-dims": "1,1", "--i": "1", "--n-max": "3"},
    "kunneth": {"--graded-dims": "1,1", "--n": "2", "--i": "1"},
}
CONFIG_VALUES = ("--x", "-h", "true", "false", "TRUE", "1", "")


def _config_token(flag, value):
    # the argv a config line stands for: --key=value, but a switch given
    # true or false is the bare flag or nothing
    if flag.type is bool and value.lower() in ("true", "false"):
        return [flag.option] if value.lower() == "true" else []
    return [f"{flag.option}={value}"]


def test_a_config_line_is_its_argv_token(capsys, tmp_path, monkeypatch):
    # every flag of every subcommand, written once as a config line and
    # once as its token on the command line, in the same place: right
    # after the subcommand's name
    monkeypatch.chdir(tmp_path)  # --out=1 and its like write here
    assert set(CONFIG_BASE) == set(SUBCOMMANDS)
    cfg = tmp_path / "line.cfg"
    for command, (_, flags) in SUBCOMMANDS.items():
        for flag in flags:
            base = [t for o, v in CONFIG_BASE[command].items() if o != flag.option for t in (o, v)]
            for value in CONFIG_VALUES:
                cfg.write_text(f"{flag.option[2:]}={value}\n")
                spliced = run(capsys, command, "--config", str(cfg), *base)
                given = run(capsys, command, *_config_token(flag, value), *base)
                assert spliced == given, (command, flag.option, value)


def test_config_values_that_the_two_token_splice_misread(capsys, tmp_path):
    # a value the command line takes after "=" is taken from a config line
    # too, and true/false are read so only for a switch
    cases = [
        ("mu=false", ["--lam", "2+1"], 1, "fistab: bad partition string 'false'\n"),
        ("lam=--x", [], 1, "fistab: bad partition string '--x'\n"),
        ("allow-large=1", ["--lam", "2+1"], 64,
         "argument --allow-large: ignored explicit argument '1'\n"),
    ]
    cfg = tmp_path / "one.cfg"
    for line, argv, code, tail in cases:
        cfg.write_text(line + "\n")
        got, out, err = run(capsys, "character", "--config", str(cfg), *argv)
        assert (got, out) == (code, "") and err.endswith(tail), (line, err)


def _one_line_error(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and lines[0].startswith("fistab: ") and "Traceback" not in err


def test_unreadable_numbers_and_files_exit_1(capsys, tmp_path):
    # an infinite float, a file that is not UTF-8, an integer literal past
    # the interpreter's digit cap and deep nesting: one line each, no traceback
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe{}\n")
    long_int = "1" * 5000
    cases = [
        (["decompose", "--n", "2", "--values", '{"1+1": Infinity, "2": 0}'],
         "not an exact rational: inf"),
        (["stability-scan", "--entries", '{"entries": {"2": {"2": -Infinity}}}'],
         "not an exact rational: -inf"),
        (["fit-charpoly", "--degree-bound", "0",
          "--entries", '{"entries": {"2": {"2": 1e999, "1+1": 1}}}'],
         "not an exact rational: inf"),
        (["decompose", "--n", "2", "--input", str(bad)], "is not UTF-8 text"),
        (["decompose", "--n", "2", "--config", str(bad)], "is not UTF-8 text"),
        (["decompose", "--n", "2", "--values", f'{{"1+1": {long_int}, "2": 0}}'], "digits"),
        (["stability-scan", "--entries", f'{{"entries": {{"2": {{"2": {long_int}}}}}}}'],
         "digits"),
        (["fit-dimpoly", "--degree-bound", "0", "--dims", f'{{"2": {long_int}}}'], "digits"),
        (["decompose", "--n", "2", "--values", "[" * 100000], "nested too deeply"),
    ]
    long_input = tmp_path / "long.json"
    long_input.write_text(f'{{"1+1": 1, "2": {long_int}}}')
    cases.append((["decompose", "--n", "2", "--input", str(long_input)], "digits"))
    for argv, phrase in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and _one_line_error(err), argv
        assert phrase in err, (argv, err)


def _fresh_decompose(n, values, **env):
    # (exit code, stdout, stderr, seconds) of decompose in a fresh process
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]), **env)
    argv = ["decompose", "--n", str(n), "--values", json.dumps(values)]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "fistab.cli", *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr, time.monotonic() - start


@pytest.mark.parametrize("value", ["1e-5000", "1e5000", "1e-10000000", "2E+99999999"])
def test_a_json_value_past_the_digit_cap_is_refused_at_once(value):
    # once a traceback from printing it, or seconds spent in Fraction
    # expanding its exponent: now one line that names its key
    code, out, err, seconds = _fresh_decompose(1, {"1": value})
    assert (code, out) == (1, "")
    assert err == (
        f"fistab: the value at '1' has a numerator or denominator of more than "
        f"{sys.get_int_max_str_digits()} digits\n"
    )
    assert seconds < 1.0, seconds


def test_a_multiplicity_past_the_digit_cap_shows_its_digit_count():
    # two values under the cap whose sum is past it: its denominator,
    # 2 * 7^4000 * 10^4000, is shown by its number of digits, 7381
    values = {"2": f"1/{7**4000}", "1+1": "1e-4000"}
    code, out, err, seconds = _fresh_decompose(2, values)
    assert (code, out) == (1, "")
    assert _one_line_error(err) and err.endswith("/<7381 digits>\n"), err[-80:]
    assert err.startswith("fistab: not a representation character: multiplicity of 1+1 is -")
    assert seconds < 1.0, seconds


def test_a_multiplicity_under_the_digit_cap_keeps_its_bytes():
    code, out, err, seconds = _fresh_decompose(1, {"1": "1e-4000"})
    assert (code, out) == (1, "")
    assert err == f"fistab: not a representation character: multiplicity of 1 is 1/1{'0' * 4000}\n"
    assert seconds < 1.0, seconds


def test_without_a_digit_cap_every_json_value_is_read():
    code, out, err, _ = _fresh_decompose(1, {"1": "1e-5000"}, PYTHONINTMAXSTRDIGITS="0")
    assert (code, out) == (1, "")
    assert err.endswith(f"multiplicity of 1 is 1/1{'0' * 5000}\n")
    code, out, err, _ = _fresh_decompose(1, {"1": "1e5000"}, PYTHONINTMAXSTRDIGITS="0")
    assert (code, err) == (0, "")
    assert f'"decomposition": {{\n    "1": 1{"0" * 5000}\n  }}' in out


def test_sequence_schema_errors_exit_1(capsys):
    bad = [
        "[]",
        '"entries"',
        "{}",
        '{"entries": [1]}',
        '{"entries": {"x": {}}}',
        '{"entries": {"2": null}}',
        '{"entries": {"2": {"2": "x"}}}',
        '{"entries": {"2": {"2": 1.5}, "3": {"3": 1}}}',
        '{"entries": {"2": {"2": true}, "3": {"3": true}}}',
    ]
    for entries in bad:
        code, out, err = run(capsys, "stability-scan", "--entries", entries)
        assert code == 1 and not out and _one_line_error(err), (entries, err)
        code, out, err = run(
            capsys, "fit-charpoly", "--entries", entries, "--degree-bound", "1"
        )
        assert code == 1 and not out and _one_line_error(err), (entries, err)
    code, _, err = run(capsys, "decompose", "--n", "2", "--values", "[1, 2]")
    assert code == 1 and _one_line_error(err)


def test_stability_scan_refuses_a_negative_level(capsys):
    # no S_n with n < 0: the level is refused, not reported as stable
    code, out, err = run(
        capsys, "stability-scan", "--entries", '{"entries": {"-1": {}, "0": {}}}'
    )
    assert code == 1 and not out and _one_line_error(err), err
    assert "cannot partition a negative integer: -1" in err


def test_tables_that_give_one_key_twice_are_refused(capsys):
    # two keys that read as one partition, level or point, or one key
    # written twice in the JSON text: the last value must not silently win
    cases = [
        (("decompose", "--n", "3", "--values", '{"1+1+1": 3, "1+2": 5, "2+1": 1, "3": 0}'),
         "'1+2' and '2+1'"),
        (("decompose", "--n", "2", "--values", '{"2": 1, "2": 0, "1+1": 0}'), "'2' and '2'"),
        (("fit-dimpoly", "--dims", '{"01": 9, "1": 1, "2": 2, "3": 3}', "--degree-bound", "1"),
         "'01' and '1'"),
        (("stability-scan", "--entries",
          '{"entries": {"2": {"2": 1}, "02": {"2": 1}, "3": {"3": 1}}}'), "'2' and '02'"),
        (("stability-scan", "--entries",
          '{"entries": {"2": {"2": 1}, "3": {"3": 1, "2+1": 0, "1+2": 1}}}'), "'2+1' and '1+2'"),
        (("fit-charpoly", "--degree-bound", "0", "--entries",
          '{"entries": {"2": {"2": 1, "1+1": 1}, "02": {"2": 1, "1+1": 1}}}'), "'2' and '02'"),
    ]
    for argv, keys in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and _one_line_error(err), (argv, err)
        assert "gives one key twice: " + keys in err, (argv, err)


def test_os_scan_rejects_negative_degree(capsys):
    for flags in (("--k", "-1"), ("--k", "1", "--a-max", "-1")):
        code, out, err = run(capsys, "os-scan", "--n-min", "2", "--n-max", "4", *flags)
        assert code == 1 and not out and _one_line_error(err)
        assert "nonnegative" in err


def test_bounds_flags_of_another_mode_are_usage_errors(capsys):
    head = ("bounds", "--alpha", "0", "--beta", "1", "--i", "1")
    for extra in (
        ("--fisharp", "--page", "4", "--p", "2", "--q", "1"),
        ("--fisharp", "--degenerates-at", "3"),
        ("--page", "4", "--p", "2", "--q", "1", "--degenerates-at", "3"),
        ("--p", "2"),
        ("--page", "4"),
        ("--page", "4", "--p", "2"),
    ):
        code, out, err = run(capsys, *head, *extra)
        assert code == 64 and not out, extra
        assert err.strip().splitlines() == [err.strip()] and "error:" in err
    assert run(capsys, *head, "--fisharp")[0] == 0


def test_whole_character_of_a_huge_group_is_refused_quickly():
    # p(100) is about 1.9e8 classes and 6+5+5+4+4+3+3+2 has 1692 shapes
    # inside it, each evaluated on the 8349 classes of S_32: the report is
    # refused before any class is enumerated, in a fresh interpreter so
    # that a hang fails the test
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    for lam in ("100", "6+5+5+4+4+3+3+2", "10000000+1"):
        proc = subprocess.run(
            [sys.executable, "-m", "fistab.cli", "character", "--lam", lam],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 1 and not proc.stdout, lam
        assert _one_line_error(proc.stderr) and "--mu" in proc.stderr


def test_requests_over_the_work_budget_are_refused_quickly(tmp_path):
    # each of these runs for seconds or more, or never returned before the
    # work budget; each is refused in a fresh interpreter within 1 s
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    dims = tmp_path / "dims.json"
    dims.write_text(json.dumps({str(n): factorial(n) for n in range(1000)}))
    points = tmp_path / "points.json"
    points.write_text(json.dumps({str(n): comb(n + 8, 8) for n in range(10**5)}))
    large = tmp_path / "large.json"
    with open(large, "wb") as fh:  # sparse: priced by its size, never read
        fh.truncate(WORK_BUDGET // _BYTE_NS + 1)
    for argv in (
        "kunneth --graded-dims 1,2 --n 60 --i 3 --decompose",
        "wreath-scan --graded-dims 1,2 --i 2 --n-max 10000000",
        "m-module --regular 40 --n 80",
        "os-scan --n-min 2 --n-max 40 --k 12",
        f"fit-dimpoly --input {dims} --degree-bound 998",  # 7 s: rhs of up to 134 words
        f"fit-dimpoly --input {points} --degree-bound 100",  # 28 s: 101 binomials per point
        f"fit-dimpoly --input {large} --degree-bound 1",  # seconds to read a table this size
        "character --lam 6+5+5+4+4+3+3+2",
        "character --lam 200+200+200 --mu " + "+".join(["1"] * 600),
        "character --lam 1000000000 --mu 1000000000",
        "m-module --lam 200000 --n 200000",
        "m-module --lam " + "+".join(["1"] * 50000) + " --n 50001",
    ):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fistab.cli", *argv.split()],
            capture_output=True, text=True, env=env, timeout=10,
        )
        elapsed = time.perf_counter() - start
        assert proc.returncode == 1 and not proc.stdout, argv
        assert _one_line_error(proc.stderr) and "--allow-large" in proc.stderr, argv
        assert elapsed < 1.0, (argv, elapsed)


def test_a_refusal_just_over_the_budget_reads_as_over_it(capsys):
    # each is estimated a little over 3 s, which three significant digits
    # print as the budget itself; the fewest digits that read as over it
    # are shown instead, and never fewer than three
    dims = json.dumps({str(n): 1 for n in range(9647)}, separators=(",", ":"))
    for argv in (
        ["wreath-scan", "--graded-dims", "1,2", "--i", "2",
         "--n-min", "0", "--n-max", "1499999"],
        ["character", "--lam", "1579+1579", "--mu", "3158"],
        ["fit-dimpoly", "--dims", dims, "--degree-bound", "103"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and not out and _one_line_error(err), argv
        shown = re.search(r"estimated work about (\S+) s, over the work budget of 3 s;", err)
        assert shown and float(shown[1]) * 10**9 > WORK_BUDGET, err
    assert _seconds(3_000_400_000) == "about 3.0004 s"
    assert _seconds(3_004_000_000) == "about 3.004 s"
    assert _seconds(12_345_678_901) == "about 12.3 s"
    assert _seconds(2_000_000_000) == "about 2 s"


def test_a_refusal_near_1000_s_reads_in_plain_digits():
    # three significant digits round 999.5 s and more up to 1000, which :g
    # alone would print as "1e+03"
    assert _seconds(999_400_000_000) == "about 999 s"
    assert _seconds(999_500_000_000) == "about 1000 s"
    assert _seconds(999_999_999_999) == "about 1000 s"
    assert _seconds(10**12) == "about 1000 s"
    assert _seconds(10**12 + 1) == "more than 1000 s"


def test_kunneth_decomposition_without_the_table_of_s_n_is_admitted():
    # refused before the free-module route: p(40)^2 = 1.4e9 MN pairs
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fistab.cli", "kunneth", "--graded-dims", "1,2",
         "--n", "40", "--i", "3", "--decompose"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 0 and not proc.stderr
    report = json.loads(proc.stdout)
    dim = sum(m * dimension(parse_partition(lam)) for lam, m in report["decomposition"].items())
    assert dim == report["character"]["+".join(["1"] * 40)] == 2**3 * comb(40, 3)


def test_long_os_scan_without_the_tables_of_s_n_is_admitted():
    # refused before the free-module route: the tables of S_n for n <= 200
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "fistab.cli", "os-scan", "--n-min", "2", "--n-max", "200",
         "--k", "3"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0 and not proc.stderr
    report = json.loads(proc.stdout)
    assert report["betti"]["200"] == betti(200, 3)
    assert report["stability"]["stable_from"] <= 12
    assert report["character_polynomial"]["weighted_degree"] == 6
    assert report["coinvariants"]["3"]["199"]["surjective"] is True


def test_os_scan_decomposes_nothing_past_2k():
    # every decomposition os-scan takes is one of W_m, over S_m with
    # m <= 2k, whichever module it is called through
    code = (
        "import io, json, contextlib\n"
        "from fistab import characters, cli, os_model\n"
        "seen, every = [], set()\n"
        "decompose = characters.decompose\n"
        "characters.decompose = os_model.decompose = lambda f: seen.append(f.n) or decompose(f)\n"
        "for k, lo, hi in [(1, 2, 12), (2, 2, 15), (3, 2, 21), (3, 2, 7), (2, 9, 11)]:\n"
        "    argv = ['os-scan', '--n-min', str(lo), '--n-max', str(hi), '--k', str(k)]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "    assert max(seen, default=0) <= 2 * k, (k, seen)\n"
        "    every.update(seen)\n"
        "    seen.clear()\n"
        "print(json.dumps(sorted(every)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [2, 3, 4, 5, 6]  # the k + 1 <= m <= 2k of k = 1, 2, 3


def test_os_scan_computes_no_character_past_2k():
    # a window of fewer than 2k + 1 levels checks the closed-form polynomial
    # by fitting zeros on its classes up to level 4k, and past it needs no
    # check (os_model.character_polynomial), and the W_m are read off
    # Lehrer's product (os_model.free_generator), so neither the character
    # nor the decomposition of the cohomology at any level is taken, in
    # either run of a request, whether the window pins the polynomial down
    # or not.  The Betti numbers of a window are sums over the W_m too, and
    # no W_m is built past m = min(n_max, 2k).  Fits are counted on both
    # runs: a checked window fits once on the first and keeps its verdict,
    # so a refused window prints the same error on the second run.
    code = (
        "import io, json, contextlib\n"
        "from fistab import cli, fi_analysis, os_model, os_reference\n"
        "seen, fits, built, builds = [], [], [], []\n"
        "character, decomposition = os_reference.character, os_reference.decomposition\n"
        "os_reference.character = lambda n, k: seen.append(('character', n)) or character(n, k)\n"
        "os_reference.decomposition = lambda n, k: (\n"
        "    seen.append(('decomposition', n)) or decomposition(n, k))\n"
        "fit = fi_analysis.fit_char_polynomial\n"
        "def counted_fit(*a):\n"
        "    fits.append(a)\n"
        "    return fit(*a)\n"
        "fi_analysis.fit_char_polynomial = os_model.fit_char_polynomial = counted_fit\n"
        "generator = os_model.free_generator\n"
        "os_model.free_generator = lambda m, k: built.append(m) or generator(m, k)\n"
        "calls, errors = [], {}\n"
        "for k, lo, hi in [(2, 2, 5), (3, 5, 8), (3, 20, 22), (3, 6, 7), (1, 42, 43),\n"
        "                  (3, 13, 14), (3, 39, 40), (2, 4, 5), (3, 7, 8)]:\n"
        "    argv = ['os-scan', '--n-min', str(lo), '--n-max', str(hi), '--k', str(k)]\n"
        "    row = []\n"
        "    for _ in range(2):\n"
        "        fits.clear()\n"
        "        out = io.StringIO()\n"
        "        with contextlib.redirect_stdout(out):\n"
        "            assert cli.main(argv) == 0\n"
        "        poly = json.loads(out.getvalue())['character_polynomial']\n"
        "        if 'error' in poly:\n"
        "            errors.setdefault(f'{k},{lo},{hi}', []).append(poly['error'])\n"
        "        row.append(len(fits))\n"
        "    assert seen == [], (k, lo, hi, seen)\n"
        "    assert max(built, default=0) <= min(hi, 2 * k), (k, lo, hi, built)\n"
        "    builds += built\n"
        "    built.clear()\n"
        "    calls.append(['error' not in poly, *row])\n"
        "print(json.dumps([calls, errors, builds]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    calls, errors, builds = json.loads(proc.stdout)
    assert builds  # the wrapped free_generator is the one os-scan calls
    assert calls == [
        [True, 1, 0], [True, 1, 0], [True, 0, 0], [False, 1, 0], [True, 0, 0],
        [True, 0, 0], [True, 0, 0], [False, 1, 0], [False, 1, 0],
    ]
    assert sorted(errors) == ["2,4,5", "3,6,7", "3,7,8"]
    for window, (first, second) in errors.items():
        assert first.encode() == second.encode() and "does not determine" in first, window


def test_os_scan_bytes_do_not_depend_on_cached_state():
    # what os-scan keeps per process (the W_m per level bound, the fit
    # verdict per window) never changes what a request prints: one process
    # runs a grid of windows forwards, backwards, and forwards again after
    # every cache of os_model is cleared
    code = (
        "import io, json, contextlib\n"
        "from fistab import cli, os_model\n"
        "grid = [\n"
        "    ['os-scan', '--n-min', str(lo), '--n-max', str(hi), '--k', str(k),\n"
        "     '--a-max', str(a)]\n"
        "    for k in range(4) for lo in range(1, 4 * k + 2) for hi in range(lo, lo + 2 * k + 2)\n"
        "    for a in (0, 2)\n"
        "]\n"
        "def run(order):\n"
        "    outs = {}\n"
        "    for argv in order:\n"
        "        out, err = io.StringIO(), io.StringIO()\n"
        "        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
        "            code = cli.main(argv)\n"
        "        outs[' '.join(argv)] = (code, out.getvalue(), err.getvalue())\n"
        "    return outs\n"
        "forwards, backwards = run(grid), run(grid[::-1])\n"
        "caches = sorted(\n"
        "    name for name, f in vars(os_model).items()\n"
        "    if hasattr(f, 'cache_clear') and f.__module__ == os_model.__name__\n"
        ")\n"
        "for name in caches:\n"
        "    getattr(os_model, name).cache_clear()\n"
        "again = run(grid)\n"
        "print(json.dumps([len(grid), caches, forwards == backwards == again,\n"
        "                  sorted({c for c, _, _ in forwards.values()})]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    size, caches, same, codes = json.loads(proc.stdout)
    assert size == 2 * (2 + 20 + 54 + 104)
    assert {"_fit_refusal", "_generators_up_to", "free_generator"} <= set(caches)
    assert same and codes == [0]


def test_os_scan_counts_each_dimension_and_each_strip_once():
    # one free-module dimension per (level, a): a map's target is the next
    # map's source, and at level a the source is the Betti number; and one
    # strip enumeration per constituent of each W_m for the whole window,
    # not one per level (os_model.free_decompositions)
    code = (
        "import io, json, contextlib, collections\n"
        "from fistab import characters, cli, os_model, partitions\n"
        "dims, strips = collections.Counter(), collections.Counter()\n"
        "count = os_model._free_invariant_dimension\n"
        "os_model._free_invariant_dimension = lambda n, a, k: (\n"
        "    dims.update([(n, a)]) or count(n, a, k))\n"
        "extend = partitions._strip_extensions\n"
        "def counted(rho, n):\n"
        "    strips.update([rho])\n"
        "    return extend(rho, n)\n"
        "for module in (partitions, characters):\n"
        "    module._strip_extensions = counted\n"
        "argv = ['os-scan', '--n-min', '2', '--n-max', '40', '--k', '3', '--a-max', '3']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(argv) == 0\n"
        "gens = os_model._free_generators(40, 3).values()\n"
        "constituents = sorted(rho for w in gens for rho in w.mult)\n"
        "print(json.dumps([sorted(dims.items()), sorted(strips.items()), constituents]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    dims, strips, constituents = json.loads(proc.stdout)
    pairs = {(n, n) for n in range(2, 41)} | {
        (n, a) for a in range(4) for n in range(max(2, a), 41)
    }
    assert sorted(tuple(key) for key, _ in dims) == sorted(pairs)
    assert {times for _, times in dims} == {1}
    assert [rho for rho, _ in strips] == constituents and len(constituents) > 3
    assert {times for _, times in strips} == {1}


def test_os_scan_past_every_degree_allocates_nothing_of_its_size():
    # degree 10^9 on one point: no Betti number, W_m or fit may hold a
    # list of length k, so the request runs under an address-space cap
    # of 1 GB and prints the empty report
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    proc = subprocess.run(
        [sys.executable, "-c", cap + "from fistab.cli import main; raise SystemExit(main())",
         "os-scan", "--n-min", "1", "--n-max", "1", "--k", str(10**9)],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert json.loads(proc.stdout) == {
        "k": 10**9, "window": [1, 1], "betti": {"1": 0}, "decompositions": {"1": {}},
        "coinvariants": {},
    }


def test_os_scan_far_window_walks_no_level_below_it():
    # the Betti number of each level is a sum over the W_m, not the end of
    # a pass through every level below the window: three levels near 10^9
    # run under an address-space cap of 1 GB, each with the Betti number
    # e_2(1, ..., n - 1) = (3n - 1) C(n, 3) / 4
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    lo = 10**9
    proc = subprocess.run(
        [sys.executable, "-c", cap + "from fistab.cli import main; raise SystemExit(main())",
         "os-scan", "--n-min", str(lo), "--n-max", str(lo + 2), "--k", "2"],
        capture_output=True, text=True, env=env, timeout=20,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    assert json.loads(proc.stdout)["betti"] == {
        str(n): (3 * n - 1) * comb(n, 3) // 4 for n in range(lo, lo + 3)
    }


def test_m_module_at_a_huge_level_reads_only_its_strips():
    # a single level of M(W) costs the strips of W's constituents, not the
    # levels below it: level 10^18 runs under an address-space cap of 1 GB
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    cap = "import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    n = 10**18

    def decomposition(*argv):
        proc = subprocess.run(
            [sys.executable, "-c", cap + "from fistab.cli import main; raise SystemExit(main())",
             "m-module", *argv, "--n", str(n)],
            capture_output=True, text=True, env=env, timeout=20,
        )
        assert proc.returncode == 0 and not proc.stderr, proc.stderr
        return json.loads(proc.stdout)["decomposition"]

    # (n - |lam|, lam) with 3 >= lam_1 >= 1 >= lam_2 >= 0
    shapes = [(a, 1) if b else (a,) for a in (1, 2, 3) for b in (0, 1)]
    assert decomposition("--lam", "3+1") == {
        "+".join(map(str, (n - sum(lam), *lam))): 1 for lam in shapes
    }
    assert decomposition("--regular", "3") == {
        f"{n}": 1, f"{n - 1}+1": 3, f"{n - 2}+2": 3, f"{n - 2}+1+1": 3,
        f"{n - 3}+3": 1, f"{n - 3}+2+1": 2, f"{n - 3}+1+1+1": 1,
    }


def test_a_long_csv_report_peaks_no_higher_than_its_json():
    # csv rows go into the one list of pieces that json and text use too,
    # not through a row list and a buffer copied into a string: each
    # format in a fresh interpreter, 300001 levels of wreath-scan peak
    # within 15% of each other (the parent read 117 MB in csv, 71 in json)
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    script = (
        "import resource, sys\nfrom fistab.cli import main\ncode = main(sys.argv[1:])\n"
        "print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )

    def peak(fmt: str) -> int:
        proc = subprocess.run(
            [sys.executable, "-c", script, "wreath-scan", "--graded-dims", "1,2", "--i", "2",
             "--n-max", "300000", "--format", fmt, "--out", os.devnull],
            capture_output=True, text=True, env=env, timeout=60,
        )
        code, rss = proc.stdout.split()
        assert code == "0" and not proc.stderr, proc.stderr
        return int(rss)

    csv_peak, json_peak = peak("csv"), peak("json")
    assert csv_peak <= 1.15 * json_peak, (csv_peak, json_peak)


def test_unfittable_character_polynomial_is_refused_quickly():
    # more monomials than class values: Σ_{d <= 50} p(d) = 1 295 971 of
    # them for the 5 values of S_2 and S_3, refused before any is built
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    entries = json.dumps({"entries": {
        "2": {"1+1": 1, "2": 1}, "3": {"1+1+1": 1, "2+1": 1, "3": 1},
    }})
    for bound in ("24", "50", "1000000000"):
        proc = subprocess.run(
            [sys.executable, "-m", "fistab.cli", "fit-charpoly", "--entries", entries,
             "--degree-bound", bound],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 1 and not proc.stdout, bound
        assert _one_line_error(proc.stderr) and "does not determine" in proc.stderr


def test_class_function_table_of_the_wrong_size_is_refused_quickly():
    # p(60) = 966 467 and p(100) = 190 569 292 classes: an empty table is
    # refused by counting them, before any is enumerated; past 10^9 classes
    # the message stops counting (p(100000) has 346 digits)
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    for argv, phrase in (
        (["decompose", "--n", "60", "--values", "{}"], "exactly the 966467"),
        (["fit-charpoly", "--degree-bound", "1",
          "--entries", '{"entries":{"100":{}}}'], "exactly the 190569292"),
        (["decompose", "--n", "100000", "--values", "{}"], "more than 10^9"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "fistab.cli", *argv],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert proc.returncode == 1 and not proc.stdout, argv
        assert _one_line_error(proc.stderr) and f"{phrase} cycle types" in proc.stderr


def test_wreath_scan_reaches_far_past_the_class_sums():
    # one series pass: n = 60 (beyond 10 s as p(n) class sums) and a
    # million degree-one classes, each in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    for dims, i, n_max, stable in (("1,2", 2, 60, 1), ("1,1000000", 3, 200, comb(10**6, 3))):
        proc = subprocess.run(
            [sys.executable, "-m", "fistab.cli", "wreath-scan", "--graded-dims", dims,
             "--i", str(i), "--n-max", str(n_max)],
            capture_output=True, text=True, env=env, timeout=5,
        )
        assert proc.returncode == 0 and not proc.stderr, dims
        report = json.loads(proc.stdout)
        assert report["invariant_dims"][str(n_max)] == stable and report["constant_on_tail"]


def _fresh_peak(env, argv):
    # exit code, stdout, stderr and peak RSS in KB of one request, run in a
    # fresh interpreter that is the only child of a fresh parent, whose
    # RUSAGE_CHILDREN peak is then that request's
    script = (
        "import json, resource, subprocess, sys\n"
        "proc = subprocess.run([sys.executable, '-m', 'fistab.cli', *sys.argv[1:]],\n"
        "                      capture_output=True, text=True)\n"
        "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
        "print(json.dumps([proc.returncode, proc.stdout, proc.stderr, peak]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )
    return json.loads(proc.stdout)


def test_wreath_scan_past_every_product_degree_builds_no_table():
    # with n_max = 3, products of degree-one classes reach degree 3 at
    # most, and a product holds each odd class at most once, so one or
    # three classes of degree one reach degree 1 or 3: the zeros need no
    # table of (min(n_max, i) + 1) x (i + 1) cells
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    for dims, i, n_max in (("1,2", 4900000, 3), ("1,2", 5000000, 3), ("1,1", 4000, 4000),
                           ("1,3", 3000, 3000)):
        argv = ["wreath-scan", "--graded-dims", dims, "--i", str(i), "--n-max", str(n_max)]
        code, out, err, peak_kb = _fresh_peak(env, argv)
        assert code == 0 and not err, (argv, err)
        assert json.loads(out)["invariant_dims"] == {str(n): 0 for n in range(n_max + 1)}
        assert peak_kb < 50 * 1024, (argv, peak_kb)


def test_wreath_scan_reads_only_the_head_of_the_series():
    # the series is constant from n = i on, so a window far past i reads
    # the head of i + 1 values and builds no list up to n_max
    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    code, out, err, peak_kb = _fresh_peak(env, [
        "wreath-scan", "--graded-dims", "1,2", "--i", "2", "--n-min", "1499999",
        "--n-max", "1499999",
    ])
    assert code == 0 and not err, err
    report = json.loads(out)
    assert report["invariant_dims"] == {"1499999": 1} and report["constant_on_tail"]
    assert peak_kb < 50 * 1024, peak_kb


def test_kunneth_gap_past_the_old_edge_is_admitted(capsys):
    # one class in degree 22: only W_1 is nonzero, so the table, traces and
    # strips of W_2..W_22 are neither built nor priced; degree 22 of the
    # 22-fold power is the permutation module on the 22 factors
    gap = ",".join(["1", *["0"] * 21, "1"])
    report = run_json(capsys, "kunneth", "--graded-dims", gap, "--n", "22", "--i", "22",
                      "--decompose")
    assert report["decomposition"] == {"22": 1, "21+1": 1}


def test_kunneth_checks_its_graded_dimensions_before_the_estimate(capsys):
    # an invalid vector, n or i meets the check's error whatever it would
    # be priced at: a negative i prices no W_m from negative slices, and a
    # disconnected vector far over the budget is not refused by the budget
    disconnected = "graded dimensions must start with 1 (connected space), got (2, 1, 1)"
    for argv, message in (
        (["1,2", "--n", "3", "--i", "-1"], "n and i must be nonnegative"),
        (["1,0,1,0", "--n", "40", "--i", "-2"], "n and i must be nonnegative"),
        (["2,1,1", "--n", "40", "--i", "40"], disconnected),
    ):
        for extra in ([], ["--decompose"]):
            code, out, err = run(capsys, "kunneth", "--graded-dims", *argv, *extra)
            assert (code, out, err) == (1, "", f"fistab: {message}\n"), (argv, extra)


def test_parser_is_built_once():
    assert build_parser() is build_parser()
    assert build_parser("kunneth") is build_parser("kunneth") is build_parser()["kunneth"]
    # a subcommand's lookups are its own flags, with -h and --help
    for name, (_, flags) in SUBCOMMANDS.items():
        by_option = build_parser(name)[0]
        assert set(by_option) == {"-h", "--help", *(flag.option for flag in flags)}, name


def test_reused_parser_forgets_the_previous_request(tmp_path):
    # each request omits flags the one before it set; in one process it
    # must print what it prints in a fresh interpreter
    report = tmp_path / "report.json"
    bounds = ["bounds", "--alpha", "1", "--beta", "2", "--i", "3"]
    scan = ["os-scan", "--n-min", "2", "--n-max", "4", "--k", "1"]
    table = ["table1", "--row", "moduli", "--i", "2"]
    sequence = [
        bounds + ["--fisharp"], bounds,
        scan + ["--a-max", "0"], scan,
        table + ["--format", "text"], table,
        table + ["--out", str(report)], table,
        bounds[:4] + ["2/0"] + bounds[5:], bounds,
    ]
    in_process = []
    for argv in sequence:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        in_process.append((code, out.getvalue(), err.getvalue()))
    assert [code for code, _, _ in in_process] == [0, 0, 0, 0, 0, 0, 0, 0, 64, 0]
    written = report.read_text()
    report.unlink()

    env = dict(os.environ, PYTHONPATH=str(Path(fistab.__file__).parents[1]))
    for argv, got in zip(sequence, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "fistab.cli", *argv], capture_output=True, text=True, env=env,
        )
        assert got == (proc.returncode, proc.stdout, proc.stderr), argv
    assert report.read_text() == written and json.loads(written)["N"] == 12
