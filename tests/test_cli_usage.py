"""Byte-identical usage errors and help.

Exit code, stdout and stderr of the calls that run nothing: no
subcommand, an unknown one, a flag before the subcommand, `-h` at the
top and on every subcommand, a valid call of every subcommand followed
by a stray argument, and one of each usage error a subcommand's flags
give.  The usage errors are compared as text; a help screen is compared
by the sha256 of its stdout.  Help is 80 columns wide whatever the
terminal: both are checked with COLUMNS unset, 40, 80 and 200.  Every
argv is read off the flag table `cli.SUBCOMMANDS` (`cli._parse`,
`cli._read`); argparse, built from the same table in `cli_oracle`, reads
each of these calls alike and gives the same bytes, and a property test
compares the two readers on argv drawn from each subcommand's flags
wherever `cli_oracle.alike` says they agree.
A deliberate change of the help screens updates the table; print the
current digests with

    PYTHONPATH=src python tests/test_cli_usage.py
"""

import hashlib
import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from cli_oracle import alike, parse_twice, parsed_twice
from hypothesis import given, settings
from hypothesis import strategies as st

from fistab.cli import SUBCOMMANDS, _parse, _Usage, main

USAGE = (
    "usage: fistab [-h]\n"
    "              {character,decompose,m-module,stability-scan,fit-charpoly,"
    "fit-dimpoly,bounds,table1,os-scan,wreath-scan,kunneth}\n"
    "              ...\n"
)
CHOICES = (
    "(choose from 'character', 'decompose', 'm-module', 'stability-scan', "
    "'fit-charpoly', 'fit-dimpoly', 'bounds', 'table1', 'os-scan', 'wreath-scan', "
    "'kunneth')"
)

# the usage lines of each subcommand's errors
USAGES = {
    "character": (
        "usage: fistab character [-h] [--out OUT] [--format {json,text,csv}]\n"
        "                        [--allow-large] --lam LAM [--mu MU]\n"
    ),
    "decompose": (
        "usage: fistab decompose [-h] [--out OUT] [--format {json,text,csv}]\n"
        "                        [--allow-large] --n N [--values VALUES]\n"
        "                        [--input INPUT]\n"
    ),
    "m-module": (
        "usage: fistab m-module [-h] [--out OUT] [--format {json,text,csv}]\n"
        "                       [--allow-large] --n N [--lam LAM] [--regular REGULAR]\n"
    ),
    "fit-charpoly": (
        "usage: fistab fit-charpoly [-h] [--out OUT] [--format {json,text,csv}]\n"
        "                           [--allow-large] [--entries ENTRIES] [--input INPUT]\n"
        "                           --degree-bound DEGREE_BOUND\n"
    ),
    "fit-dimpoly": (
        "usage: fistab fit-dimpoly [-h] [--out OUT] [--format {json,text,csv}]\n"
        "                          [--allow-large] [--dims DIMS] [--input INPUT]\n"
        "                          --degree-bound DEGREE_BOUND\n"
    ),
    "bounds": (
        "usage: fistab bounds [-h] [--out OUT] [--format {json,text,csv}] --alpha ALPHA\n"
        "                     --beta BETA --i I [--page PAGE] [--p P] [--q Q]\n"
        "                     [--fisharp] [--degenerates-at DEGENERATES_AT]\n"
    ),
    "table1": (
        "usage: fistab table1 [-h] [--out OUT] [--format {json,text,csv}] --row\n"
        "                     {config_surface_closed,config_surface_boundary,"
        "config_surface_open,moduli,pmod_surface_boundary,pmod_highdim,"
        "pmod_highdim_boundary,bpdiff}\n"
        "                     --i I\n"
    ),
    "os-scan": (
        "usage: fistab os-scan [-h] [--out OUT] [--format {json,text,csv}]\n"
        "                      [--allow-large] --n-min N_MIN --n-max N_MAX --k K\n"
        "                      [--a-max A_MAX]\n"
    ),
    "wreath-scan": (
        "usage: fistab wreath-scan [-h] [--out OUT] [--format {json,text,csv}]\n"
        "                          [--allow-large] --graded-dims GRADED_DIMS --i I\n"
        "                          [--n-min N_MIN] --n-max N_MAX\n"
    ),
    "kunneth": (
        "usage: fistab kunneth [-h] [--out OUT] [--format {json,text,csv}]\n"
        "                      [--allow-large] --graded-dims GRADED_DIMS --n N --i I\n"
        "                      [--decompose]\n"
    ),
}
# each subcommand's required flags, as its usage error names them; a bare
# stability-scan requires none, and is refused by its handler
REQUIRED = {
    "character": "--lam",
    "decompose": "--n",
    "m-module": "--n",
    "fit-charpoly": "--degree-bound",
    "fit-dimpoly": "--degree-bound",
    "bounds": "--alpha, --beta, --i",
    "table1": "--row, --i",
    "os-scan": "--n-min, --n-max, --k",
    "wreath-scan": "--graded-dims, --i, --n-max",
    "kunneth": "--graded-dims, --n, --i",
}


def _refused(name, message):
    # (exit code, stdout, stderr) of a usage error: the usage lines and
    # message of the subcommand's own parser, or of the top one
    usage = USAGE if name is None else USAGES[name]
    return 64, "", f"{usage}fistab{'' if name is None else ' ' + name}: error: {message}\n"


# a valid call of each subcommand
VALID = {
    "character": ["--lam", "2+1", "--mu", "1+1+1"],
    "decompose": ["--n", "3", "--values", '{"1+1+1": 3, "2+1": 1, "3": 0}'],
    "m-module": ["--lam", "2", "--n", "4"],
    "stability-scan": ["--entries", "[]"],
    "fit-charpoly": ["--entries", '{"entries": {"2": {"1+1": 1, "2": 1}}}', "--degree-bound", "1"],
    "fit-dimpoly": ["--dims", '{"2":1,"3":3,"4":6}', "--degree-bound", "2"],
    "bounds": ["--alpha", "1", "--beta", "2", "--i", "3"],
    "table1": ["--row", "moduli", "--i", "2"],
    "os-scan": ["--n-min", "2", "--n-max", "4", "--k", "1"],
    "wreath-scan": ["--graded-dims", "1,2", "--i", "1", "--n-max", "8"],
    "kunneth": ["--graded-dims", "1,2", "--n", "3", "--i", "1"],
}

# argv -> (exit code, stdout, stderr)
ERRORS = {
    (): (64, "", USAGE + "fistab: error: a subcommand is required\n"),
    ("bogus",): (
        64, "", USAGE + f"fistab: error: argument command: invalid choice: 'bogus' {CHOICES}\n",
    ),
    ("--format", "json", "os-scan"): (
        64, "", USAGE + f"fistab: error: argument command: invalid choice: 'json' {CHOICES}\n",
    ),
    **{
        (sub, *argv, "stray"): (64, "", USAGE + "fistab: error: unrecognized arguments: stray\n")
        for sub, argv in VALID.items()
    },
    # one of each usage error a subcommand's flags give
    ("os-scan", "--n-min", "2", "--n-max", "4", "--k"):
        _refused("os-scan", "argument --k: expected one argument"),
    ("m-module", "--lam", "--n", "4"):
        _refused("m-module", "argument --lam: expected one argument"),
    ("os-scan", "--allow-large=1"):
        _refused("os-scan", "argument --allow-large: ignored explicit argument '1'"),
    ("os-scan", "--help=x"):
        _refused("os-scan", "argument -h/--help: ignored explicit argument 'x'"),
    ("os-scan", "--n-min", "x", "--n-max", "4", "--k", "1"):
        _refused("os-scan", "argument --n-min: invalid int value: 'x'"),
    ("bounds", "--alpha", "x", "--beta", "1", "--i", "1"):
        _refused("bounds", "argument --alpha: invalid Fraction value: 'x'"),
    ("os-scan", *VALID["os-scan"], "--format", "xml"): _refused(
        "os-scan", "argument --format: invalid choice: 'xml' (choose from 'json', 'text', 'csv')"
    ),
    ("table1", "--row", "x", "--i", "2"): _refused(
        "table1",
        "argument --row: invalid choice: 'x' (choose from 'config_surface_closed', "
        "'config_surface_boundary', 'config_surface_open', 'moduli', 'pmod_surface_boundary', "
        "'pmod_highdim', 'pmod_highdim_boundary', 'bpdiff')",
    ),
    **{
        (sub,): _refused(sub, f"the following arguments are required: {flags}")
        for sub, flags in REQUIRED.items()
    },
    ("os-scan", *VALID["os-scan"], "--bogus"): _refused(None, "unrecognized arguments: --bogus"),
    ("os-scan", *VALID["os-scan"], "--", "x"): _refused(None, "unrecognized arguments: -- x"),
    ("--bogus",): _refused(None, "unrecognized arguments: --bogus"),
    ("-x", "os-scan", *VALID["os-scan"]): _refused(None, "unrecognized arguments: -x"),
}
# one argv of each kind of usage error, for the tests that run each in a
# fresh process
KINDS = (
    (), ("bogus",), ("--bogus",), ("os-scan", *VALID["os-scan"], "stray"),
    ("os-scan", *VALID["os-scan"], "--", "x"), ("os-scan", "--n-min", "2", "--n-max", "4", "--k"),
    ("m-module", "--lam", "--n", "4"), ("os-scan", "--allow-large=1"), ("os-scan", "--help=x"),
    ("os-scan", "--n-min", "x", "--n-max", "4", "--k", "1"),
    ("bounds", "--alpha", "x", "--beta", "1", "--i", "1"), ("table1", "--row", "x", "--i", "2"),
    ("kunneth",),
)

# argv -> sha256 of the help screen on stdout (exit 0, nothing on stderr)
HELP = {
    ('-h',):
        '5377c81230f66ae90df11700555387c7b25ffb19b8994f844b7b9ea452df2ece',
    ('character', '-h'):
        '8a9adf6b39b2b1c7b986f4c517db0788ba68f44bc095813366bf76d4384b0d63',
    ('decompose', '-h'):
        '20c4bdaab85fa187a787a1b309dc8e851a5a0d9c5cc6f6f08ce081feda8428b0',
    ('m-module', '-h'):
        'fd386e577efd974ddf081f41ba22ce7848374dc4209c58faf575525b77969df9',
    ('stability-scan', '-h'):
        'e0159b288cf9f8197598885d533b31f8a5c7fe127f42b11f2047dad1445917a3',
    ('fit-charpoly', '-h'):
        '55659cf87c02c54a940cb487e3221d10eda123f681d4c1dd4767f6024232846d',
    ('fit-dimpoly', '-h'):
        '6e901cafe673a90ca5cce3a69f2bc0ad4f53ebd1449d9599cdd1c51ed4d9f313',
    ('bounds', '-h'):
        '321c2ad9c2f7328784bbe729a965093ec335e52c83ef4d8c69c60bd9f9ba9d13',
    ('table1', '-h'):
        '2d771568e77e6f065eadbaa7bb2d011bb9ec6acdbd5634d77257d48526ad7b91',
    ('os-scan', '-h'):
        'b00e680a8f7526c232f9769a54542b040ee121dd68352020fe81595257d29896',
    ('wreath-scan', '-h'):
        '3a8e334ed391a5e9670b230e67721004cfe869104c30aae86dbda2bef4fca5da',
    ('kunneth', '-h'):
        '660168dc8a05095c81279f5c2be179dea95166cea054ec179087d08f96e6b3f2',
}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(params=[None, "40", "80", "200"], ids=lambda c: f"COLUMNS={c or 'unset'}")
def columns(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", request.param)


def test_every_subcommand_is_covered():
    assert {argv[0] for argv in HELP if argv[0] != "-h"} == set(VALID) == set(SUBCOMMANDS)
    assert set(KINDS) <= set(ERRORS)


@pytest.mark.parametrize("argv", ERRORS, ids=lambda argv: " ".join(argv) or "(none)")
def test_usage_error_bytes(argv, columns):
    assert _run(argv) == ERRORS[argv]


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_bytes(argv, columns):
    code, out, err = _run(argv)
    assert (code, err, _digest(out)) == (0, "", HELP[argv])


PLAIN = [(sub, *argv) for sub, argv in VALID.items()]
ROUTED = PLAIN + list(ERRORS) + list(HELP)


@pytest.mark.parametrize("argv", ROUTED, ids=lambda argv: " ".join(argv) or "(none)")
def test_argparse_reads_each_pinned_argv_alike(argv):
    # each valid call, usage error and help request above is one both
    # grammars read alike, and argparse's decision gives the same bytes
    once = _run(argv)
    with parsed_twice() as seen:
        assert _run(argv) == once
    assert seen == [True]


# where the reader parts from argparse: an abbreviation, -h with more in
# its token, and -- before the name with all that follows are left over
CHANGED = {
    ("fit-dimpoly", *VALID["fit-dimpoly"], "--deg", "3"):
        _refused(None, "unrecognized arguments: --deg 3"),
    ("os-scan", *VALID["os-scan"], "--n-m", "3"): _refused(None, "unrecognized arguments: --n-m 3"),
    ("os-scan", *VALID["os-scan"], "-hx"): _refused(None, "unrecognized arguments: -hx"),
    ("os-scan", "-h=x", *VALID["os-scan"]): _refused(None, "unrecognized arguments: -h=x"),
    ("--", "table1", "--row", "moduli", "--i", "2"):
        _refused(None, "unrecognized arguments: -- table1 --row moduli --i 2"),
}


@pytest.mark.parametrize("argv", CHANGED, ids=" ".join)
def test_abbreviations_and_joined_short_help_are_left_over(argv):
    assert not alike(argv)
    assert _run(argv) == CHANGED[argv]


def test_a_negative_fraction_is_read_as_a_separate_value():
    joined = _run(["bounds", "--alpha=-1/2", "--beta", "1", "--i", "1"])
    assert joined[:2] == (1, "") and len(joined[2].splitlines()) == 1
    assert _run(["bounds", "--alpha", "-1/2", "--beta", "1", "--i", "1"]) == joined


VALUE_FLAGS = [
    (sub, flag.option) for sub, (_, flags) in SUBCOMMANDS.items() for flag in flags
    if flag.type is not bool and flag.option != "--out"
]


@pytest.mark.parametrize("sub, option", VALUE_FLAGS, ids="{0[0]} {0[1]}=--".format)
def test_a_flag_joined_to_two_dashes_is_refused_in_one_line(sub, option):
    # argparse read --flag=-- as a value of no tokens, and failed on it
    code, out, err = _run([sub, *VALID[sub], f"{option}=--"])
    assert code in (1, 64) and out == "" and "Traceback" not in err, err
    messages = [line for line in err.splitlines() if line.startswith("fistab")]
    assert messages == err.splitlines()[-1:], err


def test_out_joined_to_two_dashes_names_a_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _run(["os-scan", *VALID["os-scan"], "--out=--"]) == (0, "", "")
    assert (tmp_path / "--").read_text() == _run(["os-scan", *VALID["os-scan"]])[1]


# tokens the reader leaves over or refuses, and values of every kind:
# negative, empty or leading "-", bad ints, fractions and choices next to
# good ones
ODD_TOKENS = st.sampled_from((
    "-h", "--help", "--", "-", "stray", "", "--i=2", "--format=json", "-hx", "-h=x", "--help=x",
    "-x", "-1",
))
VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from((
        "", "-", "-x", "-1/2", " -1", "- 1", "--", "-h", "-hx", "--x", "-- x", "1/0", "2/0", "x",
        "1/x", "1/2", "-.5", "1.5", "2+1", "1+1+1", "1,2", "moduli", "nope", "json", "xml", "{}",
        "[]",
    )),
)


@st.composite
def subcommand_argv(draw):
    """A subcommand's name, now and then after an odd token, and the pairs
    of its valid call, some dropped, among flags drawn from its own option
    strings, each exact, cut short or joined to its value by "=", with or
    without a value, and odd tokens."""
    before = draw(st.lists(ODD_TOKENS, max_size=1))
    name = draw(st.sampled_from(tuple(SUBCOMMANDS)))
    valid = VALID[name]
    pieces = [valid[i : i + 2] for i in range(0, len(valid), 2) if draw(st.integers(0, 9))]
    option = st.sampled_from(["-h", "--help", *(flag.option for flag in SUBCOMMANDS[name][1])])
    piece = st.one_of(
        st.tuples(option, VALUES).map(list),
        option.map(lambda o: [o]),
        st.tuples(option, st.integers(1, 4)).map(lambda oc: [oc[0][: -oc[1]]]),
        st.tuples(option, VALUES).map(lambda ov: ["=".join(ov)]),
        ODD_TOKENS.map(lambda t: [t]),
    )
    pieces += draw(st.lists(piece, max_size=3))
    return [*before, name, *(token for p in draw(st.permutations(pieces)) for token in p)]


def _decision(parse, argv):
    # the namespace parse reads argv into, as a dict, or the parser and
    # message of its help request (None) or usage error
    try:
        return vars(parse(argv))
    except _Usage as exc:
        return exc.args


def test_the_reader_agrees_with_argparse():
    # wherever the grammars read an argv alike, the reader decides as
    # argparse does: the same namespace, help request or usage error, each
    # of which is drawn
    for name, argv in VALID.items():
        assert _decision(_parse, [name, *argv]) == _decision(parse_twice, [name, *argv]), name
    outcomes = set()

    @settings(max_examples=600, derandomize=True, database=None)
    @given(argv=subcommand_argv())
    def check(argv):
        decided = _decision(_parse, argv)
        if alike(argv):
            assert decided == _decision(parse_twice, argv), argv
            outcomes.add(type(decided) is dict or decided[1] is None)
        else:
            outcomes.add("apart")

    check()
    assert outcomes == {True, False, "apart"}


# Fraction literals whose numerator or denominator has more digits than the
# interpreter's int-to-str cap (4300 by default): once a traceback from
# printing them, or seconds spent expanding the exponent
OVER_CAP = ("1e-10000", "1e4400", "1.5e-13000", "1e-10000000", "2E+99999999")


@pytest.mark.parametrize("alpha", OVER_CAP)
def test_a_fraction_past_the_digit_cap_is_a_usage_error(alpha):
    code, out, err = _run(["bounds", "--alpha", alpha, "--beta", "1", "--i", "1"])
    assert (code, out) == (64, "")
    assert err.startswith("usage: fistab bounds")
    assert err.splitlines()[-1] == (
        f"fistab bounds: error: argument --alpha: invalid Fraction value: {alpha!r} "
        f"(its numerator or denominator has more than {sys.get_int_max_str_digits()} digits)"
    )


def test_a_fraction_at_the_digit_cap_still_runs():
    cap = sys.get_int_max_str_digits()
    # 10^(cap-1) has cap digits; 5e-cap is 1/(2 * 10^(cap-1)) in lowest terms
    code, out, err = _run(["bounds", "--alpha", "0", "--beta", f"1e{cap - 1}", "--i", "0"])
    assert (code, err) == (0, "")
    assert f'"beta": "1{"0" * (cap - 1)}"' in out
    code, out, err = _run(["bounds", "--alpha", f"5e-{cap}", "--beta", "1", "--i", "1"])
    assert (code, err) == (0, "")
    assert f'"alpha": "1/2{"0" * (cap - 1)}"' in out
    # a zero mantissa is zero under any exponent
    code, out, err = _run(["bounds", "--alpha", "0.0e-10000000", "--beta", "1", "--i", "1"])
    assert (code, err) == (0, "")
    assert '"alpha": "0"' in out
    for bad in ("1/2e99999", "xe99999", "1e99999x", "1/0"):
        code, out, err = _run(["bounds", "--alpha", bad, "--beta", "1", "--i", "1"])
        assert (code, out) == (64, "")
        assert err.endswith(f"invalid Fraction value: {bad!r}\n")


def test_without_a_digit_cap_every_fraction_is_read():
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = _run(["bounds", "--alpha", "0", "--beta", "1e4400", "--i", "0"])
    finally:
        sys.set_int_max_str_digits(cap)
    assert (code, err) == (0, "")
    assert f'"beta": "1{"0" * 4400}"' in out


def test_a_long_exponent_is_refused_at_once():
    # Fraction("1e-10000000") alone takes about 12 s; a fresh process,
    # interpreter start included, refuses it in well under a second
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    argv = ["bounds", "--alpha", "1e-10000000", "--beta", "1", "--i", "1"]
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "fistab.cli", *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 64 and proc.stdout == ""
    assert "has more than" in proc.stderr.splitlines()[-1]
    assert elapsed < 1.0, elapsed


if __name__ == "__main__":
    print("HELP = {")
    for argv in [("-h",), *((sub, "-h") for sub in VALID)]:
        print(f"    {argv!r}:\n        {_digest(_run(argv)[1])!r},")
    print("}")
