"""Byte-identical usage errors and help.

Exit code, stdout and stderr of the calls argparse answers itself: no
subcommand, an unknown one, a flag before the subcommand, `-h` at the
top and on every subcommand, and a valid call of every subcommand
followed by a stray argument.  The usage errors are compared as text;
a help screen is compared by the sha256 of its stdout.  Lines wrap at
COLUMNS=80.  These calls, and the valid call of every subcommand, give
the same bytes when the full parser parses them (`cli_oracle.parse_twice`).
A valid call is read off its subcommand's actions (`cli._read_plain`)
without argparse's parse, and a property test compares that reader with
`parse_known_args` on argv drawn from each subcommand's own flags.
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
from cli_oracle import parse_args_calls, parsed_twice
from hypothesis import given, settings
from hypothesis import strategies as st

from fistab.cli import SUBCOMMANDS, _read_plain, build_parser, main

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
}

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


@pytest.fixture(autouse=True)
def _columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")


def test_every_subcommand_is_covered():
    assert {argv[0] for argv in HELP if argv[0] != "-h"} == set(VALID) == set(SUBCOMMANDS)


@pytest.mark.parametrize("argv", ERRORS, ids=lambda argv: " ".join(argv) or "(none)")
def test_usage_error_bytes(argv):
    assert _run(argv) == ERRORS[argv]


@pytest.mark.parametrize("argv", HELP, ids=" ".join)
def test_help_bytes(argv):
    code, out, err = _run(argv)
    assert (code, err, _digest(out)) == (0, "", HELP[argv])


PLAIN = [(sub, *argv) for sub, argv in VALID.items()]
ROUTED = PLAIN + list(ERRORS) + list(HELP)


@pytest.mark.parametrize("argv", ROUTED, ids=lambda argv: " ".join(argv) or "(none)")
def test_one_parse_matches_the_old_route(argv):
    with parse_args_calls() as progs:
        once = _run(argv)
    with parsed_twice():
        assert _run(argv) == once
    if argv and argv[0] in SUBCOMMANDS:
        # the subcommand's own parser alone, never the top of a parser
        assert "fistab" not in progs
    else:
        assert progs == ["fistab"]


@pytest.mark.parametrize("argv", ROUTED, ids=lambda argv: " ".join(argv) or "(none)")
def test_a_plain_argv_runs_no_parse(argv):
    # a valid call is read off its subcommand's actions; argparse parses
    # every usage error and help request itself
    with parse_args_calls("parse_known_args") as progs:
        _run(argv)
    if argv in PLAIN:
        assert progs == []
    else:
        assert progs


# tokens the reader leaves to argparse, and values of every kind: negative,
# empty or leading "-", bad ints, fractions and choices next to good ones
ODD_TOKENS = st.sampled_from(("-h", "--help", "--", "-", "stray", "", "--i=2", "--format=json"))
VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from((
        "", "-", "-x", "-1/2", " -1", "- 1", "--", "-h", "1/0", "2/0", "x", "1/x", "1/2",
        "1.5", "2+1", "1+1+1", "1,2", "moduli", "nope", "json", "xml", "{}", "[]",
    )),
)


@st.composite
def subcommand_argv(draw):
    """(name, argv after the name): the pairs of the name's valid call,
    some dropped, among flags drawn from its own option strings, each
    exact, cut short or joined to its value by "=", with or without a
    value, and odd tokens."""
    name = draw(st.sampled_from(tuple(SUBCOMMANDS)))
    valid = VALID[name]
    pieces = [valid[i : i + 2] for i in range(0, len(valid), 2) if draw(st.integers(0, 9))]
    option = st.sampled_from(sorted(build_parser(name)._option_string_actions))
    piece = st.one_of(
        st.tuples(option, VALUES).map(list),
        option.map(lambda o: [o]),
        st.tuples(option, st.integers(1, 4)).map(lambda oc: [oc[0][: -oc[1]]]),
        st.tuples(option, VALUES).map(lambda ov: ["=".join(ov)]),
        ODD_TOKENS.map(lambda t: [t]),
    )
    pieces += draw(st.lists(piece, max_size=3))
    return name, [token for p in draw(st.permutations(pieces)) for token in p]


def _parsed(name, argv):
    # argparse's namespace and extras, or its exit code
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return build_parser(name).parse_known_args(argv)
        except SystemExit as exc:
            return exc.code


def test_the_reader_agrees_with_argparse():
    # the reader's namespace is argparse's wherever it gives one; it
    # gives one for every valid call, so the fast path cannot go dead
    for name, argv in VALID.items():
        args = _read_plain(build_parser(name), argv)
        assert args is not None, name
        assert _parsed(name, argv) == (args, []), name
    outcomes = set()

    @settings(max_examples=600, derandomize=True, database=None)
    @given(request=subcommand_argv())
    def check(request):
        name, argv = request
        args = _read_plain(build_parser(name), argv)
        outcomes.add(args is None)
        if args is not None:
            parsed = _parsed(name, argv)
            assert parsed == (args, []), (name, argv, parsed)

    check()
    assert outcomes == {True, False}


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
    os.environ["COLUMNS"] = "80"
    print("HELP = {")
    for argv in [("-h",), *((sub, "-h") for sub in VALID)]:
        print(f"    {argv!r}:\n        {_digest(_run(argv)[1])!r},")
    print("}")
