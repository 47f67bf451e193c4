"""`main()` driven in-process with random argv, inline JSON, config files
and input files.

Whatever it is given, `main` must return 0, 1, 2 or 64, let no exception
escape, print no traceback, and write its `--out` reports only where it
is told to (here: inside the test's temporary directory, which is also
the working directory).  Where argparse reads the argv alike
(`cli_oracle.alike`), it must answer with the same bytes when argparse
reads it (`cli_oracle.parse_twice`).  Flags are given as `--flag value`
or `--flag=value`, and values may start with one "-".  JSON values
include infinities, 1e999, an integer literal past the interpreter's
4300-digit cap and decimal strings past it or with long exponents, and
one of the files it may read is not UTF-8.
Integers reach 10^6, so many requests are over the work budget and must
be refused at once; a request that passes --allow-large (on the command
line or in its config file) keeps them <= 6, so that it stays small.
"""

import io
import json
import os
import time
from contextlib import redirect_stderr, redirect_stdout

from cli_oracle import parsed_twice
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fistab.cli import OUTPUT, SUBCOMMANDS, Flag, _fraction, choices, main

SMALL_INTEGERS = st.one_of(st.integers(0, 6), st.integers(1, 4), st.integers(-2, 6)).map(str)
WIDE_INTEGERS = st.one_of(SMALL_INTEGERS, st.integers(7, 10**6).map(str))
PARTITIONS = st.sampled_from(
    ("1", "2", "3", "2+1", "1+1+1", "3+1", "2+2", "", "+", "0", "-1", "2+x", "1+2", "3++1", "1.5")
)
FRACTIONS = st.one_of(
    st.tuples(st.integers(-1, 6), st.integers(1, 3)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.integers(-1, 6).map(lambda p: f"{p}/0"),
    st.sampled_from(("0", "1", "x", "1/x", "1e3", "1.5", "-1")),
    # past the int-to-str cap, or an exponent too long to expand
    st.sampled_from(("1e-5000", "1e4400", "1e-10000000", "2E+99999999", "0.0e-99999")),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6),
    st.sampled_from((1.5, 2.0, float("inf"), float("-inf"))),
    st.sampled_from(("1", "x", "2+1", "1/2", "")),
)
KEYS = st.sampled_from(("1", "2", "3", "4", "1+1", "2+1", "1+1+1", "x", "", "entries", "window"))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=4),
    max_leaves=8,
)
# near-valid inputs reach deeper than random ones
KNOWN_JSON = st.sampled_from((
    '{"1+1+1": 3, "2+1": 1, "3": 0}',
    '{"1+1": 1, "2": 1}',
    '{"2": 1, "3": 3, "4": 6, "5": 10}',
    '{"entries": {"2": {"2": 1}, "3": {"2+1": 1, "3": 1}, "4": {"3+1": 1, "4": 1}}}',
    '{"entries": {"2": {"1+1": 1, "2": 1}, "3": {"1+1+1": 1, "2+1": 1, "3": 1}}}',
    '{"entries": {"2": {"1+1": 1, "2": 1}, "4": {"4": 1}}}',
    '{"window": [2, 3], "entries": {"2": {"2": 1}}}',
    "", "not json", "{", "[1, 2", '{"2": 1,}', "NaN", "1e999",
))
# values json.dumps cannot write, set into near-valid tables as literal
# text: among them strings past the int-to-str cap, or with an exponent
# that would take seconds to expand
LITERALS = (
    "Infinity", "-Infinity", "NaN", "1e999", "7" * 5000,
    '"1e-5000"', '"1e-10000000"', '"1e-4000"',
)
LITERAL_TABLES = (
    '{"1+1": VALUE, "2": 0}',
    '{"entries": {"2": {"2": VALUE}}}',
    '{"entries": {"2": {"1+1": 1, "2": VALUE}}}',
    '{"2": VALUE, "3": 3, "4": 6}',
)
LITERAL_JSON = st.builds(
    str.replace, st.sampled_from(LITERAL_TABLES), st.just("VALUE"), st.sampled_from(LITERALS)
)
JSON_TEXT = st.one_of(KNOWN_JSON, JSON_VALUES.map(json.dumps), LITERAL_JSON)
GRADED_DIMS = st.sampled_from(("1", "1,2", "1,1,1", "0", "1,x", "", ",", "-1,2", "2,0,1"))
# paths relative to the working directory, which is the temporary one
PATHS = st.one_of(
    st.sampled_from(("report.txt", "input.json", "fuzz.cfg", "latin1.bin")),
    st.sampled_from(("missing/report.txt", ".")),
)
# tokens that start with one "-": a value to the reader, and to argparse
# only if it reads as a negative number
DASHED = st.sampled_from(("-", "-x", "-1", "-1/2", "-0.5", "-1e3", "-hx", "-h=x", "- 1"))

# values of the string flags that take no choices, by option string; any
# other flag of cli.SUBCOMMANDS draws values of its type or choices, or
# any token at all
STRING_VALUES = {
    "--lam": PARTITIONS,
    "--mu": PARTITIONS,
    "--values": JSON_TEXT,
    "--entries": JSON_TEXT,
    "--dims": JSON_TEXT,
    "--graded-dims": GRADED_DIMS,
    "--out": PATHS,
    "--input": PATHS,
    "--config": PATHS,
}
LARGE = "--allow-large"
# --config is read by main, not by a parser
COMMON = (*OUTPUT, Flag("--config"))
OPTIONS = tuple(sorted(
    {flag.option for _, flags in SUBCOMMANDS.values() for flag in flags} | {"--config"}
))


@st.composite
def requests(draw):
    """(argv, config lines).  Mostly well-formed requests: a subcommand,
    most of its required flags, some optional ones, values of roughly the
    right kind; now and then a value of the wrong kind or a stray token.
    The flags are those of cli.SUBCOMMANDS, so a new one is fuzzed too.
    One request in four may pass --allow-large and draws integers <= 6;
    the others never pass it and draw integers up to 10^6."""
    large = draw(st.integers(0, 3)) == 0
    integers = SMALL_INTEGERS if large else WIDE_INTEGERS
    options = tuple(o for o in OPTIONS if large or o != LARGE)
    any_token = st.one_of(
        st.sampled_from(tuple(SUBCOMMANDS) + options + ("--help", "--")),
        integers, PARTITIONS, FRACTIONS, JSON_TEXT, PATHS, DASHED,
    )

    def values(flag):
        if flag.type is int:
            return integers
        if flag.type is _fraction:
            return FRACTIONS
        if choices(flag):
            return st.sampled_from((*choices(flag), "nope"))
        return STRING_VALUES.get(flag.option, any_token)

    command = draw(st.sampled_from(tuple(SUBCOMMANDS)))
    own = [f for f in SUBCOMMANDS[command][1] if f not in OUTPUT and (large or f.option != LARGE)]
    flags = [f for f in own if f.required and draw(st.integers(0, 9))]
    keep = draw(st.integers(1, 2))  # each optional flag given with chance 1/3 or 2/3
    flags += [f for f in own if not f.required and draw(st.integers(0, 2)) < keep]
    flags += [f for f in COMMON if draw(st.integers(0, 5)) == 0]
    argv = [command]
    for flag in draw(st.permutations(flags)):
        if flag.type is bool:
            argv.append(flag.option)
            continue
        value = draw(any_token if draw(st.integers(0, 19)) == 0 else values(flag))
        argv += [f"{flag.option}={value}"] if draw(st.integers(0, 3)) == 0 else [flag.option, value]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(any_token))
    config_lines = st.one_of(
        st.tuples(st.sampled_from([o[2:] for o in options]),
                  st.one_of(integers, PARTITIONS, FRACTIONS,
                            st.sampled_from(("true", "false", ""))))
        .map("=".join),
        st.sampled_from(("# comment", "", "no equals sign", "=1", "out=report.txt")),
    )
    return argv, draw(st.lists(config_lines, max_size=4))


def _listing(path):
    return sorted(os.listdir(path))


def _call(argv, config, input_json, where):
    # (exit code, stdout, stderr) of main, its files written afresh: an
    # earlier --out may have overwritten them
    (where / "fuzz.cfg").write_text("\n".join(config) + "\n")
    (where / "input.json").write_text(input_json)
    (where / "latin1.bin").write_bytes("# café\nn=2\n".encode("latin-1"))  # not UTF-8
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_main(argv, config, input_json, where) -> list[bool]:
    """Whether argparse read each argv that main parsed alike."""
    code, out, err = _call(argv, config, input_json, where)
    assert code in (0, 1, 2, 64), (argv, code, err)
    assert "Traceback" not in err, argv
    if code != 0:
        assert not out, argv
    with parsed_twice() as seen:
        assert _call(argv, config, input_json, where) == (code, out, err), argv
    return seen


def test_main_survives_random_requests(tmp_path, monkeypatch):
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    outside = {p: _listing(p) for p in (tmp_path, tmp_path.parent)}

    @settings(
        max_examples=300, deadline=2000, derandomize=True, database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(request=requests(), input_json=JSON_TEXT)
    def fuzz(request, input_json):
        seen.extend(check_main(*request, input_json, work))

    seen = []
    fuzz()
    assert {p: _listing(p) for p in outside} == outside
    # most requests are compared with argparse's reading, not all
    assert 0.5 * len(seen) < sum(seen) < len(seen)


# each reader of a JSON table, called so that it reads the table
TABLE_READERS = (
    ["decompose", "--n", "2", "--values"],
    ["stability-scan", "--entries"],
    ["fit-charpoly", "--degree-bound", "0", "--entries"],
    ["fit-dimpoly", "--degree-bound", "0", "--dims"],
)


def test_every_literal_in_every_table_is_answered_at_once(tmp_path, monkeypatch):
    # the random requests above reach a given literal in a table its
    # reader parses too rarely to be sure of it; here each one is, within
    # the fuzzer's deadline
    monkeypatch.chdir(tmp_path)
    for reader in TABLE_READERS:
        for table in LITERAL_TABLES:
            for value in LITERALS:
                argv = [*reader, table.replace("VALUE", value)]
                start = time.monotonic()
                check_main(argv, [], "", tmp_path)
                assert time.monotonic() - start < 2.0, argv
