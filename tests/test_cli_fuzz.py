"""`main()` driven in-process with random argv, inline JSON, config files
and input files.

Whatever it is given, `main` must return 0, 1, 2 or 64, let no exception
escape, print no traceback, and write its `--out` reports only where it
is told to (here: inside the test's temporary directory, which is also
the working directory).  It must answer every request with the same bytes
when the full parser parses it (`cli_oracle.parse_twice`), and parse a
request that starts with a subcommand with that subcommand's parser
alone.  JSON values include infinities, 1e999 and an
integer literal past the interpreter's 4300-digit cap, and one of the
files it may read is not UTF-8.  Integers reach 10^6, so many requests
are over the work budget and must be refused at once; a request that
passes --allow-large (on the command line or in its config file) keeps
them <= 6, so that it stays small.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

from cli_oracle import parse_args_calls, parsed_twice
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fistab.bounds import TABLE1_ROWS
from fistab.cli import main

SMALL_INTEGERS = st.one_of(st.integers(0, 6), st.integers(1, 4), st.integers(-2, 6)).map(str)
WIDE_INTEGERS = st.one_of(SMALL_INTEGERS, st.integers(7, 10**6).map(str))
PARTITIONS = st.sampled_from(
    ("1", "2", "3", "2+1", "1+1+1", "3+1", "2+2", "", "+", "0", "-1", "2+x", "1+2", "3++1", "1.5")
)
FRACTIONS = st.one_of(
    st.tuples(st.integers(-1, 6), st.integers(1, 3)).map(lambda pq: f"{pq[0]}/{pq[1]}"),
    st.integers(-1, 6).map(lambda p: f"{p}/0"),
    st.sampled_from(("0", "1", "x", "1/x", "1e3", "1.5", "-1")),
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
# values json.dumps cannot write, set into near-valid tables as literal text
LITERALS = st.sampled_from(("Infinity", "-Infinity", "NaN", "1e999", "7" * 5000))
LITERAL_JSON = st.builds(
    str.replace,
    st.sampled_from((
        '{"1+1": VALUE, "2": 0}',
        '{"entries": {"2": {"2": VALUE}}}',
        '{"entries": {"2": {"1+1": 1, "2": VALUE}}}',
        '{"2": VALUE, "3": 3, "4": 6}',
    )),
    st.just("VALUE"),
    LITERALS,
)
JSON_TEXT = st.one_of(KNOWN_JSON, JSON_VALUES.map(json.dumps), LITERAL_JSON)
GRADED_DIMS = st.sampled_from(("1", "1,2", "1,1,1", "0", "1,x", "", ",", "-1,2", "2,0,1"))
# paths relative to the working directory, which is the temporary one
PATHS = st.one_of(
    st.sampled_from(("report.txt", "input.json", "fuzz.cfg", "latin1.bin")),
    st.sampled_from(("missing/report.txt", ".")),
)

INTEGER_FLAGS = (
    "--n", "--regular", "--degree-bound", "--i", "--page", "--p", "--q",
    "--degenerates-at", "--n-min", "--n-max", "--k", "--a-max",
)
FLAG_VALUES = {
    "--format": st.sampled_from(("json", "text", "csv", "xml")),
    "--lam": PARTITIONS,
    "--mu": PARTITIONS,
    "--values": JSON_TEXT,
    "--entries": JSON_TEXT,
    "--dims": JSON_TEXT,
    "--alpha": FRACTIONS,
    "--beta": FRACTIONS,
    "--row": st.sampled_from(TABLE1_ROWS + ("nope",)),
    "--graded-dims": GRADED_DIMS,
    "--out": PATHS,
    "--input": PATHS,
    "--config": PATHS,
}
LARGE = "--allow-large"
SWITCHES = ("--fisharp", LARGE, "--decompose")
# subcommand -> (required flags, optional groups of flags given together);
# switches take no value
FLAGS = {
    "character": (("--lam",), (("--mu",), (LARGE,))),
    "decompose": (("--n",), (("--values",), ("--input",), (LARGE,))),
    "m-module": (("--n",), (("--lam",), ("--regular",), (LARGE,))),
    "stability-scan": ((), (("--entries",), ("--input",))),
    "fit-charpoly": (("--degree-bound",), (("--entries",), ("--input",), (LARGE,))),
    "fit-dimpoly": (("--degree-bound",), (("--dims",), ("--input",), (LARGE,))),
    "bounds": (("--alpha", "--beta", "--i"),
               (("--page", "--p", "--q"), ("--fisharp",), ("--degenerates-at",))),
    "table1": (("--row", "--i"), ()),
    "os-scan": (("--n-min", "--n-max", "--k"), (("--a-max",), (LARGE,))),
    "wreath-scan": (("--graded-dims", "--i", "--n-max"), (("--n-min",), (LARGE,))),
    "kunneth": (("--graded-dims", "--n", "--i"), (("--decompose",), (LARGE,))),
}
SUBCOMMANDS = tuple(FLAGS)
COMMON = ("--out", "--format", "--config")


@st.composite
def requests(draw):
    """(argv, config lines).  Mostly well-formed requests: a subcommand,
    most of its required flags, some optional ones, values of roughly the
    right kind; now and then a value of the wrong kind or a stray token.
    One request in four may pass --allow-large and draws integers <= 6;
    the others never pass it and draw integers up to 10^6."""
    large = draw(st.integers(0, 3)) == 0
    integers = SMALL_INTEGERS if large else WIDE_INTEGERS
    switches = SWITCHES if large else tuple(s for s in SWITCHES if s != LARGE)
    values = {**FLAG_VALUES, **dict.fromkeys(INTEGER_FLAGS, integers)}
    any_token = st.one_of(
        st.sampled_from(SUBCOMMANDS + tuple(values) + switches + ("--help", "--")),
        integers, PARTITIONS, FRACTIONS, JSON_TEXT, PATHS,
    )
    command = draw(st.sampled_from(SUBCOMMANDS))
    required, optional = FLAGS[command]
    flags = [f for f in required if draw(st.integers(0, 9))]
    flags += [
        f for group in optional
        if (large or LARGE not in group) and draw(st.integers(0, 2)) == 0
        for f in group
    ]
    flags += [f for f in COMMON if draw(st.integers(0, 5)) == 0]
    flags = draw(st.permutations(flags))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag not in SWITCHES:
            argv.append(draw(any_token if draw(st.integers(0, 19)) == 0 else values[flag]))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(any_token))
    config_lines = st.one_of(
        st.tuples(st.sampled_from([f[2:] for f in (*values, *switches)]),
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


def check_main(argv, config, input_json, where):
    with parse_args_calls() as progs:
        code, out, err = _call(argv, config, input_json, where)
    assert code in (0, 1, 2, 64), (argv, code, err)
    assert "Traceback" not in err, argv
    if code != 0:
        assert not out, argv
    if argv[0] in SUBCOMMANDS:
        assert "fistab" not in progs, argv
    with parsed_twice():
        assert _call(argv, config, input_json, where) == (code, out, err), argv


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
        check_main(*request, input_json, work)

    fuzz()
    assert {p: _listing(p) for p in outside} == outside
