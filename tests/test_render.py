"""`cli.render` against its oracles on generated report trees.

A report is a tree of dicts with string keys, lists, strings, ints,
bools and None.  Through `cli._emit`, the JSON report must be the bytes
of `json.dumps(payload, indent=2)` and the text and CSV reports those of
the recursive walks kept in `cli_oracle`, for every tree: empty keys and
strings, non-ASCII and control characters, empty and nested empty
containers, and ints past the interpreter's default cap on int-to-str
digits.  The CSV oracle is `csv.writer` held to one quoting rule on
every CPython: a field is quoted iff it holds a comma, a double quote, a
line feed or a carriage return.
"""

import csv
import io
import json
import sys
from contextlib import contextmanager, redirect_stdout
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

import cli_oracle
from fistab import cli

ODD_STRINGS = st.sampled_from([
    "", "()", "\x00", "\t\n\r", '"', "\\", "é", " ", "😀", "a.b", "a,b", "\r", '"x"',
])
STRINGS = st.one_of(ODD_STRINGS, st.text(max_size=6))
# more digits than the 4300 that CPython converts by default
HUGE_INTS = st.builds(
    lambda digits, sign: sign * (10**digits - 1), st.integers(4301, 4400), st.sampled_from([1, -1])
)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), HUGE_INTS, STRINGS)
TREES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(STRINGS, children, max_size=4)
    ),
    max_leaves=24,
)


@contextmanager
def _no_digit_cap():
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


def _oracle(payload, fmt: str) -> str:
    with _no_digit_cap():
        if fmt == "json":
            return json.dumps(payload, indent=2) + "\n"
        if fmt == "text":
            return "\n".join(cli_oracle.render_text(payload)) + "\n"
        # csv.writer quotes a field that holds a character of its line
        # terminator, so under "\r\n" every CPython quotes a field iff it
        # holds ",", '"', "\n" or "\r" (3.13 quotes "\n" and "\r" under any
        # terminator); each row's own "\r\n" is then written as "\n"
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        rows = []
        for key, value in cli_oracle.flatten(payload):
            writer.writerow([key, value])
            rows.append(buf.getvalue().removesuffix("\r\n") + "\n")
            buf.seek(0)
            buf.truncate()
        return "".join(rows)


def _emitted(payload, fmt: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        cli._emit(payload, SimpleNamespace(format=fmt, out=None))
    return out.getvalue()


EDGE_TREES = (
    {}, [], "", None, True, 0, {"": {}}, {"": []}, [[]], [{}], {"a": [[], {}]},
    [[1, 2], [True, None, ""]], {"x": {"y": {}}, "": [{"": ""}]}, -(10**5000 - 1),
)


def _with_edge_trees(test):
    for payload in EDGE_TREES:
        test = example(payload)(test)
    return test


@_with_edge_trees
@given(TREES)
@settings(max_examples=300, deadline=None)
def test_render_matches_its_oracles(payload):
    for fmt in ("json", "text", "csv"):
        assert _emitted(payload, fmt) == _oracle(payload, fmt), fmt
