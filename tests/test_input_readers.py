"""The readers of input tables against the per-key versions they replaced.

`parse_partition` reads, sorts and checks the parts of a key in one pass;
`unique_keys`, the tables of `class_function` and `decomposition` and the
JSON object hook build their dict first and look for a key given twice
only when it came out short.  The versions that checked key by key are kept here as
oracles: every input gives the same result, or a DomainError with the
same message.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from fistab import partitions as PARTITIONS
from fistab.commands.inputs import _unique_object
from fistab.tables import _parse_table, class_function, decomposition, parse_exact, unique_keys
from fistab.errors import DomainError


def _oracle_parse_partition(text: str):
    if text.strip() in ("", "()"):
        return ()
    try:
        parts = [int(s) for s in text.split("+") if s.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad partition string {text!r}") from exc
    parts.sort(reverse=True)
    return PARTITIONS.check_partition(parts)


def _oracle_unique_keys(triples, what: str) -> dict:
    table, raw_of = {}, {}
    for raw, key, value in triples:
        if key in raw_of:
            raise DomainError(f"{what} gives one key twice: {raw_of[key]!r} and {raw!r}")
        raw_of[key] = raw
        table[key] = value
    return table


def _oracle_parse_table(mapping: dict, what: str) -> dict:
    return _oracle_unique_keys(
        ((k, _oracle_parse_partition(k), parse_exact(v, k)) for k, v in mapping.items()), what
    )


def _outcome(read, *args):
    """("ok", result with its key order) or ("refused", message)."""
    try:
        result = read(*args)
    except DomainError as exc:
        return ("refused", str(exc))
    return ("ok", list(result.items()) if isinstance(result, dict) else result)


KEYS = (
    "", "()", " ", " () ", "3+1", " 3 + 1 ", "3++1", "3+ +1", "+3", "3+", "+", "1+1+1", "2+1",
    "1+2", "2", "02", "0", "-1", "3+-1", "0+2", "3+0+2", "x", "3+x", "(3)", "1_0",
    "٣+١", "３", "٣", "3", "1.5", "9" * 5000,
)


def test_parse_partition_agrees_with_the_per_key_reader():
    for text in KEYS:
        assert _outcome(PARTITIONS.parse_partition, text) == _outcome(
            _oracle_parse_partition, text
        ), text


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="0123 +()-_x٣", max_size=8))
def test_parse_partition_agrees_on_drawn_keys(text):
    assert _outcome(PARTITIONS.parse_partition, text) == _outcome(_oracle_parse_partition, text)


VALUES = st.sampled_from((0, 1, 2, "1/2", "x", True, 2.5))
TABLES = st.lists(st.tuples(st.sampled_from(KEYS[:-1]), VALUES), max_size=6).map(dict)


def test_tables_agree_with_the_per_key_reader():
    # a key given twice, alone, or before or after a bad key or value
    tables = [
        {"2": 1, "02": 1},
        {"1+2": 1, "2+1": 2},
        {"2+1": 1, "3": 0, "1+2": 1},
        {"2": 1, "02": 1, "x": 1},
        {"x": 1, "2": 1, "02": 1},
        {"2": 1, "02": "x"},
        {"2": "x", "02": 1},
        {"()": 1, "": 2},
        {"3+1": 1, " 3 + 1 ": 1},
        {},
    ]
    for table in tables:
        for what in ("class function", "decomposition"):
            assert _outcome(_parse_table, table, what) == _outcome(
                _oracle_parse_table, table, what
            ), table


@settings(max_examples=500, deadline=None)
@given(TABLES)
def test_tables_agree_on_drawn_tables(table):
    assert _outcome(_parse_table, table, "decomposition") == _outcome(
        _oracle_parse_table, table, "decomposition"
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("a", "b", "2", "02", "")), st.integers(0, 3))))
def test_unique_keys_and_the_json_hook_agree_with_the_per_key_loop(pairs):
    assert _outcome(_unique_object, pairs) == _outcome(
        _oracle_unique_keys, ((k, k, v) for k, v in pairs), "JSON object"
    )
    levels = [(k, len(k), v) for k, v in pairs]  # raw keys that read as one level
    assert _outcome(unique_keys, levels, "sequence") == _outcome(
        _oracle_unique_keys, levels, "sequence"
    )


def test_a_table_needs_every_class_of_its_group():
    # the right count of classes is not enough: each must be a class of S_n
    assert class_function(3, {"1+1+1": 1, "2+1": 1, "3": 1}).n == 3
    for values in ({"1+1+1": 1, "2+1": 1, "4": 1}, {"1+1+1": 1, "2+1": 1}, {"3": 1}):
        assert _outcome(class_function, 3, values) == (
            "refused",
            "class function on S_3 must be defined on exactly the 3 cycle types",
        )
    assert _outcome(decomposition, 3, {"2+1": 1, "1+2": 1}) == (
        "refused",
        "decomposition gives one key twice: '2+1' and '1+2'",
    )
