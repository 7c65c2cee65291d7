"""The report writer renders exactly the bytes of ``json.dumps(indent=2, sort_keys=True)``,
streamed to the file in pieces, for every value a report holds, a ``Term`` or ``PauliOp``
written as its ``to_json()``; no report holds a float."""

import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cssgauge import cli
from cssgauge.builders import build_gcc
from cssgauge.cli import _write_json
from cssgauge.gf2 import BitVec
from cssgauge.pauli import PauliOp, Term

from tests.oracles import stdlib_json


def _written(data) -> str:
    """The text ``_write_json`` writes for ``data``, without its final newline."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "r.json"
        _write_json(path, data)
        text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text[:-1]


TEXT = st.text(alphabet=st.sampled_from(
    ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "漢", " ", "\U0001F600",
     "[", "]", "{", "}", ",", ":", " ", "a", "Z", "0"]), max_size=8)
INTS = st.one_of(st.integers(-1000, 1000), st.integers(-(1 << 80), 1 << 80))
SCALARS = st.one_of(INTS, st.booleans(), st.none(), TEXT)


@st.composite
def int_rows_with_a_bool(draw):
    """A list of int lists with one bool in one row: it must miss the fast path."""
    rows = draw(st.lists(st.lists(INTS, max_size=4), min_size=1, max_size=4))
    row = rows[draw(st.integers(0, len(rows) - 1))]
    row.insert(draw(st.integers(0, len(row))), draw(st.booleans()))
    return rows


# The shapes the fast paths take, bools mixed into int lists included.  The
# long lists of int lists, with rows of many lengths, make many row templates.
LEAF_LISTS = st.one_of(st.lists(INTS, max_size=6), st.lists(TEXT, max_size=6),
                       st.lists(st.lists(INTS, max_size=4), max_size=4),
                       st.lists(st.lists(INTS, max_size=12), max_size=40),
                       st.lists(st.one_of(INTS, st.booleans()), max_size=6),
                       int_rows_with_a_bool())
KEYS = st.one_of(st.lists(TEXT), st.lists(INTS), st.lists(st.booleans()),
                 st.lists(st.none(), max_size=1))


@st.composite
def dicts(draw, values):
    keys = draw(KEYS.map(lambda keys: keys[:5]))
    return {k: draw(values) for k in keys}


VALUES = st.recursive(
    st.one_of(SCALARS, LEAF_LISTS),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            dicts(inner)),
    max_leaves=20)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(VALUES)
def test_property_writer_matches_stdlib(data):
    assert _written(data) == stdlib_json(data)


# Lists of dicts of one key set, whose columns are strs, exact ints, int
# lists of mixed lengths or nested dicts of one key set, longer than one chunk
# of ``cli._pieces``.  No template fills a dict, so each is written element by
# element, its int lists and columns of strs filled by the template rule
# (``cli._filled``).  Keys and strs may hold "%", which the text must keep.
TEMPLATE_TEXT = st.text(alphabet=st.sampled_from(['%', 'd', 's', '"', "\\", "\n", "é", "a"]),
                        max_size=4)
INT_ROWS = st.lists(INTS, max_size=5)


@st.composite
def same_keyed(draw, length, depth=1):
    """``length`` dicts of one key set; each key is a column of one kind."""
    keys = draw(st.one_of(st.lists(TEMPLATE_TEXT, max_size=4, unique=True),
                          st.lists(st.integers(-5, 5), max_size=3, unique=True)))
    kinds = [TEMPLATE_TEXT, INTS, INT_ROWS] + ([None] if depth else [])
    rows = [{} for _ in range(length)]
    for k in keys:
        kind = draw(st.sampled_from(kinds))
        column = (draw(same_keyed(length, depth - 1)) if kind is None
                  else draw(st.lists(kind, min_size=length, max_size=length)))
        for row, v in zip(rows, column):
            row[k] = v
    return rows


SAME_KEYED = st.integers(1, 3 * cli.CHUNK).flatmap(same_keyed)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(SAME_KEYED)
def test_property_template_rule_matches_stdlib(rows):
    # Streamed a chunk at a time (a list in a dict) and whole (a list in a list).
    for wrapped in (rows, {"rows": rows}, [rows]):
        assert _written(wrapped) == stdlib_json(wrapped)


def _add_column(rows, values, nested):
    """Give each of ``rows`` one more key, of the type of their keys, holding the
    next of ``values``, or a dict that holds it when ``nested``; return the key."""
    key = 99 if any(type(k) is int for k in rows[0]) else "added"
    for row, v in zip(rows, values):
        row[key] = {"v": v} if nested else v
    return key


@settings(derandomize=True, max_examples=40, deadline=None)
@given(SAME_KEYED, st.sampled_from([INTS, INT_ROWS]), st.sampled_from([True, False, None]),
       st.booleans(), st.data())
def test_property_near_miss_falls_back(rows, kind, odd, nested, data):
    # One bool or None in an int column, or in an int list, at the top or
    # one dict down: its chunk takes the per-element path.
    key = _add_column(rows, data.draw(st.lists(kind, min_size=len(rows), max_size=len(rows))),
                      nested)
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    cell, key = (row[key], "v") if nested else (row, key)
    cell[key] = odd if kind is INTS else [*cell[key], odd]
    for wrapped in (rows, {"rows": rows}, [rows]):
        assert _written(wrapped) == stdlib_json(wrapped)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(SAME_KEYED, st.sampled_from([1.5, [1, 2.0]]), st.booleans(), st.data())
def test_property_float_in_a_column_is_rejected(rows, odd, nested, data):
    key = _add_column(rows, [1 if type(odd) is float else [1]] * len(rows), nested)
    cell = rows[data.draw(st.integers(0, len(rows) - 1))]
    if nested:
        cell[key]["v"] = odd
    else:
        cell[key] = odd
    # No report holds a float, so the writer rejects one where json.dumps writes it.
    for wrapped in (rows, {"rows": rows}, [rows]):
        with pytest.raises(TypeError, match="float"):
            _written(wrapped)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(2, 3 * cli.CHUNK).flatmap(same_keyed), st.data())
def test_property_shared_dict_matches_stdlib(rows, data):
    # A dict met twice is encoded twice, as json.dumps does.
    key = _add_column(rows, range(len(rows)), nested=True)
    i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    rows[j][key] = rows[i][key]
    for wrapped in (rows, {"rows": rows}, [rows]):
        assert _written(wrapped) == stdlib_json(wrapped)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(SAME_KEYED, st.booleans(), st.data())
def test_property_cycle_through_an_element_is_rejected(rows, through_list, data):
    key = _add_column(rows, range(len(rows)), nested=True)
    row = rows[data.draw(st.integers(0, len(rows) - 1))]
    row[key] = {"v": rows} if through_list else row
    for wrapped in (rows, {"rows": rows}, [rows]):
        with pytest.raises(ValueError, match="Circular reference"):
            stdlib_json(wrapped)
        with pytest.raises(ValueError, match="Circular reference"):
            _written(wrapped)


# Terms and PauliOps, the values a report holds unconverted: random supports
# (empty and full among them) on 1 to 200 qubits, and names and couplings of
# any text, or now and then not of text (written as their to_json() holds them).
@st.composite
def pauli_ops(draw, n):
    bits = st.one_of(st.just(0), st.just((1 << n) - 1), st.integers(0, (1 << n) - 1))
    return PauliOp(n, BitVec(n, draw(bits)), BitVec(n, draw(bits)), draw(st.integers(0, 3)))


@st.composite
def operator_lists(draw):
    """A list of Terms, of PauliOps or of both, of a length that ends chunks or misses."""
    n = draw(st.integers(1, 200))
    length = draw(st.sampled_from([0, 1, 31, 32, 33, 65]))
    kind = draw(st.sampled_from(["terms", "ops", "both"]))
    # One list in four may name a term by an int or None, which the templates leave out.
    labels = TEXT if draw(st.integers(0, 3)) else st.one_of(TEXT, INTS, st.none())
    out = []
    for _ in range(length):
        op = draw(pauli_ops(n))
        if kind == "ops" or kind == "both" and draw(st.booleans()):
            out.append(op)
        else:
            out.append(Term(draw(labels), draw(labels), op, x_combo=BitVec(1, 1)))
    return out


@st.composite
def placed(draw, value):
    """``value`` at a depth of 0 to 3, in dicts, lists and tuples, beside other values."""
    for _ in range(draw(st.integers(0, 3))):
        value = draw(st.sampled_from([
            {"terms": value, "n": 3}, {"a": [1], "b": value}, [value], [value, "x"], (value,)]))
    return value


@settings(derandomize=True, max_examples=60, deadline=None)
@given(operator_lists().flatmap(placed), st.booleans())
def test_property_terms_and_pauli_ops_match_stdlib(data, twice):
    if twice:       # the same list placed twice, as an ungauge report places its terms
        data = {"mapped_terms": data, "result": {"mapped_terms": data}}
    assert _written(data) == stdlib_json(data)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(operator_lists().filter(bool), st.sampled_from([BitVec(2, 1), {1, 2}, 1.5]), st.data())
def test_property_foreign_value_beside_terms_is_rejected(ops, foreign, data):
    ops.insert(data.draw(st.integers(0, len(ops))), foreign)
    data = data.draw(placed(ops))
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(TypeError):
            _write_json(Path(tmp) / "r.json", data)
        assert list(Path(tmp).iterdir()) == []


@pytest.mark.parametrize("data", [
    [], {}, (), [[]], [[], [1]], {"a": []}, [{}], {"b": {}, "a": ()},
    [1, True, 2], [True, False], [[1, True]], ["x", 1], [None],
    {10: "ten", 2: "two", -1: "minus"}, {True: 1, False: 0}, {None: 1},
    {"weight_histogram": {12: 3, 4: 1}}, -(1 << 70), 1 << 65, "\"\\\n\x01é漢",
    (1, (2, 3)), [[1, 2], (3, 4)],
    [{"a": [1]}, 2, "x", [{}]], ({"b": ()},), {"a": [{"c": {1: [{}]}}], "b": [[{"d": 1}]]},
    # Lists of dicts off the template rule: dicts of one size with other keys,
    # a column of bools, Nones, nested lists or mixed kinds; and keys with "%".
    [{"a": 1}, {"b": 1}], [{"a": {"x": 1}}, {"a": {"y": 1}}], [{"a": 1}, {"a": 1, "b": 2}],
    [{"a": True}, {"a": False}], [{"a": None}], [{"a": [True]}, {"a": [2]}], [{"a": [[1]]}],
    [{"a": "x"}, {"a": 1}], [{"a": (1, 2)}, {"a": [3]}], [{"a": [1, "x"]}],
    [[{"a": [1, "x"]}]], [{"%d": 1, "%": "%s"}],
    # Int lists whose first item is an int and a later one a str: the %d slot
    # turns the str away, and the list is written element by element.
    [[1], ["x"]], [[1, "x"]], [(1,), ("x",)],
], ids=repr)
def test_writer_matches_stdlib_on_edge_cases(data):
    assert _written(data) == stdlib_json(data)


@pytest.mark.parametrize("data", [
    {1, 2}, [1, {3}], {"a": BitVec(3, 5)}, [BitVec(2, 1)], BitVec(1, 1), {(1, 2): 3},
    {1: "int", "a": "str"},
], ids=["set", "set-in-list", "bitvec-in-dict", "bitvec-in-list", "bitvec", "tuple-key",
        "mixed-keys"])
def test_writer_rejects_what_json_rejects(data):
    with pytest.raises(TypeError):
        stdlib_json(data)
    with pytest.raises(TypeError):
        _written(data)


def test_writer_rejects_cycles():
    looped = [1, 2]
    looped.append(looped)
    nested = {"a": {"b": []}}
    nested["a"]["b"].append(nested)
    dict_in_list = [{"a": 1}]
    dict_in_list[0]["b"] = dict_in_list
    for data in (looped, nested, dict_in_list):
        with pytest.raises(ValueError, match="Circular reference"):
            stdlib_json(data)
        with pytest.raises(ValueError, match="Circular reference"):
            _written(data)
    shared = [1]
    assert _written([shared, shared, {"a": shared}]) == stdlib_json([shared, shared, {"a": shared}])


def test_failed_write_leaves_no_file(tmp_path):
    path = tmp_path / "r.json"
    with pytest.raises(TypeError):
        _write_json(path, {"a": [1], "b": {1, 2}})
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("data", [
    -0.0, 1e300, [1.5, 2], [float("inf"), float("-inf")], float("nan"), {0.5: 1, -2.0: 2},
    [[1.0]], {"a": float("inf")}, [{"a": [1, 2.0]}], {"a": {"b": 1e300}},
], ids=repr)
def test_writer_rejects_floats(tmp_path, data):
    # No report holds a float, so a float is a fault like any other foreign value.
    with pytest.raises(TypeError, match="float"):
        _write_json(tmp_path / "r.json", data)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,bound", [
    (["build", "--code", "gcc", "--L", "4"], 1.0),
    (["ungauge", "--code", "gcc", "--L", "2"], 0.5),
    (["ungauge", "--code", "gcc", "--L", "4"], 0.5),
    # One piece of 32 wall terms is most of the small report; the ratio falls as it grows.
    (["spt", "--code", "toric2d", "--L", "10", "--slab", "0:2"], 3.0),
    (["spt", "--code", "toric2d", "--L", "32", "--slab", "0:2"], 1.1),
], ids=["build-gcc-L4", "ungauge-gcc-L2", "ungauge-gcc-L4", "spt-toric2d-L10", "spt-toric2d-L32"])
def test_writer_memory_does_not_grow_with_the_report(tmp_path, monkeypatch, argv, bound):
    # The tracemalloc peak of writing one report, relative to the file's bytes.
    # Rendering the whole text before writing peaks at 3.0x on both reports;
    # streaming leaves the largest piece (one element of a list of dicts) to set it.
    reports = []
    monkeypatch.setattr(cli, "_write_json", lambda path, data: reports.append((path, data)))
    assert cli.main(argv + ["--out", str(tmp_path)]) == 0
    path, data = reports[0]
    tracemalloc.start()
    try:
        _write_json(path, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound * path.stat().st_size


def test_encoder_memory_on_a_list_of_int_lists():
    # One map of the gcc L=4 complex: a dict whose "entries" is 3072 [i, j]
    # lists, its pieces joined into one text.  One filled template per list,
    # with the brackets on its end items, leaves the join to set the peak at
    # about 2.5x the text; a string per row peaked at 3.8x, and brackets
    # added around the join at 3.0x.
    entry = build_gcc(4).css_complex().to_json()["maps"][0]
    tracemalloc.start()
    try:
        text = "".join(cli._pieces(entry, "\n      ", set()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * len(text)
