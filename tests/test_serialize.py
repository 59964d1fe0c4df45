import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import spinring.cli as cli_module
import spinring.serialize as serialize_module
from spinring import atomic_write, emit_json, format_real, parse_real
from spinring.serialize import JSON_INFINITY, emit_csv, emit_rows, write_output


def test_format_real_basic_forms():
    assert format_real(1.0) == "1.0"
    assert format_real(-2.0) == "-2.0"
    assert format_real(0.0) == "0.0"
    assert format_real(0.5) == "0.5"
    assert format_real(1e30) == "1e+30"
    assert format_real(math.inf) == "inf"
    assert format_real(-math.inf) == "-inf"
    assert format_real(math.inf, JSON_INFINITY) == "Infinity"
    with pytest.raises(ValueError):
        format_real(math.nan)


def test_format_real_round_trips_exactly():
    rng = np.random.default_rng(11)
    values = [0.05, 1 / 3, math.pi, 2 ** -52, 1e-300, 12.0, 7.286]
    values += list(rng.normal(size=50))
    values += list(rng.normal(size=20) * 1e18)
    for value in values:
        assert float(format_real(value)) == value
        assert parse_real(format_real(value)) == value


def test_parse_real_infinity_tokens():
    assert parse_real("inf") == math.inf
    assert parse_real("Infinity") == math.inf
    assert parse_real("-inf") == -math.inf
    assert parse_real(" -Infinity ") == -math.inf
    with pytest.raises(ValueError):
        parse_real("not-a-number")


def test_emit_json_round_trip():
    doc = {
        "name": "x",
        "count": 3,
        "value": 0.05,
        "flag": True,
        "nothing": None,
        "items": [1.0, math.inf, "s"],
        "nested": {"empty_list": [], "empty_map": {}},
    }
    text = emit_json(doc)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert parsed["value"] == 0.05
    assert parsed["items"][1] == math.inf
    assert parsed == doc
    assert emit_json(doc) == text


def test_emit_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        emit_json({"bad": {1, 2}})


def test_emit_json_escapes_strings():
    text = emit_json({"k": 'quote " and \\ backslash'})
    assert json.loads(text)["k"] == 'quote " and \\ backslash'


def test_emit_json_quotes_keys_and_strings_as_json_dumps_does():
    # keys and strings are written by json's own ASCII quoting, which json.dumps runs for a str
    texts = ["", "plain", 'say "hi"', "back\\slash \\u0041", "tab\tline\nfeed\r\x00\x1f\x7f",
             "caf\u00e9 \u03b1 \u2260 \u221e", "\U0001f600 \ud800", "/</script>"]
    for text in texts:
        assert serialize_module._quoted(text) == json.dumps(text)
        doc = emit_json({text: [text, {text: text}]})
        assert doc == (f'{{\n  {json.dumps(text)}: [\n    {json.dumps(text)},\n    {{\n'
                       f'      {json.dumps(text)}: {json.dumps(text)}\n    }}\n  ]\n}}\n')
        assert json.loads(doc) == {text: [text, {text: text}]}
        assert doc.isascii()


def _table(alpha, energies, multiplicities, cells=None):
    return (alpha, np.array(energies, dtype=float), np.array(multiplicities, dtype=int),
            None if cells is None else np.array(cells, dtype=float))


def _table_rows(tables) -> list:
    """The tuple rows of ``emit_csv``'s tables, cell by cell."""
    return [(alpha, li, energy, m, *([] if cells is None else [sep, *cells[li, sep - 1]]))
            for alpha, energies, multiplicities, cells in tables
            for li, (energy, m) in enumerate(zip(energies.tolist(), multiplicities.tolist()))
            for sep in ([None] if cells is None else range(1, cells.shape[1] + 1))]


def test_emit_csv_tokens():
    text = emit_csv(("alpha", "level_index", "energy", "multiplicity"),
                    [_table(math.inf, [-3.0, 1.0], [1, 3]), _table(0.05, [0.5], [2])])
    lines = text.splitlines()
    assert lines[0] == "alpha,level_index,energy,multiplicity"
    assert lines[1:3] == ["inf,0,-3.0,1", "inf,1,1.0,3"]
    assert lines[3] == "0.050000000000000003,0,0.5,2"
    assert text.endswith("\n")


def test_emit_csv_pins_bytes():
    rows = [(3, True, False, math.inf, -math.inf, -0.0, 1e22, 1e-300, 12.0),
            (-7, 0, 1.5, np.float64(2.0), 1e16, -1e17, 5e-324, 0.1, 2.0 ** 60)]
    assert oracles.emit_csv(tuple("abcdefghi"), rows) == (
        "a,b,c,d,e,f,g,h,i\n"
        "3,true,false,inf,-inf,-0.0,1e+22,1e-300,12.0\n"
        "-7,0,1.5,2.0,10000000000000000.0,-1e+17,4.9406564584124654e-324,"
        "0.10000000000000001,1.152921504606847e+18\n")
    # the same reals through the level tables
    tables = [_table(math.inf, [-0.0, 1e22], [3, 1], [[[-math.inf, 1e-300, 12.0, 1.5, 2.0]],
                                                      [[1e16, -1e17, 5e-324, 0.1, 2.0 ** 60]]])]
    assert emit_csv(tuple("abcdefghij"), tables) == (
        "a,b,c,d,e,f,g,h,i,j\n"
        "inf,0,-0.0,3,1,-inf,1e-300,12.0,1.5,2.0\n"
        "inf,1,1e+22,1,1,10000000000000000.0,-1e+17,4.9406564584124654e-324,"
        "0.10000000000000001,1.152921504606847e+18\n")


EDGE_REALS = (0.0, -0.0, 1.0, -2.0, 0.5, 1e16, -1e16, 9007199254740993.0, 99999999999999984.0,
              1e17, -1e17, 1e22, 2.0 ** 60, math.inf, -math.inf, 5e-324, -5e-324, 1e-300,
              0.1, 1 / 3, 12.0, np.float64(2.0), np.float64(-0.0), np.float64(1e17))

# where %.17g and %.1f part: +-0, +-1e17 and 2^53 and their neighbours, subnormals, infinities
BOUNDARY_REALS = (0.0, -0.0, *(sign * x for sign in (1.0, -1.0) for x in (
    1e17, np.nextafter(1e17, 0.0), np.nextafter(1e17, math.inf), 2.0 ** 53 - 1, 2.0 ** 53,
    2.0 ** 53 + 2, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, math.inf)))


def _format_real_row(row) -> str:
    """A CSV row cell by cell through ``format_real``: the bytes ``emit_csv`` must keep."""
    return ",".join(format_real(c) if isinstance(c, float) else
                    ("true" if c else "false") if isinstance(c, bool) else str(c) for c in row)


def _format_real_text(header, rows) -> str:
    return ",".join(header) + "\n" + "".join(_format_real_row(r) + "\n" for r in rows)


def test_emit_csv_row_templates_match_format_real():
    rows = [EDGE_REALS, (3, True, 1e16, False, "x%sy", -0.0, 7)]
    assert oracles.emit_csv(("h",), rows) == _format_real_text(("h",), rows)
    with pytest.raises(ValueError, match="NaN"):
        oracles.emit_csv(("a", "b"), [(1.0, math.nan)])
    # every edge real as alpha, as an energy, and in every cell column
    reals = [float(x) for x in EDGE_REALS]
    cells = np.resize(reals, (len(reals), 2, 5))
    tables = [_table(alpha, reals, range(len(reals)), cells) for alpha in reals]
    assert emit_csv(("h",), tables) == _format_real_text(("h",), _table_rows(tables))
    tables = [_table(alpha, reals, range(len(reals))) for alpha in reals]
    assert emit_csv(("h",), tables) == _format_real_text(("h",), _table_rows(tables))
    for table in ((math.nan, [1.0], [1]), (1.0, [math.nan], [1]),
                  (1.0, [1.0], [1], [[[0.0, math.nan, 0.0, 0.0, 0.0]]])):
        with pytest.raises(ValueError, match="NaN has no serialized form"):
            emit_csv(("h",), [_table(*table)])


reals = st.one_of(st.floats(allow_nan=False), st.sampled_from(BOUNDARY_REALS))


@st.composite
def level_tables(draw):
    """A list of (alpha, energies, multiplicities, cells or None) of any non-NaN reals."""
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        n_levels, n_seps = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        cells = None if draw(st.booleans()) else [
            [draw(st.lists(reals, min_size=5, max_size=5)) for _ in range(n_seps)]
            for _ in range(n_levels)]
        tables.append(_table(draw(reals), draw(st.lists(reals, min_size=n_levels,
                                                        max_size=n_levels)),
                             draw(st.lists(st.integers(1, 10 ** 6), min_size=n_levels,
                                           max_size=n_levels)), cells))
    return tables


@settings(max_examples=500, deadline=None)
@given(level_tables())
def test_emit_csv_matches_format_real_on_any_floats(tables):
    header = ("alpha", "level_index", "energy", "multiplicity")
    assert emit_csv(header, tables) == _format_real_text(header, _table_rows(tables))
    assert emit_csv(header, tables) == oracles.emit_csv(header, _table_rows(tables))


def _crossing_docs(values) -> list:
    """The "crossings" entries of the (alpha, lo, hi, curve, curve) rows, as report wrote each
    one's dict."""
    return [{"alpha": alpha, "bracket": [lo, hi], "kind": "crossing", "curve_indices": [a, b]}
            for alpha, lo, hi, a, b in ((*row[:3], *map(int, row[3:])) for row in values.tolist())]


def _assert_crossing_rows_match_emit(values):
    # the row template at the list's place in the report, and one level further in
    values = np.array(values, dtype=float).reshape(-1, 5)
    docs = _crossing_docs(values)
    assert emit_json({"n": 1, "crossings": emit_rows(cli_module._CROSSING, values, 2), "x": None}) \
        == emit_json({"n": 1, "crossings": docs, "x": None})
    assert emit_json({"a": {"b": emit_rows(cli_module._CROSSING, values, 4)}}) \
        == emit_json({"a": {"b": docs}})


def test_crossing_rows_pin_bytes():
    _assert_crossing_rows_match_emit([])
    assert emit_rows(cli_module._CROSSING, np.empty((0, 5)), 2) == "[]"
    # the interval up to --extra inf, integral and large reals, -0 and a subnormal
    rows = [(math.inf, 7.5, math.inf, 3, 12), (-0.0, 1e17, 12.0, 0, 1),
            (5e-324, 0.1, 2.0 ** 60, 7, 2)]
    _assert_crossing_rows_match_emit(rows)
    text = emit_rows(cli_module._CROSSING, np.array(rows, dtype=float), 2)
    assert '"alpha": Infinity,' in text and '"alpha": -0.0,' in text and "1e+17" in text
    assert json.loads(text)[0]["bracket"] == [7.5, math.inf]
    with pytest.raises(ValueError, match="NaN has no serialized form"):
        emit_rows(cli_module._CROSSING, np.array([[math.nan, 0.0, 1.0, 0, 1]]), 2)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(reals, reals, reals, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)),
                max_size=6))
def test_crossing_rows_match_emit_on_any_floats(rows):
    _assert_crossing_rows_match_emit(rows)


def test_atomic_write_creates_and_replaces(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write(str(target), "first\n")
    assert target.read_text() == "first\n"
    atomic_write(str(target), "second\n")
    assert target.read_text() == "second\n"
    # no temporary files survive
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_output_stdout(capsys):
    write_output("hello\n", None)
    assert capsys.readouterr().out == "hello\n"


def test_write_output_path(tmp_path):
    target = tmp_path / "f.csv"
    write_output("a,b\n", str(target))
    assert target.read_text() == "a,b\n"
