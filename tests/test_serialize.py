import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinring import atomic_write, emit_csv, emit_json, format_real, parse_real
from spinring.serialize import JSON_INFINITY, write_output


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


def test_emit_csv_tokens():
    text = emit_csv(("alpha", "flag", "n"), [(math.inf, True, 2), (0.05, False, 3)])
    lines = text.splitlines()
    assert lines[0] == "alpha,flag,n"
    assert lines[1] == "inf,true,2"
    assert lines[2].startswith("0.050000000000000003,false,3")
    assert text.endswith("\n")


def test_emit_csv_pins_bytes():
    rows = [(3, True, False, math.inf, -math.inf, -0.0, 1e22, 1e-300, 12.0),
            (-7, 0, 1.5, np.float64(2.0), 1e16, -1e17, 5e-324, 0.1, 2.0 ** 60)]
    assert emit_csv(tuple("abcdefghi"), rows) == (
        "a,b,c,d,e,f,g,h,i\n"
        "3,true,false,inf,-inf,-0.0,1e+22,1e-300,12.0\n"
        "-7,0,1.5,2.0,10000000000000000.0,-1e+17,4.9406564584124654e-324,"
        "0.10000000000000001,1.152921504606847e+18\n")


EDGE_REALS = (0.0, -0.0, 1.0, -2.0, 0.5, 1e16, -1e16, 9007199254740993.0, 99999999999999984.0,
              1e17, -1e17, 1e22, 2.0 ** 60, math.inf, -math.inf, 5e-324, -5e-324, 1e-300,
              0.1, 1 / 3, 12.0, np.float64(2.0), np.float64(-0.0), np.float64(1e17))


def _format_real_row(row) -> str:
    """A CSV row cell by cell through ``format_real``: the bytes ``emit_csv`` must keep."""
    return ",".join(format_real(c) if isinstance(c, float) else
                    ("true" if c else "false") if isinstance(c, bool) else str(c) for c in row)


def test_emit_csv_row_templates_match_format_real():
    rows = [EDGE_REALS, (3, True, 1e16, False, "x%sy", -0.0, 7)]
    assert emit_csv(("h",), rows) == "h\n" + "".join(_format_real_row(r) + "\n" for r in rows)
    with pytest.raises(ValueError, match="NaN"):
        emit_csv(("a", "b"), [(1.0, math.nan)])


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=6))
def test_emit_csv_matches_format_real_on_any_floats(row):
    assert emit_csv(("h",), [row]) == "h\n" + _format_real_row(row) + "\n"


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
