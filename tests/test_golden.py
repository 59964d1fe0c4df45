"""Reports against golden documents.

``tests/golden/`` holds the stdout of three ``report`` commands, captured
with one BLAS thread: N = 7 and 8 before crossings and entanglement
boundaries shared one bisection driver, and N = 10, where threading curves
by overlap and threading them by symmetry label part most often, before the
levels of a batch of alphas were assembled at once.  A refactor must keep
every key, count, census, curve index and event kind; floats may move by
rounding only, since other BLAS builds round differently.
"""

import json
import math
import os

import pytest

from spinring.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

GOLDEN = {
    "report_n7.json": ["report", "--n", "7", "--grid", "0.05:12:40:log", "--extra", "0",
                       "--extra", "2", "--extra", "inf", "--resolution", "0.01"],
    "report_n8.json": ["report", "--n", "8", "--grid", "0.5:8:15", "--resolution", "0.1"],
    "report_n10.json": ["report", "--n", "10", "--grid", "0.05:12:40:log", "--extra", "0",
                        "--extra", "2", "--extra", "inf", "--resolution", "0.1"],
}

FLOAT_TOLERANCE = 1e-9  # absolute


def assert_matches(got, want, path="$"):
    """Same structure exactly, floats within FLOAT_TOLERANCE."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for k, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{k}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert got == want or abs(got - want) <= FLOAT_TOLERANCE, f"{path}: {got!r} vs {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} vs {want!r}"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name, capsys):
    assert main(GOLDEN[name]) == 0
    got = json.loads(capsys.readouterr().out)
    with open(os.path.join(GOLDEN_DIR, name), encoding="utf-8") as handle:
        want = json.load(handle)
    assert want["crossings"] and want["entanglement_boundaries"]
    assert_matches(got, want)


def test_golden_comparison_catches_drift():
    doc = {"count": 3, "kind": "onset", "alpha": 1.5, "edge": math.inf}
    assert_matches(dict(doc), doc)
    assert_matches({**doc, "alpha": 1.5 + 1e-12}, doc)
    reordered = {"kind": "onset", "count": 3, "alpha": 1.5, "edge": math.inf}
    for bad in ({**doc, "alpha": 1.5 + 1e-6}, {**doc, "edge": 1e308}, {**doc, "count": 4},
                {**doc, "count": 3.0}, {**doc, "kind": "offset"}, {**doc, "extra": 1}, reordered):
        with pytest.raises(AssertionError):
            assert_matches(bad, doc)
