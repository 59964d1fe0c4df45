"""Tests of the benchmark harness itself: span arithmetic, output checks and
a smoke run of every workload kind at N = 4.

Run from the root of a checkout with ``python3 -m pytest bench/tests``.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from check import CheckError, check_output  # noqa: E402
from run import END_TO_END_UNITS, TRACE_UNITS, measure  # noqa: E402
from tracer import LAYER_METRICS, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SMALL = {kind: Workload(f"{kind}-n4", kind, 4) for kind in ("spectrum", "concurrence", "report")}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["analysis.sweep", 0, 1.0, 4.0],
        ["spectra.diagonalize", 1, 2.0, 3.0],
        ["serialize.emit_json", 0, 5.0, 8.0],
        ["serialize.write_output", 0, 7.0, 9.0],      # overlaps its sibling
        ["spectra.cluster_levels", 0, 9.5, 11.0],     # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 4 - 0.5, 2, 1, 3, 2, 1.5])


def test_layer_metrics_attribute_spans_to_groups():
    spans = [
        ["cli.main", -1, 0.0, 10.0],
        ["analysis.all_crossings", 0, 1.0, 6.0],
        ["spectra.diagonalize", 1, 2.0, 5.0],
        ["model.build_sector_blocks", 2, 2.5, 3.0],
        ["spectra.cluster_levels", 2, 4.0, 4.5],
        ["spectra.diagonalize", 0, 7.0, 8.0],
    ]
    metrics = layer_metrics(spans, 4, output_bytes=123)
    assert set(metrics) == set(LAYER_METRICS)
    assert metrics["analysis.crossings_s"] == pytest.approx(2.0)
    assert metrics["spectra.eigensolve_s"] == pytest.approx(2.0 + 1.0)
    assert metrics["model.assembly_s"] == pytest.approx(0.5)
    assert metrics["spectra.cluster_s"] == pytest.approx(0.5)
    assert metrics["cli.self_s"] == pytest.approx(4.0)
    assert metrics["spectra.diagonalize_calls"] == 2
    assert metrics["analysis.crossings_diagonalizations"] == 1
    assert metrics["analysis.boundaries_diagonalizations"] == 0
    assert metrics["spectra.eig_work_computed"] == 2 * (1 + 64 + 216 + 64 + 1)
    assert metrics["spectra.eigvec_bytes_computed"] == 2 * 8 * 4 ** 4
    assert metrics["serialize.output_bytes"] == 123


def _cli_output(workload, seed=0):
    import spinring.cli
    argv, alphas = workload.inputs(seed)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        assert spinring.cli.main(argv) == 0
    return captured.getvalue(), alphas


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_check_accepts_the_program_output(kind):
    text, alphas = _cli_output(SMALL[kind])
    check_output(kind, 4, alphas, text, reference=text)


def test_check_rejects_a_perturbed_float_beyond_the_tolerance():
    text, alphas = _cli_output(SMALL["report"])
    doc = json.loads(text)
    doc["global_measures"][0]["oliveira"] += 1e-12
    check_output("report", 4, alphas, json.dumps(doc), reference=text)
    doc["global_measures"][0]["oliveira"] += 1e-6
    with pytest.raises(CheckError, match="oliveira"):
        check_output("report", 4, alphas, json.dumps(doc), reference=text)


def test_check_rejects_a_changed_structural_field():
    text, alphas = _cli_output(SMALL["report"])
    doc = json.loads(text)
    assert doc["crossings"], "the N = 4 report should locate a crossing"
    doc["crossings"][0]["kind"] = "onset"
    with pytest.raises(CheckError, match="kind"):
        check_output("report", 4, alphas, json.dumps(doc), reference=text)

    text, alphas = _cli_output(SMALL["spectrum"])
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[3] = str(int(cells[3]) + 1)
    lines[1] = ",".join(cells)
    with pytest.raises(CheckError, match="multiplicities"):
        check_output("spectrum", 4, alphas, "\n".join(lines) + "\n")


def test_check_rejects_a_broken_werner_identity():
    text, alphas = _cli_output(SMALL["concurrence"])
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[8] = repr(float(cells[8]) + 1e-6)
    lines[1] = ",".join(cells)
    with pytest.raises(CheckError, match="c != a - b"):
        check_output("concurrence", 4, alphas, "\n".join(lines) + "\n")


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == TRACE_UNITS


def test_inputs_depend_only_on_the_seed():
    for workload in WORKLOADS.values():
        assert workload.inputs(7) == workload.inputs(7)
        assert workload.inputs(7)[0] != workload.inputs(8)[0]


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_smoke_run_untraced_and_traced(kind):
    untraced = measure(SMALL[kind], seed=3, seconds=0.01, trace=False)["result"]
    assert untraced["correct"] and untraced["failed"] == 0 and untraced["attempted"] >= 1
    assert set(untraced["metrics"]) == set(END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in untraced["metrics"].values())

    first = measure(SMALL[kind], seed=3, seconds=0.01, trace=True)["result"]
    second = measure(SMALL[kind], seed=3, seconds=0.01, trace=True)["result"]
    assert first["correct"] and first["attempted"] >= 2
    assert set(first["metrics"]) == set(TRACE_UNITS)
    counts = [name for name, unit in LAYER_METRICS.items() if unit != "s"]
    assert all(first["metrics"][n] == second["metrics"][n] for n in counts)
    assert first["metrics"]["spectra.diagonalize_calls"]["value"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run([sys.executable, str(tmp_path / "bench" / "run.py"),
                           "--workload", "report-n8", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
