import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import oracles
import spinring
import spinring.analysis as analysis_module
import spinring.cli as cli_module
import spinring.entanglement as entanglement_module
import spinring.spectra as spectra_module
from spinring import PairStateWarning, RingSpec, Variant, diagonalize
from spinring.cli import build_parser, main, resolve_config
from spinring.spectra import UniformEigenstate

REPORT_KEYS = {
    "schema_version", "command", "n_sites", "variant", "settings", "alpha_grid",
    "generic_level_count", "counts_per_alpha", "representative_alpha",
    "projector_dimension_histogram", "entangled_level_census",
    "entangled_projector_census", "crossings", "last_crossing",
    "entanglement_boundaries", "separation_gaps", "max_distance_onset",
    "nn_linear_fit", "global_measures", "sweep_warnings",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_csv_two_sites(capsys):
    code, out, err = run(capsys, "spectrum", "--n", "2", "--alpha", "1")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "alpha,level_index,energy,multiplicity"
    cells = [line.split(",") for line in lines[1:]]
    assert len(cells) == 2
    assert float(cells[0][2]) == pytest.approx(-3.0, abs=1e-12)
    assert cells[0][3] == "1"
    assert float(cells[1][2]) == pytest.approx(1.0, abs=1e-12)
    assert cells[1][3] == "3"


def test_spectrum_handles_infinite_alpha(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--alpha", "inf")
    assert code == 0
    assert out.splitlines()[1].startswith("inf,0,")


def test_spectrum_json_document(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--alpha", "1",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "spectrum"
    assert doc["n_sites"] == 4
    assert len(doc["rows"]) == 5
    assert doc["rows"][0]["level_index"] == 0


def test_concurrence_rows(capsys):
    code, out, _ = run(capsys, "concurrence", "--n", "4", "--alpha", "0.7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split(",") == ["alpha", "level_index", "energy",
                                   "multiplicity", "separation", "concurrence",
                                   "a", "b", "c", "structure_residual"]
    assert len(lines) == 1 + 5 * 2        # five levels, separations 1 and 2
    first = lines[1].split(",")
    assert float(first[5]) == pytest.approx(0.5, abs=1e-12)
    a, b = float(first[6]), float(first[7])
    assert a + b == pytest.approx(0.5, abs=1e-12)


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, "spectrum", "--n", "4")[0] == 2
    assert run(capsys, "spectrum", "--n", "1", "--alpha", "1")[0] == 2
    assert run(capsys, "spectrum", "--n", "4", "--alpha", "-1")[0] == 2
    assert run(capsys, "spectrum", "--n", "4", "--grid", "0:1")[0] == 2
    assert run(capsys, "spectrum", "--n", "4", "--grid", "1:2:5:cubic")[0] == 2
    assert run(capsys, "report", "--n", "4", "--alpha", "1", "--format", "csv")[0] == 2
    assert run(capsys, "spectrum", "--n", "20", "--alpha", "1")[0] == 2
    config = tmp_path / "bad.json"
    for values in ({"n": "abc", "alpha": [1]},
                   {"n": 4.5, "alpha": [1]},
                   {"n": 4, "alpha": [1], "resolution": "x"},
                   {"n": 4, "alpha": [1], "cluster_tolerance": None},
                   {"n": 4, "alpha": [1], "cluster_tolerance": True},
                   {"n": True, "alpha": [1]},
                   {"n": 4, "alpha": [1], "variant": 5},
                   {"n": 4, "alpha": [1], "format": "xml"},
                   {"n": 4, "alpha": [1], "output": 7},
                   {"n": 4, "alpha": [1], "cache_dir": "somewhere"}):
        config.write_text(json.dumps(values))
        code, _, err = run(capsys, "spectrum", "--config", str(config))
        assert code == 2, values
        assert err.startswith("spinring: ") and "Traceback" not in err


def test_unparseable_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--n", "four", "--alpha", "1"])
    assert info.value.code == 2


def test_numerical_failure_exits_3(capsys):
    code, _, err = run(capsys, "concurrence", "--n", "6", "--alpha", "1",
                       "--structure-tolerance", "1e-20")
    assert code == 3
    assert "numerical" in err


def test_spectrum_eigensolver_failure_exits_3(capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    code, out, err = run(capsys, "spectrum", "--n", "4", "--alpha", "1")
    assert code == 3 and out == ""
    assert "magnetization sector 2" in err


def test_spectrum_casimir_failures_exit_3(capsys, monkeypatch):
    # the top sector's Casimir eigh fails, or returns an eigenvalue 1e-6 from every
    # 2S(S+1) - 3N/2: exit 3, nothing written, the sector named
    real = np.linalg.eigh

    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def shifted(matrix):
        values, vectors = real(matrix)
        values[..., 0] += 1e-6
        return values, vectors

    prefix = "spinring: numerical failure: eigensolver failed in magnetization sector 3: "
    for replacement, reason in ((diverged, "Eigenvalues did not converge"),
                                (shifted, "Casimir eigenvalue 1.0e-06 off 2S(S+1) - 3N/2")):
        spectra_module.spin_layout.cache_clear()  # else the layout is not solved again
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "eigh", replacement)
            code, out, err = run(capsys, "spectrum", "--n", "6", "--alpha", "1")
        assert (code, out, err) == (3, "", f"{prefix}{reason}\n")
    assert run(capsys, "spectrum", "--n", "6", "--alpha", "1")[0] == 0


def test_memory_error_exits_3(capsys, monkeypatch):
    # report meets it at the sweep's first batched solve, in the bisection after the sweep
    # and at the fit; concurrence at its first solve
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    solve, calls = analysis_module.momentum_decompositions, []

    def after_the_sweep(jobs, *args):
        calls.append(jobs)
        return exhausted() if len(calls) > 1 else solve(jobs, *args)

    report = ("report", "--n", "6", "--grid", "0.5:8:5")
    for module, name, replacement, argv in (
            (np.linalg, "eigh", exhausted, report),
            (analysis_module, "momentum_decompositions", after_the_sweep, report),
            (analysis_module, "momentum_decomposition", exhausted, report),
            (np.linalg, "eigh", exhausted, ("concurrence", "--n", "4", "--alpha", "1"))):
        with monkeypatch.context() as patched:
            patched.setattr(module, name, replacement)
            code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == "spinring: out of memory: Unable to allocate 2.00 GiB for an array\n"
    assert len(calls) == 2


def test_concurrence_solver_failures_exit_3(capsys, monkeypatch):
    # a batch of alphas fails as one alpha does: a failed batch is solved an alpha at a time,
    # and the error names the top sector, whose S-blocks eigh solves
    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.00 GiB for an array")

    for n in (6, 10):
        spectra_module.spin_layout(n)  # so the S-block solve fails, not the Casimir one
    for n in (6, 10):
        sector = (n + 1) // 2
        for replacement, message in (
                (diverged, f"numerical failure: eigensolver failed in magnetization sector "
                           f"{sector}: Eigenvalues did not converge"),
                (exhausted, "out of memory: Unable to allocate 2.00 GiB for an array")):
            monkeypatch.setattr(np.linalg, "eigh", replacement)
            code, out, err = run(capsys, "concurrence", "--n", str(n),
                                 "--alpha", "0.7", "--alpha", "3.3")
            assert (code, out, err) == (3, "", f"spinring: {message}\n")


def test_concurrence_solves_its_alphas_as_one_batch(capsys, monkeypatch):
    # N = 10: two alphas share one eigh per S-block width (9 widths), not one per alpha (18),
    # and neither alpha has an S-block close enough to another level to be solved twice
    real, shapes = np.linalg.eigh, []
    widths = [stack.shape[-1] for stack, *_ in spectra_module.spin_blocks(10, np.ones(5))]
    monkeypatch.setattr(np.linalg, "eigh", lambda stack: shapes.append(stack.shape) or real(stack))
    assert run(capsys, "concurrence", "--n", "10", "--alpha", "0.7", "--alpha", "3.3")[0] == 0
    assert len(shapes) == len(widths) == 9
    assert all(shape[0] == 2 for shape in shapes)


@pytest.mark.parametrize("n", range(2, 11))
def test_tables_match_the_row_by_row_oracle(capsys, n):
    # the level-array tables against each alpha solved alone and written row by row, cell by
    # cell: the same bytes, or the same failure where alpha = 1e-7 fails the two-solve check
    for variant in ("standard", "shifted", "ferromagnetic"):
        for alphas in (("0", "1e-7", "2", "inf"), ("0", "0.7", "2", "inf")):
            for command in ("spectrum", "concurrence"):
                for output_format in ("csv", "json"):
                    argv = [command, "--n", str(n), "--variant", variant,
                            "--format", output_format, *(f"--alpha={a}" for a in alphas)]
                    code, out, err = run(capsys, *argv)
                    try:
                        want, want_err = oracles.table_text(resolve_config(
                            build_parser().parse_args(argv))), ""
                    except entanglement_module.StructureError as exc:
                        want, want_err = "", f"spinring: numerical failure: {exc}\n"
                    assert (code, err) == (3 if want_err else 0, want_err), argv
                    assert hashlib.sha256(out.encode()).digest() == \
                        hashlib.sha256(want.encode()).digest(), argv


def test_negative_zero_alpha_is_zero(capsys, tmp_path):
    # "-0" is read as 0, so one alpha set gives the same bytes however it is written, by
    # --alpha, --extra or the config file, and in either order
    config = tmp_path / "run.json"
    config.write_text('{"alpha": [-0.0, 1.0]}')
    for head in (("spectrum", "--n", "2"), ("concurrence", "--n", "3"),
                 ("report", "--n", "4", "--grid", "0.5:6:4")):
        outputs = set()
        for argv in (("--alpha", "0", "--alpha", "-0", "--alpha", "1"),
                     ("--alpha", "-0", "--alpha", "0", "--alpha", "1"),
                     ("--alpha", "1", "--extra", "-0"), ("--config", str(config))):
            code, out, err = run(capsys, *head, *argv)
            assert (code, err) == (0, "")
            outputs.add(out)
        assert outputs == {run(capsys, *head, "--alpha", "0", "--alpha", "1")[1]}
        if head[0] == "report":
            assert math.copysign(1.0, json.loads(out)["alpha_grid"][0]) == 1.0
        else:
            assert [line.split(",")[0] for line in out.splitlines()[1:3]] == ["0.0", "0.0"]


def test_a_bug_in_the_sweep_gives_a_traceback(monkeypatch):
    def broken(stack):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(np.linalg, "eigh", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        main(["report", "--n", "6", "--grid", "0.5:8:5"])


def test_mixed_levels_exit_3(capsys):
    # levels of one S-block split by ~1e-7 near the Haldane-Shastry point: two solves of the
    # block disagree
    code, _, err = run(capsys, "concurrence", "--n", "10", "--alpha", "1.9999999")
    assert code == 3
    assert "two-solve check" in err and "changes by" in err


def test_two_solves_refuse_only_unresolved_levels(capsys):
    # N = 10, alpha = 1.9999999: levels of one S-block split by ~1e-7 change c by ~8e-9 between
    # two solves; N = 12, alpha = 1.99 has S-blocks whose Davis-Kahan estimate reaches the
    # tolerance, but its two solves agree within it; at N = 6, alpha = 1e-7 and N = 7,
    # alpha = 1e-6 the levels are split by ~alpha, but H^S - c_S, the matrix solved, is of
    # that size too, so they are resolved and no block is solved twice
    code, out, err = run(capsys, "concurrence", "--n", "10", "--alpha", "1.9999999")
    assert (code, out) == (3, "") and "two-solve check" in err
    for n, alpha, solved_twice in ((12, "1.99", True), (6, "1e-7", False), (7, "1e-6", False)):
        code, out, err = run(capsys, "concurrence", "--n", str(n), "--alpha", alpha)
        assert (code, err) == (0, "")
        residuals = [float(line.split(",")[-1]) for line in out.splitlines()[1:]]
        assert max(residuals) < 1e-10 and (max(residuals) > 0) == solved_twice


def test_report_bounds_the_werner_residual_as_concurrence_does(capsys):
    # at N = 5 just below the Haldane-Shastry point every S-block is 1 x 1, so no levels mix
    for argv in (("report", "--n", "5", "--grid", "1.9:2.1:3", "--extra", "1.9999999"),
                 ("concurrence", "--n", "5", "--alpha", "1.9999999")):
        assert run(capsys, *argv)[0] == 0
    # near the collapse points the two commands agree case by case, and both fail the
    # two-solve check where they fail: only where one S-block holds levels split by ~1e-7
    # near the Haldane-Shastry point, first at N = 10
    failed, alphas = [], ("0", "1e-8", "1e-7", "1e-6", "1e-5", "1e-4", "1.9999999", "2.0000001")
    for n, alpha in [*((n, alpha) for n in range(2, 9) for alpha in alphas), (10, "1.9999999")]:
        code, _, err = run(capsys, "concurrence", "--n", str(n), "--alpha", alpha)
        with warnings.catch_warnings():  # N = 2 warns of its Oliveira normalization
            warnings.simplefilter("ignore", PairStateWarning)
            report = run(capsys, "report", "--n", str(n), "--grid", "0.5:4:2", "--extra", alpha)
        assert report[0] == code
        if code:
            assert code == 3 and "two-solve check" in err and "two-solve check" in report[2]
            failed.append((n, alpha))
    assert failed == [(10, "1.9999999")]


@pytest.mark.parametrize("alphas", [("1",), ("1", "2")])
def test_report_writes_a_one_point_backbone(capsys, alphas):
    # one grid point, or one that alone has the grid's highest level count (at alpha = 2 the
    # Haldane-Shastry degeneracies merge levels): the backbone has no interval to probe
    argv = [arg for alpha in alphas for arg in ("--alpha", alpha)]
    code, out, _ = run(capsys, "report", "--n", "6", *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha_grid"] == [float(a) for a in alphas]
    assert doc["crossings"] == [] and doc["entanglement_boundaries"] == []


def test_commands_reduce_no_level_state_cell_by_cell(capsys, monkeypatch):
    def refuse(state, sites):
        raise AssertionError("a pair was reduced from one level state")

    monkeypatch.setattr(entanglement_module, "reduce_sites", refuse)
    assert run(capsys, "concurrence", "--n", "6", "--alpha", "0.7")[0] == 0
    code, out, _ = run(capsys, "report", "--n", "7", "--grid", "0.5:8:12:log",
                       "--extra", "inf", "--resolution", "0.1")
    assert code == 0
    assert json.loads(out)["entanglement_boundaries"]


def test_report_warns_on_degenerate_oliveira_normalization(capsys):
    with pytest.warns(PairStateWarning, match="degenerate"):
        code, out, _ = run(capsys, "report", "--n", "2", "--grid", "0.5:6:4:log")
    assert code == 0
    assert json.loads(out)["global_measures"][0]["oliveira"] == pytest.approx(-4 / 3)


def test_output_file_and_stdout_agree(capsys, tmp_path):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--alpha", "1.5")
    assert code == 0
    target = tmp_path / "table.csv"
    code2, out2, _ = run(capsys, "spectrum", "--n", "4", "--alpha", "1.5",
                         "--output", str(target))
    assert code2 == 0 and out2 == ""
    assert target.read_text() == out


def test_config_file_merging(capsys, tmp_path):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 4, "alpha": [1.0], "format": "json"}))
    code, out, _ = run(capsys, "spectrum", "--config", str(config))
    assert code == 0
    assert json.loads(out)["n_sites"] == 4
    # explicit flags win over the file
    code, out, _ = run(capsys, "spectrum", "--config", str(config),
                       "--format", "csv")
    assert code == 0
    assert out.startswith("alpha,")
    config.write_text(json.dumps({"n": 4, "frequency": 3}))
    assert run(capsys, "spectrum", "--config", str(config), "--alpha", "1")[0] == 2


def test_grid_flag_expansion(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2", "--grid", "1:2:3:linear")
    assert code == 0
    alphas = {line.split(",")[0] for line in out.splitlines()[1:]}
    assert alphas == {"1.0", "1.5", "2.0"}


def test_spectrum_without_cache_solves_eigenvalues_only(capsys, monkeypatch):
    # the table of eigenvalues alone against the levels of the sector eigensystem
    alphas = (0.0, 0.4, 2.0, math.inf)
    expected = [(alpha, index, level) for alpha in alphas for index, level in enumerate(
        diagonalize(RingSpec(8, alpha, Variant.SHIFTED)).levels)]

    def refuse(*args, **kwargs):
        raise AssertionError("spectrum computed eigenvectors")

    monkeypatch.setattr(cli_module, "diagonalize", refuse, raising=False)
    monkeypatch.setattr(spectra_module, "diagonalize", refuse)
    code, out, err = run(capsys, "spectrum", "--n", "8", "--variant", "shifted",
                         "--alpha", "0", "--alpha", "0.4", "--alpha", "2", "--alpha", "inf")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()]
    assert rows[0] == ["alpha", "level_index", "energy", "multiplicity"]
    assert len(rows) == 1 + len(expected)
    for (alpha, index, energy, mult), (alpha_d, index_d, level) in zip(rows[1:], expected):
        assert (float(alpha), int(index), int(mult)) == (alpha_d, index_d, level.multiplicity)
        assert abs(float(energy) - level.energy) <= 1e-12 * max(1.0, abs(level.energy))


def test_the_removed_cache_options_are_refused_or_ignored(capsys, tmp_path, monkeypatch):
    # the decomposition cache is gone: its flag and config key are usage errors, and its
    # environment variable is not read
    cache = tmp_path / "cache"
    with pytest.raises(SystemExit) as info:
        main(["spectrum", "--n", "4", "--alpha", "1", "--cache-dir", str(cache)])
    assert info.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": 4, "alpha": [1], "cache_dir": str(cache)}))
    assert run(capsys, "spectrum", "--config", str(config)) == \
        (2, "", "spinring: unknown config keys: ['cache_dir']\n")
    plain = run(capsys, "spectrum", "--n", "4", "--alpha", "1")
    monkeypatch.setenv("SPINRING_CACHE_DIR", str(cache))
    assert run(capsys, "spectrum", "--n", "4", "--alpha", "1") == plain
    assert not cache.exists()


def test_config_keys_are_the_common_flags():
    # every common flag but --config is a config key of the same name, and nothing else is
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for name, parser in commands.items():
        dests = {action.dest for action in parser._actions} - {"help", "config"}
        assert dests == cli_module._CONFIG_KEYS, name


def test_report_document_shape(capsys, monkeypatch):
    def dense_rho(state):
        raise AssertionError("a level state was expanded to its dense rho")

    # every reduction on the report path works from the eigenvector block
    monkeypatch.setattr(UniformEigenstate, "rho", property(dense_rho))
    code, out, _ = run(capsys, "report", "--n", "4",
                       "--grid", "0.5:6:12:log", "--extra", "2", "--extra", "inf")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == REPORT_KEYS
    assert doc["schema_version"] == 1
    assert doc["generic_level_count"] == 5
    assert doc["alpha_grid"][-1] == math.inf
    by_alpha = {row["alpha"]: row["count"] for row in doc["counts_per_alpha"]}
    assert by_alpha[2.0] == 4
    assert doc["last_crossing"] is not None
    assert abs(doc["last_crossing"]["alpha"] - 2.0) < 5e-3
    assert doc["nn_linear_fit"] is None
    assert all(abs(m["meyer_wallach"] - 1.0) < 1e-10 for m in doc["global_measures"])


def test_report_runs_are_byte_identical(capsys, tmp_path):
    argv = ["report", "--n", "4", "--grid", "0.5:6:10:log"]
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(argv + ["--output", str(first)]) == 0
    assert main(argv + ["--output", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_variant_flag(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--alpha", "0.9",
                       "--variant", "shifted")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    # shifted spectrum tops out at zero with multiplicity N+1
    assert float(rows[-1][2]) == pytest.approx(0.0, abs=1e-10)
    assert rows[-1][3] == "5"


def _assert_numpy_ma_unimported(*commands):
    """Run the argvs one after another in one fresh interpreter; none may import numpy.ma."""
    script = ("import contextlib, io, sys\n"
              "from spinring.cli import main\n"
              f"for argv in {commands!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              "        assert main(list(argv)) == 0, argv\n"
              "    assert 'numpy.ma' not in sys.modules, f'{argv[0]} imported numpy.ma'\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinring.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_report_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call (numpy 2.4); the bisection's level
    # matches must not pay for it
    _assert_numpy_ma_unimported(("report", "--n", "4", "--grid", "0.5:8:15", "--resolution", "0.1"))


def test_commands_leave_numpy_ma_unimported():
    # nor may any command's own path, which a first np.unique call slows by some 13 ms
    _assert_numpy_ma_unimported(("spectrum", "--n", "6", "--alpha", "0.7", "--alpha", "2"),
                                ("concurrence", "--n", "6", "--alpha", "0.7", "--alpha", "2"),
                                ("report", "--n", "6", "--grid", "0.5:8:15"))
