import dataclasses
import functools
import gc
import json
import math
import re
import weakref

import numpy as np
import pytest

import oracles
import spinring.analysis as analysis_module
import spinring.cli as cli_module
import spinring.spectra as spectra_module
from spinring import (INFINITY, CrossingEvent, InsufficientDataError, SweepError, Variant,
                      count_distinct_levels, default_alpha_grid,
                      diagonalize, distance_selectivity_check,
                      entangled_level_census, entangled_projector_census,
                      entanglement_boundaries, find_last_crossing,
                      locate_crossing, nn_linear_fit,
                      projector_dimension_histogram, RingSpec,
                      separation_existence_intervals, separation_gaps, sweep,
                      uniform_state, pair_concurrence, concurrence_structured,
                      StructureError, extract_abc, reduce_two_sites)
from spinring.cli import main
from spinring.model import weight_offsets

THRESHOLD = 1e-10
REPORT_N8 = ["report", "--n", "8", "--grid", "0.5:8:15", "--resolution", "0.1"]


def test_default_alpha_grid_shape():
    grid = default_alpha_grid()
    assert len(grid) == 403
    assert grid[0] == 0.0 and grid[-1] == INFINITY
    assert 2.0 in grid
    diffs = np.diff(np.array(grid[:-1]))
    assert np.all(diffs > 0)


def test_sweep_rejects_bad_grids():
    with pytest.raises(ValueError):
        sweep(4, [])
    with pytest.raises(ValueError):
        sweep(4, [1.0, 0.5])
    with pytest.raises(ValueError):
        sweep(4, [1.0, 1.0])
    with pytest.raises(ValueError):
        sweep(4, [-1.0, 1.0])


def test_sweep_wraps_numerical_failures():
    with pytest.raises(SweepError) as info:
        sweep(4, [0.5, 1.0], structure_tolerance=-1.0)
    assert info.value.alpha == 0.5
    assert isinstance(info.value.original, StructureError)
    # a bad argument is no numerical failure
    with pytest.raises(ValueError, match="tolerance must be positive"):
        sweep(4, [0.5, 1.0], cluster_tolerance=-1.0)


def test_a_failed_batched_eigh_names_its_alpha_and_sector(monkeypatch):
    # the batch is solved again one alpha at a time, so the failure lands on its own alpha
    n, grid = 6, np.geomspace(0.5, 8, 9).tolist()
    poison, real = next(spectra_module.spin_hamiltonians(bonds, weight_offsets(n, grid[4]))
                        for bonds, *_ in spectra_module.spin_bonds(n)
                        if bonds.shape[-1] > 1), np.linalg.eigh
    solved = []

    def eigh(stack):
        solved.append(stack.shape[:-3])
        if stack.shape[-3:] == poison.shape and any(
                np.array_equal(block, poison) for block in stack.reshape(-1, *poison.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(stack)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(SweepError) as info:
        sweep(n, grid)
    assert info.value.alpha == grid[4]
    assert isinstance(info.value.original, spectra_module.EigensolverError)
    assert info.value.original.sector == 3  # the top sector
    assert solved[0] == (9,)  # the batched solve failed first
    assert main(["report", "--n", "6", "--grid", "0.5:8:9:log"]) == 3


def test_sweep_small_ring_structure():
    grid = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    result = sweep(4, grid)
    assert result.generic_count == 5
    assert result.n_points == 6
    # the collapse point alpha=2 is excluded from the backbone
    assert result.points[3].alpha == 2.0
    assert 3 not in result.backbone.tolist()
    assert len(result.backbone) == 5
    for curve in result.curves:
        assert not curve.valid[3]
        assert curve.valid.sum() == 5
        assert curve.multiplicity > 0
        # energies recorded exactly where the curve is valid
        assert np.all(np.isfinite(curve.energies[curve.valid]))
        assert np.all(np.isnan(curve.energies[~curve.valid]))
    point = result.points[0]
    record = point.record(2, 1)
    assert record.level_index == 2 and record.separation == 1
    assert record.alpha == 0.5



def test_sweep_holds_at_most_two_decompositions(monkeypatch):
    # three points a batch: besides the batch being solved, every live batch array is one
    # that a live decomposition views, and at most two assembled decompositions are live
    point = spectra_module.BATCH_BYTES // spectra_module.batch_size(6)  # bytes an alpha holds
    monkeypatch.setattr(spectra_module, "BATCH_BYTES", 3 * point)
    assert spectra_module.batch_size(6) == 3
    real, solved, live, batches = spectra_module._Batch.decomposition, [], [], []

    def tracked(assembled, kind, a, blocks):
        batch = blocks[0].vectors.base
        if not any(ref() is batch for ref in batches):
            batches.append(weakref.ref(batch))
        held = [(ref(), base()) for ref, base in solved]
        live.append(sum(dec is not None for dec, _ in held))
        viewed = [base for dec, base in held if dec is not None] + [batch]
        assert all(base is None or any(base is b for b in viewed) for _, base in held)
        dec = real(assembled, kind, a, blocks)
        solved.append((weakref.ref(dec), weakref.ref(batch)))
        return dec

    monkeypatch.setattr(spectra_module._Batch, "decomposition", tracked)
    sweep(6, [0.0, *np.geomspace(0.5, 8, 12).tolist(), INFINITY])
    assert len(live) == 14 and len(batches) == 5
    assert max(live) <= 2


@pytest.mark.parametrize("cap", (None, 3))
def test_report_holds_the_running_maximum_until_its_events_are_located(cap, monkeypatch,
                                                                        capsys):
    # report's sweep holds the previous point, its anchor and the first batch_size points at the
    # running maximum level count since its last restart, no other; those are backbone points,
    # handed to _located_events, which takes interval left ends from them and lets them all go
    if cap is not None:
        monkeypatch.setattr(analysis_module, "batch_size", lambda n_sites: cap)
    real, made = spectra_module._Batch.decomposition, []  # (alpha, weakref) of every solution

    def tracked(assembled, kind, a, blocks):
        made.append((assembled.jobs[a][0].alpha, weakref.ref(dec := real(assembled, kind, a,
                                                                          blocks))))
        return dec

    def live(refs):
        gc.collect()
        return [alpha for alpha, ref in refs if ref() is not None]

    seen, handed = [], []
    real_sweep, real_located = cli_module.sweep, cli_module._located_events

    def sweep_watched(*args, **kwargs):
        monkeypatch.setattr(spectra_module._Batch, "decomposition", watched)
        return real_sweep(*args, **kwargs)

    def watched(assembled, kind, a, blocks):
        seen.append(live(made))  # the sweep's solutions alive as this point is made
        return tracked(assembled, kind, a, blocks)

    def located(result, resolution, separations, references):
        monkeypatch.setattr(spectra_module._Batch, "decomposition", tracked)
        swept = list(made)
        handed.append((sorted(references), live(swept)))
        events = real_located(result, resolution, separations, references)
        handed.append((sorted(references), live(swept)))
        return events

    monkeypatch.setattr(cli_module, "sweep", sweep_watched)
    monkeypatch.setattr(cli_module, "_located_events", located)
    assert main(["report", "--n", "6", "--grid", "0.5:8:12", "--extra", "0", "--extra", "2",
                 "--extra", "inf", "--resolution", "0.1"]) == 0
    capsys.readouterr()
    res = sweep(6, sorted(cli_module._parse_grid("0.5:8:12") + (0.0, 2.0, INFINITY)))
    alphas, counts = [p.alpha for p in res.points], [p.count for p in res.points]
    two = alphas.index(2.0)  # a restart, and points skipped inside the backbone and at its end
    assert counts[0] < counts[1] and counts[two] < counts[two + 1] and counts[-1] < max(counts)
    held, anchor, top = [], [], 0
    for i, count in enumerate(counts):
        assert seen[i] == sorted({*held, *anchor, *alphas[i - 1:i]})
        if count >= top:  # an anchor; a restart if the count rises
            held, anchor, top = (held if count == top else []) + [alphas[i]], [alphas[i]], count
        held = held[:cap]
    backbone = [alphas[i] for i in res.backbone.tolist()]
    assert held == backbone[:cap] and len(backbone) > 3 and len(alphas) > len(backbone)
    assert handed == [(held, held), ([], [])]


def test_sweep_restarts_its_curves_when_the_level_count_rises():
    grid = [0.0, 2.0, 2.5, 3.0, 4.0]
    result = sweep(6, grid)
    counts = [p.count for p in result.points]
    assert counts[0] < counts[1] < counts[2] == counts[3] == counts[4]
    # reference: thread by the greedy pairing of dense overlaps over the points with the
    # maximum count
    backbone = [i for i, count in enumerate(counts) if count == max(counts)]
    decs = {i: oracles.diagonalize(RingSpec(6, grid[i])) for i in backbone}
    expected = np.full((max(counts), len(grid)), -1)
    expected[:, backbone[0]] = np.arange(max(counts))
    for i, j in zip(backbone[:-1], backbone[1:]):
        mapping = oracles.match_levels(oracles.overlap_matrix(decs[i], decs[j])).as_map()
        expected[:, j] = [mapping.get(level, -1) for level in expected[:, i].tolist()]
    assert result.backbone.tolist() == backbone
    assert [c.level_indices.tolist() for c in result.curves] == expected.tolist()


def test_sweep_point_counts(sweep8):
    counts = {p.alpha: p.count for p in sweep8.points}
    assert counts[0.0] == 5
    assert counts[2.0] == 19
    assert counts[INFINITY] == 40
    # off the three collapse points every grid alpha shows the generic count
    others = [p.count for p in sweep8.points if p.alpha not in (0.0, 2.0, INFINITY)]
    assert set(others) == {45}
    assert sweep8.generic_count == 45
    assert len(sweep8.backbone) == 400
    assert sweep8.warnings == ()


def test_count_distinct_levels_all_variants():
    assert count_distinct_levels(2, 1.0) == 2
    assert count_distinct_levels(2, 1.0, variant=Variant.FERROMAGNETIC) == 2
    assert count_distinct_levels(3, 5.0) == 2
    assert count_distinct_levels(4, 2.0) == 4


def test_curves_keep_constant_multiplicity(sweep8):
    for curve in sweep8.curves:
        idx = np.nonzero(curve.valid)[0]
        mults = {int(sweep8.points[i].multiplicities[curve.level_indices[i]])
                 for i in idx[::37]}
        assert mults == {curve.multiplicity}


def test_projector_census_truths(sweep8):
    census = entangled_projector_census(sweep8)
    assert census.n_curves == 45
    assert census.n_entangled == 11
    assert len(census.single_distance) == 8
    multi = {e.curve_index: e.distances for e in census.multi_distance}
    assert multi == {1: (1, 4), 7: (2, 3), 9: (3, 4)}
    assert census.one_dim_indices == (0, 1, 4, 5, 7, 9)
    # five of the six one-dimensional curves carry entanglement; curve 5 never does
    assert census.one_dim_entangled == (0, 1, 4, 7, 9)
    by_index = {e.curve_index: e for e in census.entangled}
    # the {3,4} curve is entangled at both separations over the whole grid
    spans = by_index[9].spans
    assert spans[3][0] == spans[4][0] == pytest.approx(0.05)
    assert spans[3][1] == spans[4][1] == pytest.approx(12.0)
    # ground curve: nearest neighbor only, everywhere
    assert by_index[0].distances == (1,)
    assert by_index[0].spans[1] == (pytest.approx(0.05), pytest.approx(12.0))


def test_ground_state_exclusivity(sweep8):
    for point in sweep8.points:
        if point.alpha == 0.0:
            continue
        assert point.record(0, 1).concurrence > THRESHOLD
        for sep in (2, 3, 4):
            assert point.record(0, sep).concurrence <= THRESHOLD


def test_ground_state_dominance(sweep8):
    for point in sweep8.points[::17]:
        ground = point.record(0, 1).concurrence
        for li in range(1, point.count):
            assert point.record(li, 1).concurrence <= ground + 1e-10


def test_ferromagnetic_ordering():
    d = diagonalize(RingSpec(8, 1.0, Variant.FERROMAGNETIC))
    first_entangled = None
    for li, level in enumerate(d.levels):
        state = uniform_state(level, d)
        positive = [sep for sep in (1, 2, 3, 4)
                    if concurrence_structured(pair_concurrence(state, 1, 1 + sep)) > THRESHOLD]
        if positive:
            first_entangled = (li, tuple(positive))
            break
    assert first_entangled is not None
    li, seps = first_entangled
    assert li > 0                      # the lowest levels carry nothing
    assert set(seps) <= {3, 4}         # and entanglement appears at the largest distances


def test_find_last_crossing(sweep8):
    event = find_last_crossing(8, 12.0, sweep_result=sweep8)
    assert event.kind == "crossing"
    assert abs(event.alpha - 7.2862) < 2e-3
    assert event.width <= 1e-3
    capped = find_last_crossing(8, 5.2, sweep_result=sweep8)
    assert 4.9 < capped.alpha < 5.2


def test_find_last_crossing_none_for_two_sites():
    assert find_last_crossing(2, 12.0) is None


def test_all_crossings_structure(crossings8):
    alphas = [e.alpha for e in crossings8]
    assert alphas == sorted(alphas)
    assert all(e.width <= 1e-3 for e in crossings8)
    # the collapse at alpha=2 is all 45 levels crossing simultaneously;
    # many tracked pairs funnel into it
    near_two = [a for a in alphas if abs(a - 2.0) < 5e-3]
    assert len(near_two) >= 40
    assert abs(alphas[-1] - 7.2862) < 2e-3


def test_sep3_one_dim_and_three_dim_carriers_cross_at_collapse(sweep8):
    # the two curves: multiplicity 1 carrying separations {3,4} and
    # multiplicity 3 carrying separation 3
    event = locate_crossing(sweep8.curves[9], sweep8.curves[25], resolution=1e-4)
    assert event is not None
    assert abs(event.alpha - 2.0) < 2e-4


def test_locate_crossing_none_when_ordered(sweep8):
    assert locate_crossing(sweep8.curves[0], sweep8.curves[1]) is None


def test_separation4_carriers_cross(sweep8):
    event = locate_crossing(sweep8.curves[9], sweep8.curves[26])
    assert event is not None
    assert abs(event.alpha - 4.628) < 2e-3
    assert event.curve_indices == (9, 26)


def test_entanglement_boundaries_events(sweep8):
    onsets = entanglement_boundaries(sweep8.curves[1], 4)
    assert [e.kind for e in onsets] == ["onset"]
    assert abs(onsets[0].alpha - 3.877) < 2e-3
    assert not onsets[0].crossing_coincident
    assert onsets[0].separation == 4
    offsets = entanglement_boundaries(sweep8.curves[4], 2)
    assert [e.kind for e in offsets] == ["offset"]
    assert abs(offsets[0].alpha - 2.547) < 2e-3
    assert entanglement_boundaries(sweep8.curves[0], 1) == ()


def test_entanglement_boundaries_of_a_curve_valid_at_one_point():
    res = sweep(6, [1.0])  # every curve is valid at its one point and has no interval
    assert [entanglement_boundaries(c, s) for c in res.curves[:2] for s in (1, 2, 3)] == [()] * 6



def _recording_solves(monkeypatch, limit=INFINITY):
    """Record the (spec, cluster tolerance) of every alpha the batched solver is given, through
    analysis and through ``momentum_decomposition``, and raise once more than ``limit`` are;
    returns the list."""
    real, jobs = spectra_module.momentum_decompositions, []

    def recorded(batch, *args):
        jobs.extend(batch := list(batch))
        if len(jobs) > limit:
            raise RuntimeError(f"more than {limit} solves")
        return real(batch, *args)

    for module in (analysis_module, spectra_module):
        monkeypatch.setattr(module, "momentum_decompositions", recorded)
    return jobs


def _recording(monkeypatch, module, name, limit=INFINITY):
    """Replace ``module.name`` with a wrapper that records each call's
    arguments and raises after ``limit`` calls, so a bisection that stops
    shrinking fails the test instead of hanging it; returns the list of
    (args, kwargs)."""
    real = getattr(module, name)
    calls = []

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} calls of {name}")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return calls


def test_bisection_stops_at_float_resolution(monkeypatch, capsys):
    # below the spacing of floats the midpoint rounds to an endpoint and the
    # merged-pair step rounds back to the same bracket
    _recording_solves(monkeypatch, 3000)
    assert main(["report", "--n", "6", "--grid", "0.5:12:12",
                 "--resolution", "1e-300"]) == 0
    capsys.readouterr()
    res = sweep(7, np.linspace(0.5, 12, 12))
    _recording_solves(monkeypatch, 500)
    events = entanglement_boundaries(res.curves[2], 2, 1e-300)
    assert len(events) == 1
    assert 0 < events[0].width < 1e-15


def test_golden_report_solve_counts(monkeypatch, capsys):
    # the golden n8 report's counts when they were pinned: 71 alphas given to the batched
    # solver (15 grid points, 55 bisection steps, and the fit, as inf is off the grid) in 6
    # batches (the sweep, four bisection rounds and the fit), each one eigh per S-block width
    # (6 x 4: the 22 S-blocks of the top sector fall in 4 widths), and no S-block close enough
    # to another level to be solved twice; 84 alphas and 7 x 4 eighs when the 13 intervals'
    # left ends were solved again as references, 7 x 7 = 49 eighs when every real block of the
    # sectors with 2s >= N was solved; a change that adds solves fails here, not only in the
    # wall time
    spectra_module.spin_layout(8)  # its Casimir eigh is solved once per process
    solves = _recording_solves(monkeypatch)
    eighs = _recording(monkeypatch, np.linalg, "eigh")
    assert main(["report", "--n", "8", "--grid", "0.5:8:15", "--resolution", "0.1"]) == 0
    capsys.readouterr()
    assert (len(solves), len(eighs)) == (71, 24)


@pytest.mark.parametrize("n", range(4, 10))
def test_interval_probes_match_the_pairwise_scan(n):
    # the order swaps of every tracked level pair, by itertools.combinations in energy order
    # at the interval's left end, then each tracked curve's sign changes, interval by interval,
    # each bracketed by its interval
    res = sweep(n, sorted({*np.geomspace(0.3, 10, 14).tolist(), 2.0}))
    separations, threshold = range(1, n // 2 + 1), res.concurrence_threshold
    got = analysis_module._interval_probes(res, separations)
    want = oracles.interval_probes(res, separations)
    assert oracles.probe_intervals(got, threshold) == want
    assert got["hi"].tolist() == [hi for _, hi, probes in want for _ in probes]
    assert (got["separation"] == 0).any()
    # entanglement_boundaries' scan, one curve and separation over its valid intervals
    for curve in res.curves:
        idx = np.flatnonzero(curve.valid).tolist()
        pairs = list(zip(idx[:-1], idx[1:]))
        for sep in separations:
            scanned = analysis_module._sign_changes(
                [curve], pairs, np.ones((len(pairs), 1), bool), [sep], 1e-10)
            assert list(zip(scanned["lo"].tolist(), scanned["hi"].tolist(),
                            oracles.probe_objects(scanned, 1e-10))) == \
                [(res.alpha_grid[i], res.alpha_grid[j], probe) for i, j in pairs
                 for probe in oracles.sign_changes(curve, i, j, [sep], 1e-10)]


def _intervals(probes) -> list:
    """The rows of each interval of the ``analysis._PROBE`` rows ``probes``."""
    firsts = [*np.flatnonzero(np.diff(probes["lo"], prepend=np.nan) != 0).tolist(), len(probes)]
    return [probes[a:b] for a, b in zip(firsts, firsts[1:])]


def test_grouped_bisection_matches_one_pair_at_a_time(monkeypatch):
    res = sweep(6, np.linspace(0.5, 12, 12))
    swapped = next(rows for rows in _intervals(analysis_module._interval_probes(res))
                   if len(rows) >= 8)

    def bisect(probes):
        return analysis_module._events(analysis_module._bisect(res, probes, 1e-6))

    calls = _recording_solves(monkeypatch)
    grouped = bisect(swapped)
    shared = len(calls)
    single = [bisect(swapped[k:k + 1])[0] for k in range(len(swapped))]
    assert grouped == single
    assert len({e.bracket for e in grouped}) > 1   # the brackets do part ways
    assert shared < len(calls) - shared


def _one_interval_at_a_time(ring, probes, resolution, threshold=THRESHOLD, jump_scale=0.01):
    """The events of ``oracles.bisect`` on each interval of the ``analysis._PROBE`` rows."""
    return [event for lo, hi, objects in oracles.probe_intervals(probes, threshold, jump_scale)
            for event in oracles.bisect(ring, lo, hi, objects, resolution)]


@pytest.mark.parametrize("n", range(4, 10))
def test_lockstep_bisection_matches_one_interval_at_a_time(n, monkeypatch):
    res = sweep(n, sorted({*np.geomspace(0.3, 10, 14).tolist(), 2.0}))
    probes = analysis_module._interval_probes(res, range(1, n // 2 + 1))
    want = _one_interval_at_a_time(res, probes, 0.05)
    assert want
    for batch_bytes in (spectra_module.BATCH_BYTES, 1):  # one interval and one alpha a batch
        monkeypatch.setattr(spectra_module, "BATCH_BYTES", batch_bytes)
        assert analysis_module._events(analysis_module._bisect(res, probes, 0.05)) == want


REPORT_GRID = sorted({0.0, *np.geomspace(0.05, 12, 40).tolist(), 2.0, INFINITY})


@pytest.mark.parametrize("n", range(5, 10))
def test_array_bisection_matches_the_per_probe_reference(n, monkeypatch):
    # the probes stepped as arrays give the events, brackets and crossing_coincident flags of
    # the per-probe lockstep loop, from the same solves in the same order, in chunks of every
    # interval at once and of a few
    res = sweep(n, REPORT_GRID)
    threshold = res.concurrence_threshold
    probes = analysis_module._interval_probes(res, range(1, n // 2 + 1))
    for batch_bytes in (spectra_module.BATCH_BYTES, 2 ** 12):
        monkeypatch.setattr(spectra_module, "BATCH_BYTES", batch_bytes)
        solves = _recording_solves(monkeypatch)
        want = oracles.lockstep_bisect(res, oracles.probe_intervals(probes, threshold), 0.1)
        reference, solves[:] = list(solves), []
        got = analysis_module._events(analysis_module._bisect(res, probes, 0.1, threshold))
        assert got == [event for events in want for event in events]
        assert solves == reference and len(solves) > len(want)
        monkeypatch.undo()
    assert any(e.kind != "crossing" for e in got) or n < 7


def test_a_step_raises_exactly_when_a_probed_level_fails_its_two_solve_check(monkeypatch,
                                                                             capsys):
    # below the largest change of c among the levels its sign changes probe, the bisection
    # raises the per-probe loop's error, and report exits 3; above it, both locate the same
    # events
    res = sweep(7, REPORT_GRID)
    threshold = res.concurrence_threshold
    probes = analysis_module._interval_probes(res, range(1, 4))

    def outcome(bisect):
        try:
            return bisect()
        except StructureError as exc:
            return str(exc)

    outcomes = []
    for tolerance in (1e-300, 1e-18, 1e-17, 3e-17, 1e-10):
        want = outcome(lambda: [event for events in oracles.lockstep_bisect(
            res, oracles.probe_intervals(probes, threshold), 0.1, tolerance) for event in events])
        got = outcome(lambda: analysis_module._events(analysis_module._bisect(
            res, probes, 0.1, threshold, tolerance)))
        assert got == want
        outcomes.append(isinstance(got, str))
    assert outcomes == [True, True, True, False, False]
    assert got[0].kind == "crossing" and any(e.kind != "crossing" for e in got)
    real = analysis_module._bisect

    def strict(ring, probes, resolution, threshold, structure_tolerance, references):
        return real(ring, probes, resolution, threshold, 1e-300, references)

    monkeypatch.setattr(analysis_module, "_bisect", strict)
    assert main(REPORT_N8) == 3
    assert "numerical failure: two-solve check" in capsys.readouterr().err


def test_single_interval_callers_match_one_interval_at_a_time(sweep8, monkeypatch):
    real, compared = analysis_module._bisect, []

    def checked(ring, probes, resolution, threshold=THRESHOLD, *args):
        located = real(ring, probes, resolution, threshold, *args)
        assert analysis_module._events(located) == _one_interval_at_a_time(
            ring, probes, resolution, threshold)
        compared.append(len(_intervals(probes)))
        return located

    monkeypatch.setattr(analysis_module, "_bisect", checked)
    curves = sweep8.curves
    got = (find_last_crossing(8, 3.0, 1e-4, sweep_result=sweep8),
           locate_crossing(curves[9], curves[26], 1e-4),
           locate_crossing(curves[0], curves[1], 1e-4),
           [entanglement_boundaries(curve, sep, 1e-4) for curve in curves[:12] for sep in (2, 4)])
    assert got[0] is not None and got[1] is not None and sum(map(len, got[3])) == 3
    assert len(compared) == 2 + 24 and compared[:2] == [1, 1] and sum(compared) == 2 + 3


def test_all_crossings_diagonalizes_each_point_once(monkeypatch):
    res = sweep(8, np.geomspace(0.5, 8, 15))
    calls = _recording_solves(monkeypatch)
    events = oracles.all_crossings(res, 0.1)
    keys = [(spec.alpha, tolerance) for spec, tolerance in calls]
    assert len(events) > 100
    assert len(keys) == len(set(keys))


def test_bisection_matches_each_level_once_per_step(monkeypatch):
    res = sweep(8, np.geomspace(0.5, 8, 15))
    calls = _recording(monkeypatch, analysis_module, "best_partners")
    oracles.all_crossings(res, 0.1)
    keys = [(ref.spec.alpha, level, dec.spec.alpha, dec.cluster_tolerance)
            for (matches,), _ in calls for ref, levels, dec in matches for level in levels]
    assert len(keys) > 100
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("n", range(6, 10))
def test_overlaps_of_neighbouring_alphas_leave_greedy_pairing_no_choice(n):
    # tr(P_i P_j) summed over j is m_i, so each row and column of the normalised overlaps sums
    # to at most 1 and no two entries above 1/2 share one: the sweep's rule, each level's
    # partner above 1/2, pairs exactly as the entry-by-entry greedy loop does
    grid = [0.0, *np.geomspace(0.05, 12, 40).tolist(), 2.0, INFINITY]
    decs = list(spectra_module.momentum_decompositions(
        (RingSpec(n, alpha), 1e-9) for alpha in sorted(grid)))
    assert len(decs) == 43
    for dec_a, dec_b in zip(decs[:-1], decs[1:]):
        overlaps = spectra_module.overlap_matrix(dec_a, dec_b)
        assert overlaps.sum(axis=0).max() <= 1 + 1e-12
        assert overlaps.sum(axis=1).max() <= 1 + 1e-12
        partners = analysis_module._partners(overlaps)
        rows = np.flatnonzero(partners >= 0)
        got = tuple(zip(rows.tolist(), partners[rows].tolist(),
                        overlaps[rows, partners[rows]].tolist()))
        assert got == oracles.match_levels(overlaps, 0.5, 0.05).pairs
        assert len(got) == (overlaps > 0.5).sum()


def test_report_event_pass_solves_each_point_once(monkeypatch, capsys):
    calls = _recording_solves(monkeypatch)
    real_sweep = cli_module.sweep

    def sweep_then_forget(*args, **kwargs):  # keep the solves after the sweep
        result = real_sweep(*args, **kwargs)
        calls.clear()
        return result

    monkeypatch.setattr(cli_module, "sweep", sweep_then_forget)
    assert main(REPORT_N8) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["separation_gaps"]            # the report does pair a gap
    keys = [(spec.alpha, tolerance) for spec, tolerance in calls]
    assert len(keys) > 50
    assert len(keys) == len(set(keys))


def test_report_boundaries_are_those_of_each_census_curve(capsys):
    assert main(REPORT_N8) == 0
    doc = json.loads(capsys.readouterr().out)
    res = sweep(8, cli_module._parse_grid("0.5:8:15"))
    events = [event for entry in entangled_projector_census(res).entangled
              for sep in entry.distances
              for event in entanglement_boundaries(res.curves[entry.curve_index], sep, 0.1)]
    events.sort(key=lambda e: (e.alpha, e.curve_indices))
    assert len(events) > 1
    located = [CrossingEvent(d["alpha"], tuple(d["bracket"]), d["kind"], tuple(d["curve_indices"]),
                             d["separation"], d["crossing_coincident"])
               for d in doc["entanglement_boundaries"]]
    assert located == events and all(len(d) == 6 for d in doc["entanglement_boundaries"])


def test_report_bisects_at_the_structure_tolerance(monkeypatch, capsys):
    # the sweep's points, the levels every bisection step's sign changes read, and the fit's own
    # solve, as inf is off the grid, check their cells at the run's structure tolerance
    calls = _recording(monkeypatch, analysis_module, "_point_cells")
    assert main([*REPORT_N8, "--structure-tolerance", "1e-9"]) == 0
    capsys.readouterr()
    assert sum(len(args) > 1 for args, _ in calls) > 10  # bisection steps
    assert {args[0].batch.structure_tolerance for args, _ in calls} == {1e-9}


def test_report_builds_events_for_the_few_and_checks_each_batch_once(monkeypatch, capsys):
    # the crossings stay arrays to the document: a CrossingEvent is built for each boundary
    # (the gap ends and the max-distance onset are among them), the last located crossing and
    # the last on-grid one if it is higher; each solved batch's energy-correlator identity is
    # computed once, however many points and probes read it
    built, batches, checked = [], set(), []
    real_event, real_decomposition = (analysis_module.CrossingEvent,
                                      spectra_module._Batch.decomposition)
    real_identity = spectra_module._Batch.__dict__["identity"].func

    def event(*args, **kwargs):
        built.append(args)
        return real_event(*args, **kwargs)

    def decomposition(batch, *args):
        batches.add(batch)
        return real_decomposition(batch, *args)

    def identity(batch):
        checked.append(batch)
        return real_identity(batch)

    counted = functools.cached_property(identity)
    counted.__set_name__(spectra_module._Batch, "identity")
    monkeypatch.setattr(analysis_module, "CrossingEvent", event)
    monkeypatch.setattr(spectra_module._Batch, "decomposition", decomposition)
    monkeypatch.setattr(spectra_module._Batch, "identity", counted)
    reads = _recording(monkeypatch, analysis_module, "_point_cells")
    assert main(REPORT_N8) == 0
    doc = json.loads(capsys.readouterr().out)
    boundaries = doc["entanglement_boundaries"]
    assert len(doc["crossings"]) > 100 and len(boundaries) > 1
    assert all(end in boundaries for gaps in doc["separation_gaps"].values()
               for gap in gaps for end in gap.values())
    assert doc["separation_gaps"] and doc["max_distance_onset"] in boundaries
    on_grid = doc["last_crossing"]["curve_indices"] == []
    assert len(built) == len(boundaries) + 1 + on_grid
    assert len(checked) == len(set(checked)) and set(checked) <= batches
    assert len(checked) < len(reads)


def test_the_fit_reads_the_sweep_or_solves_at_the_run_tolerance(monkeypatch, capsys):
    # inf off the grid: the fit solves it alone, at the run's structure tolerance; on the grid,
    # the fit reads the sweep's point, solves nothing more, and the document is the same
    real, calls = spectra_module.momentum_decompositions, []

    def recorded(jobs, *args):
        jobs = list(jobs)
        calls.append(([spec.alpha for spec, _ in jobs], args))
        return real(jobs, *args)

    for module in (analysis_module, spectra_module):
        monkeypatch.setattr(module, "momentum_decompositions", recorded)
    docs = []
    for extra in ([], ["--extra", "inf"]):
        calls.clear()
        assert main([*REPORT_N8, "--structure-tolerance", "1e-9", *extra]) == 0
        docs.append(json.loads(capsys.readouterr().out))
        with_inf = [(alphas, args) for alphas, args in calls if INFINITY in alphas]
        assert len(with_inf) == 1 and with_inf[0][1] == (1e-9,)
        assert len(with_inf[0][0]) == (1 if not extra else 16)  # alone, or the sweep's grid
    assert docs[0]["nn_linear_fit"] == docs[1]["nn_linear_fit"] is not None


def test_separation_existence_and_gaps(sweep8):
    sep1 = separation_existence_intervals(sweep8, 1)
    assert len(sep1) == 1
    sep2 = separation_existence_intervals(sweep8, 2)
    assert len(sep2) == 2
    gaps = separation_gaps(sweep8, 2)
    assert len(gaps) == 1
    off, on = gaps[0]
    assert off.kind == "offset" and on.kind == "onset"
    assert abs(off.alpha - 2.547) < 2e-3
    assert abs(on.alpha - 3.709) < 2e-3
    assert separation_gaps(sweep8, 1) == ()
    assert separation_gaps(sweep8, 3) == ()
    assert separation_gaps(sweep8, 4) == ()


def test_entangled_level_census_values():
    assert entangled_level_census(8, 1.0) == {1: 5, 2: 2, 3: 3, 4: 2}
    at_two = entangled_level_census(8, 2.0)
    assert at_two[2] == at_two[3] == at_two[4] == 0
    assert entangled_level_census(2, 1.0) == {1: 1}


def test_projector_dimension_histogram_small():
    assert projector_dimension_histogram(2, 1.0) == {1: 1, 3: 1}
    assert projector_dimension_histogram(3, 1.0) == {4: 2}
    assert projector_dimension_histogram(3, 7.3) == {4: 2}


def test_nn_linear_fit_exact_at_limit():
    fit = nn_linear_fit(8)
    assert fit.n_points == 5
    assert fit.a == pytest.approx(0.0625, abs=1e-12)
    assert fit.b == pytest.approx(0.5, abs=1e-12)
    assert fit.max_residual < 1e-14


def test_nn_linear_fit_approximate_at_moderate_alpha():
    fit = nn_linear_fit(8, 6.0)
    ratio = fit.max_residual / fit.max_concurrence
    assert 0.001 < ratio < 0.05


def test_nn_linear_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        nn_linear_fit(2)
    with pytest.raises(InsufficientDataError):
        nn_linear_fit(4)


def test_distance_selectivity_small_alpha_clean():
    for alpha in (0.5, 1.0, 3.0):
        assert distance_selectivity_check(8, alpha) == []
    assert distance_selectivity_check(2, 1.0) == []


def test_distance_selectivity_coexistence_above_onset():
    # beyond the separation-4 onset one singlet level carries both 1 and 4
    violations = distance_selectivity_check(8, 5.0)
    assert violations == [(2, (1, 4))]
    violations = distance_selectivity_check(8, 9.0)
    assert len(violations) == 1 and violations[0][1] == (1, 4)


def test_point_records_check_the_energy_correlator_identity(dec):
    for n in range(2, 10):
        for variant in Variant:
            for alpha in (0.0, 1.3, 2.0, INFINITY):
                oracles._point_records(dec(n, alpha, variant), 1e-10)
    d = dec(6, 1.3)
    energies = d.energies.copy()
    energies[3] += 1e-6
    with pytest.raises(StructureError, match="level 3 energy"):
        oracles._point_records(dataclasses.replace(d, energies=energies), 1e-10)


def test_point_cells_check_the_energy_correlator_identity():
    # a batch's identity errors are those of each of its specs alone; a point raises for a bad
    # level, and a probe only for the levels it reads, numbered as in its decomposition
    for n in range(2, 10):
        for variant in Variant:
            decs = spectra_module.momentum_decompositions(
                (RingSpec(n, alpha, variant), 1e-9) for alpha in (0.0, 1.3, 2.0, INFINITY))
            for dec in decs:
                cells = analysis_module._point_cells(dec)
                assert np.array_equal(analysis_module._point_cells(dec, np.array([1, 0])),
                                      cells[[1, 0]])
                assert np.array_equal(dec.identity(), oracles.energy_identity(
                    dec.spec, dec.energies, dec.correlators()))
    d = spectra_module.momentum_decomposition(RingSpec(6, 1.3))
    energies = d.batch.energies.copy()
    energies[3] += 1e-6
    shifted = dataclasses.replace(d.batch, energies=energies).decomposition(
        spectra_module.MomentumDecomposition, 0, d.blocks)
    with pytest.raises(StructureError, match="level 3 energy"):
        analysis_module._point_cells(shifted)
    with pytest.raises(StructureError, match="level 3 energy"):  # numbered as in dec
        analysis_module._point_cells(shifted, np.array([1, 3]))
    assert np.array_equal(analysis_module._point_cells(shifted, np.array([2, 0, 1])),
                          analysis_module._point_cells(d)[[2, 0, 1]])


def test_mixed_levels_fail_the_structure_check_as_the_dense_path_does():
    # levels split by ~1e-9 of the range are clustered apart but their
    # eigenvectors mix, so their pair reductions lose the structured form
    d = diagonalize(RingSpec(6, 1e-7))
    with pytest.raises(StructureError) as info:
        oracles._point_records(d, 1e-10)
    j, k, residual = re.search(r"sites \((\d+), (\d+)\).* by (\S+) ", str(info.value)).groups()
    dense = max(extract_abc(reduce_two_sites(uniform_state(level, d), int(j), int(k)),
                            math.inf).structure_residual for level in d.levels)
    assert abs(float(residual) - dense) <= 0.01 * dense


def _assert_momentum_records_match(spec, dec):
    point = analysis_module._momentum_point(spec, 1e-9, 1e-10)
    cells = point.cells
    assert point.multiplicities.tolist() == [lv.multiplicity for lv in dec.levels]  # so starts
    for got, want in zip(point.energies.tolist(), dec.levels):
        assert abs(got - want.energy) <= 1e-12 * max(1.0, abs(want.energy))
    expected = oracles._point_records(dec, 1e-10)
    assert cells.shape == expected.shape and not cells.flags.writeable
    # concurrence, a, b, c; the residual column is the change of c between two solves of an
    # S-block, not the sector path's deviation from diag(a, b, b, a) + c (1.3e-12 at N = 12,
    # alpha = 1); a Werner state has c = a - b by construction
    assert np.abs(cells[..., :4] - expected[..., :4]).max() <= 1e-12
    assert np.abs(cells[..., 3] - (cells[..., 1] - cells[..., 2])).max() <= 1e-15
    assert cells[..., 4].max() <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_momentum_records_match_the_sector_eigenvectors(n, dec):
    for variant in Variant:
        for alpha in (0.0, 0.3, 1.0, 2.0, 3.3, 7.0, INFINITY):
            _assert_momentum_records_match(RingSpec(n, alpha, variant), dec(n, alpha, variant))


@pytest.mark.parametrize("n", (11, 12))
def test_momentum_records_match_the_sector_eigenvectors_large_rings(n):
    for alpha in (1.0, 2.0):
        spec = RingSpec(n, alpha)
        _assert_momentum_records_match(spec, diagonalize(spec))


def test_concurrence_solves_no_sector_eigenvectors(capsys, monkeypatch):
    argv = ("concurrence", "--n", "8", "--variant", "shifted",
            "--alpha", "0", "--alpha", "0.4", "--alpha", "2", "--alpha", "inf")
    expected = [(alpha, oracles._point_records(dec, 1e-10))
                for alpha in (0.0, 0.4, 2.0, INFINITY)
                for dec in [diagonalize(RingSpec(8, alpha, Variant.SHIFTED))]]

    def refuse(*args, **kwargs):
        raise AssertionError("concurrence computed sector eigenvectors")

    for module in (cli_module, analysis_module, spectra_module):
        monkeypatch.setattr(module, "diagonalize", refuse, raising=False)
    assert main(list(argv)) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    cells = np.array([[float(x) for x in row[5:]] for row in rows])
    want = np.concatenate([c.reshape(-1, 5) for _, c in expected])
    assert np.abs(cells[:, :4] - want[:, :4]).max() <= 1e-12 and cells[:, 4].max() <= 1e-12
    assert [float(row[0]) for row in rows] == \
        [alpha for alpha, c in expected for _ in range(c.shape[0] * c.shape[1])]
