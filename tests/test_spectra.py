import math
from collections import Counter

import numpy as np
import pytest

import oracles
import spinring.spectra as spectra_module
from oracles import cluster_levels
from oracles import block_layout
from spinring.model import separation_weights, variant_map, weight_offsets
from spinring import (INFINITY, IllConditionedError, RingSpec,
                      Variant, build_hamiltonian, default_alpha_grid,
                      diagonalize, energy_levels, lagrange_projector,
                      momentum_decomposition, projector, total_weight, uniform_state)


def test_cluster_levels_groups_degeneracies():
    values = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 2.0])
    levels, warns = cluster_levels(values, 1e-9)
    assert [(lv.energy, lv.multiplicity, lv.start) for lv in levels] == \
        [(0.0, 3, 0), (1.0, 1, 3), (2.0, 2, 4)]
    assert warns == ()


def test_cluster_levels_gap_rule_scales_with_range():
    # absolute threshold is tolerance * max(1, range): the same 5e-8 gap
    # splits when the range is 1 but merges when the range is 100
    levels, _ = cluster_levels(np.array([0.0, 5e-8, 1.0]), 1e-9)
    assert [lv.multiplicity for lv in levels] == [1, 1, 1]
    levels, _ = cluster_levels(np.array([0.0, 5e-8, 100.0]), 1e-9)
    assert [lv.multiplicity for lv in levels] == [2, 1]


def test_cluster_levels_marginal_cluster_warning():
    values = np.array([0.0, 0.6e-9, 1.0])
    levels, warns = cluster_levels(values, 1e-9)
    assert [lv.multiplicity for lv in levels] == [2, 1]
    assert len(warns) == 1 and "marginal" in warns[0]


def test_cluster_levels_validation():
    with pytest.raises(ValueError):
        cluster_levels(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(ValueError):
        cluster_levels(np.array([1.0, 0.0]), 1e-9)
    assert cluster_levels(np.array([]), 1e-9) == ((), ())


def test_diagonalize_solves_eigenproblem(dec):
    d = dec(6, 1.7)
    matrix = build_hamiltonian(RingSpec(6, 1.7)).matrix
    vectors = oracles.eigenvectors(d)
    residual = matrix @ vectors - vectors * d.eigenvalues
    assert np.max(np.abs(residual)) < 1e-11
    gram = vectors.T @ vectors
    assert np.max(np.abs(gram - np.eye(64))) < 1e-12
    assert np.all(np.diff(d.eigenvalues) >= 0)
    assert abs(d.eigenvalues.sum()) < 1e-10  # traceless pair coupling
    assert sum(lv.multiplicity for lv in d.levels) == 64


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n", range(2, 10))
def test_sector_blocks_match_dense_oracle(n, variant):
    for alpha in (0.0, 0.7, 2.0, INFINITY):
        spec = RingSpec(n, alpha, variant)
        d, dense = diagonalize(spec), oracles.diagonalize(spec)
        assert d.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
        assert d.levels == dense.levels
        # equal values; the oracle's sign flips also turn the zeros outside a
        # column's sector into -0.0
        assert np.array_equal(oracles.eigenvectors(d), dense.eigenvectors)
        # a generic neighbour: each of its levels lies inside one level at
        # alpha, so the best partner is unique (the reverse direction has
        # exact ties between equally sized levels, which rounding breaks)
        near = RingSpec(n, alpha + 0.05 if alpha < INFINITY else 40.0, variant)
        d_near, dense_near = diagonalize(near), oracles.diagonalize(near)
        for a, b, dense_a, dense_b in ((d, d_near, dense, dense_near),
                                       (d_near, d, dense_near, dense)):
            want = oracles.overlap_matrix(dense_a, dense_b)
            (partners, values), = spectra_module.best_partners(
                [(a, np.arange(a.energies.size), b)])
            rows = np.arange(partners.size)
            assert np.max(np.abs(values - want.max(axis=1))) < 1e-14
            assert np.all(want[rows, partners] > want.max(axis=1) - 1e-14)
        for index in range(len(d_near.levels)):
            assert oracles.best_partner(d_near, index, d)[0] == \
                oracles.match_single_level(dense_near, index, dense)[0]


@pytest.mark.parametrize("n", range(2, 10))
def test_momentum_overlaps_match_the_sector_overlaps(n):
    # the momentum blocks, each added `count` times, give the overlaps of all sectors
    for variant in Variant:
        for alpha in (0.0, 0.7, 2.0, INFINITY):
            specs = (RingSpec(n, alpha, variant),
                     RingSpec(n, alpha + 0.05 if alpha < INFINITY else 40.0, variant))
            sector = [diagonalize(spec) for spec in specs]
            momentum = [momentum_decomposition(spec) for spec in specs]
            for got, want in zip(momentum, sector):
                assert [(lv.start, lv.multiplicity) for lv in got.levels] == \
                    [(lv.start, lv.multiplicity) for lv in want.levels]
            for a, b in ((0, 1), (1, 0)):
                got = oracles.spin_block_overlap_matrix(momentum[a], momentum[b])
                want = oracles.overlap_matrix(sector[a], sector[b])
                assert np.max(np.abs(got - want)) < 1e-12
            for index in range(len(sector[1].levels)):
                got = oracles.best_partner(momentum[1], index, momentum[0])
                want = oracles.best_partner(sector[1], index, sector[0])
                assert got[0] == want[0] and abs(got[1] - want[1]) < 1e-12


def _arrays(value):
    """Every numpy array reachable from a decomposition's fields."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)
    elif hasattr(value, "__dataclass_fields__"):
        for name in value.__dataclass_fields__:
            yield from _arrays(getattr(value, name))


def test_decomposition_holds_only_sector_blocks():
    n = 10
    d = diagonalize(RingSpec(n, 1.0))
    assert all(array.size < 4 ** n for array in _arrays(d))
    eigenvector_bytes = sum(block.vectors.nbytes for block in d.blocks)
    assert eigenvector_bytes == 8 * sum(math.comb(n, s) ** 2 for s in range(n + 1))
    for level in d.levels:
        assert d.level_vectors(level).shape == (2 ** n, level.multiplicity)


def _assert_projected(block, projected):
    """A layout block against ``oracles.reflection_blocks``: the projection is real, and the
    entries agree within 1e-13 of max(1, |entry|) (the projection rounds integer sums that the
    layout adds exactly)."""
    scale = np.maximum(1.0, np.abs(block))
    assert np.all(np.abs(projected.imag) <= 1e-13 * scale)
    assert np.all(np.abs(block - projected.real) <= 1e-13 * scale)


def test_stacked_momentum_solves_match_one_solve_per_block():
    # every S-block width is assembled from its K_d^S and solved as one stack, a 1 x 1 width
    # too, less its Casimir part c_S: every S-block still gets exactly the eigh of solving it
    # alone, with its strides, c_S added to its eigenvalues, and with c_S it is Q_S^T H Q_S,
    # the top sector's reflection block projected onto the columns of one S, within 1e-12
    for n in (2, 3, 5, 8, 11, 12):
        spec, s0 = RingSpec(n, 0.7), (n + 1) // 2
        dec = momentum_decomposition(spec)
        stacks = [(spectra_module.spin_hamiltonians(bonds, weight_offsets(n, 0.7)), *labels)
                  for bonds, *labels in spectra_module.spin_bonds(n)]
        assert all(bonds.shape[0] == n // 2 for bonds, *_ in spectra_module.spin_bonds(n))
        assert [entry.vectors.shape for entry in dec.blocks] == \
            [stack.shape for stack, *_ in stacks]
        projected = {}
        for group, q, runs in spectra_module.spin_layout(n):
            for (_, k, parity), vectors, block_runs in zip(group.blocks, q, runs):
                block = oracles.reflection_blocks(spec, s0, [(k, parity)])[0].real
                for start, stop, *_ in block_runs:
                    projected.setdefault(stop - start, []).append(
                        vectors[:, start:stop].T @ block @ vectors[:, start:stop])
        for entry, (stack, states, casimirs) in zip(dec.blocks, stacks):
            assert np.array_equal(entry.count, states)
            whole = stack + casimirs[:, None, None] * np.eye(stack.shape[-1])
            assert np.max(np.abs(whole - np.array(projected[stack.shape[-1]]))) <= 1e-12
            for b, block in enumerate(stack):
                alone_w, alone_v = np.linalg.eigh(block)
                assert np.array_equal(entry.values[b], alone_w + casimirs[b])
                assert np.array_equal(entry.vectors[b], alone_v)
                assert entry.vectors[b].dtype == alone_v.dtype == np.float64
                assert entry.vectors[b].strides == alone_v.strides
        # level_arrays' stacked eigvalsh of H^S, c_S inside, is each S-block's alone
        for stack, *_ in spectra_module.spin_blocks(n, separation_weights(n, 0.7)):
            stacked_values = np.linalg.eigvalsh(stack)
            for b, block in enumerate(stack):
                assert np.array_equal(stacked_values[b], np.linalg.eigvalsh(block.copy()))
        assert sum(entry.count.sum() * entry.values.shape[-1] for entry in dec.blocks) == 2 ** n


BATCH_ALPHAS = (0.0, 1e-7, 0.7, 2.0, 3.3, INFINITY)


@pytest.mark.parametrize("n", range(2, 14))
def test_batched_stacks_match_one_alpha_at_a_time(n):
    # one bincount over A x N//2 weights gives each row's own stack, bit for bit, and each
    # block the sector block projected onto its independently built reflection basis
    weights = np.array([separation_weights(n, alpha) for alpha in BATCH_ALPHAS])
    stacks = [group.stack(weights) for group in block_layout(n)]
    for group, batch in zip(block_layout(n), stacks):
        assert batch.shape == (len(BATCH_ALPHAS), *group.shape) and batch.dtype == np.float64
        for row, stack in zip(weights, batch):
            alone = group.stack(row)
            assert alone.shape == group.shape and alone.dtype == stack.dtype
            assert alone.tobytes() == stack.tobytes()
    blocks = {key: (group, b) for group in block_layout(n) for b, key in enumerate(group.blocks)}
    for a, alpha in enumerate(BATCH_ALPHAS):
        for s in sorted({key[0] for key in blocks}):
            keys = [key for key in sorted(blocks) if key[0] == s]
            for key, projected in zip(keys, oracles.reflection_blocks(
                    RingSpec(n, alpha), s, [key[1:] for key in keys])):
                group, b = blocks[key]
                _assert_projected(stacks[block_layout(n).index(group)][a, b], projected)


@pytest.mark.parametrize("n", range(2, 14))
def test_real_blocks_match_the_complex_momentum_blocks(n):
    # count times width covers half the space, mirrored by the spin flip; the count-weighted
    # spectra of the real blocks give every level and multiplicity of the complex blocks of
    # every sector and momentum, as do the top sector's S-blocks, and the overlaps of two
    # S-block decompositions are those of the real blocks' columns, taken to the complex basis
    counts = [(int(c), g.shape[1], s) for g in block_layout(n)
              for c, (s, *_) in zip(oracles.layout_counts(n, g), g.blocks)]
    assert sum(c * w // (1 + (2 * s > n)) for c, w, s in counts) == \
        sum(math.comb(n, s) for s in range(n + 1) if 2 * s >= n)
    assert sum(c * w for c, w, _ in counts) == 2 ** n
    for alpha in BATCH_ALPHAS:
        standard = RingSpec(n, alpha)
        values = np.concatenate([np.linalg.eigvalsh(oracles.momentum_block(standard, s, k))
                                 for s in range(n + 1) for k in range(n)])
        for variant in Variant:
            spec = RingSpec(n, alpha, variant)
            scale, shift = variant_map(spec)
            want = cluster_levels(np.sort(scale * values + shift), 1e-9)[0]
            _assert_same_levels(energy_levels(spec), want)
            dec = momentum_decomposition(spec)
            _assert_same_levels(dec.levels, want)
            if alpha:  # each level at alpha lies in one level at 0, whatever mixes within it
                near = RingSpec(n, BATCH_ALPHAS[0], variant)
                gap = oracles.spin_block_overlap_matrix(dec, momentum_decomposition(near)) - \
                    oracles.block_overlap_matrix(oracles.layout_decomposition(spec),
                                                 oracles.layout_decomposition(near))
                assert np.max(np.abs(gap)) <= 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_batched_decompositions_match_one_alpha_at_a_time(n, monkeypatch):
    # every alpha and variant in one batch, whatever the ring size
    monkeypatch.setattr(spectra_module, "BATCH_BYTES", 2 ** 40)
    jobs = [(RingSpec(n, alpha, variant), 1e-9) for variant in Variant for alpha in BATCH_ALPHAS]
    solved = spectra_module.momentum_decompositions(jobs)
    for (spec, tolerance), got in zip(jobs, solved):
        want = momentum_decomposition(spec, tolerance)
        assert got.spec == spec and got.levels == want.levels
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert np.array_equal(np.hstack(got.members), np.hstack(want.members))
        for a, b in zip(got.blocks, want.blocks):
            assert np.array_equal(a.count, b.count)
            assert a.values.tobytes() == b.values.tobytes()
            assert a.vectors.tobytes() == b.vectors.tobytes()
            assert a.vectors.strides == b.vectors.strides
        count, gap = len(want.levels), got.correlators() - want.correlators()
        for levels in (slice(None), [0], [count - 1, 0], list(range(0, count, 3))):
            assert np.max(np.abs(gap[..., levels])) <= 1e-15
    assert next(solved, None) is None


@pytest.mark.parametrize("n", range(2, 13))
def test_an_alpha_solves_alike_alone_and_in_batches(n, monkeypatch):
    # the S-blocks are summed from K_d^S elementwise in d order, so an alpha's values, vectors,
    # correlators and residuals are the same bytes solved alone and in batches of 2 and 7; N = 2
    # and 3 have one separation, and 2 - 1e-7 solves an S-block twice from N = 10 on
    alphas = [0.0, 1e-7, 0.05, 0.3, 0.7, 1.0, 1.9999999, 2.0, 2.5, 3.3, 5.0, 7.0, 12.0, INFINITY]
    jobs = [(RingSpec(n, alpha), 1e-9) for alpha in alphas]
    solved = {}
    for size in (1, 2, 7):
        monkeypatch.setattr(spectra_module, "batch_size", lambda n_sites: size)
        solved[size] = [(tuple(entry.values.tobytes() for entry in dec.blocks),
                         tuple(entry.vectors.tobytes() for entry in dec.blocks),
                         dec.correlators().tobytes(), dec.cells()[..., 4].tobytes())
                        for dec in spectra_module.momentum_decompositions(jobs)]
    assert solved[2] == solved[1] and solved[7] == solved[1]
    twice = [np.frombuffer(residuals).any() for *_, residuals in solved[1]]  # cells' last column
    assert any(twice) == (n >= 10)


@pytest.mark.parametrize("n", range(5, 10))
def test_batch_assembly_matches_a_batch_of_one_bit_for_bit(n, monkeypatch):
    # one batch of a grid through alpha = 0, 2 and infinity, near-degenerate points and every
    # variant, at two cluster tolerances, as bisection rounds mix them: each decomposition's
    # arrays, warnings, levels and correlators are those of solving its alpha alone
    monkeypatch.setattr(spectra_module, "BATCH_BYTES", 2 ** 40)
    grid = [0.0, 1e-5, *np.geomspace(0.05, 12, 7).tolist(), 2.0, 2.00001, INFINITY]
    jobs = [(RingSpec(n, alpha, variant), tolerance) for variant in Variant for alpha in grid
            for tolerance in (1e-9, 1e-6)]
    solved = list(spectra_module.momentum_decompositions(jobs))
    assert len({id(dec.batch) for dec in solved}) == 1
    assert any(dec.warnings for dec in solved) or n == 5  # marginal clusters from N = 6 on
    for (spec, tolerance), got in zip(jobs, solved, strict=True):
        want = momentum_decomposition(spec, tolerance)
        for name in ("eigenvalues", "energies", "multiplicities", "starts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable
        assert [m.tobytes() for m in got.members] == [m.tobytes() for m in want.members]
        assert got.warnings == want.warnings and got.levels == want.levels
        assert got.correlators().tobytes() == want.correlators().tobytes()
        assert got.cells().tobytes() == want.cells().tobytes()  # residuals last


def test_a_failed_batch_is_solved_one_alpha_at_a_time(monkeypatch):
    # the batch's solve fails, so it is solved again an alpha at a time: the alphas before the
    # failing one come out whole, and the error comes at the failing one
    n, grid = 7, np.geomspace(0.5, 8, 6).tolist()
    real, shapes = np.linalg.eigh, []
    poison = next(spectra_module.spin_hamiltonians(bonds, weight_offsets(n, grid[3]))
                  for bonds, *_ in spectra_module.spin_bonds(n) if bonds.shape[-1] > 1)

    def eigh(stack):
        shapes.append(stack.shape[:-3])
        if stack.shape[-3:] == poison.shape and any(
                np.array_equal(block, poison) for block in stack.reshape(-1, *poison.shape)):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(stack)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    solved = spectra_module.momentum_decompositions((RingSpec(n, a), 1e-9) for a in grid)
    for alpha in grid[:3]:
        assert next(solved).spec.alpha == alpha
    with pytest.raises(spectra_module.EigensolverError) as info:
        next(solved)
    assert info.value.sector == (n + 1) // 2
    # the batch of six solves its 1 x 1 width, then fails at the poisoned width, once
    assert shapes[:2] == [(6,), (6,)] and shapes[-1] == (1,)
    assert shapes.count((6,)) == 2


def test_batch_size_bounds_the_eigenvector_bytes():
    # per alpha a batch holds its S-block stacks, summed from K_d^S, and their eigenvectors,
    # and it takes as many alphas as BATCH_BYTES holds
    for n, size in ((8, 284), (10, 35), (12, 3), (14, 1)):
        offsets = weight_offsets(n, 0.7)
        blocks = 2 * sum(spectra_module.spin_hamiltonians(bonds, offsets).nbytes
                         for bonds, *_ in spectra_module.spin_bonds(n))
        assert spectra_module.batch_size(n) == size == max(1, spectra_module.BATCH_BYTES // blocks)
    # the whole 43-point report grid at N = 8 is one batch
    assert spectra_module.batch_size(8) >= 43


@pytest.mark.parametrize("n", range(2, 13))
def test_grouped_correlators_match_one_block_at_a_time(n):
    # the batched S-block reductions against a loop over the same S-block columns and K_d^S;
    # and against every real block of the sectors with 2s >= N, solved apart and each reduced
    # in the complex basis by gathering its nonzeros, whose levels are Werner states, their
    # residual |c - (a - b)| = |<sigma_1 . sigma_{1+d}> - 3 <ZZ_d>|/4 small
    for variant in Variant:
        for alpha in (0.0, 0.7, 2.0, INFINITY):
            spec = RingSpec(n, alpha, variant)
            dec, layout = momentum_decomposition(spec), oracles.layout_decomposition(spec)
            count, every, want = len(dec.levels), dec.correlators(), \
                oracles.spin_block_correlators(dec)
            for levels in (slice(None), [0], [count - 1, 0], list(range(0, count, 3))):
                got = every[..., levels]
                assert got.shape == want[..., levels].shape
                assert np.max(np.abs(got - want[..., levels])) < 1e-14
            assert np.array_equal(dec.multiplicities, layout.multiplicities)
            assert np.array_equal(dec.starts, layout.starts)
            dots, zz = oracles.momentum_correlators(layout)
            assert every.shape == dots.shape
            assert np.max(np.abs(every - dots)) <= 1e-12
            assert np.max(np.abs(dots - 3 * zz)) / 4 <= 1e-12


@pytest.mark.parametrize("n", range(2, 11))
def test_grouped_overlaps_match_one_block_at_a_time(n):
    # the S-block overlaps, each block counted for its states, against a loop over the same
    # S-blocks, and against every real block of the sectors with 2s >= N, solved apart, one
    # block at a time in the complex basis
    for variant in Variant:
        for alpha in (0.0, 0.7, 2.0, INFINITY):
            near = alpha + 0.05 if alpha < INFINITY else 40.0
            specs = [RingSpec(n, x, variant) for x in (alpha, near)]
            a, b = map(momentum_decomposition, specs)
            layout_a, layout_b = map(oracles.layout_decomposition, specs)
            for dec_a, dec_b, layout in ((a, b, oracles.block_overlap_matrix(layout_a, layout_b)),
                                         (b, a, oracles.block_overlap_matrix(layout_b, layout_a))):
                want = oracles.spin_block_overlap_matrix(dec_a, dec_b)
                (partners, values), = spectra_module.best_partners(
                    [(dec_a, np.arange(dec_a.energies.size), dec_b)])
                assert np.array_equal(partners, want.argmax(axis=1))  # each row's first maximum
                assert np.max(np.abs(values - want.max(axis=1))) < 1e-14
                assert np.max(np.abs(want - layout)) < 1e-12
            # a generic neighbour's levels each lie inside one level at alpha
            want = oracles.spin_block_overlap_matrix(b, a)
            for index in range(len(b.levels)):
                j, value = oracles.best_partner(b, index, a)
                assert j == int(np.argmax(want[index]))
                assert abs(value - want[index, j]) < 1e-14


def _assert_same_levels(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.multiplicity, a.start) == (b.multiplicity, b.start)
        assert abs(a.energy - b.energy) <= 1e-12 * max(1.0, abs(b.energy))


@pytest.mark.parametrize("n", range(2, 11))
def test_energy_levels_match_diagonalize(n):
    for variant in Variant:
        for alpha in (0.0, 1e-7, 0.3, 2.0, 2.0 + 1e-7, 3.3, INFINITY):
            spec = RingSpec(n, alpha, variant)
            _assert_same_levels(energy_levels(spec), diagonalize(spec).levels)


@pytest.mark.parametrize("n", (11, 12))
def test_energy_levels_match_diagonalize_large_rings(n):
    for alpha in (1.0, 2.0):
        spec = RingSpec(n, alpha)
        _assert_same_levels(energy_levels(spec), diagonalize(spec).levels)


SPIN_ALPHAS = (0.0, 1e-7, 0.3, 1.0, 2.0, 2.00001, 3.3, 7.0, INFINITY)


@pytest.mark.parametrize("n", range(2, 15))
def test_spin_resolved_levels_match_every_sector(n):
    # the top sector's S-blocks give the levels, multiplicities and starts of the blocks of all
    # the sectors with 2s >= N, and their energies within 1e-12 of max(1, |E|)
    alphas = SPIN_ALPHAS + (default_alpha_grid(40) if n <= 10 else ())
    for variant in Variant:
        for alpha in alphas:
            spec = RingSpec(n, alpha, variant)
            got, want = spectra_module.level_arrays(spec), oracles.layout_level_arrays(spec)
            assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])
            assert np.all(np.abs(got[0] - want[0]) <= 1e-12 * np.maximum(1.0, np.abs(want[0])))


@pytest.mark.parametrize("n", range(2, 15))
def test_spin_layout_holds_every_multiplet_once(n):
    # the top sector's Casimir eigenvalues are 2S(S+1) - 3N/2, its eigenvectors Q take it to
    # that diagonal, S by S as the layout's runs say, with the c_S they name, and the runs
    # hold C(N, N/2 - S) - C(N, N/2 - S - 1) multiplets of each S, (2S + 1) states each, 2^N
    # states in all
    allowed = np.array([t * (t + 2) / 2 - 1.5 * n for t in range(n % 2, n + 1, 2)])  # t = 2S
    multiplets, states = Counter(), 0
    for group, vectors, runs in spectra_module.spin_layout(n):
        casimir = group.stack(np.ones(n // 2))
        values = np.linalg.eigvalsh(casimir).ravel()
        assert np.max(np.min(np.abs(values[:, None] - allowed), axis=1)) <= 1e-9
        for b, ((sector, _, parity), block_runs) in enumerate(zip(group.blocks, runs)):
            assert sector == (n + 1) // 2
            starts, stops, copies, casimirs = np.array(block_runs).T
            starts, stops, copies = (column.astype(int) for column in (starts, stops, copies))
            assert starts[0] == 0 and np.array_equal(starts[1:], stops[:-1])
            assert stops[-1] == group.shape[1]
            two_s = copies // 2 ** (parity == 0) - 1
            assert np.array_equal(copies, (two_s + 1) * 2 ** (parity == 0))
            assert np.array_equal(casimirs, two_s * (two_s + 2) / 2 - 1.5 * n)
            diagonal = np.repeat(casimirs, stops - starts)
            rotated = vectors[b].T @ casimir[b] @ vectors[b]
            assert np.max(np.abs(rotated - np.diag(diagonal))) <= 1e-9
            for t, width, copy in zip(two_s.tolist(), (stops - starts).tolist(), copies.tolist()):
                multiplets[t] += width * 2 ** (parity == 0)
                states += width * copy
    lowest = [(n - t) // 2 for t in range(n % 2, n + 1, 2)]
    assert multiplets == {t: math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
                          for t, k in zip(range(n % 2, n + 1, 2), lowest)}
    assert states == 2 ** n


CLOSED_FORMS = {2.0: oracles.haldane_shastry_levels, 0.0: oracles.all_to_all_levels}


def _assert_closed_form(got, spec):
    expected = oracles.variant_levels(spec, CLOSED_FORMS[spec.alpha](spec.n_sites))
    assert [lv.multiplicity for lv in got] == [m for _, m in expected]
    for level, (energy, _) in zip(got, expected):
        assert abs(level.energy - energy) <= 1e-12 * max(1.0, abs(energy))


@pytest.mark.parametrize("n", range(2, 15))
def test_energy_levels_match_closed_forms(n):
    for variant in Variant:
        for alpha in CLOSED_FORMS:
            spec = RingSpec(n, alpha, variant)
            _assert_closed_form(energy_levels(spec), spec)


@pytest.mark.parametrize("n", range(2, 11))
def test_diagonalize_matches_closed_forms(n):
    for variant in Variant:
        for alpha in CLOSED_FORMS:
            spec = RingSpec(n, alpha, variant)
            _assert_closed_form(diagonalize(spec).levels, spec)


def test_energy_levels_at_a_coarse_cluster_tolerance():
    spec = RingSpec(8, 1.3, Variant.SHIFTED)
    coarse = energy_levels(spec, 0.5)
    _assert_same_levels(coarse, diagonalize(spec, 0.5).levels)
    assert len(coarse) < len(energy_levels(spec))


def test_diagonalize_is_deterministic():
    a = diagonalize(RingSpec(5, 0.9))
    b = diagonalize(RingSpec(5, 0.9))
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert np.array_equal(oracles.eigenvectors(a), oracles.eigenvectors(b))
    assert a.levels == b.levels


def test_ferromagnetic_is_reversed_standard(dec):
    standard = dec(5, 1.2)
    ferro = dec(5, 1.2, Variant.FERROMAGNETIC)
    assert np.array_equal(ferro.eigenvalues, -standard.eigenvalues[::-1])
    assert len(ferro.levels) == len(standard.levels)
    assert ferro.multiplicities.tolist() == standard.multiplicities[::-1].tolist()


def test_shifted_top_level_is_zero(dec):
    d = dec(6, 0.7, Variant.SHIFTED)
    top = d.levels[-1]
    assert abs(top.energy) < 1e-10
    assert top.multiplicity == 7
    assert np.all(d.eigenvalues[:top.start] < -1e-6)


def test_projector_algebra(dec):
    d = dec(4, 1.0)
    total = np.zeros((16, 16))
    for level in d.levels:
        p = projector(level, d)
        assert np.max(np.abs(p - p.T)) < 1e-13
        assert np.max(np.abs(p @ p - p)) < 1e-12
        assert np.trace(p) == pytest.approx(level.multiplicity, abs=1e-10)
        total += p
    assert np.max(np.abs(total - np.eye(16))) < 1e-12
    p0 = projector(d.levels[0], d)
    p1 = projector(d.levels[1], d)
    assert np.max(np.abs(p0 @ p1)) < 1e-12


def test_uniform_state_normalization(dec):
    d = dec(4, 1.0)
    for level in d.levels:
        state = uniform_state(level, d)
        assert np.trace(state.rho) == pytest.approx(1.0, abs=1e-12)
        assert state.n_sites == 4
        vecs = d.level_vectors(level)
        assert np.max(np.abs(state.rho - vecs @ vecs.T / level.multiplicity)) == 0.0
        assert state.vectors.shape == (16, level.multiplicity)


def test_lagrange_projector_matches_eigenprojector(dec):
    d = dec(4, 1.0)
    ham = build_hamiltonian(RingSpec(4, 1.0))
    energies = [lv.energy for lv in d.levels]
    for level in d.levels:
        poly = lagrange_projector(ham, energies, level.energy)
        assert np.max(np.abs(poly - projector(level, d))) < 1e-8


def test_lagrange_projector_rejects_close_energies():
    matrix = np.diag([0.0, 1e-8, 1.0])
    with pytest.raises(IllConditionedError):
        lagrange_projector(matrix, [0.0, 1e-8, 1.0], 0.0)


def test_lagrange_projector_rejects_unlisted_target():
    matrix = np.diag([0.0, 1.0])
    with pytest.raises(ValueError):
        lagrange_projector(matrix, [0.0, 1.0], 0.5)


def test_overlap_matrix_self_is_identity(dec):
    d, m = dec(4, 1.0), momentum_decomposition(RingSpec(6, 1.0))
    for a, overlaps in ((d, oracles.overlap_matrix(d, d)),
                        (m, oracles.spin_block_overlap_matrix(m, m))):
        assert np.max(np.abs(overlaps - np.eye(a.energies.size))) < 1e-12
        (partners, values), = spectra_module.best_partners([(a, np.arange(a.energies.size), a)])
        assert np.array_equal(partners, np.arange(a.energies.size))
        assert np.max(np.abs(values - 1)) < 1e-14


def test_match_levels_nearby_alpha(dec):
    a = dec(6, 1.00)
    b = dec(6, 1.02)
    pairing = oracles.match_levels(oracles.overlap_matrix(a, b))
    assert pairing.is_bijection
    assert pairing.ambiguous == ()
    assert all(ov > 0.999 for _, _, ov in pairing.pairs)
    # levels stay in energy order this close together
    assert all(ia == ib for ia, ib, _ in pairing.pairs)
    mapping = pairing.as_map()
    for ia in range(len(a.levels)):
        jb, ov = oracles.best_partner(a, ia, b)
        assert jb == mapping[ia]
        assert ov > 0.999


def test_match_single_level_tracks_multiplicity(dec):
    a = dec(6, 1.00)
    b = dec(6, 1.02)
    for ia, level in enumerate(a.levels):
        jb, _ = oracles.best_partner(a, ia, b)
        assert b.levels[jb].multiplicity == level.multiplicity


def test_shifted_total_trace(dec):
    d = dec(5, 2.2, Variant.SHIFTED)
    total = total_weight(5, 2.2)
    assert d.eigenvalues.sum() == pytest.approx(-32 * total / 4, rel=1e-12)
