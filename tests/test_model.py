import math

import numpy as np
import pytest

import oracles
import spinring.model as model_module
from spinring import (INFINITY, RingSizeError, RingSpec, Variant,
                      build_hamiltonian, build_sector_blocks, chord_distance,
                      coupling_weight, separation_weights, top_eigenspace_basis,
                      total_weight)
from spinring.model import (_sector_pattern, _translation_orbits, popcounts, sector_block,
                            sector_states, weight_offsets)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


def pauli_hamiltonian(n, alpha):
    """Independent construction: explicit Kronecker products of Pauli matrices.

    Site 1 is the least significant tensor factor, matching the bit encoding.
    The pair term sigma.sigma is invariant under flipping the local basis
    order, so the up/down labeling drops out.
    """
    dim = 2 ** n
    total = np.zeros((dim, dim), dtype=complex)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            w = coupling_weight(n, k - j, alpha)
            if w == 0.0:
                continue
            for sigma in (SIGMA_X, SIGMA_Y, SIGMA_Z):
                factors = [np.eye(2)] * n
                factors[n - j] = sigma
                factors[n - k] = sigma
                term = factors[0]
                for f in factors[1:]:
                    term = np.kron(term, f)
                total += w * term
    assert np.max(np.abs(total.imag)) < 1e-14
    return total.real


def test_chord_distance_values():
    assert chord_distance(8, 1) == 1.0
    assert chord_distance(8, 2) == pytest.approx(math.sin(math.pi / 4) / math.sin(math.pi / 8))
    assert chord_distance(8, 4) == pytest.approx(1.0 / math.sin(math.pi / 8))
    # the distance depends on the ring separation min(d, N-d) only
    assert chord_distance(8, 6) == chord_distance(8, 2)
    assert chord_distance(8, 7) == 1.0
    assert chord_distance(3, 1) == chord_distance(3, 2) == 1.0


def test_chord_distance_rejects_bad_separation():
    with pytest.raises(ValueError):
        chord_distance(8, 0)
    with pytest.raises(ValueError):
        chord_distance(8, 8)
    with pytest.raises(ValueError):
        chord_distance(1, 1)


def test_coupling_weight_limits():
    for d in range(1, 8):
        assert coupling_weight(8, d, 0.0) == 1.0
    assert coupling_weight(8, 1, INFINITY) == 1.0
    assert coupling_weight(8, 7, INFINITY) == 1.0
    for d in range(2, 7):
        assert coupling_weight(8, d, INFINITY) == 0.0
    assert coupling_weight(8, 2, 2.0) == pytest.approx(chord_distance(8, 2) ** -2)


def test_separation_weights_match_pair_sum():
    for n in range(2, 9):
        for alpha in (0.0, 1.5, 2.0, INFINITY):
            weights = separation_weights(n, alpha)
            assert len(weights) == n // 2
            assert weights.tolist() == [coupling_weight(n, d, alpha)
                                        for d in range(1, n // 2 + 1)]
            explicit = sum(coupling_weight(n, k - j, alpha)
                           for j in range(1, n + 1) for k in range(j + 1, n + 1))
            assert total_weight(n, alpha) == pytest.approx(explicit, rel=1e-14)


def test_weight_offsets_read_the_cached_chord_logs():
    # the logs of the chord distances are taken once per ring size, and the offsets are the
    # bytes of taking them at every call
    for n in range(2, 15):
        assert model_module._chord_logs(n) is model_module._chord_logs(n)
        assert not model_module._chord_logs(n).flags.writeable
        logs = np.log([chord_distance(n, d) for d in range(2, n // 2 + 1)])
        for alpha in (0.0, 1e-12, 0.05, 0.7, 2.0, 12.0, INFINITY):
            want = np.concatenate([[0.0], np.expm1(-alpha * logs)])
            assert weight_offsets(n, alpha).tobytes() == want.tobytes()


def test_weight_offsets_keep_their_precision_near_alpha_zero():
    # w_d - 1 = expm1(-alpha ln r_d): the weights less 1, and near alpha = 0, where every
    # weight is near 1, still -alpha ln r_d (1 - alpha ln r_d / 2) to relative rounding, which
    # the rounded weight less 1 misses by about eps / alpha
    for n in range(2, 15):
        logs = np.log([chord_distance(n, d) for d in range(1, n // 2 + 1)])
        for alpha in (0.0, 1e-12, 1e-8, 0.7, 2.0, INFINITY):
            offsets = weight_offsets(n, alpha)
            assert offsets.shape == (n // 2,) and offsets[0] == 0.0
            assert np.max(np.abs(offsets - (separation_weights(n, alpha) - 1))) <= 1e-15
        for alpha in (1e-12, 1e-14):
            series = -alpha * logs * (1 - alpha * logs / 2)
            assert np.allclose(weight_offsets(n, alpha), series, rtol=1e-14, atol=0)


def test_ringspec_validation():
    with pytest.raises(ValueError):
        RingSpec(1, 1.0)
    with pytest.raises(ValueError):
        RingSpec(4, -0.5)
    with pytest.raises(ValueError):
        RingSpec(4, float("nan"))
    with pytest.raises(RingSizeError):
        RingSpec(15, 1.0)
    with pytest.raises(ValueError):
        RingSpec(4, 1.0, "standard")
    assert RingSpec(4, 2).alpha == 2.0
    assert RingSpec(4, 2).dimension == 16


def test_popcounts():
    counts = popcounts(4)
    assert counts.tolist() == [bin(i).count("1") for i in range(16)]


@pytest.mark.parametrize("n,alpha", [(3, 1.3), (4, 2.0), (4, INFINITY), (5, 0.0),
                                     (6, 0.37), (6, INFINITY), (7, 3.1)])
def test_hamiltonian_matches_pauli_oracle(n, alpha):
    built = build_hamiltonian(RingSpec(n, alpha)).matrix
    oracle = pauli_hamiltonian(n, alpha)
    assert np.max(np.abs(built - oracle)) < 1e-12


def test_hamiltonian_symmetric_and_sector_sparse():
    matrix = build_hamiltonian(RingSpec(6, 1.7)).matrix
    assert np.array_equal(matrix, matrix.T)
    pops = popcounts(6)
    mask = pops[:, None] != pops[None, :]
    assert np.max(np.abs(matrix[mask])) == 0.0


def test_variant_relations():
    spec = RingSpec(5, 1.3)
    standard = build_hamiltonian(spec).matrix
    ferro = build_hamiltonian(RingSpec(5, 1.3, Variant.FERROMAGNETIC)).matrix
    shifted = build_hamiltonian(RingSpec(5, 1.3, Variant.SHIFTED)).matrix
    assert np.array_equal(ferro, -standard)
    total = total_weight(5, 1.3)
    expected = (standard - total * np.eye(32)) / 4.0
    assert np.max(np.abs(shifted - expected)) < 1e-12


def test_sector_blocks_match_full_matrix():
    spec = RingSpec(6, 2.4)
    full = build_hamiltonian(spec).matrix
    blocks = build_sector_blocks(spec)
    sizes = [b.block.shape[0] for b in blocks]
    assert sizes == [math.comb(6, s) for s in range(7)]
    for b in blocks:
        sub = full[np.ix_(b.states, b.states)]
        assert np.array_equal(sub, b.block)
    all_states = np.concatenate([b.states for b in blocks])
    assert sorted(all_states.tolist()) == list(range(64))


def test_sector_eigenvalues_union_matches_full():
    spec = RingSpec(5, 0.8)
    full_vals = np.linalg.eigvalsh(build_hamiltonian(spec).matrix)
    block_vals = np.sort(np.concatenate(
        [np.linalg.eigvalsh(b.block) for b in build_sector_blocks(spec)]))
    assert np.max(np.abs(full_vals - block_vals)) < 1e-10


def test_top_eigenspace_basis_properties():
    for n in (2, 4, 7):
        basis = top_eigenspace_basis(n)
        assert basis.shape == (2 ** n, n + 1)
        gram = basis.T @ basis
        assert np.max(np.abs(gram - np.eye(n + 1))) < 1e-14
    for alpha in (0.0, 0.7, 5.0, INFINITY):
        shifted = build_hamiltonian(RingSpec(4, alpha, Variant.SHIFTED)).matrix
        assert np.max(np.abs(shifted @ top_eigenspace_basis(4))) < 1e-12


def test_translation_symmetry():
    perm = oracles.translation_permutation(5)
    assert sorted(perm.tolist()) == list(range(32))
    # applying the shift five times is the identity
    composed = np.arange(32)
    for _ in range(5):
        composed = perm[composed]
    assert np.array_equal(composed, np.arange(32))
    matrix = build_hamiltonian(RingSpec(5, 1.9)).matrix
    assert np.max(np.abs(matrix[np.ix_(perm, perm)] - matrix)) < 1e-12
    # each state's orbit representative, period and shift, by walking the permutation
    for n in range(2, 9):
        perm, states = oracles.translation_permutation(n), np.arange(2 ** n)
        images = [states]
        for _ in range(n - 1):
            images.append(perm[images[-1]])
        reps, period, shift = _translation_orbits(n)
        assert np.array_equal(reps, np.min(images, axis=0))
        for x in range(2 ** n):
            orbit = [int(image[reps[x]]) for image in images]
            assert period[x] == len(set(orbit)) and orbit.index(x) == shift[x]


def test_spin_flip_symmetry():
    perm = oracles.spin_flip_permutation(6)
    assert np.array_equal(perm[perm], np.arange(64))
    matrix = build_hamiltonian(RingSpec(6, 0.6)).matrix
    assert np.max(np.abs(matrix[np.ix_(perm, perm)] - matrix)) < 1e-12


@pytest.mark.parametrize("n", range(2, 10))
def test_spin_flip_mirrors_sector_blocks(n):
    # the flip maps sector s onto n - s and reverses the ascending state order
    states, flip = sector_states(n), oracles.spin_flip_permutation(n)
    for s in range(n + 1):
        assert np.array_equal(states[n - s], flip[states[s]][::-1])
    for variant in Variant:
        for alpha in (0.7, 2.0, INFINITY):
            blocks = build_sector_blocks(RingSpec(n, alpha, variant))
            for s in range(n + 1):
                assert np.array_equal(blocks[n - s].block, blocks[s].block[::-1, ::-1])


@pytest.mark.parametrize("n", range(2, 13))
def test_sector_blocks_match_uncached_construction(n):
    # the cached pattern only moves alpha-independent index work out of the build
    for variant in Variant:
        for alpha in (0.0, 1e-7, 0.7, 2.0, 2.0 + 1e-7, INFINITY):
            spec = RingSpec(n, alpha, variant)
            for s in range(n + 1):
                block = sector_block(spec, s).block
                assert block.tobytes() == oracles.sector_block_reference(spec, s).block.tobytes()
    for s in range(n + 1):
        assert not any(array.flags.writeable for array in _sector_pattern(n, s))


@pytest.mark.parametrize("n", range(2, 11))
def test_momentum_blocks_split_sector_blocks(n):
    # k and N - k give conjugate blocks, so k = 0 .. N//2 cover the sector
    weights = [2 if 0 < 2 * k < n else 1 for k in range(n // 2 + 1)]
    for variant in Variant:
        for alpha in (0.7, 2.0, INFINITY):
            spec = RingSpec(n, alpha, variant)
            for s in range(n + 1):
                blocks = [oracles.momentum_block(spec, s, k) for k in range(n // 2 + 1)]
                assert sum(w * b.shape[0] for w, b in zip(weights, blocks)) == math.comb(n, s)
                for k, block in enumerate(blocks):
                    assert np.max(np.abs(block - block.conj().T), initial=0.0) <= 1e-14
                    mirror = oracles.momentum_block(spec, s, (n - k) % n)
                    assert np.max(np.abs(mirror - block.conj()), initial=0.0) <= 1e-14
                    if 2 * k % n == 0:
                        assert block.dtype == np.float64
                values = np.sort(np.concatenate(
                    [np.linalg.eigvalsh(b) for w, b in zip(weights, blocks) for _ in range(w)]))
                expected = np.linalg.eigvalsh(sector_block(spec, s).block)
                assert np.max(np.abs(values - expected)) <= 1e-12


def test_sector_states_partition():
    sectors = sector_states(5)
    assert [s.size for s in sectors] == [math.comb(5, k) for k in range(6)]
    merged = sorted(np.concatenate(sectors).tolist())
    assert merged == list(range(32))
