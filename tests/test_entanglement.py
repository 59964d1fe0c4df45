import math
import warnings

import numpy as np
import pytest

from oracles import _pair_pattern, level_measures, pair_table, pair_tables
from spinring import (PairStateWarning, RingSpec, StructureError, TwoSpinState,
                      Variant, concurrence_structured, concurrence_xstate_oracle,
                      diagonalize, extract_abc, meyer_wallach, oliveira_global,
                      pair_concurrence, reduce_one_site, reduce_sites, reduce_two_sites,
                      uniform_state, werner_measures)
from spinring.analysis import _momentum_point

SIGMA_YY = np.array([[0.0, 0.0, 0.0, -1.0],
                     [0.0, 0.0, 1.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0],
                     [-1.0, 0.0, 0.0, 0.0]])


def brute_reduce(rho, n, sites):
    """Bit-arithmetic partial trace, independent of any reshape logic.

    Kept-site values are assembled into the output index with the first
    listed site leading; local index 0 means spin up (bit value 1).
    """
    k = len(sites)
    rest = [s for s in range(1, n + 1) if s not in sites]
    out = np.zeros((2 ** k, 2 ** k))
    for row_bits in range(2 ** k):
        for col_bits in range(2 ** k):
            row_vals = [(row_bits >> (k - 1 - i)) & 1 for i in range(k)]
            col_vals = [(col_bits >> (k - 1 - i)) & 1 for i in range(k)]
            total = 0.0
            for env in range(2 ** len(rest)):
                r_idx = c_idx = 0
                for i, s in enumerate(sites):
                    r_idx |= (1 - row_vals[i]) << (s - 1)
                    c_idx |= (1 - col_vals[i]) << (s - 1)
                for i, s in enumerate(rest):
                    bit = (env >> i) & 1
                    r_idx |= bit << (s - 1)
                    c_idx |= bit << (s - 1)
                total += rho[r_idx, c_idx]
            out[row_bits, col_bits] = total
    return out


def wootters_concurrence(rho_pair):
    """Full spin-flip concurrence, no structural assumptions."""
    rho_tilde = SIGMA_YY @ rho_pair @ SIGMA_YY
    eigvals = np.linalg.eigvals(rho_pair @ rho_tilde)
    lam = np.sqrt(np.clip(eigvals.real, 0.0, None))
    lam.sort()
    return max(0.0, lam[-1] - lam[-2] - lam[-3] - lam[-4])


def random_density(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=(2 ** n, 2 ** n))
    rho = amp @ amp.T
    return rho / np.trace(rho)


@pytest.mark.parametrize("sites", [(1,), (3,), (2, 4), (4, 1), (1, 2, 3),
                                   (1, 2), (3, 1), (1, 4), (2, 5, 3)])
def test_reduce_sites_matches_bit_oracle(dec, sites):
    n = max(4, *sites)
    rho = random_density(n, seed=7)
    reduced = reduce_sites(rho, sites)
    oracle = brute_reduce(rho, n, list(sites))
    assert np.max(np.abs(reduced - oracle)) < 1e-13
    assert np.trace(reduced) == pytest.approx(1.0, abs=1e-12)
    # level states reduce from their eigenvector block; the dense partial
    # trace of the same state, checked above, is the oracle
    for n_sites in (5, 6, 7):
        for alpha in (0.5, 2.0, math.inf):
            d = dec(n_sites, alpha)
            for level in d.levels:
                state = uniform_state(level, d)
                assert state.vectors.shape == (2 ** n_sites, level.multiplicity)
                block = reduce_sites(state, sites)
                assert np.max(np.abs(block - reduce_sites(state.rho, sites))) < 1e-13


def test_reduce_sites_validation():
    rho = random_density(3, seed=1)
    with pytest.raises(ValueError):
        reduce_sites(rho, (1, 1))
    with pytest.raises(ValueError):
        reduce_sites(rho, (0,))
    with pytest.raises(ValueError):
        reduce_sites(rho, (4,))
    with pytest.raises(ValueError):
        reduce_two_sites(rho, 2, 2)


def test_reduce_order_convention():
    # basis index 0 of the reduction is the all-up pair state
    n = 3
    up_all = 2 ** n - 1          # every bit set means every site up
    rho = np.zeros((8, 8))
    rho[up_all, up_all] = 1.0
    pair = reduce_two_sites(rho, 1, 3)
    assert pair[0, 0] == 1.0
    assert np.sum(np.abs(pair)) == 1.0


def test_one_site_reduction_is_maximally_mixed(dec):
    d = dec(5, 1.1)
    for level in d.levels[::4]:
        state = uniform_state(level, d)
        for site in range(1, 6):
            rho_j = reduce_one_site(state, site)
            assert np.max(np.abs(rho_j - np.eye(2) / 2)) < 1e-13


def test_extract_abc_recovers_structured_matrix():
    target = TwoSpinState(a=0.1, b=0.4, c=-0.35, structure_residual=0.0)
    fitted = extract_abc(target.matrix())
    assert (fitted.a, fitted.b, fitted.c) == (0.1, 0.4, -0.35)
    assert fitted.structure_residual == 0.0
    assert concurrence_structured(fitted) == pytest.approx(0.5)


def test_extract_abc_rejects_unstructured_input():
    bad = np.full((4, 4), 0.25)
    with pytest.raises(StructureError):
        extract_abc(bad)
    with pytest.raises(ValueError):
        extract_abc(np.eye(3))


def test_extract_abc_warns_on_impossible_offdiagonal():
    matrix = np.diag([0.1, 0.15, 0.15, 0.1])
    matrix[1, 2] = matrix[2, 1] = 0.3
    with pytest.warns(PairStateWarning):
        extract_abc(matrix)
    with pytest.warns(PairStateWarning):
        pair_concurrence(matrix, 1, 2)


def test_concurrence_agrees_with_wootters_on_eigenstates(dec):
    d = dec(6, 1.3)
    for li in (0, 2, 7, 12, len(d.levels) - 1):
        state = uniform_state(d.levels[li], d)
        for j, k in ((1, 2), (1, 4), (2, 5)):
            rho_pair = reduce_two_sites(state, j, k)
            fitted = extract_abc(rho_pair)
            structured = concurrence_structured(fitted)
            assert structured == pytest.approx(concurrence_xstate_oracle(rho_pair), abs=1e-12)
            assert structured == pytest.approx(wootters_concurrence(rho_pair), abs=1e-10)


def test_concurrence_agrees_with_wootters_on_synthetic_states():
    for a, c in ((0.05, 0.30), (0.20, -0.25), (0.0, 0.5), (0.25, 0.0)):
        b = 0.5 - a
        if abs(c) > b:
            continue
        state = TwoSpinState(a=a, b=b, c=c, structure_residual=0.0)
        rho_pair = state.matrix()
        # rank-deficient rho rho~ puts sqrt(eps) noise under the square
        # roots of the eigenvalue formula, so the oracle floor is ~1e-8
        assert concurrence_structured(state) == pytest.approx(
            wootters_concurrence(rho_pair), abs=5e-8)
        assert concurrence_structured(state) == pytest.approx(
            concurrence_xstate_oracle(rho_pair), abs=1e-12)


def test_xstate_oracle_rejects_non_x_input():
    bad = np.eye(4) / 4
    bad[0, 1] = bad[1, 0] = 0.1
    with pytest.raises(ValueError):
        concurrence_xstate_oracle(bad)


def test_two_site_singlet_and_triplet(dec):
    d = dec(2, 1.0)
    assert [lv.multiplicity for lv in d.levels] == [1, 3]
    singlet = uniform_state(d.levels[0], d)
    pair = pair_concurrence(singlet, 1, 2)
    assert abs(concurrence_structured(pair) - 1.0) < 1e-12
    assert abs(pair.a) < 1e-15 and abs(abs(pair.c) - 0.5) < 1e-13
    triplet = uniform_state(d.levels[1], d)
    fitted = pair_concurrence(triplet, 1, 2)
    assert concurrence_structured(fitted) == 0.0
    assert fitted.a == pytest.approx(1 / 3, abs=1e-12)
    assert fitted.b == pytest.approx(1 / 6, abs=1e-12)
    assert fitted.c == pytest.approx(1 / 6, abs=1e-12)


def test_meyer_wallach_on_eigenstates(dec):
    d = dec(5, 0.8)
    for level in d.levels[::5]:
        assert meyer_wallach(uniform_state(level, d)) == pytest.approx(1.0, abs=1e-12)


def test_meyer_wallach_on_product_state():
    n = 3
    rho = np.zeros((8, 8))
    rho[7, 7] = 1.0      # |+++>
    assert meyer_wallach(rho) == pytest.approx(0.0, abs=1e-14)


def test_oliveira_n2_reference_values(dec):
    # hand computation: singlet pair purity 1 at both site orders gives
    # (4/3)(1 - 2) = -4/3 with the published 1/(N-1) inner weight,
    # and (4/3)(1 - 1) = 0 with the 1/N weight
    d = dec(2, 1.0)
    singlet = uniform_state(d.levels[0], d)
    with pytest.warns(PairStateWarning):
        value = oliveira_global(singlet)
    assert value == pytest.approx(-4 / 3, abs=1e-12)
    assert oliveira_global(singlet, inner_over_n=True) == pytest.approx(0.0, abs=1e-12)
    # triplet: both pair purities are 1/3
    triplet = uniform_state(d.levels[1], d)
    with pytest.warns(PairStateWarning):
        value = oliveira_global(triplet)
    assert value == pytest.approx(4 / 9, abs=1e-12)


def test_oliveira_no_warning_for_larger_rings(dec):
    import warnings as warnings_module
    d = dec(4, 1.0)
    state = uniform_state(d.levels[0], d)
    with warnings_module.catch_warnings():
        warnings_module.simplefilter("error")
        value = oliveira_global(state)
    assert 0.0 < value < 1.0


def test_pair_concurrence_carries_site_pair(dec):
    d = dec(4, 1.0)
    state = uniform_state(d.levels[0], d)
    fitted = pair_concurrence(state, 2, 4)
    assert fitted.site_pair == (2, 4)
    assert fitted.a + fitted.b == pytest.approx(0.5, abs=1e-12)


def table_matrices(table):
    """The 4x4 reductions a pair table stands for, one per level."""
    out = np.zeros((table.c.size, 4, 4))
    out[:, range(4), range(4)] = table.diagonal
    out[:, 1, 2] = out[:, 2, 1] = table.c
    return out


@pytest.mark.parametrize("n", range(2, 10))
def test_pair_table_matches_dense_reduction(dec, n):
    for variant in Variant:
        for alpha in (0.0, 0.7, 2.0, math.inf):
            d = dec(n, alpha, variant)
            states = [uniform_state(level, d) for level in d.levels]
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    if j == k:
                        continue
                    table = pair_table(d, j, k)
                    dense = np.array([reduce_two_sites(state, j, k) for state in states])
                    assert np.max(np.abs(table_matrices(table) - dense)) < 1e-14
                    fitted = [extract_abc(rho) for rho in dense]
                    expected = np.array([(f.a, f.b, f.structure_residual,
                                          concurrence_structured(f)) for f in fitted])
                    got = np.stack([table.a, table.b, table.residual, table.concurrence], 1)
                    assert np.max(np.abs(got - expected)) < 1e-14
                    assert np.all(np.abs(table.c) <= table.b + 1e-15)


def test_pair_table_selects_levels_and_validates_sites(dec):
    d = dec(6, 1.3)
    full = pair_table(d, 2, 5)
    some = pair_table(d, 2, 5, levels=[7, 3])
    assert np.array_equal(some.diagonal, full.diagonal[[7, 3]])
    assert np.array_equal(some.c, full.c[[7, 3]])
    for j, k in ((1, 1), (0, 2), (1, 7)):
        with pytest.raises(ValueError):
            pair_table(d, j, k)
    with pytest.raises(StructureError):
        pair_table(d, 1, 2, structure_tolerance=1e-20)


@pytest.mark.parametrize("n", range(2, 11))
def test_pair_tables_match_one_pair_at_a_time(dec, n):
    # the multi-pair form squares each block once, and a level subset reduces
    # only the blocks holding its members; neither may move a bit
    pairs = [(1, 1 + d) for d in range(1, n // 2 + 1)] + [(n, 1)]
    for alpha in (0.7, 2.0, math.inf):
        d = dec(n, alpha)
        tables = pair_tables(d, pairs)
        for (j, k), table in zip(pairs, tables):
            single = pair_table(d, j, k)
            assert all(x.tobytes() == y.tobytes() for x, y in zip(table, single))
        for li in range(len(d.levels)):
            (row,) = pair_tables(d, pairs[:1], levels=[li])
            assert all(x.tobytes() == y[[li]].tobytes() for x, y in zip(row, tables[0]))
    for s in range(n + 1):
        for j, k in pairs:
            assert not any(array.flags.writeable for array in _pair_pattern(n, s, j, k))


@pytest.mark.parametrize("inner_over_n", [False, True])
def test_level_measures_match_per_state_measures(dec, inner_over_n):
    for n in range(2, 9):
        for alpha in (0.7, 2.0, math.inf):
            d = dec(n, alpha)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PairStateWarning)
                mw, ol = level_measures(d, inner_over_n)
                for li, level in enumerate(d.levels):
                    state = uniform_state(level, d)
                    assert abs(mw[li] - meyer_wallach(state)) < 1e-12
                    assert abs(ol[li] - oliveira_global(state, inner_over_n)) < 1e-12


@pytest.mark.parametrize("inner_over_n", [False, True])
def test_werner_measures_match_the_sector_level_measures(dec, inner_over_n):
    for n in range(2, 11):
        for alpha in (0.0, 0.7, 2.0, math.inf):
            cells = _momentum_point(RingSpec(n, alpha), 1e-9, 1e-10).cells
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", PairStateWarning)
                got = werner_measures(cells, n, inner_over_n)
                want = level_measures(dec(n, alpha), inner_over_n)
            for g, w in zip(got, want):
                assert np.abs(g - w).max() < 1e-12
    with pytest.warns(PairStateWarning, match="degenerate"):
        werner_measures(_momentum_point(RingSpec(2, 1.0), 1e-9, 1e-10).cells, 2)


def test_level_measures_warn_on_degenerate_normalization(dec):
    d = dec(2, 1.0)
    with pytest.warns(PairStateWarning, match="degenerate"):
        level_measures(d)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        level_measures(d, inner_over_n=True)
        level_measures(dec(3, 1.0))
