"""Full-space reference implementations for tests (N <= 10).

``diagonalize`` here scatters every magnetization block into one dense
2^N x 2^N eigenvector matrix, sorts its columns and fixes their signs over
the whole space; ``overlap_matrix`` and ``match_single_level`` form the full
Gram matrix of two such decompositions.  The package keeps the blocks apart
and never builds that matrix; these are the independent checks it is
compared against.  ``haldane_shastry_levels`` (alpha = 2) and
``all_to_all_levels`` (alpha = 0) are closed-form spectra for any N.

``pair_tables`` reduces every level of a sector decomposition to site pairs
straight from its magnetization blocks, with no Werner assumption, and
``_point_records`` and ``level_measures`` build the sweep cells and the global
measures from those tables: the reference for the momentum-block Werner cells.

``momentum_block`` assembles one complex lattice-momentum block entry by
entry (``_momentum_entries``), and ``separation_correlators`` reduces its columns
by gathering its nonzeros one separation at a time.  ``block_layout`` stacks the
real momentum blocks of every sector with 2s >= N, which stand for all the
blocks, and ``reflection_basis`` builds the columns of each as sector-space
vectors from the translation and reflection permutations alone;
``reflection_blocks`` projects the sector block onto them.
``layout_decomposition`` solves every block of ``block_layout``, and
``momentum_correlators`` and ``block_overlap_matrix`` work through it one block
at a time, its columns taken back to the complex basis: the references for the
group stacks and for the correlators and overlaps the package reduces from the
top sector's S-blocks alone.  ``layout_level_arrays`` solves the eigenvalues of
every block of ``block_layout``: the reference for ``spectra.level_arrays``.

``match_levels`` pairs two decompositions' levels greedily, entry by entry in
descending overlap: the reference for the sweep's pairing rule, each level's
partner above overlap 1/2 (``analysis._partners``).

``bisect`` locates the events of one backbone interval with one solve per
step, matching one level at a time (``best_partner``): the reference for
``analysis._bisect``, which bisects many intervals in lockstep and solves each
round's midpoints as one batch.  ``lockstep_bisect`` steps the same probes, one
``OrderSwap`` or ``SignChange`` object at a time, in ``analysis._bisect``'s
lockstep and batch order (each probe's level checked by ``point_cells``): the
reference for its table of probes stepped as arrays.  ``interval_probes`` scans
each backbone interval's level pairs by itertools.combinations, and
``sign_changes`` compares one curve's concurrence at one interval's ends: the
references for ``analysis._interval_probes`` and ``analysis._sign_changes``,
which compare every curve and interval at once.  ``probe_objects`` and
``probe_intervals`` turn ``analysis._PROBE`` rows into those objects, and
``energy_identity`` checks one spec's levels at a time: the reference for
``spectra._Batch.identity``.
``all_crossings`` gives the crossings ``report`` locates, for the tests that
read them alone.

``cluster_levels`` clusters one ascending eigenvalue list into ``Level`` objects by the
package's gap rule (``spectra._clusters``), for the dense ``diagonalize`` and as the one-list
form the clustering tests read.  ``emit_csv`` writes a CSV cell by cell from tuple rows, and
``table_text`` gives the ``spectrum`` and ``concurrence`` output from such rows, each alpha
solved alone (``energy_levels``, ``_momentum_point``): the references for
``serialize.emit_csv``, which writes the commands' level arrays, and for their batched solves.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from spinring.analysis import (ENERGY_IDENTITY_RTOL, JUMP_SCALE_DEFAULT, RESOLUTION_DEFAULT,
                               CrossingEvent, _events, _located_events, _momentum_point)
from spinring.entanglement import STRUCTURE_TOLERANCE_DEFAULT, PairStateWarning, StructureError
from spinring.model import (RingSpec, SectorBlock, Variant, _ring_pairs, _translation_orbits,
                            block_groups, build_sector_blocks, read_only, sector_block,
                            sector_states, separation_weights, total_weight, variant_map)
from spinring.serialize import SCHEMA_VERSION, emit_json
from spinring.spectra import (CLUSTER_TOLERANCE_DEFAULT, EigensolverError, Level,
                              SpectralDecomposition, energy_levels)
from spinring import spectra


@dataclass(frozen=True)
class DenseDecomposition:
    """Full eigensystem of one ring spec, clustered into levels."""

    spec: RingSpec
    eigenvalues: np.ndarray = field(repr=False)    # ascending, length 2^N
    eigenvectors: np.ndarray = field(repr=False)   # orthonormal columns
    levels: tuple
    cluster_tolerance: float
    warnings: tuple = ()

    @property
    def multiplicities(self) -> np.ndarray:
        return np.array([lv.multiplicity for lv in self.levels], dtype=np.int64)

    def level_vectors(self, level: Level) -> np.ndarray:
        return self.eigenvectors[:, level.start:level.stop]


def eigenvectors(dec) -> np.ndarray:
    """The dense 2^N x 2^N eigenvector matrix of a block decomposition."""
    return dec.level_vectors(Level(0.0, dec.spec.dimension, 0, 0.0))


def cluster_levels(eigenvalues: np.ndarray, tolerance: float) -> tuple[tuple, tuple]:
    """Group an ascending eigenvalue list into degenerate levels.

    Greedy gap rule: consecutive eigenvalues join one level iff their gap
    is below ``tolerance * max(1, spectral_range)``.  The level energy is
    the cluster mean.  Returns (levels, warnings); a warning is recorded
    for any cluster whose internal spread exceeds half the gap threshold,
    which flags a marginal split (typically a near-crossing).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    values = np.asarray(eigenvalues, dtype=float)
    if values.size == 0:
        return (), ()
    if np.any(np.diff(values) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    _, *arrays, (warnings,) = spectra._clusters(values[None], np.array([tolerance], dtype=float))
    return tuple(map(Level, *(array.tolist() for array in arrays))), warnings


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first largest-magnitude component of each column positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.where(vectors[idx, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors * signs


def diagonalize(spec: RingSpec,
                cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> DenseDecomposition:
    """Full eigensystem assembled from per-sector eigendecompositions.

    Every variant is an affine map scale * H + shift * I of the STANDARD
    Hamiltonian (``variant_map``) and shares its eigenvectors, so the
    STANDARD blocks are solved and their eigenvalues mapped; a negative
    scale reverses the order.  Sectors are solved in ascending
    magnetization order and merged with a stable sort, so repeated runs on
    the same spec give bitwise-identical output.
    """
    scale, shift = variant_map(spec)
    dim = spec.dimension
    values = np.empty(dim)
    vectors = np.zeros((dim, dim))
    offset = 0
    for block in build_sector_blocks(replace(spec, variant=Variant.STANDARD)):
        try:
            w, v = np.linalg.eigh(block.block)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(block.sector, exc) from exc
        size = block.states.size
        values[offset:offset + size] = w
        vectors[np.ix_(block.states, np.arange(offset, offset + size))] = v
        offset += size
    order = np.argsort(values, kind="stable")
    values = scale * values[order] + shift
    vectors = _fix_signs(vectors[:, order])
    if scale < 0:
        values = values[::-1].copy()
        vectors = np.ascontiguousarray(vectors[:, ::-1])
    levels, warns = cluster_levels(values, cluster_tolerance)
    values.setflags(write=False)
    vectors.setflags(write=False)
    return DenseDecomposition(spec=spec, eigenvalues=values, eigenvectors=vectors,
                              levels=levels, cluster_tolerance=cluster_tolerance,
                              warnings=warns)


def overlap_matrix(dec_a, dec_b) -> np.ndarray:
    """Normalized projector overlaps tr(P_i P_j) / max(m_i, m_j)."""
    gram = dec_a.eigenvectors.T @ dec_b.eigenvectors
    np.square(gram, out=gram)
    starts_a = np.array([lv.start for lv in dec_a.levels])
    starts_b = np.array([lv.start for lv in dec_b.levels])
    summed = np.add.reduceat(np.add.reduceat(gram, starts_a, axis=0), starts_b, axis=1)
    norm = np.maximum.outer(dec_a.multiplicities, dec_b.multiplicities)
    return summed / norm


def match_single_level(dec_a, index_a: int, dec_b) -> tuple[int, float]:
    """Best-overlap partner in ``dec_b`` for one level of ``dec_a``."""
    level = dec_a.levels[index_a]
    gram = dec_a.level_vectors(level).T @ dec_b.eigenvectors
    np.square(gram, out=gram)
    row = gram.sum(axis=0)
    starts_b = np.array([lv.start for lv in dec_b.levels])
    sums = np.add.reduceat(row, starts_b)
    norm = np.maximum(level.multiplicity, dec_b.multiplicities)
    overlaps = sums / norm
    j = int(np.argmax(overlaps))
    return j, float(overlaps[j])


def sector_block_reference(spec: RingSpec, sector: int) -> SectorBlock:
    """``model.sector_block`` built in one pass from the pair masks, with no cached
    pattern: +-w on the diagonal for (anti-)aligned pairs, summed in pair order by
    cumsum, and 2w at (state, state ^ pair mask) for every anti-aligned pair."""
    scale, shift = variant_map(spec)
    bj, bk, sep, masks = _ring_pairs(spec.n_sites)
    weights = scale * separation_weights(spec.n_sites, spec.alpha)[sep]
    states = sector_states(spec.n_sites)[sector]
    positions = np.empty(spec.dimension, dtype=np.int64)
    positions[states] = np.arange(states.size)
    anti = ((states[:, None] >> bj) ^ (states[:, None] >> bk)) & 1
    rows, pairs = np.nonzero(anti)
    block = np.zeros((states.size, states.size))
    block[rows, positions[states[rows] ^ masks[pairs]]] = 2.0 * weights[pairs]
    diagonal = np.cumsum((1.0 - 2.0 * anti) * weights, axis=1)[:, -1]
    np.fill_diagonal(block, diagonal + shift)
    return SectorBlock(sector=sector, states=states, block=block)


@dataclass(frozen=True)
class LevelPairing:
    """Greedy maximum-overlap assignment between the levels of two decompositions."""

    pairs: tuple            # (index_a, index_b, overlap), overlap in [0, 1]
    unmatched_a: tuple
    unmatched_b: tuple
    ambiguous: tuple        # subset of pairs whose runner-up overlap was close

    def as_map(self) -> dict:
        return {ia: ib for ia, ib, _ in self.pairs}

    @property
    def is_bijection(self) -> bool:
        return not self.unmatched_a and not self.unmatched_b


def match_levels(overlaps: np.ndarray, overlap_threshold: float = 0.5,
                 ambiguity_window: float = 0.05) -> LevelPairing:
    """Greedy pairing of an overlap matrix entry by entry: every entry in
    descending order (a stable sort, reversed), stopping at the threshold, with
    the runner-up of an accepted pair taken from its row and column with that
    entry deleted."""
    na, nb = overlaps.shape
    order = np.argsort(overlaps, axis=None, kind="stable")[::-1]
    used_a = np.zeros(na, dtype=bool)
    used_b = np.zeros(nb, dtype=bool)
    pairs = []
    ambiguous = []
    for flat in order:
        ia, ib = divmod(int(flat), nb)
        value = float(overlaps[ia, ib])
        if value <= overlap_threshold:
            break
        if used_a[ia] or used_b[ib]:
            continue
        used_a[ia] = True
        used_b[ib] = True
        pairs.append((ia, ib, value))
        row = np.delete(overlaps[ia, :], ib)
        col = np.delete(overlaps[:, ib], ia)
        runner = max(row.max(initial=-np.inf), col.max(initial=-np.inf))
        if runner > value - ambiguity_window:
            ambiguous.append((ia, ib, value))
    pairs.sort()
    return LevelPairing(pairs=tuple(pairs),
                        unmatched_a=tuple(int(i) for i in np.flatnonzero(~used_a)),
                        unmatched_b=tuple(int(i) for i in np.flatnonzero(~used_b)),
                        ambiguous=tuple(ambiguous))


def haldane_shastry_levels(n_sites: int) -> list[tuple[float, int]]:
    """(energy, multiplicity) of the STANDARD levels at alpha = 2, ascending.

    A motif is a subset of {1, .., N-1} with no two consecutive members; its energy
    is W - 4 sin^2(pi/N) sum_m m(N - m), and its multiplet dimension the product of
    the zero-run lengths of its N-1 binary digits padded with a 0 at each end.
    Levels are the distinct motif sums (Haldane, PRL 60, 635 (1988); Haldane, Ha,
    Talstra, Bernard and Pasquier, PRL 69, 2021 (1992))."""
    dimensions = Counter()
    for motif in range(2 ** (n_sites - 1)):
        if motif & (motif >> 1):
            continue
        digits = format(motif, f"0{n_sites - 1}b")[::-1]  # digit m - 1 is member m
        total = sum(m * (n_sites - m) for m in range(1, n_sites) if digits[m - 1] == "1")
        dimensions[total] += math.prod(len(run) for run in f"0{digits}0".split("1"))
    gap = 4 * math.sin(math.pi / n_sites) ** 2
    return [(total_weight(n_sites, 2.0) - gap * total, dimensions[total])
            for total in sorted(dimensions, reverse=True)]


def all_to_all_levels(n_sites: int) -> list[tuple[float, int]]:
    """(energy, multiplicity) of the STANDARD levels at alpha = 0, ascending:
    E = 2S(S + 1) - 3N/2 with (2S + 1)[C(N, N/2 - S) - C(N, N/2 - S - 1)] states."""
    levels = []
    for u in range(n_sites // 2, -1, -1):  # u = N/2 - S
        spin = n_sites / 2 - u
        count = math.comb(n_sites, u) - (math.comb(n_sites, u - 1) if u else 0)
        levels.append((2 * spin * (spin + 1) - 1.5 * n_sites, int(2 * spin + 1) * count))
    return levels


def variant_levels(spec: RingSpec, standard_levels) -> list[tuple[float, int]]:
    """The STANDARD (energy, multiplicity) list mapped through ``variant_map``, ascending."""
    scale, shift = variant_map(spec)
    return sorted((scale * energy + shift, m) for energy, m in standard_levels)


class PairTable(NamedTuple):
    """One site pair's reduction diag(a, b, b, a) + c, a row per level."""

    diagonal: np.ndarray  # the entries at ++, +-, -+ and --
    c: np.ndarray         # the entry coupling +- to -+
    a: np.ndarray
    b: np.ndarray
    residual: np.ndarray  # largest deviation from the structured form
    concurrence: np.ndarray


@functools.lru_cache(maxsize=None)
def _pair_pattern(n_sites: int, sector: int, j: int, k: int) -> tuple:
    """For the sector's states: the indicator of the pair's bit patterns ++, +-, -+
    and -- as four boolean rows, and the (+, -) rows with their swap partners;
    cached, read-only."""
    states = sector_states(n_sites)[sector]
    bit_j, bit_k = 1 << (j - 1), 1 << (k - 1)
    pattern = 2 * ((states & bit_j) == 0) + ((states & bit_k) == 0)  # bit set: up
    rows = np.flatnonzero(pattern == 1)
    partners = np.searchsorted(states, states[rows] ^ (bit_j | bit_k))
    return tuple(map(read_only, (pattern == np.arange(4)[:, None], rows.astype(np.int32),
                                 partners.astype(np.int32))))


def pair_tables(dec: SpectralDecomposition, pairs,
                structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT,
                levels=slice(None)) -> list:
    """``pair_table`` of each site pair (j, k) in ``pairs``, squaring each block's
    eigenvectors once for all of them.  Only the blocks holding a member of the
    listed ``levels`` are reduced, each as a whole, so a level's entries round
    exactly as in the table of every level."""
    n, count = dec.spec.n_sites, len(dec.levels)
    for j, k in pairs:
        if j == k or not (1 <= j <= n and 1 <= k <= n):
            raise ValueError(f"sites must be distinct and lie in 1..{n}, got ({j}, {k})")
    sums, wanted = np.zeros((len(pairs), 5, count)), np.zeros(count, dtype=bool)
    wanted[levels] = True
    for sector, (block, members) in enumerate(zip(dec.blocks, dec.members)):
        keep = wanted[members]
        if not keep.any():
            continue
        vectors, patterns = block.vectors, [_pair_pattern(n, sector, j, k) for j, k in pairs]
        # couplings before squares, the squares a temporary: never held beside the row copies
        couplings = np.stack([np.einsum("ij,ij->j", vectors[rows], vectors[partners])
                              for _, rows, partners in patterns])
        diagonals = np.stack([indicator for indicator, _, _ in patterns]) @ np.square(vectors)
        columns = np.concatenate([diagonals, couplings[:, None]], axis=1)
        np.add.at(sums, (slice(None), slice(None), members[keep]), columns[..., keep])
    tables = []
    for (j, k), pair_sums in zip(pairs, sums):
        entries = pair_sums[:, levels] / dec.multiplicities[levels]
        diagonal, c = entries[:4].T, entries[4]
        a, b = 0.5 * (diagonal[:, 0] + diagonal[:, 3]), 0.5 * (diagonal[:, 1] + diagonal[:, 2])
        residual = np.abs(diagonal - np.stack([a, b, b, a], axis=1)).max(axis=1)
        if residual.max() >= structure_tolerance:
            raise StructureError(
                f"pair reduction of sites ({j}, {k}) deviates from the structured form by "
                f"{residual.max():.3e} (tolerance {structure_tolerance:.3e})")
        tables.append(PairTable(diagonal, c, a, b, residual,
                                np.maximum(2.0 * (np.abs(c) - a), 0.0)))
    return tables


def pair_table(dec: SpectralDecomposition, j: int, k: int,
               structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT,
               levels=slice(None)) -> PairTable:
    """Reduction to the site pair (j, k), as ``reduce_two_sites`` orders it,
    of every level or of the listed ``levels``.  Raises StructureError as
    ``extract_abc`` does; |c| <= b needs no check, it holds by Cauchy-Schwarz."""
    return pair_tables(dec, [(j, k)], structure_tolerance, levels)[0]


def level_measures(dec: SpectralDecomposition, inner_over_n: bool = False,
                   structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT) -> tuple:
    """(Meyer-Wallach, Oliveira) of every level, as ``meyer_wallach`` and
    ``oliveira_global`` evaluate them on its uniform state.  A level projector
    is invariant under the ring's translations and reflections, so the table
    of (1, 1 + d) stands for all n_d pairs at separation d, and site 1 for
    every site."""
    n = dec.spec.n_sites
    if n < 3 and not inner_over_n:
        warnings.warn(f"pair-purity normalization 1/(N-1) is degenerate for N={n}",
                      PairStateWarning, stacklevel=2)
    seps = range(1, n // 2 + 1)
    tables = pair_tables(dec, [(1, 1 + d) for d in seps], structure_tolerance)
    # site 1 leads the pair (1, 2), so it is up at ++ and +-
    single = n * np.square(tables[0].diagonal.reshape(-1, 2, 2).sum(axis=2)).sum(axis=1)
    pair_purity = [np.square(t.diagonal).sum(axis=1) + 2.0 * np.square(t.c) for t in tables]
    # the n_d pairs at separation d, each as (j, k) and as (k, j)
    purities = sum((2 * n if 2 * d < n else n) * p for d, p in zip(seps, pair_purity))
    inner_weight = 1.0 / (n if inner_over_n else n - 1)
    return 2.0 - (2.0 / n) * single, (4.0 / 3.0) * (n - 1 - inner_weight * purities) / (n - 1)


def energy_identity(spec: RingSpec, energies: np.ndarray, correlations) -> np.ndarray:
    """Each level's error in E = scale * sum_d w_d n_d <s_1 . s_{1+d}> + shift, n_d pairs at
    separation d with their correlation in row d - 1 of ``correlations``, and the
    1 + sum_d |w_d n_d <...>| it is measured against: the reference for
    ``spectra._Batch.identity``."""
    n, (scale, shift) = spec.n_sites, variant_map(spec)
    pairs = np.where(2 * np.arange(1, n // 2 + 1) == n, n // 2, n)
    terms = (pairs * separation_weights(n, spec.alpha))[:, None] * correlations
    return np.stack([np.abs((energies - shift) / scale - terms.sum(axis=0)),
                     1 + np.abs(terms).sum(axis=0)])


def _check_energy_identity(spec: RingSpec, energies: np.ndarray, correlations,
                           indices=None) -> None:
    """Raise StructureError unless every level's ``energy_identity`` error is within
    ENERGY_IDENTITY_RTOL of its scale; the levels are numbered by ``indices`` when given, else
    by position."""
    error, scale = energy_identity(spec, energies, correlations)
    bad = np.flatnonzero(error > ENERGY_IDENTITY_RTOL * scale)
    if bad.size:
        level = bad[0] if indices is None else indices[bad[0]]
        raise StructureError(f"level {level} energy differs from the sum of its pair "
                             f"correlators by {error[bad[0]]:.3e}")


def _point_records(dec: SpectralDecomposition, structure_tolerance: float) -> np.ndarray:
    """The cells of every level of a sector decomposition from its pair tables: concurrence,
    a, b, c and the deviation from diag(a, b, b, a) + c at separations 1 .. N//2, after
    checking every level's energy against the sum of its pair correlators."""
    seps = range(1, dec.spec.n_sites // 2 + 1)
    tables = pair_tables(dec, [(1, 1 + sep) for sep in seps], structure_tolerance)
    _check_energy_identity(dec.spec, dec.energies,
                           np.array([2 * t.a - 2 * t.b + 4 * t.c for t in tables]))
    return read_only(np.stack([np.stack([t.concurrence, t.a, t.b, t.c, t.residual], axis=1)
                               for t in tables], axis=1))


def translation_permutation(n_sites: int) -> np.ndarray:
    """Basis permutation of the cyclic site shift j -> j+1."""
    states = np.arange(2 ** n_sites, dtype=np.int64)
    top = (states >> (n_sites - 1)) & 1
    return ((states << 1) & (2 ** n_sites - 1)) | top


def spin_flip_permutation(n_sites: int) -> np.ndarray:
    """Basis permutation of the global up/down exchange (bit complement)."""
    return (2 ** n_sites - 1) - np.arange(2 ** n_sites, dtype=np.int64)


def _momentum_basis(n_sites: int, sector: int, momentum: int) -> np.ndarray:
    """The sector's orbit representatives r whose period p allows k: k p = 0 mod N."""
    reps, period, _ = _translation_orbits(n_sites)
    states = sector_states(n_sites)[sector]
    return states[(reps[states] == states) & (momentum * period[states] % n_sites == 0)]


@functools.lru_cache(maxsize=None)
def _momentum_entries(n_sites: int, sector: int, momentum: int) -> tuple:
    """Width, int32 flat positions row * width + col, int8 separation indices and amplitudes of
    the nonzeros of one momentum block, ascending in (position, separation), and the N//2 x w int8
    +-1 alignment sums ZZ_d(r) of its basis |r, k> ~ sum_j e^{-2 pi i k j/N} T^j |r>, r in
    ``_momentum_basis``.  A pair term taking r_b to T^l r_a adds its ``sector_block`` entry
    times e^{2 pi i k l/N} sqrt(p_b/p_a) at (a, b)."""
    reps, period, shift = _translation_orbits(n_sites)
    basis = _momentum_basis(n_sites, sector, momentum)
    position = np.full(2 ** n_sites, -1)  # -1: the extra last row, for partners outside
    position[basis] = np.arange(size := basis.size)
    bj, bk, sep, masks = _ring_pairs(n_sites)
    anti = ((basis[:, None] >> bj) ^ (basis[:, None] >> bk)) & 1
    cols, pairs = np.nonzero(anti)
    partners = basis[cols] ^ masks[pairs]
    rows = position[reps[partners]]
    angle = 2 * np.pi * (momentum * shift[partners] % n_sites) / n_sites
    phases = np.cos(angle) if 2 * momentum % n_sites == 0 else np.exp(1j * angle)  # +-1 if real
    coefficients = np.zeros((size + 1, size, n_sites // 2), dtype=phases.dtype)
    alignments = (1 - 2 * anti) @ np.eye(n_sites // 2, dtype=int)[sep]
    coefficients[np.diag_indices(size)] = alignments
    np.add.at(coefficients, (rows, cols, sep[pairs]),
              2 * phases * np.sqrt(period[basis[cols]] / period[basis[rows]]))
    rows, cols, seps = np.nonzero(coefficients[:size])
    return (size, (rows * size + cols).astype(np.int32), seps.astype(np.int8),
            coefficients[rows, cols, seps], alignments.T.astype(np.int8))


def momentum_block(spec: RingSpec, sector: int, momentum: int) -> np.ndarray:
    """The Hermitian block of magnetization ``sector`` at lattice momentum 2 pi k/N,
    k = ``momentum``, by np.add.at of its entries, times their weights, onto the shift on the
    diagonal; real when 2k = 0 mod N, and block N - k is the complex conjugate of block k."""
    scale, shift = variant_map(spec)
    size, flat, seps, amplitudes, _ = _momentum_entries(spec.n_sites, sector, momentum)
    weights = scale * separation_weights(spec.n_sites, spec.alpha)
    block = np.diag(np.full(size, shift, dtype=amplitudes.dtype))
    np.add.at(block.reshape(-1), flat, amplitudes * weights[seps])
    return block


def separation_correlators(n_sites: int, sector: int, momentum: int, vectors) -> np.ndarray:
    """<sigma_1 . sigma_{1+d}> and <sigma^z_1 sigma^z_{1+d}>, d = 1 .. N//2, of each column
    of ``vectors`` in the STANDARD momentum block, as a 2 x N//2 x columns array: the block's
    nonzeros at separation d sum the n_d pairs' sigma . sigma, and ZZ_d(r) is diagonal."""
    size, flat, sep, amplitudes, alignments = _momentum_entries(n_sites, sector, momentum)
    rows, cols = np.divmod(flat, size)
    bonds = [(amplitudes[at] @ (vectors[rows[at]].conj() * vectors[cols[at]])).real
             for at in (sep == d for d in range(n_sites // 2))]
    zz = alignments @ np.square(np.abs(vectors))
    return np.stack([bonds, zz]) / np.bincount(_ring_pairs(n_sites)[2])[:, None]


@functools.lru_cache(maxsize=None)
def _orbits(n_sites: int) -> tuple:
    """(r, images T^j r for j < p, the smallest j with T^j r = R r or -1) of every translation
    orbit, ascending in its smallest member r, and each basis integer's R image and orbit's r,
    from the site maps T: j -> j + 1 and R: j -> 2 - j on the bits of each basis integer."""
    bits = (np.arange(2 ** n_sites)[:, None] >> np.arange(n_sites)) & 1
    powers = 1 << np.arange(n_sites)
    shifted = (np.roll(bits, 1, axis=1) @ powers).tolist()
    reflected = (bits[:, -np.arange(n_sites) % n_sites] @ powers).tolist()
    orbits, smallest = [], [0] * 2 ** n_sites
    for r in range(2 ** n_sites):
        images = [r]
        while shifted[images[-1]] != r:
            images.append(shifted[images[-1]])
        if min(images) == r:
            for x in images:
                smallest[x] = r
            orbits.append((r, images, images.index(reflected[r]) if reflected[r] in images else -1))
    return tuple(orbits), reflected, smallest


def _sector_positions(n_sites: int, sector: int) -> dict:
    """Each basis integer with ``sector`` up spins and its position among them, ascending."""
    states = [x for x in range(2 ** n_sites) if bin(x).count("1") == sector]
    return {x: i for i, x in enumerate(states)}


def momentum_vectors(n_sites: int, sector: int, momentum: int) -> np.ndarray:
    """|r, k> = p^-1/2 sum_{j < p} e^{-2 pi i k j/N} T^j |r> of each orbit of the sector whose
    period p allows k, ascending in r, as the columns of a C(N, s) x w complex matrix over the
    sector's states, ascending: the basis of ``momentum_block``."""
    position, columns = _sector_positions(n_sites, sector), []
    for r, images, _ in _orbits(n_sites)[0]:
        if r in position and momentum * len(images) % n_sites == 0:
            column = np.zeros(len(position), dtype=complex)
            column[[position[x] for x in images]] = np.exp(
                -2j * np.pi * momentum * np.arange(len(images)) / n_sites) / math.sqrt(len(images))
            columns.append(column)
    return np.array(columns, dtype=complex).reshape(-1, len(position)).T


@functools.lru_cache(maxsize=None)
def block_layout(n_sites: int) -> tuple:
    """The ``model.block_groups`` of the sectors with 2s >= N, which stand for every block;
    cached."""
    return tuple(group for s in range((n_sites + 1) // 2, n_sites + 1)
                 for group in block_groups(n_sites, s))


def layout_counts(n_sites: int, group) -> np.ndarray:
    """The blocks each block of a ``block_layout`` group stands for: its spin-flip mirror
    where 2s > N, and block -k at parity 0."""
    return np.array([2 ** ((2 * s > n_sites) + (parity == 0)) for s, _, parity in group.blocks])


def reflection_basis(n_sites: int, sector: int, momentum: int, parity: int) -> np.ndarray:
    """The columns of block (sector, momentum, parity) of ``block_layout`` over the
    sector's states: for each pair of orbits r < rbar = the orbit of R r, (v + R K v)/sqrt2 and
    i (v - R K v)/sqrt2 with v = |r, k>, or, at 2k = 0 mod N, (v + parity R v)/sqrt2; for
    R r = T^m r, e^{i pi k m/N} v, or v if R v = parity v at 2k = 0 mod N."""
    orbits, reflected, smallest = _orbits(n_sites)
    position = _sector_positions(n_sites, sector)
    mirror = [position[reflected[x]] for x in position]
    real, columns = 2 * momentum % n_sites == 0, []
    vectors = momentum_vectors(n_sites, sector, momentum).T
    for (r, _, m), v in zip((o for o in orbits if o[0] in position
                             and momentum * len(o[1]) % n_sites == 0), vectors):
        flipped = np.zeros_like(v)
        flipped[mirror] = v.conj()  # R K v
        if m < 0 and smallest[reflected[r]] > r:
            columns += ([(v + parity * flipped) / math.sqrt(2)] if real else
                        [(v + flipped) / math.sqrt(2), 1j * (v - flipped) / math.sqrt(2)])
        elif m >= 0 and not real:
            columns.append(np.exp(1j * np.pi * momentum * m / n_sites) * v)
        elif m >= 0 and np.allclose(flipped, parity * v):
            columns.append(v)
    return np.array(columns, dtype=complex).reshape(-1, len(position)).T


@functools.lru_cache(maxsize=None)
def _basis_rows(n_sites: int, sector: int, momentum: int, parity: int) -> tuple:
    """The width of ``reflection_basis`` and, per sector state, the at most two columns holding
    it and their coefficients (column 0 and coefficient 0 for none)."""
    basis = reflection_basis(n_sites, sector, momentum, parity)
    rows, cols = np.nonzero(basis)
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # 0 or 1 within a row
    where, coefficient = np.zeros((len(basis), 2), dtype=int), np.zeros((len(basis), 2), complex)
    where[rows, slot], coefficient[rows, slot] = cols, basis[rows, cols]
    return basis.shape[1], where, coefficient


def reflection_blocks(spec: RingSpec, sector: int, blocks) -> list:
    """B^H H B for the ``sector_block`` H of a STANDARD spec and B the ``reflection_basis`` of
    each (momentum, parity) of ``blocks``, from the nonzeros of H and the at most two nonzeros
    of each row of B; complex, as computed."""
    hamiltonian = sector_block(spec, sector).block
    x, y = np.nonzero(hamiltonian)
    entries, out = hamiltonian[x, y], []
    for momentum, parity in blocks:
        width, where, coefficient = _basis_rows(spec.n_sites, sector, momentum, parity)
        block = np.zeros(width ** 2, dtype=complex)
        for a in range(2):
            for b in range(2):
                values = coefficient[x, a].conj() * entries * coefficient[y, b]
                flat = where[x, a] * width + where[y, b]
                block += np.bincount(flat, values.real, width ** 2)
                block += 1j * np.bincount(flat, values.imag, width ** 2)
        out.append(block.reshape(width, width))
    return out


@functools.lru_cache(maxsize=None)
def basis_change(n_sites: int, sector: int, momentum: int, parity: int) -> np.ndarray:
    """<r, k|u>: the columns of ``reflection_basis`` in the basis of ``momentum_block``."""
    return read_only(momentum_vectors(n_sites, sector, momentum).conj().T
                     @ reflection_basis(n_sites, sector, momentum, parity))


class LayoutDecomposition(NamedTuple):
    """Every block of ``block_layout`` solved: the levels as arrays, and each block as (count,
    eigenvectors, levels of its columns, sector, momentum, parity)."""

    spec: RingSpec
    energies: np.ndarray
    multiplicities: np.ndarray
    starts: np.ndarray
    blocks: tuple


def layout_decomposition(spec: RingSpec, cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT):
    """Every block of ``block_layout`` solved by one eigh per group, each block's eigenvalues
    entering the sorted list its ``layout_counts`` times, clustered as the package clusters."""
    n, weights = spec.n_sites, separation_weights(spec.n_sites, spec.alpha)
    solved = [(group, layout_counts(n, group), *np.linalg.eigh(group.stack(weights)))
              for group in block_layout(n)]
    copies = [np.repeat(counts, group.shape[1]) for group, counts, _, _ in solved]
    raw = np.concatenate([values.ravel() for *_, values, _ in solved])[None]
    batch, _ = spectra._assembled([(spec, cluster_tolerance)], raw, np.concatenate(copies),
                                  [c.size for c in copies])
    blocks, members = [], iter(np.split(batch.members[0], np.cumsum(
        [w for group, *_ in solved for w in [group.shape[1]] * group.shape[0]])[:-1]))
    for group, counts, _, vectors in solved:
        blocks += [(count, block, next(members), *key)
                   for count, block, key in zip(counts, vectors, group.blocks)]
    return LayoutDecomposition(spec, batch.energies, batch.multiplicities, batch.starts,
                               tuple(blocks))


def momentum_correlators(dec: LayoutDecomposition) -> np.ndarray:
    """The mean <sigma_1 . sigma_{1+d}> and <sigma^z_1 sigma^z_{1+d}>, d = 1 .. N//2, of every
    level of ``dec``, 2 x N//2 x levels, block by block with ``separation_correlators``, each
    block's columns taken to the complex basis by ``basis_change``."""
    n, sums = dec.spec.n_sites, np.zeros((2, dec.spec.n_sites // 2, len(dec.energies)))
    for count, vectors, members, sector, momentum, parity in dec.blocks:
        change = basis_change(n, sector, momentum, parity)
        values = separation_correlators(n, sector, momentum, change @ vectors)
        np.add.at(sums, (slice(None), slice(None), members), count * values)
    return sums / dec.multiplicities


def block_overlap_matrix(dec_a: LayoutDecomposition, dec_b: LayoutDecomposition) -> np.ndarray:
    """``spectra.overlap_matrix`` of two layout decompositions one block at a time: each block
    adds count |V_a^H V_b|^2 to its level pairs."""
    summed = np.zeros((len(dec_a.energies), len(dec_b.energies)))
    for (count, v_a, levels_a, *_), (_, v_b, levels_b, *_) in zip(dec_a.blocks, dec_b.blocks):
        np.add.at(summed, np.ix_(levels_a, levels_b), count * np.square(np.abs(v_a.T.conj() @ v_b)))
    return summed / np.maximum.outer(dec_a.multiplicities, dec_b.multiplicities)


def spin_block_correlators(dec) -> np.ndarray:
    """``MomentumDecomposition.correlators`` one S-block column at a time, from the same
    eigenvectors: each adds states u^T K_d^S u / n_d to its level, N//2 x levels, over the
    multiplicity."""
    n, sums = dec.spec.n_sites, np.zeros((dec.spec.n_sites // 2, len(dec.energies)))
    for e, (entry, members) in enumerate(zip(dec.blocks, dec.members)):
        levels = members.reshape(entry.values.shape)
        for d in range(1, n // 2 + 1):
            bonds, pairs = spectra.spin_bonds(n)[e][0][d - 1], n // (1 + (2 * d == n))
            for b, (count, vectors) in enumerate(zip(entry.count, entry.vectors)):
                for u, level in zip(vectors.T, levels[b]):
                    sums[d - 1, level] += count * (u @ bonds[b] @ u) / pairs
    return sums / dec.multiplicities


def spin_block_overlap_matrix(dec_a, dec_b) -> np.ndarray:
    """``spectra.overlap_matrix`` of two S-block decompositions one S-block at a time: each
    adds states (V_a^T V_b)^2 to its level pairs."""
    summed = np.zeros((len(dec_a.energies), len(dec_b.energies)))
    for entry_a, entry_b, members_a, members_b in zip(dec_a.blocks, dec_b.blocks,
                                                      dec_a.members, dec_b.members):
        levels_a, levels_b = (members.reshape(entry_a.values.shape)
                              for members in (members_a, members_b))
        for count, v_a, v_b, row_a, row_b in zip(entry_a.count, entry_a.vectors,
                                                 entry_b.vectors, levels_a, levels_b):
            np.add.at(summed, np.ix_(row_a, row_b), count * np.square(v_a.T @ v_b))
    return summed / np.maximum.outer(dec_a.multiplicities, dec_b.multiplicities)


def layout_level_arrays(spec: RingSpec,
                        cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> tuple:
    """``spectra.level_arrays`` from every block of ``block_layout``, all the sectors with
    2s >= N, one eigvalsh per group, each block's eigenvalues entering its ``layout_counts``
    times: the reference for the top sector's spin-resolved solve."""
    weights, raw = separation_weights(spec.n_sites, spec.alpha), []
    for group in block_layout(spec.n_sites):
        stack = group.stack(weights)
        values = stack[..., 0] if group.shape[1] == 1 else np.linalg.eigvalsh(stack)
        raw.append(np.repeat(values, layout_counts(spec.n_sites, group), axis=0).ravel())
    values = spectra._map_sorted([spec], np.concatenate(raw)[None])[0]
    return spectra._clusters(values, np.array([cluster_tolerance], dtype=float))[1:5]


def point_cells(dec, levels) -> np.ndarray:
    """The cells of the listed ``levels`` of a momentum decomposition, after raising
    StructureError on a residual of theirs at its structure tolerance, or on one of them whose
    energy misses the sum of its pair correlators: the reference for ``analysis._point_cells``."""
    structure_tolerance = dec.batch.structure_tolerance
    cells = dec.cells()[levels]
    if cells[..., 4].max() >= structure_tolerance:
        worst = cells[..., 4].max(axis=0)
        raise StructureError(f"two-solve check: c at separation {worst.argmax() + 1} changes "
                             f"by {worst.max():.3e} (tolerance {structure_tolerance:.3e})")
    _check_energy_identity(dec.spec, dec.energies[levels], dec.correlators()[:, levels], levels)
    return cells


@dataclass(frozen=True)
class OrderSwap:
    """Probe for the alpha where levels ``a`` and ``b`` of the reference
    exchange energy order; ``label`` holds their curve indices."""

    a: int
    b: int
    label: tuple

    @property
    def levels(self) -> tuple:
        return self.a, self.b

    def step(self, ref, lo, hi, dec, match) -> tuple:
        mid, half = 0.5 * (lo + hi), 0.25 * (hi - lo)
        (ja, ova), (jb, ovb) = match(self.a), match(self.b)
        if ja == jb or min(ova, ovb) < 0.5:
            return (mid - half, mid + half)  # merged at this resolution; the crossing is here
        f_mid = dec.energies[ja] - dec.energies[jb]
        if f_mid == 0.0:
            return (mid, mid)
        f_lo = ref.energies[self.a] - ref.energies[self.b]
        return (mid, hi) if (f_mid > 0) == (f_lo > 0) else (lo, mid)

    def event(self, lo, hi) -> CrossingEvent:
        return CrossingEvent(0.5 * (lo + hi), (lo, hi), "crossing", self.label)


@dataclass
class SignChange:
    """Probe for the alpha where the concurrence of reference level ``level``
    (curve ``curve_index``) at ``separation`` crosses ``threshold``.  The jump
    test reads ``edge``, the in-range grid value until an in-range midpoint
    becomes ``hi``; it changes as the probe is bisected, so a probe serves once."""

    curve_index: int
    level: int
    separation: int
    positive_lo: bool
    edge: float
    threshold: float
    jump_scale: float

    @property
    def levels(self) -> tuple:
        return self.level,

    def step(self, ref, lo, hi, dec, match) -> tuple:
        mid = 0.5 * (lo + hi)
        cells = point_cells(dec, [match(self.level)[0]])
        value = float(cells[0, self.separation - 1, 0])
        if (value > self.threshold) == self.positive_lo:
            return (mid, hi)
        if value > self.threshold:
            self.edge = value
        return (lo, mid)

    def event(self, lo, hi) -> CrossingEvent:
        return CrossingEvent(0.5 * (lo + hi), (lo, hi), "offset" if self.positive_lo else "onset",
                             (self.curve_index,), self.separation,
                             crossing_coincident=bool(self.edge > self.jump_scale))


def probe_objects(probes, threshold: float, jump_scale: float = JUMP_SCALE_DEFAULT) -> list:
    """The ``analysis._PROBE`` rows ``probes`` as ``OrderSwap`` and ``SignChange`` objects."""
    return [OrderSwap(a, b, (ca, cb)) if not separation else
            SignChange(ca, a, separation, positive, edge, threshold, jump_scale)
            for (a, b), (ca, cb), separation, positive, edge in zip(
                *(probes[name].tolist() for name in probes.dtype.names[:5]))]


def probe_intervals(probes, threshold: float, jump_scale: float = JUMP_SCALE_DEFAULT) -> list:
    """The (lo, hi, ``probe_objects``) of each interval of the ``analysis._PROBE`` rows
    ``probes``, which come by interval, each bracketed by it: what ``bisect`` and
    ``lockstep_bisect`` take."""
    firsts = [*np.flatnonzero(np.diff(probes["lo"], prepend=np.nan) != 0).tolist(), len(probes)]
    return [(probes["lo"][a].item(), probes["hi"][a].item(),
             probe_objects(probes[a:b], threshold, jump_scale))
            for a, b in zip(firsts, firsts[1:])]


def sign_changes(curve, i: int, j: int, separations, threshold: float,
                 jump_scale: float = JUMP_SCALE_DEFAULT) -> list:
    """The probes of one curve's concurrence at each of ``separations`` whose sign changes
    between grid points i and j, in the order of ``separations``, one comparison per
    separation: the reference for ``analysis._sign_changes``."""
    values = curve.concurrence[:, [i, j]]
    above = (values > threshold).tolist()
    return [SignChange(curve.curve_index, int(curve.level_indices[i]), sep, above[sep - 1][0],
                       values[sep - 1].max(), threshold, jump_scale)
            for sep in separations if above[sep - 1][0] != above[sep - 1][1]]


def interval_probes(res, separations) -> list:
    """(alpha_lo, alpha_hi, probes) of every backbone interval holding an event: the order swaps
    of every tracked level pair, by itertools.combinations in energy order at the interval's
    left end, then each tracked curve's ``sign_changes``: the reference for
    ``analysis._interval_probes``."""
    backbone, intervals = res.backbone.tolist(), []
    for i, j in zip(backbone[:-1], backbone[1:]):
        tracked = [c for c in res.curves if c.valid[i] and c.valid[j]]
        held = sorted((int(c.level_indices[i]), int(c.level_indices[j]), c.curve_index)
                      for c in tracked)
        probes = [OrderSwap(k, l, (a, b))
                  for (k, pk, a), (l, pl, b) in itertools.combinations(held, 2) if pk > pl]
        probes += [probe for curve in tracked
                   for probe in sign_changes(curve, i, j, separations, res.concurrence_threshold)]
        if probes:
            intervals.append((res.points[i].alpha, res.points[j].alpha, probes))
    return intervals


def bisect(ring, lo: float, hi: float, probes, resolution: float,
           structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT) -> list:
    """Shrink [lo, hi] around the event of every probe until its bracket is
    no wider than ``resolution`` or cannot shrink; returns the events in
    probe order.  ``ring`` is the SweepResult or LevelCurve giving the ring
    size, variant and cluster tolerance; midpoints are checked at
    ``structure_tolerance``."""
    base = ring.cluster_tolerance
    ref = spectra.momentum_decomposition(RingSpec(ring.n_sites, lo, ring.variant),
                                         cluster_tolerance=base)
    brackets = [(lo, hi)] * len(probes)
    active = list(range(len(probes)))
    while active:
        groups: dict = {}
        for k in active:
            groups.setdefault(brackets[k], []).append(k)
        active = []
        for (a, b), members in groups.items():
            mid = 0.5 * (a + b)
            if b - a <= resolution or not a < mid < b:
                continue  # resolved, or no float strictly inside: cannot shrink
            dec = spectra.momentum_decomposition(
                RingSpec(ring.n_sites, mid, ring.variant),
                cluster_tolerance=max(1e-12, min(base, base * (b - a) / (hi - lo))),
                structure_tolerance=structure_tolerance)
            # each level is matched once per step
            match = functools.cache(lambda level, dec=dec: best_partner(ref, level, dec))
            for k in members:
                brackets[k] = probes[k].step(ref, a, b, dec, match)
                if brackets[k] != (a, b):  # else the halving rounded back
                    active.append(k)
    return [probe.event(*bracket) for probe, bracket in zip(probes, brackets)]


def lockstep_bisect(ring, intervals, resolution: float,
                    structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT,
                    references=None) -> list:
    """``bisect`` of every (lo, hi, probes) of ``intervals``, ``spectra.batch_size`` intervals in
    lockstep as ``analysis._bisect`` steps them, one probe object at a time: each chunk takes its
    left ends from ``references`` (by alpha; emptied at the end) or solves them as one batch, a
    round's midpoints form one batch, and each batch of midpoints matches the levels its probes
    follow in one ``best_partners`` pass; returns each interval's events in probe order.  The
    reference for ``analysis._bisect``'s arrays and its order of solves."""
    base, size, events = ring.cluster_tolerance, spectra.batch_size(ring.n_sites), []
    intervals, references = iter(intervals), {} if references is None else references
    while chunk := list(itertools.islice(intervals, size)):
        refs = [references.pop(lo, None) for lo, _, _ in chunk]
        missing = spectra.momentum_decompositions(
            (RingSpec(ring.n_sites, lo, ring.variant), base)
            for (lo, _, _), ref in zip(chunk, refs) if ref is None)
        refs = [next(missing) if ref is None else ref for ref in refs]
        brackets = [[(lo, hi)] * len(probes) for lo, hi, probes in chunk]
        active = [list(range(len(probes))) for _, _, probes in chunk]
        while any(active):
            steps = []  # (interval, bracket, probes), in the order one interval steps them
            for v, held in enumerate(active):
                groups: dict = {}
                for k in held:
                    groups.setdefault(brackets[v][k], []).append(k)
                steps += [(v, a, b, members) for (a, b), members in groups.items()
                          if b - a > resolution and a < 0.5 * (a + b) < b]  # else cannot shrink
            solved, active = zip(steps, spectra.momentum_decompositions(
                ((RingSpec(ring.n_sites, 0.5 * (a + b), ring.variant),
                  max(1e-12, min(base, base * (b - a) / (chunk[v][1] - chunk[v][0]))))
                 for v, a, b, _ in steps), structure_tolerance)), [[] for _ in chunk]
            while batch := list(itertools.islice(solved, size)):  # one batch of midpoints
                levels = [list(dict.fromkeys(level for k in members
                                             for level in chunk[v][2][k].levels))
                          for (v, _, _, members), _ in batch]
                found = spectra.best_partners([(refs[v], wanted, dec)
                                               for ((v, *_), dec), wanted in zip(batch, levels)])
                for ((v, a, b, members), dec), wanted, (partners, overlaps) in zip(
                        batch, levels, found):
                    match = dict(zip(wanted, zip(partners.tolist(), overlaps.tolist()))).__getitem__
                    for k in members:
                        brackets[v][k] = chunk[v][2][k].step(refs[v], a, b, dec, match)
                        if brackets[v][k] != (a, b):  # else the halving rounded back
                            active[v].append(k)
        events += [[probe.event(*bracket) for probe, bracket in zip(probes, held)]
                   for (_, _, probes), held in zip(chunk, brackets)]
    references.clear()
    return events


def best_partner(dec_a, index_a: int, dec_b) -> tuple[int, float]:
    """``spectra.best_partners`` of one level: its best-overlap partner in ``dec_b`` and that
    overlap."""
    (partners, overlaps), = spectra.best_partners([(dec_a, [index_a], dec_b)])
    return int(partners[0]), float(overlaps[0])


def all_crossings(sweep_result, resolution: float = RESOLUTION_DEFAULT) -> tuple:
    """Every order swap flagged by the scan, bisected, ascending in alpha: the crossings of
    ``analysis._located_events``, as ``report`` locates them, as ``CrossingEvent``s."""
    return tuple(_events(_located_events(sweep_result, resolution)[0]))


def emit_csv(header, rows) -> str:
    """CSV with '\\n' line endings; reals as ``format_real`` gives them, by one %-template a row:
    %.17g, or %.1f where %.17g prints no point or exponent (integral, below 1e17 in size)."""
    lines = [",".join(header)]
    for row in rows:
        template, values = [], []
        for cell in row:
            if isinstance(cell, float):  # the common cell, tested first; no bool is one
                if cell != cell:
                    raise ValueError("NaN has no serialized form")
                template.append("%.1f" if cell.is_integer() and -1e17 < cell < 1e17 else "%.17g")
                values.append(cell)
            else:  # bools as true and false, the rest as str prints them
                template.append("%s")
                values.append(("true" if cell else "false") if isinstance(cell, bool) else cell)
        lines.append(",".join(template) % tuple(values))
    return "\n".join(lines) + "\n"


def table_text(config) -> str:
    """The output of the ``spectrum`` or ``concurrence`` run ``config`` row by row: each alpha
    solved alone, a tuple a row, written by ``emit_csv`` or as JSON row dicts."""
    settings, rows = {}, []
    for alpha in config.alphas:
        spec = RingSpec(config.n_sites, alpha, config.variant)
        if config.command == "spectrum":
            header = ("alpha", "level_index", "energy", "multiplicity")
            rows += [(alpha, li, level.energy, level.multiplicity)
                     for li, level in enumerate(energy_levels(spec, config.cluster_tolerance))]
            continue
        header = ("alpha", "level_index", "energy", "multiplicity", "separation",
                  "concurrence", "a", "b", "c", "structure_residual")
        settings = {"structure_tolerance": config.structure_tolerance}
        point = _momentum_point(spec, config.cluster_tolerance, config.structure_tolerance)
        rows += [(alpha, li, energy, m, sep, *values)
                 for li, (energy, m, row) in enumerate(zip(point.energies.tolist(),
                                                            point.multiplicities.tolist(),
                                                            point.cells.tolist()))
                 for sep, values in enumerate(row, start=1)]
    if config.output_format == "csv":
        return emit_csv(header, rows)
    return emit_json({"schema_version": SCHEMA_VERSION, "command": config.command,
                      "n_sites": config.n_sites, "variant": config.variant.value,
                      "cluster_tolerance": config.cluster_tolerance, **settings,
                      "rows": [dict(zip(header, row)) for row in rows]})
