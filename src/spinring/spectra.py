"""Diagonalization, degenerate-level clustering, spectral projectors.

Eigenvalues of the ring Hamiltonian come in exactly degenerate groups (total-spin and lattice
symmetries), so the raw eigh output is clustered into levels before anything downstream looks
at it.  A level owns a contiguous slice of the globally sorted eigenvalue list; the eigenvectors
stay in the blocks they were solved in.  ``diagonalize`` solves every magnetization sector and
embeds a level's 2^N x m block on demand; no command calls it.  The commands solve the top
sector's real momentum blocks split by total spin S (``spin_layout``): an S-block Q_S^T H Q_S
holds one member of each of its multiplets and stands for their ``states``.  ``level_arrays``
solves the S-blocks' eigenvalues.  ``momentum_decompositions`` solves a batch of alphas, as
many as ``BATCH_BYTES`` hold (``batch_size``), with one eigh per width of H^S less its Casimir
part, H^S - c_S = sum_d (w_d - 1) K_d^S, summed from the K_d^S = Q_S^T K_d Q_S that one
projection per ring size gives (``spin_bonds``), and assembles it at once (``_assembled``), its
levels kept as arrays that each decomposition views.  By Wigner-Eckart every member of a
multiplet has the same correlators and Gram entries, so the batch reduces every level's
<sigma_1 . sigma_{1+d}> from u^T K_d^S u, and its Werner cells from those, and projector
overlaps from (V_a^T V_b)^2, each S-block counted ``states`` times: every level pair of two
decompositions (``overlap_matrix``) or the listed levels' rows of many pairs in one pass
(``best_partners``).  ``_Batch.residuals`` solves the S-blocks whose levels lie close a second
time, from K_d^S, and measures the change of the correlators.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import Iterator, NamedTuple

import numpy as np

from .model import (HamiltonianMatrix, RingSpec, Variant, block_groups, read_only,
                    sector_block, sector_states, separation_weights, variant_map, weight_offsets)

CLUSTER_TOLERANCE_DEFAULT = 1e-9
CASIMIR_TOLERANCE = 1e-9  # how far a Casimir eigenvalue may lie from 2S(S+1) - 3N/2
STRUCTURE_TOLERANCE_DEFAULT = 1e-10  # bound on the change of c between two solves

# bytes one batch of alphas holds in its S-block stacks and their eigenvectors (``batch_size``):
# 284 points at N = 8 (1.8 KB each), 35 at 10 (15 KB), 3 at 12 (143 KB), 1 at 14 (1.5 MB)
BATCH_BYTES = 2 ** 19


class EigensolverError(RuntimeError):
    """The dense symmetric eigensolver failed to converge."""

    def __init__(self, sector: int, original: Exception):
        super().__init__(f"eigensolver failed in magnetization sector {sector}: {original}")
        self.sector = sector


class IllConditionedError(ArithmeticError):
    """Energies too close for a stable polynomial projector product."""


@dataclass(frozen=True)
class Level:
    """One degenerate eigen-level: a contiguous slice of the sorted spectrum."""

    energy: float
    multiplicity: int
    start: int    # first member index in the sorted eigenvalue list
    spread: float  # max minus min of the clustered raw eigenvalues

    @property
    def stop(self) -> int:
        return self.start + self.multiplicity


class SectorEigensystem(NamedTuple):
    """Eigenpairs of one total-magnetization block of the STANDARD Hamiltonian."""
    states: np.ndarray   # basis integers, ascending
    values: np.ndarray   # ascending, as eigh returns them
    vectors: np.ndarray  # sign-fixed orthonormal columns
    count: int = 1       # blocks it stands for


class SpinEigensystem(NamedTuple):
    """Eigenpairs of the M S-blocks of one width at one alpha of a batch, over their
    ``spin_layout`` columns, as views."""
    count: np.ndarray    # the blocks' ``states``: block b's eigenvalues enter count[b] times
    values: np.ndarray   # M x w, each row ascending
    vectors: np.ndarray  # M x w x w, real orthonormal columns


@dataclass(frozen=True)
class BlockDecomposition:
    """Full spectrum of one ring spec, clustered into levels, kept as the eigenpairs of its
    solved blocks, w x w or B x w x w stacks: each block's eigenvalues enter the sorted list
    ``count`` times, and ``members[e]`` holds the levels of entry e's columns.  Level l has
    energy ``energies[l]`` and owns the ``multiplicities[l]`` sorted eigenvalues from
    ``starts[l]`` on.  The arrays are read-only views of row ``index`` of ``batch``."""

    spec: RingSpec
    eigenvalues: np.ndarray = field(repr=False)    # ascending, length 2^N
    blocks: tuple = field(repr=False)              # of SectorEigensystem or SpinEigensystem
    members: tuple = field(repr=False)
    energies: np.ndarray = field(repr=False)
    multiplicities: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)
    batch: _Batch = field(repr=False)
    index: int
    cluster_tolerance: float
    warnings: tuple

    @property
    def spectral_range(self) -> float:
        return float(self.eigenvalues[-1] - self.eigenvalues[0])

    @functools.cached_property
    def levels(self) -> tuple:
        """The levels as ``Level`` objects, built on first use."""
        spreads = (self.eigenvalues[self.starts + self.multiplicities - 1]
                   - self.eigenvalues[self.starts])
        return tuple(map(Level, *(array.tolist() for array in (
            self.energies, self.multiplicities, self.starts, spreads))))


@dataclass(frozen=True)
class SpectralDecomposition(BlockDecomposition):
    """The decomposition of ``diagonalize``: every magnetization block, each counted once, and
    sorted eigenvalue i is column ``columns[i]`` of block ``sectors[i]``."""

    sectors: np.ndarray = field(repr=False)
    columns: np.ndarray = field(repr=False)

    def level_vectors(self, level: Level) -> np.ndarray:
        """The level's eigenvectors as 2^N x m, in sorted order, with the strides of a
        column slice of the 2^N x 2^N matrix, so reductions round as they would on it."""
        dim, m = self.spec.dimension, level.multiplicity
        reverse = variant_map(self.spec)[0] < 0  # row-major then, else column-major
        vectors = np.zeros((dim, m + 1))[:, :-1] if reverse else np.zeros((m, dim)).T
        for j, i in enumerate(range(level.start, level.stop)):
            block = self.blocks[self.sectors[i]]
            vectors[block.states, j] = block.vectors[:, self.columns[i]]
        return vectors


class MomentumDecomposition(BlockDecomposition):
    """The decomposition of ``momentum_decomposition``: a ``SpinEigensystem`` per S-block width,
    and its slices of the batch's ``correlators`` and ``cells``."""

    def correlators(self) -> np.ndarray:
        return self.batch.correlators[:, slice(*self.batch.bounds[self.index:self.index + 2])]

    def cells(self) -> np.ndarray:
        return self.batch.cells[slice(*self.batch.bounds[self.index:self.index + 2])]

    def identity(self) -> np.ndarray:
        return self.batch.identity[:, slice(*self.batch.bounds[self.index:self.index + 2])]


@dataclass(eq=False)
class _Batch:
    """The sorted eigenvalues and clustered levels of the A (spec, cluster tolerance) ``jobs`` of
    one ring size, assembled at once (``_assembled``): row a of ``values`` and ``members`` (each
    value's level, block entries in order, cut by ``spans``) is job a's, and so are levels
    ``bounds[a]:bounds[a + 1]`` of ``energies``, ``multiplicities`` and ``starts``.  A momentum
    batch also keeps each S-block width's (states, Casimir values, values, vectors), the last two
    with a leading axis of A, and the ``structure_tolerance`` of its ``residuals``."""

    jobs: list
    values: np.ndarray
    members: np.ndarray
    spans: list
    energies: np.ndarray
    multiplicities: np.ndarray
    starts: np.ndarray
    bounds: list
    warnings: tuple
    groups: tuple = ()
    structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT

    def decomposition(self, kind, a: int, blocks: tuple, *fields) -> BlockDecomposition:
        """The ``kind`` of decomposition of job ``a``, its solved blocks being ``blocks``, and
        ``fields`` the ones ``kind`` adds."""
        (spec, tolerance), levels = self.jobs[a], slice(*self.bounds[a:a + 2])
        return kind(spec, self.values[a], blocks,
                    tuple(self.members[a, start:stop] for start, stop in self.spans),
                    self.energies[levels], self.multiplicities[levels], self.starts[levels],
                    self, a, tolerance, self.warnings[a], *fields)

    def _levels(self, e: int) -> np.ndarray:
        """The level, numbered across the batch, of each column of S-block width ``e``."""
        return (self.members[:, slice(*self.spans[e])].reshape(self.groups[e][2].shape)
                + np.array(self.bounds[:-1])[:, None, None])

    def _means(self, e: int, blocks, levels: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """The columns ``vectors`` of S-blocks ``blocks`` of width ``e``, at their ``levels``: each
        one's share of its level's mean <sigma_1 . sigma_{1+d}>, u^T K_d^S u times its ``states``
        over n_d and the multiplicity, summed per level, N//2 x levels: one product takes every
        K_d^S, and one bincount sums every d, each in the order of ``levels``."""
        n, size, states = self.jobs[0][0].n_sites, self.bounds[-1], self.groups[e][0][blocks, None]
        bonds = spin_bonds(n)[e][0][:, blocks]
        d = np.arange(len(bonds)).reshape(-1, *(1,) * levels.ndim)  # d - 1
        bonds = np.expand_dims(bonds, tuple(range(1, levels.ndim - 1)))  # over A, if given
        shares = (states * (vectors * (bonds @ vectors)).sum(axis=-2)
                  / (n // (1 + (2 * d + 2 == n)) * self.multiplicities[levels]))
        return np.bincount((size * d + levels).ravel(), shares.ravel(), d.size * size
                           ).reshape(d.size, size)

    @functools.cached_property
    def correlators(self) -> np.ndarray:
        """The mean <sigma_1 . sigma_{1+d}>, d = 1 .. N//2, of every level of every job,
        N//2 x levels, on first use: each K_d^S reduces a width's A stacks in one product."""
        return read_only(sum(self._means(e, slice(None), self._levels(e), group[3])
                             for e, group in enumerate(self.groups)))

    @functools.cached_property
    def residuals(self) -> np.ndarray:
        """The change of every level's c = <sigma_1 . sigma_{1+d}>/6 between this solve and a
        second one, N//2 x levels, on first use.  Only the S-blocks whose Davis-Kahan estimate
        eps norm/gap reaches the ``structure_tolerance`` are solved again, assembled from K_d^S
        in a fixed rotation of their basis: the norm is the job's largest |eigenvalue| of
        H^S - c_S, the matrices solved, and the gap that from a column to the nearest other
        level of its block."""
        n = self.jobs[0][0].n_sites
        offsets = np.array([weight_offsets(n, spec.alpha) for spec, _ in self.jobs])
        change = np.zeros((n // 2, self.bounds[-1]))
        norms = np.max([np.abs(values - casimirs[:, None]).max(axis=(-2, -1))
                        for _, casimirs, values, _ in self.groups], axis=0)
        for e, (_, _, values, vectors) in enumerate(self.groups):
            levels, width = self._levels(e), values.shape[-1]
            gaps = np.where(levels[..., :, None] != levels[..., None, :],
                            np.abs(values[..., :, None] - values[..., None, :]), np.inf)
            jobs, blocks = np.nonzero(np.finfo(float).eps * norms[:, None]
                                      >= self.structure_tolerance * gaps.min(axis=(-2, -1)))
            if not jobs.size:
                continue
            hamiltonians = spin_hamiltonians(spin_bonds(n)[e][0][:, blocks], offsets[jobs])
            turn = np.linalg.qr(np.random.default_rng(width).normal(size=(width,) * 2))[0]
            second = turn @ np.linalg.eigh(turn.T @ hamiltonians @ turn)[1]
            change += (self._means(e, blocks, levels[jobs, blocks], second)
                       - self._means(e, blocks, levels[jobs, blocks], vectors[jobs, blocks]))
        return read_only(np.abs(change) / 6)

    @functools.cached_property
    def cells(self) -> np.ndarray:
        """Every level's concurrence, a, b, c and ``residuals`` at each separation, levels x N//2
        x 5, on first use: SU(2) and translation make its pair states Werner states (PRA 40,
        4277 (1989)), fixed by z = <sigma_1 . sigma_{1+d}>/3: a, b = (1 -+ z)/4, c = z/2."""
        z = self.correlators / 3
        a, b, c = (1 + z) / 4, (1 - z) / 4, z / 2
        return read_only(np.stack([np.maximum(2.0 * (np.abs(c) - a), 0.0), a, b, c,
                                   self.residuals], axis=2).swapaxes(0, 1))

    @functools.cached_property
    def identity(self) -> np.ndarray:
        """Each level's error in E = scale sum_d n_d w_d <sigma_1 . sigma_{1+d}> + shift (n_d pairs
        at separation d; ``variant_map``) and the 1 + sum_d |n_d w_d <...>| it is measured by."""
        n = self.jobs[0][0].n_sites
        pairs = np.where(2 * np.arange(1, n // 2 + 1) == n, n // 2, n)[:, None]
        counts = np.diff(self.bounds)
        weights = np.repeat([separation_weights(n, spec.alpha) for spec, _ in self.jobs], counts,
                            axis=0).T
        scale, shift = np.repeat([variant_map(spec) for spec, _ in self.jobs], counts, axis=0).T
        terms = pairs * weights * self.correlators
        return read_only(np.stack([np.abs((self.energies - shift) / scale - terms.sum(axis=0)),
                                   1 + np.abs(terms).sum(axis=0)]))


def _clusters(values: np.ndarray, tolerances: np.ndarray) -> tuple:
    """Degenerate levels of each ascending row of the A x D ``values``: neighbours join one
    level iff their gap is below the row's tolerance times max(1, its range).  Returns the A x D
    mask of the values that start a level; the levels' energies (means), multiplicities, flat
    starts and spreads, row after row; and each row's warnings of a level spread over half the
    gap threshold, a marginal split (typically a near-crossing)."""
    if np.any(tolerances <= 0):
        raise ValueError("tolerance must be positive")
    thresholds = tolerances * np.maximum(1.0, values[:, -1] - values[:, 0])
    head = np.ones(values.shape, dtype=bool)
    np.greater_equal(np.diff(values, axis=1), thresholds[:, None], out=head[:, 1:])
    flat, starts = values.ravel(), np.flatnonzero(head)
    counts = np.diff(np.append(starts, values.size))
    energies = np.add.reduceat(flat, starts) / counts
    spreads = flat[starts + counts - 1] - flat[starts]
    rows = np.repeat(np.arange(len(values)), head.sum(axis=1))
    warnings = [[] for _ in thresholds]
    for level in np.flatnonzero(spreads > thresholds[rows] / 2).tolist():
        energy, spread, threshold = (float(x) for x in (energies[level], spreads[level],
                                                        thresholds[rows[level]]))
        warnings[rows[level]].append(f"marginal cluster at energy {energy:.12g}: spread "
                                     f"{spread:.3e} exceeds half the gap threshold {threshold:.3e}")
    return head, energies, counts, starts, spreads, tuple(map(tuple, warnings))


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make the first largest-magnitude component of each column positive, in place."""
    idx = np.argmax(np.abs(vectors), axis=0)
    vectors *= np.where(vectors[idx, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors


def diagonalize(spec: RingSpec,
                cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> SpectralDecomposition:
    """Full eigensystem assembled from per-sector eigendecompositions.

    Every variant is an affine map scale * H + shift * I of the STANDARD Hamiltonian
    (``variant_map``) and shares its eigenvectors, so the STANDARD blocks are solved
    and their eigenvalues mapped; a negative scale reverses the order.  Sectors are
    built and solved one at a time in ascending magnetization order and merged with a
    stable sort, so repeated runs on the same spec give bitwise-identical output.
    Signs are fixed per block, which is exact: a column is zero outside its sector.  The
    sectors are assembled as a batch of one.
    """
    standard, blocks = replace(spec, variant=Variant.STANDARD), []
    for s, states in enumerate(sector_states(spec.n_sites)):
        try:  # each Hamiltonian block is freed once it is solved
            w, v = np.linalg.eigh(sector_block(standard, s).block)
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(s, exc) from exc
        blocks.append(SectorEigensystem(states, w, read_only(_fix_signs(v))))
    sizes = [block.values.size for block in blocks]
    batch, order = _assembled([(spec, cluster_tolerance)],
                              np.concatenate([b.values for b in blocks])[None],
                              np.ones(sum(sizes), dtype=int), sizes)
    sectors = np.repeat(np.arange(len(sizes)), sizes)[order[0]]
    columns = np.concatenate([np.arange(size) for size in sizes])[order[0]]
    return batch.decomposition(SpectralDecomposition, 0, tuple(blocks),
                               read_only(sectors), read_only(columns))


@functools.lru_cache(maxsize=None)
def spin_layout(n_sites: int) -> tuple:
    """The ``block_groups`` of the top sector s0 = ceil(N/2), each with the eigenvectors Q of its
    Casimir sum_d K_d, eigenvalues c_S = 2S(S+1) - 3N/2 ascending, and each block's runs (start,
    stop, states, c_S) of the columns of one S, each standing for (2S + 1) 2^(parity == 0)
    states; cached.  Raises ``EigensolverError`` for an eigenvalue over ``CASIMIR_TOLERANCE``
    from all those."""
    n, s0, layout = n_sites, (n_sites + 1) // 2, []
    for group in block_groups(n, s0):
        try:
            casimir, vectors = np.linalg.eigh(group.stack(np.ones(n // 2)))
            two_s = np.rint(np.sqrt(np.maximum(0.0, 2 * casimir + 3 * n + 1)) - 1).astype(int)
            residual = np.abs(casimir - (two_s * (two_s + 2) - 3 * n) / 2).max()
            if not residual <= CASIMIR_TOLERANCE:  # NaN too
                raise np.linalg.LinAlgError(f"Casimir eigenvalue {residual:.1e} off 2S(S+1) - 3N/2")
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(s0, exc) from exc
        cuts = [np.flatnonzero(np.diff(row, prepend=-1, append=-1)).tolist() for row in two_s]
        runs = tuple(tuple((start, stop, (row[start] + 1) * 2 ** (parity == 0),  # one S each
                            (row[start] * (row[start] + 2) - 3 * n) / 2)
                           for start, stop in zip(cut, cut[1:]))
                     for (*_, parity), row, cut in zip(group.blocks, two_s.tolist(), cuts))
        layout.append((group, read_only(vectors), runs))
    return tuple(layout)


def spin_blocks(n_sites: int, weights: np.ndarray) -> list:
    """The S-blocks Q_S^T (sum_d weights[..., d - 1] K_d) Q_S of ``spin_layout`` for the N//2
    ``weights``, or for each row of A x N//2 ``weights``, stacked by width in order of first
    appearance, as (stack ... x M x w x w, the M blocks' ``states``, their c_S)."""
    blocks = {}
    for group, vectors, runs in spin_layout(n_sites):
        product = group.stack(weights) @ vectors
        for b, (q, block_runs) in enumerate(zip(vectors, runs)):
            for start, stop, *labels in block_runs:
                blocks.setdefault(stop - start, []).append(
                    (q[:, start:stop].T @ product[..., b, :, start:stop], *labels))
    return [(np.stack(squares, axis=-3), np.array(states), np.array(casimirs))
            for squares, states, casimirs in (zip(*members) for members in blocks.values())]


@functools.lru_cache(maxsize=None)
def spin_bonds(n_sites: int) -> tuple:
    """The ``spin_blocks`` of every K_d, d = 1 .. N//2, from one projection, as (K_d^S stacked
    N//2 x M x w x w, states, c_S) by width: all of K_d that S-block eigenvectors meet (K_d
    commutes with S^2), and independent of alpha; cached, read-only."""
    return tuple(tuple(map(read_only, width)) for width in spin_blocks(
        n_sites, np.eye(n_sites // 2)))


def spin_hamiltonians(bonds: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """H^S - c_S = sum_d offsets[..., d - 1] K_d^S of the N//2 x ... stacked ``bonds``, one
    elementwise product and sum in d order, so each block rounds alike in any batch."""
    return sum(offsets[..., d, None, None] * bond for d, bond in enumerate(bonds))


def level_arrays(spec: RingSpec, cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> tuple:
    """The energies, multiplicities, starts and spreads of ``diagonalize``'s levels from the
    ``spin_blocks``, one eigvalsh per width, a value per state."""
    try:
        raw = [np.repeat(np.linalg.eigvalsh(stack), states, axis=0).ravel() for stack, states, _
               in spin_blocks(spec.n_sites, separation_weights(spec.n_sites, spec.alpha))]
    except np.linalg.LinAlgError as exc:
        raise EigensolverError((spec.n_sites + 1) // 2, exc) from exc
    return _clusters(_map_sorted([spec], np.concatenate(raw)[None])[0],
                     np.array([cluster_tolerance], dtype=float))[1:5]


def energy_levels(spec: RingSpec, cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT) -> tuple:
    """The ``level_arrays`` as ``Level`` objects."""
    return tuple(map(Level, *(array.tolist() for array in level_arrays(spec, cluster_tolerance))))


def batch_size(n_sites: int) -> int:
    """The alphas a batch solves: as many as BATCH_BYTES hold of the S-block stacks of one alpha
    and their eigenvectors; or one."""
    return max(1, BATCH_BYTES // (16 * sum(bonds[0].size for bonds, *_ in spin_bonds(n_sites))))


def momentum_decompositions(jobs, structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT
                            ) -> Iterator[MomentumDecomposition]:
    """The ``momentum_decomposition`` of each (spec, cluster tolerance) of ``jobs``, one ring size,
    in order: ``batch_size`` alphas share one eigh per S-block width and one ``_assembled``, each
    is made when reached, and a failed batch is solved an alpha at a time to name it.  Each
    S-block is solved as H^S - c_S = sum_d (w_d - 1) K_d^S (``spin_hamiltonians``), so that
    levels split by a small alpha are resolved beyond eps c_S, and c_S added back."""
    jobs = list(jobs)
    if not jobs:
        return
    n, size = jobs[0][0].n_sites, batch_size(jobs[0][0].n_sites)
    for batch in (jobs[start:start + size] for start in range(0, len(jobs), size)):
        offsets = np.array([weight_offsets(n, spec.alpha) for spec, _ in batch])
        solved = []  # (states, c_S, values, vectors) by width, the last two with an axis of A
        try:
            for bonds, states, casimirs in spin_bonds(n):
                values, vectors = np.linalg.eigh(spin_hamiltonians(bonds, offsets[:, None]))
                solved.append(tuple(map(read_only, (states, casimirs, values + casimirs[:, None],
                                                    vectors))))
        except np.linalg.LinAlgError as exc:
            if len(batch) == 1:
                raise EigensolverError((n + 1) // 2, exc) from exc
            yield from (dec for job in batch
                        for dec in momentum_decompositions([job], structure_tolerance))
            continue
        copies = [np.repeat(states, values.shape[-1]) for states, _, values, _ in solved]
        assembled, _ = _assembled(
            batch, np.hstack([values.reshape(len(batch), -1) for _, _, values, _ in solved]),
            np.concatenate(copies), [c.size for c in copies], tuple(solved), structure_tolerance)
        for a in range(len(batch)):
            yield assembled.decomposition(MomentumDecomposition, a, tuple(
                SpinEigensystem(states, values[a], vectors[a])
                for states, _, values, vectors in solved))
        del solved, assembled  # before the next batch is solved


def momentum_decomposition(spec: RingSpec, cluster_tolerance: float = CLUSTER_TOLERANCE_DEFAULT,
                           structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT
                           ) -> MomentumDecomposition:
    """The levels of ``energy_levels`` with one eigh per S-block width."""
    return next(momentum_decompositions([(spec, cluster_tolerance)], structure_tolerance))


def _map_sorted(specs, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each spec's eigenvalues from its row of the STANDARD ``raw``, ascending, and their order."""
    scale, shift = np.array([variant_map(spec) for spec in specs]).T[..., None]
    order = np.argsort(raw, axis=1, kind="stable")
    reverse = scale[:, 0] < 0
    order[reverse] = order[reverse, ::-1]
    return scale * np.take_along_axis(raw, order, axis=1) + shift, order


def _assembled(jobs: list, raw: np.ndarray, copies: np.ndarray, sizes, groups=(),
               structure_tolerance: float = STRUCTURE_TOLERANCE_DEFAULT
               ) -> tuple[_Batch, np.ndarray]:
    """The ``_Batch`` of the A ``jobs`` from the STANDARD eigenvalues of their solved blocks,
    A x M, block entries in order, of ``sizes`` values each: value i enters ``copies[i]`` times
    in a row, and the copies are equal, so they fall in one level.  One sort, one clustering and
    one scatter of each value's level serve all A.  Also returns the sort: row a's sorted value
    i is its repeated value ``order[a, i]``."""
    values, order = _map_sorted([spec for spec, _ in jobs], np.repeat(raw, copies, axis=1))
    head, energies, counts, starts, _, warnings = _clusters(
        values, np.array([tolerance for _, tolerance in jobs], dtype=float))
    level_of = np.empty_like(order)
    np.put_along_axis(level_of, order, np.cumsum(head, axis=1) - 1, axis=1)
    per_row = head.sum(axis=1)
    stops = np.cumsum(sizes).tolist()
    return _Batch(jobs, *map(read_only, (values, level_of[:, np.cumsum(copies) - copies])),
        list(zip([0, *stops], stops)),
        *map(read_only, (energies, counts,
                         starts - np.repeat(np.arange(len(values)) * values.shape[1], per_row))),
        [0, *np.cumsum(per_row).tolist()], warnings, groups, structure_tolerance), order


def projector(level: Level, decomposition: SpectralDecomposition) -> np.ndarray:
    """Orthoprojector onto the eigenspace of one level."""
    vecs = decomposition.level_vectors(level)
    return vecs @ vecs.T


@dataclass(frozen=True)
class UniformEigenstate:
    """Maximally mixed state V Vᵀ / m on one eigenspace.

    Held as the level's orthonormal eigenvector block V (2^N x m), so a
    reduction never needs the 2^N x 2^N matrix; ``rho`` builds it on demand.
    """

    level: Level
    vectors: np.ndarray = field(repr=False)

    @property
    def n_sites(self) -> int:
        return self.vectors.shape[0].bit_length() - 1

    @property
    def rho(self) -> np.ndarray:
        return self.vectors @ self.vectors.T / self.level.multiplicity


def uniform_state(level: Level, decomposition: SpectralDecomposition) -> UniformEigenstate:
    return UniformEigenstate(level=level, vectors=decomposition.level_vectors(level))


def lagrange_projector(hamiltonian: HamiltonianMatrix | np.ndarray,
                       distinct_energies, target: float,
                       separation_floor: float = 1e-6) -> np.ndarray:
    """Spectral projector built from the matrix polynomial that is 1 at
    ``target`` and 0 at every other listed energy.

    The product is evaluated with the most distant energies first, which
    keeps the intermediate factors from amplifying rounding error.  Raises
    IllConditionedError when two listed energies are closer than
    ``separation_floor`` times the spectral spread.
    """
    matrix = hamiltonian.matrix if isinstance(hamiltonian, HamiltonianMatrix) else hamiltonian
    energies = sorted(float(e) for e in distinct_energies)
    spread = energies[-1] - energies[0]
    floor = separation_floor * max(1.0, spread)
    gaps = np.diff(energies)
    if np.any(gaps < floor):
        raise IllConditionedError(
            f"distinct energies closer than {floor:.3e}; projector product is ill-conditioned")
    matches = [e for e in energies if abs(e - target) < floor]
    if len(matches) != 1:
        raise ValueError(f"target {target!r} is not one of the distinct energies")
    target = matches[0]
    others = sorted((e for e in energies if e != target),
                    key=lambda e: (-abs(e - target), e))
    result = np.eye(matrix.shape[0])
    for e in others:
        result = result @ (matrix - e * np.eye(matrix.shape[0]))
        result /= (target - e)
    return result


def overlap_matrix(dec_a: BlockDecomposition, dec_b: BlockDecomposition) -> np.ndarray:
    """Normalized projector overlaps tr(P_i P_j) / max(m_i, m_j), one batched V_a^T V_b per
    entry and one bincount: a block adds (V_a^T V_b)^2 ``count`` times, which is exact, since
    the blocks it stands for are unitary images of it (the spin flip) or its conjugates."""
    size_b, pairs, weights = dec_b.energies.size, [], []
    for block_a, block_b, levels_a, levels_b in zip(
            dec_a.blocks, dec_b.blocks, dec_a.members, dec_b.members):
        width = block_a.vectors.shape[-1]
        gram = block_a.vectors.swapaxes(-1, -2) @ block_b.vectors
        weights.append((np.reshape(block_a.count, (-1, 1, 1)) * np.square(gram)).ravel())
        pairs.append((levels_a.reshape(-1, width, 1) * size_b
                      + levels_b.reshape(-1, 1, width)).ravel())
    summed = np.bincount(np.concatenate(pairs), np.concatenate(weights),
                         dec_a.energies.size * size_b)
    norm = np.maximum.outer(dec_a.multiplicities, dec_b.multiplicities)
    return summed.reshape(norm.shape) / norm


def best_partners(matches) -> list:
    """For each (dec_a, levels, dec_b) of ``matches``, decompositions of one kind and ring size,
    the best-overlap partner in ``dec_b`` of each listed level of ``dec_a`` and that overlap of
    ``overlap_matrix``, as two arrays, from one pass over the block entries for all matches.
    Each column of a listed level meets its block of ``dec_b`` in one vector-matrix product,
    strided like a column of its block so that it rounds as one would; the squares are summed
    per (level, partner) in entry, column and row order, and ties go to the lower partner."""
    decs_a, levels, decs_b = zip(*matches)
    levels = [np.asarray(wanted, dtype=int) for wanted in levels]
    # every listed level gets a slot, and every level of every dec_b a global index
    firsts = np.cumsum([0] + [wanted.size for wanted in levels])
    offsets = np.cumsum([0] + [dec.energies.size for dec in decs_b])
    hits, slots = [], []
    for dec, wanted, first in zip(decs_a, levels, firsts.tolist()):
        slot = np.full(dec.energies.size, -1)
        slot[wanted] = np.arange(first, first + wanted.size)
        row = slot[dec.batch.members[dec.index]]  # of each column, entries in order
        hits.append(np.flatnonzero(row >= 0))
        slots.append(row[hits[-1]])
    match = np.repeat(np.arange(len(hits)), [hit.size for hit in hits])
    hit, slot = np.concatenate(hits), np.concatenate(slots)
    spans = decs_a[0].batch.spans
    entry = np.searchsorted([stop for _, stop in spans], hit, side="right")
    by_entry = np.argsort(entry, kind="stable")
    cuts = np.searchsorted(entry[by_entry], np.arange(len(spans) + 1)).tolist()
    keys, weights = [], []
    for e, (start, _) in enumerate(spans):
        picked = by_entry[cuts[e]:cuts[e + 1]]
        if not picked.size:
            continue
        width = decs_a[0].blocks[e].values.shape[-1]
        v_a, v_b = (np.stack([dec.blocks[e].vectors for dec in decs]).reshape(-1, width, width)
                    for decs in (decs_a, decs_b))
        members_b = np.stack([dec.members[e] for dec in decs_b]).reshape(-1, width)
        b, c = np.divmod(hit[picked] - start, width)
        block = match[picked] * (len(v_a) // len(decs_a)) + b  # in the stacks, ascending
        place = np.arange(block.size) - np.searchsorted(block, block)  # among the block's columns
        rows = np.zeros((len(v_a), width, place.max() + 2))  # a spare column keeps the stride
        rows[block, :, place] = v_a[block, :, c]
        gram = (rows[..., :-1].swapaxes(1, 2)[:, :, None] @ v_b[:, None])[block, place, 0]
        keys.append(((slot[picked] * offsets[-1])[:, None]
                     + members_b[block] + offsets[match[picked], None]).ravel())
        count = np.reshape(decs_a[0].blocks[e].count, -1)
        weights.append((count[b, None] * np.square(gram)).ravel())
    # the distinct (slot, partner) keys, ascending, and the sum of each in input order
    keys, weights = np.concatenate(keys), np.concatenate(weights)
    order = np.argsort(keys, kind="stable")
    fresh = np.diff(keys[order], prepend=-1) != 0
    ids = np.empty_like(order)
    ids[order] = np.cumsum(fresh) - 1
    slot, partner = np.divmod(keys[order][fresh], offsets[-1])
    mult_a = np.concatenate([dec.multiplicities[wanted] for dec, wanted in zip(decs_a, levels)])
    mult_b = np.concatenate([dec.multiplicities for dec in decs_b])
    overlaps = np.bincount(ids, weights) / np.maximum(mult_a[slot], mult_b[partner])
    # the first largest overlap in each slot's run
    runs = np.flatnonzero(np.diff(slot, prepend=-1))
    best = np.flatnonzero(overlaps == np.repeat(np.maximum.reduceat(overlaps, runs),
                                                np.diff(runs, append=slot.size)))
    best = best[np.diff(slot[best], prepend=-1) != 0]
    partner = partner[best] - offsets[np.repeat(np.arange(len(levels)), np.diff(firsts))]
    return list(zip(np.split(partner, firsts[1:-1]), np.split(overlaps[best], firsts[1:-1])))

